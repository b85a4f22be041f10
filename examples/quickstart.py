"""Quickstart: build a 16-client BlueScale system and simulate it.

This walks the full pipeline of the library in ~50 lines:

1. generate a synthetic periodic workload for 16 clients;
2. run the interface-selection composition (paper Sec. 5) to get every
   Scale Element's server-task parameters;
3. wire clients -> BlueScale quadtree -> memory controller;
4. simulate and report latency / deadline statistics.

Run:  python examples/quickstart.py
"""

import random

from repro.analysis import compose
from repro.clients import TrafficGenerator
from repro.core import BlueScaleInterconnect
from repro.soc import SoCSimulation
from repro.tasks import generate_client_tasksets
from repro.topology import quadtree


def main() -> None:
    n_clients = 16
    rng = random.Random(2022)

    # 1. A workload: three transaction tasks per client, ~80% system load.
    tasksets = generate_client_tasksets(
        rng, n_clients, tasks_per_client=3, system_utilization=0.80
    )
    total = sum(ts.utilization_float for ts in tasksets.values())
    print(f"workload: {n_clients} clients, total utilization {total:.2f}")

    # 2. Interface selection, level by level (leaf SEs up to the root).
    topology = quadtree(n_clients)
    composition = compose(topology, tasksets)
    print(
        f"composition: schedulable={composition.schedulable}, "
        f"root bandwidth {float(composition.root_bandwidth):.3f}"
    )
    root_interfaces = composition.interfaces[(0, 0)]
    for port, interface in enumerate(root_interfaces):
        print(
            f"  root SE port {port}: (Pi={interface.period}, "
            f"Theta={interface.budget})  bandwidth={interface.bandwidth_float:.3f}"
        )

    # 3. Build the hardware: quadtree of Scale Elements + unit-service
    #    memory controller (wired by SoCSimulation).
    interconnect = BlueScaleInterconnect(n_clients)
    interconnect.apply_composition(composition)
    clients = [
        TrafficGenerator(client_id, taskset)
        for client_id, taskset in tasksets.items()
    ]

    # 4. Simulate 50k transaction slots (+ drain) and report.
    simulation = SoCSimulation(clients, interconnect)
    result = simulation.run(horizon=50_000)
    response = result.response_summary()
    print(
        f"simulated: {result.requests_completed} transactions, "
        f"deadline miss ratio {result.deadline_miss_ratio:.4%}"
    )
    print(
        f"response time: mean {response.mean:.1f}, p99 {response.p99:.0f}, "
        f"max {response.maximum:.0f} slots"
    )
    print(f"mean blocking latency: {result.mean_blocking:.2f} slots")


if __name__ == "__main__":
    main()
