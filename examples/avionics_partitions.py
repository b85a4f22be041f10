"""IMA-style avionics partitions on BlueScale (library extension).

Maps four avionics partitions (flight-control, navigation,
surveillance, cabin) onto segregated clients of a BlueScale system,
composes the interfaces, derives per-function worst-case response
bounds, and verifies the most critical (DAL A) functions get the
tightest guarantees — all while the cabin entertainment stream hammers
the memory.

Run:  python examples/avionics_partitions.py
"""

from repro.analysis.response_time import holistic_response_bounds
from repro.clients import TrafficGenerator
from repro.core import BlueScaleInterconnect
from repro.soc import SoCSimulation
from repro.workloads.avionics import ALL_AVIONICS, assign_partitions

N_CLIENTS = 4
HORIZON = 30_000


def main() -> None:
    assignment = assign_partitions(N_CLIENTS)
    interconnect = BlueScaleInterconnect(N_CLIENTS)
    composition = interconnect.configure(assignment)
    print(f"composition schedulable: {composition.schedulable}")
    for client, taskset in assignment.items():
        leaf, port = interconnect.topology.leaf_of_client(client)
        interface = composition.interfaces[leaf][port]
        partition = taskset[0].name and next(
            p.partition for p in ALL_AVIONICS if p.name == taskset[0].name
        )
        print(
            f"  client {client} [{partition:<14}] interface "
            f"(Pi={interface.period}, Theta={interface.budget})  "
            f"bandwidth {interface.bandwidth_float:.3f}"
        )

    bounds = holistic_response_bounds(assignment, composition)
    profile_of = {p.name: p for p in ALL_AVIONICS}
    print(f"\n{'function':<20} {'DAL':<4} {'deadline':>8} {'WCRT bound':>10}")
    for client, taskset in sorted(assignment.items()):
        for task in taskset:
            profile = profile_of[task.name]
            print(
                f"{task.name:<20} {profile.dal:<4} {task.deadline:>8} "
                f"{bounds[client].bound_for(task.name):>10}"
            )

    clients = [TrafficGenerator(c, ts) for c, ts in assignment.items()]
    result = SoCSimulation(clients, interconnect).run(HORIZON, drain=8_000)
    print(
        f"\nsimulated {result.requests_completed} transactions over "
        f"{HORIZON} slots: miss ratio {result.deadline_miss_ratio:.4%}"
    )
    dal_a = [p.name for p in ALL_AVIONICS if p.dal == "A"]
    worst_a = 0
    for client in clients:
        for job in client.jobs:
            if job.task_name in dal_a and job.finished:
                worst_a = max(worst_a, job.last_completion - job.release)
    print(f"worst observed DAL-A response: {worst_a} slots")


if __name__ == "__main__":
    main()
