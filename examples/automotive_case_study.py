"""Automotive case study (paper Sec. 6.4) at one utilization point.

Builds the paper's system-level scenario — 16 processors running the
ten safety + ten function automotive tasks, one DNN accelerator, and
interference tasks raising the system to 70% utilization — then runs
it on BlueScale *and* on BlueTree, and prints a per-task comparison of
worst-case response behaviour and deadline misses.

Run:  python examples/automotive_case_study.py
"""

import random
from collections import defaultdict

from repro.clients import AcceleratorClient, ProcessorClient
from repro.experiments.factory import build_interconnect
from repro.soc import SoCSimulation
from repro.tasks import TaskSet
from repro.workloads import (
    assign_case_study,
    build_interference,
    dnn_interference_taskset,
)

N_PROCESSORS = 16
TARGET_UTILIZATION = 0.70
HORIZON = 30_000


def build_system(interconnect_name: str, rng: random.Random):
    application = assign_case_study(N_PROCESSORS)
    accelerator_id = N_PROCESSORS
    accelerator_tasks = dnn_interference_taskset(client_id=accelerator_id)
    utilizations = {c: ts.utilization_float for c, ts in application.items()}
    utilizations[accelerator_id] = accelerator_tasks.utilization_float
    interference = build_interference(rng, utilizations, TARGET_UTILIZATION)

    combined = {
        c: application[c].merged_with(interference.get(c, TaskSet()))
        for c in application
    }
    combined[accelerator_id] = accelerator_tasks.merged_with(
        interference.get(accelerator_id, TaskSet())
    )
    n_clients = N_PROCESSORS + 1
    interconnect = build_interconnect(interconnect_name, n_clients, combined)
    clients = [
        ProcessorClient(
            c,
            application[c],
            interference.get(c, TaskSet()),
            rng=random.Random(c),
        )
        for c in application
    ]
    clients.append(
        AcceleratorClient(
            accelerator_id,
            combined[accelerator_id],
            bandwidth_cap=1.0 / n_clients,
            rng=random.Random(accelerator_id),
        )
    )
    return clients, interconnect


def run(interconnect_name: str) -> None:
    rng = random.Random("case-study")
    clients, interconnect = build_system(interconnect_name, rng)
    simulation = SoCSimulation(clients, interconnect)
    result = simulation.run(HORIZON, drain=8_000)

    # Per-task lateness statistics from the job records.
    worst_lateness: dict[str, int] = defaultdict(lambda: -(10**9))
    misses: dict[str, int] = defaultdict(int)
    jobs: dict[str, int] = defaultdict(int)
    for client in clients[:-1]:  # processors only (the HA is load)
        for job in client.jobs:
            if not job.monitored or job.deadline > HORIZON:
                continue
            jobs[job.task_name] += 1
            if job.finished and job.dropped == 0:
                lateness = job.last_completion - job.deadline
            else:
                lateness = 10**9  # never finished
            worst_lateness[job.task_name] = max(
                worst_lateness[job.task_name], lateness
            )
            if not job.met_deadline:
                misses[job.task_name] += 1

    print(f"=== {interconnect_name} ===")
    print(
        f"requests completed: {result.requests_completed}, "
        f"overall miss ratio {result.deadline_miss_ratio:.4%}"
    )
    print(f"{'task':<18} {'jobs':>5} {'misses':>7} {'worst lateness':>15}")
    for task in sorted(jobs):
        lateness = worst_lateness[task]
        shown = "unfinished" if lateness >= 10**8 else str(lateness)
        print(f"{task:<18} {jobs[task]:>5} {misses[task]:>7} {shown:>15}")
    total_misses = sum(misses.values())
    verdict = "SUCCESS" if total_misses == 0 else f"{total_misses} job misses"
    print(f"trial outcome: {verdict}\n")


def main() -> None:
    for name in ("BlueScale", "BlueTree"):
        run(name)


if __name__ == "__main__":
    main()
