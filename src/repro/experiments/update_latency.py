"""Extension experiment — scheduling scalability of workload updates.

Sec. 3.2's third property: when a task joins or leaves a client, only
the server tasks on that client's memory-request path are refreshed.
This experiment quantifies it against the centralized alternative:

* **BlueScale path-local update** — SEs re-resolved and wall-clock time
  of :func:`repro.analysis.composition.update_client`;
* **full recomposition** — re-running :func:`compose` over the tree;
* **centralized (AXI-IC^RT-style)** — all clients' bandwidth budgets
  recomputed.

The structural quantities (SEs touched vs total, budgets recomputed)
are deterministic; wall-clock ratios are hardware-dependent but the
asymptotics (O(log n) vs O(n) work) show at every scale.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

from repro.analysis.cache import AnalysisCache
from repro.analysis.composition import compose
from repro.analysis.model import SystemModel
from repro.experiments.factory import BLUESCALE_SEARCH, axi_budgets
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.topology import quadtree


@dataclass(frozen=True)
class UpdateCost:
    """Update cost at one system size."""

    n_clients: int
    total_ses: int
    path_ses: int
    changed_ses: int
    centralized_budgets: int
    path_update_seconds: float
    full_recompose_seconds: float
    results_identical: bool

    @property
    def locality(self) -> float:
        """Fraction of the tree an update touches."""
        return self.path_ses / self.total_ses


def measure_update_cost(
    n_clients: int,
    utilization: float = 0.5,
    seed: int = 11,
    joining_client: int | None = None,
) -> UpdateCost:
    """Measure one task-join update at ``n_clients``."""
    rng = random.Random(f"update/{seed}")
    tasksets = generate_client_tasksets(rng, n_clients, 2, utilization)
    topology = quadtree(n_clients)
    # Compose once into a frozen model; the join then runs through the
    # per-request AdmissionSession exactly like the service's own path.
    model = SystemModel.build(
        topology,
        tasksets,
        config=BLUESCALE_SEARCH,
        label=f"update/{seed}",
    )
    baseline = model.baseline
    client = (
        joining_client if joining_client is not None else n_clients // 2
    )
    joined = PeriodicTask(period=700, wcet=4, name="joined", client_id=client)
    tasksets[client] = tasksets[client].merged_with(TaskSet([joined]))
    session = model.session()
    start = time.perf_counter()
    updated = session.probe(client, joined).composition
    path_seconds = time.perf_counter() - start
    # The recomposition gets a cold cache of its own: on the model's
    # cache, which the probe just filled, every selection would hit and
    # the "full" recompose would time a cache replay.
    start = time.perf_counter()
    full = compose(
        topology, tasksets, ctx=replace(model.context, cache=AnalysisCache())
    )
    full_seconds = time.perf_counter() - start
    path = topology.path_to_root(client)
    changed = sum(
        1
        for node in baseline.interfaces
        if baseline.interfaces[node] != updated.interfaces[node]
    )
    budgets = axi_budgets(n_clients, tasksets)
    return UpdateCost(
        n_clients=n_clients,
        total_ses=topology.n_nodes(),
        path_ses=len(path),
        changed_ses=changed,
        centralized_budgets=len(budgets),
        path_update_seconds=path_seconds,
        full_recompose_seconds=full_seconds,
        results_identical=updated.interfaces == full.interfaces,
    )


def run_update_latency(
    client_counts: tuple[int, ...] = (16, 64, 256),
    utilization: float = 0.4,
) -> list[UpdateCost]:
    """Sweep the system size."""
    return [
        measure_update_cost(n, utilization=utilization)
        for n in client_counts
    ]


def format_update_latency(costs: list[UpdateCost]) -> str:
    """Render the per-size update-cost comparison table."""
    from repro.experiments.reporting import format_table

    rows = [
        [
            cost.n_clients,
            f"{cost.path_ses}/{cost.total_ses}",
            cost.changed_ses,
            cost.centralized_budgets,
            f"{1000 * cost.path_update_seconds:.0f}",
            f"{1000 * cost.full_recompose_seconds:.0f}",
            "yes" if cost.results_identical else "NO",
        ]
        for cost in costs
    ]
    return format_table(
        [
            "clients",
            "SEs touched",
            "SEs changed",
            "central budgets",
            "path update (ms)",
            "recompose (ms)",
            "identical",
        ],
        rows,
        title="Task-join update cost (path-local vs full vs centralized)",
    )
