"""Extension experiment — per-client fairness of the interconnects.

Averages hide victims: an interconnect can post a decent mean while
starving one client (BlueTree's deepest-path clients are the classic
case).  This experiment measures, per design:

* **Jain's fairness index** over per-client mean response times
  (1.0 = perfectly even; 1/n = one client hogs everything);
* **worst/best client ratio** of mean response;
* **miss concentration** — the share of all deadline misses carried by
  the single worst client.
"""

from __future__ import annotations

import random
import statistics
from collections import defaultdict
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.factory import (
    INTERCONNECT_NAMES,
    build_interconnect,
    group_outcomes,
    traffic_generators,
)
from repro.runtime import MetricSet, TrialOutcome, TrialSpec
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets


def jain_index(values: list[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²); 1.0 is perfectly fair."""
    if not values:
        raise ConfigurationError("Jain's index of an empty sample")
    if all(v == 0 for v in values):
        return 1.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    return square_of_sum / (len(values) * sum_of_squares)


@dataclass(frozen=True)
class FairnessOutcome:
    """Fairness metrics of one interconnect."""

    interconnect: str
    jain_response: float
    worst_best_ratio: float
    miss_concentration: float


@dataclass(frozen=True)
class FairnessConfig:
    """Workload and scale of the fairness comparison."""

    n_clients: int = 16
    utilization: float = 0.8
    seeds: tuple[int, ...] = (1, 2, 3)
    horizon: int = 15_000


def build_fairness_specs(
    config: FairnessConfig = FairnessConfig(),
    interconnects: tuple[str, ...] = INTERCONNECT_NAMES,
) -> list[TrialSpec]:
    """One spec per (interconnect, seed), grouped by interconnect."""
    return [
        TrialSpec.make(
            "fairness",
            index,
            f"fairness/{seed}",
            interconnect=name,
            n_clients=config.n_clients,
            utilization=config.utilization,
            horizon=config.horizon,
        )
        for index, (name, seed) in enumerate(
            (name, seed) for name in interconnects for seed in config.seeds
        )
    ]


def run_fairness_trial(spec: TrialSpec) -> MetricSet:
    """One (interconnect, seed) simulation with per-client bookkeeping.

    ``valid`` is 0 when fewer than two clients completed jobs — the
    reducer drops such trials, matching the old inline skip.
    """
    n_clients = spec.param("n_clients")
    horizon = spec.param("horizon")
    rng = random.Random(spec.seed)
    tasksets = generate_client_tasksets(
        rng, n_clients, 3, spec.param("utilization")
    )
    interconnect = build_interconnect(
        spec.param("interconnect"), n_clients, tasksets
    )
    clients = traffic_generators(spec, tasksets)
    SoCSimulation(clients, interconnect).run(horizon, drain=6_000)
    responses: dict[int, list[int]] = defaultdict(list)
    misses: dict[int, int] = defaultdict(int)
    total_misses = 0
    for client in clients:
        for job in client.jobs:
            if job.finished and job.dropped == 0:
                responses[client.client_id].append(
                    job.last_completion - job.release
                )
            if job.deadline <= horizon and not job.met_deadline:
                misses[client.client_id] += 1
                total_misses += 1
    means = [
        statistics.fmean(values) for values in responses.values() if values
    ]
    tags = {
        "experiment": "fairness",
        "interconnect": spec.param("interconnect"),
    }
    if len(means) < 2:
        return MetricSet(
            scalars={"valid": 0.0, "jain": 0.0, "ratio": 0.0, "concentration": 0.0},
            tags=tags,
        )
    return MetricSet(
        scalars={
            "valid": 1.0,
            "jain": jain_index(means),
            "ratio": max(means) / min(means),
            "concentration": (
                max(misses.values()) / total_misses if total_misses else 0.0
            ),
        },
        tags=tags,
    )


def reduce_fairness(
    config: FairnessConfig,
    interconnects: tuple[str, ...],
    outcomes: list[TrialOutcome],
) -> list[FairnessOutcome]:
    """Average valid trials into one outcome per design."""
    valid = [outcome for outcome in outcomes if outcome.metrics["valid"]]
    return [
        FairnessOutcome(
            interconnect=name,
            jain_response=statistics.fmean(o.metrics["jain"] for o in batch),
            worst_best_ratio=statistics.fmean(
                o.metrics["ratio"] for o in batch
            ),
            miss_concentration=statistics.fmean(
                o.metrics["concentration"] for o in batch
            ),
        )
        for (name,), batch in group_outcomes(valid, "interconnect").items()
    ]


def format_fairness(outcomes: list[FairnessOutcome]) -> str:
    """Render the fairness comparison table."""
    from repro.experiments.reporting import format_table

    rows = [
        [
            o.interconnect,
            f"{o.jain_response:.3f}",
            f"{o.worst_best_ratio:.1f}x",
            f"{100 * o.miss_concentration:.0f}%",
        ]
        for o in outcomes
    ]
    return format_table(
        ["interconnect", "Jain index (response)", "worst/best client",
         "miss share of worst client"],
        rows,
        title="Per-client fairness (higher Jain = fairer)",
    )
