"""Extension experiment — interconnect-level scalability sweep.

Fig. 6 compares designs at two sizes (16 and 64 clients).  This sweep
fills in the curve: the same fixed per-system utilization simulated
from 4 to 256 clients, reporting each design's deadline-miss ratio and
mean response as the tree deepens.  It also records the analysis-side
*admission ceiling* (breakdown utilization) per size, showing the
composition-overhead trend the docs discuss.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from repro.analysis.model import SystemModel
from repro.errors import ConfigurationError
from repro.experiments.factory import (
    BLUESCALE_SEARCH,
    build_interconnect,
    group_outcomes,
    simulate_specs,
    traffic_generators,
)
from repro.runtime import MetricSet, TrialOutcome, TrialSpec
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.topology import quadtree


@dataclass(frozen=True)
class SweepPoint:
    """Measurements at one system size for one interconnect."""

    n_clients: int
    interconnect: str
    miss_ratio: float
    mean_response: float


@dataclass
class ScalabilityResult:
    utilization: float
    points: list[SweepPoint] = field(default_factory=list)
    #: analysis admission ceiling per size (BlueScale composition)
    admission_ceiling: dict[int, float] = field(default_factory=dict)

    def series(self, metric: str) -> dict[str, list[float]]:
        names = sorted({p.interconnect for p in self.points})
        sizes = sorted({p.n_clients for p in self.points})
        result: dict[str, list[float]] = {name: [] for name in names}
        for name in names:
            for size in sizes:
                point = next(
                    p
                    for p in self.points
                    if p.interconnect == name and p.n_clients == size
                )
                result[name].append(getattr(point, metric))
        return result

    def sizes(self) -> list[int]:
        return sorted({p.n_clients for p in self.points})


#: designs compared by default
SWEEP_INTERCONNECTS = ("BlueScale", "BlueTree", "AXI-IC^RT")


@dataclass(frozen=True)
class ScalabilityConfig:
    """System sizes, workload and analysis side of the sweep."""

    client_counts: tuple[int, ...] = (4, 16, 64, 256)
    utilization: float = 0.45
    seeds: tuple[int, ...] = (1, 2)
    #: also search BlueScale's admission ceiling at every size
    with_admission_ceiling: bool = True

    def __post_init__(self) -> None:
        if not self.client_counts:
            raise ConfigurationError("need at least one system size")
        if not self.seeds:
            raise ConfigurationError("need at least one seed")


def build_scalability_specs(
    config: ScalabilityConfig = ScalabilityConfig(),
    interconnects: tuple[str, ...] = SWEEP_INTERCONNECTS,
) -> list[TrialSpec]:
    """One spec per (system size, interconnect, seed)."""
    specs: list[TrialSpec] = []
    for n_clients in config.client_counts:
        # keep total simulated work comparable across sizes
        horizon = max(4_000, 64_000 // n_clients)
        for name in interconnects:
            for seed in config.seeds:
                specs.append(
                    TrialSpec.make(
                        "scalability",
                        len(specs),
                        f"sweep/{seed}/{n_clients}",
                        n_clients=n_clients,
                        interconnect=name,
                        utilization=config.utilization,
                        horizon=horizon,
                    )
                )
    return specs


def _scalability_build(spec: TrialSpec):
    """Build one (size, interconnect, seed) simulation."""
    n_clients = spec.param("n_clients")
    rng = random.Random(spec.seed)
    tasksets = generate_client_tasksets(
        rng, n_clients, 2, spec.param("utilization")
    )
    interconnect = build_interconnect(
        spec.param("interconnect"), n_clients, tasksets
    )
    clients = traffic_generators(spec, tasksets)
    sims = [SoCSimulation(clients, interconnect)]
    return None, sims, spec.param("horizon"), 4_000


def _scalability_fold(spec: TrialSpec, state, results) -> MetricSet:
    (trial,) = results
    return MetricSet(
        scalars={
            "miss": trial.deadline_miss_ratio,
            "response": trial.response_summary().mean,
        },
        tags={
            "experiment": "scalability",
            "n_clients": str(spec.param("n_clients")),
            "interconnect": spec.param("interconnect"),
        },
    )


def run_scalability_trial(spec: TrialSpec) -> MetricSet:
    """One (size, interconnect, seed) simulation, scalar engine."""
    return simulate_specs(
        [spec], _scalability_build, _scalability_fold, "scalar"
    )[0]


def run_scalability_batch(specs) -> list[MetricSet]:
    """Batch entry point: same-shaped (size, design) trials advance in
    lock-step on the chunk's ``spec.sim_backend``; results are
    bit-identical to :func:`run_scalability_trial`."""
    return simulate_specs(specs, _scalability_build, _scalability_fold)


run_scalability_trial.batch = run_scalability_batch


def reduce_scalability(
    config: ScalabilityConfig,
    interconnects: tuple[str, ...],
    outcomes: list[TrialOutcome],
) -> ScalabilityResult:
    """Average per-seed metrics into one point per (size, design), then
    search the admission ceilings (exact rational arithmetic, fast)
    with the simulated BlueScale's search width
    (:data:`~repro.experiments.factory.BLUESCALE_SEARCH`)."""
    result = ScalabilityResult(utilization=config.utilization)
    grouped = group_outcomes(outcomes, "n_clients", "interconnect")
    for (n_clients, name), batch in grouped.items():
        result.points.append(
            SweepPoint(
                n_clients=n_clients,
                interconnect=name,
                miss_ratio=statistics.fmean(o.metrics["miss"] for o in batch),
                mean_response=statistics.fmean(
                    o.metrics["response"] for o in batch
                ),
            )
        )
    if config.with_admission_ceiling:
        for n_clients in config.client_counts:
            rng = random.Random(f"sweep/ceiling/{n_clients}")
            tasksets = generate_client_tasksets(rng, n_clients, 2, 0.2)
            try:
                model = SystemModel.build(
                    quadtree(n_clients),
                    tasksets,
                    config=BLUESCALE_SEARCH,
                )
                result.admission_ceiling[n_clients] = (
                    model.session().breakdown(precision=0.1).utilization
                )
            except ConfigurationError:
                result.admission_ceiling[n_clients] = 0.0
    return result


def format_scalability(result: ScalabilityResult) -> str:
    """Render the sweep's miss/response series and admission ceilings."""
    from repro.experiments.reporting import format_series, format_table

    sizes = result.sizes()
    parts = [
        format_series(
            "clients",
            sizes,
            result.series("miss_ratio"),
            title=(
                f"Scalability sweep — miss ratio at utilization "
                f"{result.utilization:.0%}"
            ),
        ),
        format_series(
            "clients",
            sizes,
            result.series("mean_response"),
            title="Scalability sweep — mean response (slots)",
        ),
    ]
    if result.admission_ceiling:
        parts.append(
            format_table(
                ["clients", "admission ceiling (U)"],
                [
                    [n, f"{u:.2f}"]
                    for n, u in sorted(result.admission_ceiling.items())
                ],
                title="BlueScale composition admission ceiling vs size",
            )
        )
    return "\n\n".join(parts)
