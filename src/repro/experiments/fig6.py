"""Experiment F6 — Fig. 6: interconnect-level real-time performance.

Reproduces Sec. 6.3: 16/64 traffic generators replay synthetic periodic
workloads (interconnect utilization drawn from 70–90% per trial,
request priorities assigned by GEDF), against all six interconnects.
Two metrics per design, each with its cross-trial variance:

* **blocking latency** — time a request spends blocked by
  lower-priority requests (reported in time units = transaction slots);
* **deadline miss ratio** — fraction of requests not completed by
  their deadline.

Structured as a runtime triple: :func:`build_fig6_specs` describes the
trials, :func:`run_fig6_trial` executes one (pure function of its
spec), and :func:`reduce_fig6` folds the per-trial metrics back into a
:class:`Fig6Result`; :func:`repro.experiments.registry.run_experiment`
wires the three through any :class:`repro.runtime.Executor`.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from repro.errors import ConfigurationError
from repro.experiments.factory import (
    INTERCONNECT_NAMES,
    build_interconnect,
    draw_tasksets,
    simulate_specs,
    traffic_generators,
)
from repro.experiments.reporting import format_table
from repro.observability import ObservabilityConfig
from repro.runtime import MetricSet, TrialOutcome, TrialSpec, derive_seeds
from repro.soc import SoCSimulation


@dataclass(frozen=True)
class Fig6Config:
    """Scale of the Fig. 6 experiment.

    The paper uses 200 trials of 300-second executions on hardware; the
    default here is sized for a laptop-scale run — raise ``trials`` and
    ``horizon`` toward the paper's scale when time permits (results are
    stable well before that).
    """

    n_clients: int = 16
    trials: int = 20
    horizon: int = 20_000
    drain: int = 5_000
    utilization_low: float = 0.70
    utilization_high: float = 0.90
    seed: int = 2022
    #: opt-in request tracing (repro.observability): per-trial span
    #: rings plus ``{name}/obs/…`` metric scalars; measured results are
    #: identical with it on or off (tracing is observation-only).  An
    #: :class:`ObservabilityConfig` sizes the ring and the sampling.
    observability: bool | ObservabilityConfig = False
    tasks_per_client: ClassVar[int] = 3
    period_min: ClassVar[int] = 100
    period_max: ClassVar[int] = 4_000

    @classmethod
    def paper_scale(cls, n_clients: int = 16) -> "Fig6Config":
        """The paper's scale: 200 trials of 300 s executions.

        At 1 µs per transaction slot a 300 s execution is 3·10⁸ slots;
        that is CI-hostile in pure Python, so this preset keeps the 200
        trials and uses a 200k-slot horizon — two orders of magnitude
        beyond the point where the reported means stabilize.  Expect
        hours of runtime.
        """
        return cls(n_clients=n_clients, trials=200, horizon=200_000, drain=20_000)

    def __post_init__(self) -> None:
        if not 0 < self.utilization_low <= self.utilization_high:
            raise ConfigurationError("invalid utilization range")
        if self.trials < 1 or self.horizon < 1:
            raise ConfigurationError("trials and horizon must be positive")


@dataclass
class InterconnectMetrics:
    """Per-design Fig. 6 measurements across trials."""

    name: str
    blocking_means: list[float] = field(default_factory=list)
    miss_ratios: list[float] = field(default_factory=list)

    @property
    def mean_blocking(self) -> float:
        return statistics.fmean(self.blocking_means) if self.blocking_means else 0.0

    @property
    def blocking_std(self) -> float:
        if len(self.blocking_means) < 2:
            return 0.0
        return statistics.pstdev(self.blocking_means)

    @property
    def mean_miss_ratio(self) -> float:
        return statistics.fmean(self.miss_ratios) if self.miss_ratios else 0.0

    @property
    def miss_ratio_std(self) -> float:
        if len(self.miss_ratios) < 2:
            return 0.0
        return statistics.pstdev(self.miss_ratios)


@dataclass
class Fig6Result:
    config: Fig6Config
    metrics: dict[str, InterconnectMetrics]

    def best_blocking(self) -> str:
        """Design with the shortest mean blocking latency."""
        return min(self.metrics.values(), key=lambda m: m.mean_blocking).name

    def best_miss_ratio(self) -> str:
        return min(self.metrics.values(), key=lambda m: m.mean_miss_ratio).name

    def metric_set(self) -> MetricSet:
        """Aggregate metrics in the shared campaign schema."""
        scalars: dict[str, float] = {}
        for name, m in self.metrics.items():
            scalars[f"{name}/miss"] = m.mean_miss_ratio
            scalars[f"{name}/blocking"] = m.mean_blocking
        return MetricSet(
            scalars=scalars,
            tags={
                "experiment": "fig6",
                "n_clients": str(self.config.n_clients),
            },
        )


def build_fig6_specs(
    config: Fig6Config = Fig6Config(),
    interconnects: tuple[str, ...] = INTERCONNECT_NAMES,
) -> list[TrialSpec]:
    """One spec per trial; each trial covers every interconnect.

    Per-trial seeds are drawn from a ``random.Random`` stream keyed by
    the config, so the batch is deterministic for a given seed and the
    seed list for N trials is a prefix of the list for M > N trials.
    """
    seeds = derive_seeds(
        f"fig6/{config.seed}/{config.n_clients}", config.trials
    )
    return [
        TrialSpec.make(
            "fig6",
            trial,
            seed,
            config=config,
            interconnects=tuple(interconnects),
        )
        for trial, seed in enumerate(seeds)
    ]


def fig6_build(spec: TrialSpec):
    """Build every design's simulation for one workload draw.

    The taskset draw comes from the trial RNG, and each client's
    private stream is re-derived identically for every interconnect so
    all designs see the same workload.  Returns :func:`simulate_specs`'
    ``(state, sims, horizon, drain)``; the state is the ``(name,
    simulation)`` pairs.  ``repro trace`` replays a trial through this
    same function (:mod:`repro.experiments.trace_replay`).
    """
    config: Fig6Config = spec.param("config")
    interconnects: tuple[str, ...] = spec.param("interconnects")
    tasksets = draw_tasksets(random.Random(spec.seed), config)
    pairs: list[tuple[str, SoCSimulation]] = []
    for name in interconnects:
        interconnect = build_interconnect(name, config.n_clients, tasksets)
        clients = traffic_generators(spec, tasksets)
        pairs.append(
            (
                name,
                SoCSimulation(
                    clients, interconnect, observability=config.observability
                ),
            )
        )
    sims = [simulation for _, simulation in pairs]
    return pairs, sims, config.horizon, config.drain


def _fig6_fold(spec: TrialSpec, pairs, results) -> MetricSet:
    """Fold one trial's per-design results into its metric set."""
    scalars: dict[str, float] = {}
    tags = {"experiment": "fig6", "trial": str(spec.index)}
    for (name, simulation), result in zip(pairs, results):
        scalars[f"{name}/blocking"] = result.mean_blocking
        scalars[f"{name}/miss"] = result.deadline_miss_ratio
        # The completion-trace digest certifies bit-for-bit equality of
        # runs (golden-trace regression; fast- vs slow-path checks).
        tags[f"{name}/trace"] = result.trace_digest
        if simulation.tracer is not None:
            # Fold the trial's observability registry into the metric
            # set as plain floats: reducers only read the keys they
            # know, so the extra scalars ride through any executor.
            scalars.update(
                simulation.tracer.summary_scalars(prefix=f"{name}/obs/")
            )
    return MetricSet(scalars=scalars, tags=tags)


def run_fig6_trial(spec: TrialSpec) -> MetricSet:
    """Simulate one workload draw against every interconnect.

    Pure function of the spec (see :func:`fig6_build`); runs each
    design on the scalar engine one at a time.
    """
    return simulate_specs([spec], fig6_build, _fig6_fold, "scalar")[0]


def run_fig6_batch(specs: Sequence[TrialSpec]) -> list[MetricSet]:
    """Batch entry point: many trials' simulations in one lock-step run.

    Every (trial, design) simulation of the chunk goes through one
    :func:`repro.sim.batched.run_many` call on the chunk's
    ``spec.sim_backend`` (see :func:`simulate_specs`).  The
    folded metric sets are bit-identical to :func:`run_fig6_trial`'s.
    """
    return simulate_specs(specs, fig6_build, _fig6_fold)


run_fig6_trial.batch = run_fig6_batch


def reduce_fig6(
    config: Fig6Config,
    interconnects: tuple[str, ...],
    outcomes: list[TrialOutcome],
) -> Fig6Result:
    """Fold per-trial metric sets into the per-design distributions."""
    metrics = {name: InterconnectMetrics(name) for name in interconnects}
    for outcome in outcomes:
        for name in interconnects:
            metrics[name].blocking_means.append(
                outcome.metrics[f"{name}/blocking"]
            )
            metrics[name].miss_ratios.append(outcome.metrics[f"{name}/miss"])
    return Fig6Result(config=config, metrics=metrics)


def format_fig6(result: Fig6Result) -> str:
    """Render the Fig. 6 bars: blocking latency and miss ratio ± std."""
    rows = []
    for name in result.metrics:
        m = result.metrics[name]
        rows.append(
            [
                name,
                f"{m.mean_blocking:.2f} ± {m.blocking_std:.2f}",
                f"{100 * m.mean_miss_ratio:.2f} ± {100 * m.miss_ratio_std:.2f}",
            ]
        )
    return format_table(
        ["Interconnect", "Blocking latency (slots)", "Deadline miss ratio (%)"],
        rows,
        title=(
            f"Fig 6 — {result.config.n_clients} traffic generators, "
            f"{result.config.trials} trials, utilization "
            f"{result.config.utilization_low:.0%}-{result.config.utilization_high:.0%}"
        ),
    )
