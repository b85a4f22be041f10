"""Experiment F7 — Fig. 7: system-level automotive case study.

Reproduces Sec. 6.4: 16/64 processors plus a DNN hardware accelerator
run the ten safety + ten function automotive tasks; interference tasks
raise the system to a swept *target utilization* (x-axis).  For each
(interconnect, utilization) point the experiment runs several trials
and reports the **success ratio**: the fraction of trials in which no
safety or function task missed any deadline.

Structured as a runtime triple: :func:`build_fig7_specs` emits one
spec per (utilization, trial) pair, :func:`run_fig7_trial` simulates
one pair against every interconnect, and :func:`reduce_fig7` folds the
per-trial successes into the per-utilization ratios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.context import AnalysisContext
from repro.clients.accelerator import AcceleratorClient
from repro.clients.processor import ProcessorClient
from repro.errors import ConfigurationError
from repro.experiments.factory import (
    BLUESCALE_SEARCH,
    INTERCONNECT_NAMES,
    build_interconnect,
    group_outcomes,
    simulate_specs,
)
from repro.experiments.reporting import format_series
from repro.observability import ObservabilityConfig
from repro.runtime import MetricSet, TrialOutcome, TrialSpec, derive_seeds
from repro.soc import SoCSimulation
from repro.tasks.taskset import TaskSet
from repro.workloads.automotive import assign_case_study
from repro.workloads.interference import build_interference, dnn_interference_taskset


@dataclass(frozen=True)
class Fig7Config:
    """Scale of the case-study sweep.

    ``n_processors`` counts processor clients; one additional client is
    the DNN accelerator (the paper activates one HA per experimental
    group), so the interconnect serves ``n_processors + 1`` clients...
    rounded into the tree's port capacity.
    """

    n_processors: int = 16
    trials: int = 10
    horizon: int = 20_000
    drain: int = 6_000
    utilizations: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    seed: int = 59  # DAC'22 is the 59th DAC
    #: opt-in request tracing (repro.observability); observation-only,
    #: so measured results are identical with it on or off.  An
    #: :class:`ObservabilityConfig` sizes the ring and the sampling.
    observability: bool | ObservabilityConfig = False
    #: also run the compositional analysis per trial, emitting whether
    #: the drawn workload is *analytically* schedulable on BlueScale
    #: (``analysis/schedulable``) next to the simulated success
    analysis: bool = False

    @classmethod
    def paper_scale(cls, n_processors: int = 16) -> "Fig7Config":
        """The paper's scale: 200 trials per utilization point, 13
        utilization levels (10%–90% at 5% steps); horizon reduced from
        the paper's 300 s per the same argument as Fig6Config.paper_scale.
        Expect a day-scale runtime at 64 processors."""
        return cls(
            n_processors=n_processors,
            trials=200,
            horizon=200_000,
            drain=20_000,
            utilizations=tuple(round(0.10 + 0.05 * i, 2) for i in range(17)),
        )

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ConfigurationError("need at least one processor")
        if any(not 0 < u <= 1 for u in self.utilizations):
            raise ConfigurationError("target utilizations must be in (0, 1]")

    @property
    def n_clients(self) -> int:
        """Interconnect size: processors plus the accelerator."""
        return self.n_processors + 1


@dataclass
class Fig7Result:
    config: Fig7Config
    #: success ratio per interconnect per utilization point
    success_ratio: dict[str, list[float]] = field(default_factory=dict)
    #: fraction of trials analytically schedulable (BlueScale
    #: composition) per utilization point; empty unless
    #: ``config.analysis`` was on
    analysis_ratio: list[float] = field(default_factory=list)

    def dominated_by_bluescale(self, other: str) -> bool:
        """True when BlueScale's curve is >= ``other``'s at every point."""
        blue = self.success_ratio["BlueScale"]
        return all(b >= o for b, o in zip(blue, self.success_ratio[other]))

    def metric_set(self) -> MetricSet:
        """Aggregate metrics: mean success ratio over the sweep, plus
        the ratio at the highest utilization point (the stress case)."""
        scalars: dict[str, float] = {}
        for name, series in self.success_ratio.items():
            if series:
                scalars[f"{name}/success_mean"] = sum(series) / len(series)
                scalars[f"{name}/success_at_max_u"] = series[-1]
        if self.analysis_ratio:
            scalars["analysis/schedulable_mean"] = sum(
                self.analysis_ratio
            ) / len(self.analysis_ratio)
        return MetricSet(
            scalars=scalars,
            tags={
                "experiment": "fig7",
                "n_processors": str(self.config.n_processors),
            },
        )


def _build_trial_tasksets(
    config: Fig7Config, utilization: float, rng: random.Random
) -> tuple[dict[int, TaskSet], dict[int, TaskSet], TaskSet]:
    """(application, interference, accelerator) task sets for one trial."""
    application = assign_case_study(config.n_processors)
    accelerator_id = config.n_processors
    accelerator_tasks = dnn_interference_taskset(client_id=accelerator_id)
    app_utils = {
        client: taskset.utilization_float
        for client, taskset in application.items()
    }
    app_utils[accelerator_id] = accelerator_tasks.utilization_float
    interference = build_interference(rng, app_utils, utilization)
    return application, interference, accelerator_tasks


def build_fig7_specs(
    config: Fig7Config = Fig7Config(),
    interconnects: tuple[str, ...] = INTERCONNECT_NAMES,
) -> list[TrialSpec]:
    """One spec per (utilization point, trial); specs stay grouped by
    utilization in sweep order so the reducer can rebuild the curves."""
    specs: list[TrialSpec] = []
    for utilization in config.utilizations:
        seeds = derive_seeds(
            f"fig7/{config.seed}/{config.n_processors}/{utilization}",
            config.trials,
        )
        for trial, seed in enumerate(seeds):
            specs.append(
                TrialSpec.make(
                    "fig7",
                    len(specs),
                    seed,
                    config=config,
                    interconnects=tuple(interconnects),
                    utilization=utilization,
                    trial=trial,
                )
            )
    return specs


def fig7_build(spec: TrialSpec):
    """Build every design's simulation for one (utilization, trial).

    Returns :func:`simulate_specs`' ``(state, sims, horizon, drain)``;
    the state is the ``(name, simulation)`` pairs plus the trial's
    simulation-independent base scalars (the optional compositional-
    analysis verdict).  ``repro trace`` replays a trial through this
    same function (:mod:`repro.experiments.trace_replay`).
    """
    config: Fig7Config = spec.param("config")
    interconnects: tuple[str, ...] = spec.param("interconnects")
    utilization: float = spec.param("utilization")
    accelerator_id = config.n_processors
    rng = random.Random(spec.seed)
    application, interference, accelerator_tasks = _build_trial_tasksets(
        config, utilization, rng
    )
    combined: dict[int, TaskSet] = {
        client: application[client].merged_with(
            interference.get(client, TaskSet())
        )
        for client in application
    }
    combined[accelerator_id] = accelerator_tasks.merged_with(
        interference.get(accelerator_id, TaskSet())
    )
    ctx = AnalysisContext()
    scalars: dict[str, float] = {}
    if config.analysis:
        from repro.analysis.model import SystemModel
        from repro.topology import quadtree

        # the simulated BlueScale's search, on the trial's cache
        model = SystemModel.build(
            quadtree(config.n_clients),
            combined,
            config=BLUESCALE_SEARCH,
            cache=ctx.cache,
        )
        scalars["analysis/schedulable"] = 1.0 if model.schedulable else 0.0
        scalars["analysis/root_bandwidth"] = float(
            model.baseline.root_bandwidth
        )
    pairs: list[tuple[str, SoCSimulation]] = []
    for name in interconnects:
        interconnect = build_interconnect(
            name, config.n_clients, combined, ctx=ctx
        )
        clients: list = [
            ProcessorClient(
                client,
                application[client],
                interference.get(client, TaskSet()),
                rng=random.Random(spec.client_seed(client)),
            )
            for client in application
        ]
        # Paper setup: the HA is throttled to 1/#clients of the
        # memory bandwidth since not all baselines support
        # reservations.  Its streams are not monitored tasks.
        clients.append(
            AcceleratorClient(
                accelerator_id,
                accelerator_tasks.merged_with(
                    interference.get(accelerator_id, TaskSet())
                ),
                bandwidth_cap=1.0 / config.n_clients,
                rng=random.Random(spec.client_seed(accelerator_id)),
            )
        )
        pairs.append(
            (
                name,
                SoCSimulation(
                    clients, interconnect, observability=config.observability
                ),
            )
        )
    sims = [simulation for _, simulation in pairs]
    return (pairs, scalars), sims, config.horizon, config.drain


def _fig7_fold(spec: TrialSpec, state, results) -> MetricSet:
    """Fold one trial's per-design results into its metric set."""
    pairs, base_scalars = state
    config: Fig7Config = spec.param("config")
    accelerator_id = config.n_processors
    scalars = dict(base_scalars)
    tags = {
        "experiment": "fig7",
        "utilization": str(spec.param("utilization")),
        "trial": str(spec.param("trial")),
    }
    for (name, simulation), trial_result in zip(pairs, results):
        # Only processor clients carry monitored tasks; the HA is
        # load.  ProcessorClient marks interference unmonitored.
        monitored_missed = sum(
            missed
            for client_id, (_, missed) in trial_result.job_outcomes.items()
            if client_id != accelerator_id
        )
        scalars[f"{name}/success"] = 1.0 if monitored_missed == 0 else 0.0
        tags[f"{name}/trace"] = trial_result.trace_digest
        if simulation.tracer is not None:
            # Extra scalars are ignored by reduce_fig7 (it only reads
            # the keys it knows) but surface in saved campaign JSON.
            scalars.update(
                simulation.tracer.summary_scalars(prefix=f"{name}/obs/")
            )
    return MetricSet(scalars=scalars, tags=tags)


def run_fig7_trial(spec: TrialSpec) -> MetricSet:
    """One workload draw at one utilization, against every design.

    Emits ``{name}/success`` ∈ {0, 1} per interconnect: 1 when no
    monitored (safety/function) job missed a deadline.  Runs each
    design on the scalar engine one at a time.
    """
    return simulate_specs([spec], fig7_build, _fig7_fold, "scalar")[0]


def run_fig7_batch(specs: Sequence[TrialSpec]) -> list[MetricSet]:
    """Batch entry point: many trials' simulations in one lock-step run.

    Same contract as :func:`repro.experiments.fig6.run_fig6_batch`: the
    folded metric sets are bit-identical to :func:`run_fig7_trial`'s.
    """
    return simulate_specs(specs, fig7_build, _fig7_fold)


run_fig7_trial.batch = run_fig7_batch


def reduce_fig7(
    config: Fig7Config,
    interconnects: tuple[str, ...],
    outcomes: list[TrialOutcome],
) -> Fig7Result:
    """Fold per-trial successes into per-utilization success ratios."""
    result = Fig7Result(
        config=config,
        success_ratio={name: [] for name in interconnects},
    )
    by_utilization = group_outcomes(outcomes, "utilization")
    for utilization in config.utilizations:
        batch = by_utilization[(utilization,)]
        for name in interconnects:
            successes = sum(o.metrics[f"{name}/success"] for o in batch)
            result.success_ratio[name].append(successes / config.trials)
        if config.analysis:
            schedulable = sum(o.metrics["analysis/schedulable"] for o in batch)
            result.analysis_ratio.append(schedulable / config.trials)
    return result


def format_fig7(result: Fig7Result) -> str:
    """Render the Fig. 7 success-ratio curves as a series table."""
    series = dict(result.success_ratio)
    if result.analysis_ratio:
        series["analysis (BlueScale)"] = result.analysis_ratio
    return format_series(
        "target U",
        [f"{u:.2f}" for u in result.config.utilizations],
        series,
        title=(
            f"Fig 7 — success ratio, {result.config.n_processors}-core system "
            f"(+1 HA), {result.config.trials} trials/point"
        ),
    )
