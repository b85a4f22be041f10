"""Experiment FI — temporal isolation under a misbehaving client.

The fault-injection companion to Fig. 6: every design faces the *same*
workload twice — once fault-free, once with client 0 turned rogue
(periodic bursts of tight-deadline transactions far beyond its declared
task set, via :meth:`repro.faults.plan.FaultPlan.rogue_client`) — and
the question is what happens to everyone *else*.  Reported per design:

* the victims' deadline-miss ratio without and with the aggressor
  (aggressor jobs are excluded from both, so the aggressor's
  self-inflicted misses never count);
* an **isolation score** ``1 - max(0, miss_fault - miss_base)`` —
  1.0 means the aggressor could not move the victims at all;
* for BlueScale, the victims' observed worst responses checked against
  the fault-oblivious analytical bounds of
  :mod:`repro.analysis.response_time` (``bound_violations`` must be 0
  for the paper's compositional claim to survive the fault campaign).

The workload is drawn at *low* utilization (default 40–55%) so that
fault-free runs are comfortably schedulable everywhere: any victim
degradation in the faulted run is then attributable to the aggressor,
not to overload.  Structured as the standard runtime triple
(:func:`build_isolation_specs` / :func:`run_isolation_trial` /
:func:`reduce_isolation`), with a batch entry point
(:func:`run_isolation_batch`, wired as ``run_isolation_trial.batch``)
that ships every (trial, design, baseline/faulted) simulation of a
chunk through :func:`repro.sim.batched.run_many` — rogue-burst plans
compile into the SoA request schedule, so the whole campaign advances
in numpy lock-step on the ``"batched"`` engine and stays bit-identical
to the scalar engine (trace digests are folded into each trial's tags
to prove it).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from repro.analysis.context import AnalysisContext
from repro.errors import ConfigurationError
from repro.experiments.factory import (
    build_interconnect,
    draw_tasksets,
    simulate_specs,
    traffic_generators,
)
from repro.experiments.reporting import format_table
from repro.faults.plan import FaultPlan
from repro.faults.verify import verify_isolation, victim_miss_from_outcomes
from repro.runtime import MetricSet, TrialOutcome, TrialSpec, derive_seeds
from repro.soc import SoCSimulation

#: designs compared by default — one per arbitration family, kept small
#: so the CI campaign stays fast; pass the full Fig. 6 tuple for papers
ISOLATION_INTERCONNECTS = (
    "AXI-IC^RT",
    "BlueTree",
    "GSMTree-TDM",
    "BlueScale",
)


@dataclass(frozen=True)
class IsolationConfig:
    """Scale and aggressor model of the isolation campaign."""

    n_clients: int = 8
    trials: int = 5
    horizon: int = 4_000
    drain: int = 2_000
    #: deliberately below Fig. 6's 70–90%: fault-free runs must be
    #: schedulable so victim degradation is attributable to the fault
    utilization_low: float = 0.40
    utilization_high: float = 0.55
    #: the rogue client and its burst model (see FaultPlan.rogue_client)
    aggressor: int = 0
    burst_size: int = 24
    burst_every: int = 60
    seed: int = 2022
    tasks_per_client: ClassVar[int] = 3
    period_min: ClassVar[int] = 100
    period_max: ClassVar[int] = 1_500
    rogue_start: ClassVar[int] = 400
    burst_deadline_slack: ClassVar[int] = 16

    def __post_init__(self) -> None:
        if not 0 < self.utilization_low <= self.utilization_high:
            raise ConfigurationError("invalid utilization range")
        if self.trials < 1 or self.horizon < 1:
            raise ConfigurationError("trials and horizon must be positive")
        if not 0 <= self.aggressor < self.n_clients:
            raise ConfigurationError(
                f"aggressor {self.aggressor} not among {self.n_clients} clients"
            )
        if self.rogue_start >= self.horizon:
            raise ConfigurationError("rogue window starts beyond the horizon")

    def fault_plan(self) -> FaultPlan:
        """The aggressor's misbehaviour for one trial."""
        return FaultPlan.rogue_client(
            self.aggressor,
            self.rogue_start,
            self.horizon,
            burst_size=self.burst_size,
            burst_every=self.burst_every,
            deadline_slack=self.burst_deadline_slack,
        )


def build_isolation_specs(
    config: IsolationConfig = IsolationConfig(),
    interconnects: tuple[str, ...] = ISOLATION_INTERCONNECTS,
) -> list[TrialSpec]:
    """One spec per trial; each trial runs every design twice."""
    seeds = derive_seeds(
        f"isolation/{config.seed}/{config.n_clients}", config.trials
    )
    return [
        TrialSpec.make(
            "isolation",
            trial,
            seed,
            config=config,
            interconnects=tuple(interconnects),
        )
        for trial, seed in enumerate(seeds)
    ]


def _isolation_build(spec: TrialSpec):
    """Build one workload draw's (baseline, faulted) pair per design.

    Returns :func:`simulate_specs`' ``(state, sims, horizon, drain)``;
    the state is ``(tasksets, ctx, entries)`` — ``ctx`` the trial's one
    analysis context, ``entries`` a list of ``(name, base_sim,
    fault_sim)`` triples — and ``sims`` flattens them to ``[base,
    fault, base, fault, …]``.  The taskset draw comes
    from the trial RNG, and each client's private stream is re-derived
    identically for every simulation, so all designs — and the baseline
    and faulted run of each — see the same declared workload.
    """
    config: IsolationConfig = spec.param("config")
    interconnects: tuple[str, ...] = spec.param("interconnects")
    tasksets = draw_tasksets(random.Random(spec.seed), config)
    plan = config.fault_plan()
    ctx = AnalysisContext()

    def build(name: str, faults: FaultPlan | None) -> SoCSimulation:
        interconnect = build_interconnect(
            name, config.n_clients, tasksets, ctx=ctx
        )
        clients = traffic_generators(spec, tasksets)
        return SoCSimulation(clients, interconnect, faults=faults)

    entries = [
        (name, build(name, None), build(name, plan))
        for name in interconnects
    ]
    sims = [sim for _, base, fault in entries for sim in (base, fault)]
    return (tasksets, ctx, entries), sims, config.horizon, config.drain


def _isolation_fold(
    spec: TrialSpec,
    state,  # noqa: ANN001
    results,  # noqa: ANN001 - [base, fault] per entry, flattened
) -> MetricSet:
    """Fold one trial's per-design result pairs into its metric set."""
    tasksets, ctx, entries = state
    config: IsolationConfig = spec.param("config")
    victims = set(range(config.n_clients)) - {config.aggressor}
    scalars: dict[str, float] = {}
    tags = {"experiment": "isolation", "trial": str(spec.index)}
    for (name, _, fault_sim), base_result, fault_result in zip(
        entries, results[0::2], results[1::2]
    ):
        miss_base = victim_miss_from_outcomes(
            base_result.job_outcomes, victims
        )
        miss_fault = victim_miss_from_outcomes(
            fault_result.job_outcomes, victims
        )
        scalars[f"{name}/victim_miss_base"] = miss_base
        scalars[f"{name}/victim_miss_fault"] = miss_fault
        scalars[f"{name}/isolation"] = 1.0 - max(0.0, miss_fault - miss_base)
        scalars[f"{name}/rogue_requests"] = float(
            fault_result.fault_counters.get("rogue_requests", 0)
        )
        # Completion-trace digests certify bit-for-bit equality of the
        # campaign across sim backends and executors (golden-trace
        # regression; the CI backend-diff step compares them).
        tags[f"{name}/trace_base"] = base_result.trace_digest
        tags[f"{name}/trace_fault"] = fault_result.trace_digest
        composition = getattr(fault_sim.interconnect, "composition", None)
        if composition is not None:
            # Only BlueScale carries an interface composition, hence
            # analytical per-client bounds to hold the faulted run to.
            # The clients' job ledgers and worst-response tables are
            # populated on both backends (the batched finalizer writes
            # them back), so the verdict is backend-independent.
            verdict = verify_isolation(
                fault_sim.clients,
                tasksets,
                composition,
                end_cycle=config.horizon,
                victims=victims,
                ctx=ctx,
            )
            scalars[f"{name}/bounds_checked"] = float(verdict.bounds_checked)
            scalars[f"{name}/bound_violations"] = float(
                len(verdict.violations)
            )
            scalars[f"{name}/worst_victim_response"] = float(
                verdict.worst_observed
            )
            scalars[f"{name}/tightest_bound"] = float(verdict.tightest_bound)
            if verdict.violations:
                tags[f"{name}/violation"] = verdict.violations[0].describe()
    return MetricSet(scalars=scalars, tags=tags)


def run_isolation_trial(spec: TrialSpec) -> MetricSet:
    """Baseline + faulted run of one workload draw, per design.

    Pure function of the spec (see :func:`_isolation_build`); runs each
    simulation on the scalar engine one at a time.
    """
    return simulate_specs(
        [spec], _isolation_build, _isolation_fold, "scalar"
    )[0]


def run_isolation_batch(specs: Sequence[TrialSpec]) -> list[MetricSet]:
    """Batch entry point: the whole chunk's simulations in lock-step.

    Every (trial, design, baseline/faulted) simulation goes through one
    :func:`repro.sim.batched.run_many` call on the chunk's
    ``spec.sim_backend``; rogue-burst fault plans compile into
    the SoA request schedule, so faulted runs ride the kernels
    alongside their baselines.  The folded metric sets are
    bit-identical to :func:`run_isolation_trial`'s.
    """
    return simulate_specs(specs, _isolation_build, _isolation_fold)


run_isolation_trial.batch = run_isolation_batch


@dataclass
class DesignIsolation:
    """Per-design isolation measurements across trials."""

    name: str
    miss_base: list[float] = field(default_factory=list)
    miss_fault: list[float] = field(default_factory=list)
    isolation_scores: list[float] = field(default_factory=list)
    bound_violations: int = 0
    bounds_checked_trials: int = 0

    @property
    def mean_miss_base(self) -> float:
        return statistics.fmean(self.miss_base) if self.miss_base else 0.0

    @property
    def mean_miss_fault(self) -> float:
        return statistics.fmean(self.miss_fault) if self.miss_fault else 0.0

    @property
    def mean_isolation(self) -> float:
        if not self.isolation_scores:
            return 1.0
        return statistics.fmean(self.isolation_scores)

    @property
    def degraded(self) -> bool:
        """Did the aggressor measurably hurt the victims?"""
        return self.mean_miss_fault > self.mean_miss_base + 1e-9


@dataclass
class IsolationResult:
    config: IsolationConfig
    metrics: dict[str, DesignIsolation]

    @property
    def total_bound_violations(self) -> int:
        return sum(m.bound_violations for m in self.metrics.values())

    def metric_set(self) -> MetricSet:
        scalars: dict[str, float] = {}
        for name, m in self.metrics.items():
            scalars[f"{name}/victim_miss_base"] = m.mean_miss_base
            scalars[f"{name}/victim_miss_fault"] = m.mean_miss_fault
            scalars[f"{name}/isolation"] = m.mean_isolation
        scalars["bound_violations"] = float(self.total_bound_violations)
        return MetricSet(
            scalars=scalars,
            tags={
                "experiment": "isolation",
                "n_clients": str(self.config.n_clients),
            },
        )


def reduce_isolation(
    config: IsolationConfig,
    interconnects: tuple[str, ...],
    outcomes: list[TrialOutcome],
) -> IsolationResult:
    """Fold trial metric sets into per-design isolation measurements."""
    metrics = {name: DesignIsolation(name) for name in interconnects}
    for outcome in outcomes:
        for name in interconnects:
            m = metrics[name]
            m.miss_base.append(outcome.metrics[f"{name}/victim_miss_base"])
            m.miss_fault.append(outcome.metrics[f"{name}/victim_miss_fault"])
            m.isolation_scores.append(outcome.metrics[f"{name}/isolation"])
            if f"{name}/bounds_checked" in outcome.metrics:
                m.bounds_checked_trials += int(
                    outcome.metrics[f"{name}/bounds_checked"]
                )
                m.bound_violations += int(
                    outcome.metrics[f"{name}/bound_violations"]
                )
    return IsolationResult(config=config, metrics=metrics)


def format_isolation(result: IsolationResult) -> str:
    """Render the per-design isolation report."""
    rows = []
    for name, m in result.metrics.items():
        checked = (
            f"{m.bound_violations} in {m.bounds_checked_trials} trials"
            if m.bounds_checked_trials
            else "-"
        )
        rows.append(
            [
                name,
                f"{100 * m.mean_miss_base:.2f}",
                f"{100 * m.mean_miss_fault:.2f}",
                f"{m.mean_isolation:.3f}",
                checked,
            ]
        )
    config = result.config
    table = format_table(
        [
            "Interconnect",
            "Victim miss, fault-free (%)",
            "Victim miss, rogue client (%)",
            "Isolation score",
            "Bound violations",
        ],
        rows,
        title=(
            f"Isolation — {config.n_clients} clients, client "
            f"{config.aggressor} rogue (bursts of {config.burst_size} every "
            f"{config.burst_every} cycles), {config.trials} trials"
        ),
    )
    lines = [table]
    if result.total_bound_violations:
        lines.append(
            f"FAIL: {result.total_bound_violations} analytical-bound "
            "violation(s) — temporal isolation does not hold"
        )
    else:
        lines.append(
            "All victim responses within fault-oblivious analytical bounds."
        )
    return "\n".join(lines)
