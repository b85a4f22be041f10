"""Experiment CH — online workload churn under three admission policies.

Every trial draws one base workload plus a set of *pending* clients and
replays the same deterministic :class:`~repro.scenarios.plan.ScenarioPlan`
(joins, a rate change, a mode switch, a leave) against three ways of
running the same SoC:

* ``BlueScale`` — the paper's answer: every transition runs through an
  :class:`~repro.analysis.session.AdmissionSession` by the replay's
  :func:`~repro.scenarios.replay.decide_event` (O(log n) path-local
  re-selection over the trial model's own cache), and the fabric's
  ``apply_composition`` reprograms only the SE ports whose (Π, Θ)
  interface changed, at the event cycle.  Each committed transition
  emits a :class:`~repro.scenarios.transient.TransientBound`; after the
  run the job ledgers are checked against those windows — **no
  monitored job may miss its deadline during reconfiguration**
  (``repro churn --verify`` exits 1 otherwise).
* ``AXI-dynamic`` — dynamic bandwidth regulation in the style of
  Agrawal et al. (PAPERS.md): every transition is accepted and answered
  by recomputing *all* per-client budgets
  (:func:`~repro.experiments.factory.axi_budgets`) — the centralized
  design's O(n) re-budget under churn.
* ``AXI-static`` — regulation programmed once for the base workload and
  never touched (Sullivan-style static reservation): churn rides on
  whatever headroom the initial budgets left.

Reported per policy: the victims' (untouched clients') miss ratio, the
churners' miss ratio, how many transitions were applied/rejected, and
the deterministic *reconfiguration work* — SE ports reprogrammed for
BlueScale (O(log n) per event) vs. budgets recomputed for the dynamic
regulator (n per event).  Wall-clock re-selection latency is
deliberately **not** a trial metric (trials must be bit-identical
across executors and backends); the perf ledger's ``analysis-churn``
workload (``benchmarks/perf/``) measures it next to a from-scratch
composition.

Scenario-bearing simulations are ineligible for the SoA batched backend
(the request schedule is not static), so trials transparently take the
scalar engine on either ``--sim-backend`` — the report is identical on
both, which CI checks by diffing digests.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass, field
from typing import ClassVar

from repro.analysis.model import SystemModel
from repro.core.interconnect import BlueScaleInterconnect
from repro.errors import ConfigurationError
from repro.experiments.factory import (
    AXI_WINDOW,
    BLUESCALE_SEARCH,
    axi_budgets,
    build_interconnect,
    draw_tasksets,
    traffic_generators,
)
from repro.experiments.reporting import format_table
from repro.faults.verify import victim_miss_from_outcomes
from repro.runtime import MetricSet, TrialOutcome, TrialSpec, derive_seeds
from repro.scenarios.driver import ScenarioDriver
from repro.scenarios.plan import ScenarioEvent, ScenarioKind, ScenarioPlan, rate_scaled
from repro.scenarios.replay import decide_event
from repro.scenarios.transient import (
    TransientBound,
    compute_transient_bound,
    verify_transients,
)
from repro.soc import SoCSimulation
from repro.tasks.taskset import TaskSet

#: the three admission policies every trial compares
CHURN_POLICIES = ("BlueScale", "AXI-dynamic", "AXI-static")


@dataclass(frozen=True)
class ChurnConfig:
    """Scale and churn timeline of the campaign."""

    n_clients: int = 8
    trials: int = 3
    horizon: int = 6_000
    drain: int = 3_000
    #: low enough that the base workload plus admitted churn stays
    #: schedulable — misses are then reconfiguration artifacts, which
    #: is exactly what the transient verification hunts
    utilization_low: float = 0.30
    utilization_high: float = 0.45
    #: how many of the highest-numbered clients start idle and join
    #: mid-run (their drawn task sets become the join payloads)
    joiners: int = 2
    seed: int = 2026
    tasks_per_client: ClassVar[int] = 2
    period_min: ClassVar[int] = 100
    period_max: ClassVar[int] = 1_200
    #: the client that changes rate and later leaves; the joiners bound
    #: keeps it among the initially-active clients
    churner: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not 0 < self.utilization_low <= self.utilization_high:
            raise ConfigurationError("invalid utilization range")
        if self.trials < 1 or self.horizon < 20:
            raise ConfigurationError("trials must be >= 1, horizon >= 20")
        if not 1 <= self.joiners <= self.n_clients - 2:
            raise ConfigurationError(
                f"joiners must lie in [1, n_clients - 2], got {self.joiners}"
            )

    @property
    def joiner_ids(self) -> tuple[int, ...]:
        return tuple(
            range(self.n_clients - self.joiners, self.n_clients)
        )


def build_churn_specs(
    config: ChurnConfig = ChurnConfig(),
    policies: tuple[str, ...] = CHURN_POLICIES,
) -> list[TrialSpec]:
    """One spec per trial; each trial runs every policy."""
    seeds = derive_seeds(
        f"churn/{config.seed}/{config.n_clients}", config.trials
    )
    return [
        TrialSpec.make(
            "churn", trial, seed, config=config, policies=tuple(policies)
        )
        for trial, seed in enumerate(seeds)
    ]


def _churn_workload(spec: TrialSpec):
    """Draw one trial's workload and derive its scenario plan.

    Returns ``(base_tasksets, plan)``: the initially-active clients'
    sets, and the deterministic event timeline (joiners arriving, the
    churner changing rate, a mode switch, the churner leaving).  All
    randomness comes from the trial RNG, so the same spec yields the
    same plan on any executor or backend.
    """
    config: ChurnConfig = spec.param("config")
    trial_rng = random.Random(spec.seed)
    drawn = draw_tasksets(trial_rng, config)
    joiners = config.joiner_ids
    rate_factor = trial_rng.choice((0.8, 1.25, 1.5))
    base = {
        client: taskset
        for client, taskset in drawn.items()
        if client not in joiners
    }
    horizon = config.horizon
    events = [
        ScenarioEvent(
            kind=ScenarioKind.CLIENT_JOIN,
            cycle=horizon // 6 + index * max(1, horizon // 12),
            client_id=joiner,
            tasks=tuple(drawn[joiner]),
        )
        for index, joiner in enumerate(joiners)
    ]
    events.append(
        ScenarioEvent(
            kind=ScenarioKind.RATE_CHANGE,
            cycle=(9 * horizon) // 20,
            client_id=config.churner,
            factor=rate_factor,
        )
    )
    # The first joiner later switches to a lighter operating mode
    # (same tasks, periods stretched 1.5x).
    events.append(
        ScenarioEvent(
            kind=ScenarioKind.MODE_SWITCH,
            cycle=(5 * horizon) // 8,
            client_id=joiners[0],
            tasks=tuple(rate_scaled(drawn[joiners[0]], 1.5)),
        )
    )
    events.append(
        ScenarioEvent(
            kind=ScenarioKind.CLIENT_LEAVE,
            cycle=(4 * horizon) // 5,
            client_id=config.churner,
        )
    )
    return base, ScenarioPlan(tuple(events))


class _BlueScaleGate:
    """Admission gate: the replay's event decision, then path-local SE
    reprogramming at the event cycle."""

    def __init__(self, session, interconnect) -> None:  # noqa: ANN001
        self.session = session
        self.interconnect = interconnect
        self.transients: list[TransientBound] = []
        self.ports_reprogrammed = 0

    def __call__(self, index, event, cycle, proposed) -> bool:  # noqa: ANN001
        session = self.session
        old_tasksets = session.tasksets
        old_composition = session.composition
        decision = decide_event(session, event, proposed[event.client_id])
        if not decision.committed:
            return False
        # Only the ports whose interface changed are reprogrammed — the
        # path-local footprint the paper's scalability argument counts.
        self.ports_reprogrammed += self.interconnect.apply_composition(
            decision.composition, cycle
        )
        self.transients.append(
            compute_transient_bound(
                index,
                event,
                cycle,
                old_tasksets,
                old_composition,
                decision.composition,
                ctx=session.context,
            )
        )
        return True


class _AxiDynamicGate:
    """Accept everything; recompute every client's budget (O(n))."""

    def __init__(self, interconnect, config: ChurnConfig) -> None:  # noqa: ANN001
        self.interconnect = interconnect
        self.config = config
        self.budgets_recomputed = 0

    def __call__(self, index, event, cycle, proposed) -> bool:  # noqa: ANN001
        budgets = axi_budgets(self.config.n_clients, proposed)
        self.interconnect.configure_regulation(budgets, AXI_WINDOW)
        self.budgets_recomputed += self.config.n_clients
        return True


def run_churn_trial(spec: TrialSpec) -> MetricSet:
    """One workload draw through the spec's policies, scalar engine.

    Pure function of the spec.  No ``.batch`` attribute on purpose:
    scenario-bearing sims are SoA-ineligible, so a batch entry point
    would only re-route every trial through the per-trial fallback.
    """
    config: ChurnConfig = spec.param("config")
    base, plan = _churn_workload(spec)
    victims = frozenset(range(config.n_clients)) - plan.clients()
    # one generator per fabric port: pending joiners start idle
    port_tasksets = {
        client: base.get(client, TaskSet())
        for client in range(config.n_clients)
    }
    scalars: dict[str, float] = {}
    tags = {"experiment": "churn", "trial": str(spec.index)}

    for policy in spec.param("policies"):
        gate = None
        if policy == "BlueScale":
            interconnect = BlueScaleInterconnect(config.n_clients)
            model = SystemModel.build(
                interconnect.topology,
                base,
                config=BLUESCALE_SEARCH,
                label=f"churn trial {spec.index}",
            )
            interconnect.configure_from_model(model)
            gate = _BlueScaleGate(model.session(), interconnect)
        else:
            interconnect = build_interconnect(
                "AXI-IC^RT", config.n_clients, base
            )
            if policy == "AXI-dynamic":
                gate = _AxiDynamicGate(interconnect, config)
        driver = ScenarioDriver(plan, admission=gate)
        sim = SoCSimulation(
            traffic_generators(spec, port_tasksets),
            interconnect,
            scenario=driver,
        )
        result = sim.run(config.horizon, drain=config.drain)
        counters = result.scenario_counters
        scalars[f"{policy}/victim_miss"] = victim_miss_from_outcomes(
            result.job_outcomes, victims
        )
        scalars[f"{policy}/churner_miss"] = victim_miss_from_outcomes(
            result.job_outcomes, plan.clients()
        )
        scalars[f"{policy}/events_applied"] = float(counters["events_applied"])
        scalars[f"{policy}/events_rejected"] = float(
            counters["events_rejected"]
        )
        if policy == "BlueScale":
            scalars[f"{policy}/reconfig_work"] = float(
                gate.ports_reprogrammed
            )
            report = verify_transients(
                sim.clients, gate.transients, config.horizon
            )
            scalars[f"{policy}/transient_events"] = float(len(report.bounds))
            scalars[f"{policy}/transient_window_mean"] = report.mean_window
            scalars[f"{policy}/transient_window_max"] = float(
                report.max_window
            )
            scalars[f"{policy}/transient_violations"] = float(
                len(report.violations)
            )
            scalars[f"{policy}/jobs_in_transit"] = float(
                report.jobs_in_transit
            )
        elif policy == "AXI-dynamic":
            scalars[f"{policy}/reconfig_work"] = float(
                gate.budgets_recomputed
            )
        else:
            scalars[f"{policy}/reconfig_work"] = 0.0
        # Digests certify bit-identical campaigns across executors and
        # --sim-backend values (the CI scenarios job diffs reports).
        tags[f"{policy}/trace"] = result.trace_digest
    return MetricSet(scalars=scalars, tags=tags)


@dataclass
class PolicyChurn:
    """Per-policy measurements across trials."""

    name: str
    victim_miss: list[float] = field(default_factory=list)
    churner_miss: list[float] = field(default_factory=list)
    events_applied: int = 0
    events_rejected: int = 0
    reconfig_work: int = 0
    transient_windows_max: int = 0
    transient_window_means: list[float] = field(default_factory=list)
    transient_violations: int = 0
    jobs_in_transit: int = 0

    @property
    def mean_victim_miss(self) -> float:
        return statistics.fmean(self.victim_miss) if self.victim_miss else 0.0

    @property
    def mean_churner_miss(self) -> float:
        return (
            statistics.fmean(self.churner_miss) if self.churner_miss else 0.0
        )

    @property
    def work_per_event(self) -> float:
        if not self.events_applied:
            return 0.0
        return self.reconfig_work / self.events_applied


@dataclass
class ChurnResult:
    config: ChurnConfig
    metrics: dict[str, PolicyChurn]
    #: sha256 over every per-trial trace digest — one line to diff
    #: between backends/executors
    campaign_digest: str = ""

    @property
    def total_transient_violations(self) -> int:
        bluescale = self.metrics.get("BlueScale")
        return bluescale.transient_violations if bluescale else 0

    def metric_set(self) -> MetricSet:
        scalars: dict[str, float] = {}
        for name, m in self.metrics.items():
            scalars[f"{name}/victim_miss"] = m.mean_victim_miss
            scalars[f"{name}/churner_miss"] = m.mean_churner_miss
            scalars[f"{name}/events_applied"] = float(m.events_applied)
            scalars[f"{name}/events_rejected"] = float(m.events_rejected)
            scalars[f"{name}/reconfig_work_per_event"] = m.work_per_event
        scalars["transient_violations"] = float(
            self.total_transient_violations
        )
        return MetricSet(
            scalars=scalars,
            tags={
                "experiment": "churn",
                "n_clients": str(self.config.n_clients),
                "campaign_digest": self.campaign_digest,
            },
        )


def reduce_churn(
    config: ChurnConfig,
    policies: tuple[str, ...],
    outcomes: list[TrialOutcome],
) -> ChurnResult:
    """Fold trial metric sets into per-policy measurements."""
    metrics = {name: PolicyChurn(name) for name in policies}
    digest = hashlib.sha256()
    for outcome in outcomes:
        for name in policies:
            m = metrics[name]
            m.victim_miss.append(outcome.metrics[f"{name}/victim_miss"])
            m.churner_miss.append(outcome.metrics[f"{name}/churner_miss"])
            m.events_applied += int(outcome.metrics[f"{name}/events_applied"])
            m.events_rejected += int(
                outcome.metrics[f"{name}/events_rejected"]
            )
            m.reconfig_work += int(outcome.metrics[f"{name}/reconfig_work"])
            if f"{name}/transient_violations" in outcome.metrics:
                m.transient_violations += int(
                    outcome.metrics[f"{name}/transient_violations"]
                )
                m.jobs_in_transit += int(
                    outcome.metrics[f"{name}/jobs_in_transit"]
                )
                m.transient_window_means.append(
                    outcome.metrics[f"{name}/transient_window_mean"]
                )
                m.transient_windows_max = max(
                    m.transient_windows_max,
                    int(outcome.metrics[f"{name}/transient_window_max"]),
                )
            digest.update(
                outcome.metrics.tags.get(f"{name}/trace", "").encode()
            )
    return ChurnResult(
        config=config,
        metrics=metrics,
        campaign_digest=digest.hexdigest(),
    )


def format_churn(result: ChurnResult) -> str:
    """Render the per-policy churn report."""
    rows = []
    for name, m in result.metrics.items():
        if name == "BlueScale":
            transient = (
                f"{m.transient_violations} misses in "
                f"{m.jobs_in_transit} transit jobs, "
                f"max window {m.transient_windows_max}"
            )
        else:
            transient = "-"
        rows.append(
            [
                name,
                f"{100 * m.mean_victim_miss:.2f}",
                f"{100 * m.mean_churner_miss:.2f}",
                f"{m.events_applied}/{m.events_applied + m.events_rejected}",
                f"{m.work_per_event:.1f}",
                transient,
            ]
        )
    config = result.config
    table = format_table(
        [
            "Policy",
            "Victim miss (%)",
            "Churner miss (%)",
            "Events applied",
            "Reconfig work/event",
            "Transient verification",
        ],
        rows,
        title=(
            f"Churn — {config.n_clients} clients, {config.joiners} "
            f"joiner(s), client {config.churner} rate-change+leave, "
            f"{config.trials} trials"
        ),
    )
    lines = [table, f"campaign digest: {result.campaign_digest[:16]}"]
    if result.total_transient_violations:
        lines.append(
            f"FAIL: {result.total_transient_violations} monitored deadline "
            "miss(es) inside a reconfiguration transient"
        )
    else:
        lines.append(
            "All mode transitions transient-safe: no monitored deadline "
            "missed during reconfiguration."
        )
    return "\n".join(lines)
