"""Per-transition transient bounds and their simulation-side verification.

When a scenario event reprograms (Π, Θ) budgets mid-run, there is a
window during which jobs released under the *old* regime are still in
flight over the *new* budgets.  The mode-change protocol here is the
conservative one: an event only applies after admission control proves
the **new** composition schedulable, and the **old** guarantee is
claimed to keep holding for a bounded transient — quantified per event
as a :class:`TransientBound` whose window is the worst-case
old-composition response bound (holistic, jitter-aware) over every
still-admitted client.  Any job released before the switch therefore
either completed already or completes within the window.

That claim is *verified*, not assumed: :func:`verify_transients` checks
a finished simulation's job ledgers (the same ledgers the PR 4 fault
harness reads) and flags every monitored job whose deadline fell inside
a transient window and was missed.  ``repro churn --verify`` exits 1 on
any such violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.composition import CompositionResult, changed_ports
from repro.analysis.context import AnalysisContext
from repro.analysis.response_time import holistic_response_bounds
from repro.errors import InfeasibleError
from repro.scenarios.plan import ScenarioEvent, ScenarioKind
from repro.tasks.taskset import TaskSet


@dataclass(frozen=True)
class TransientBound:
    """The verified reconfiguration window of one applied event."""

    event_index: int
    kind: ScenarioKind
    client_id: int
    #: cycle the budgets were reprogrammed
    cycle: int
    #: cycles after ``cycle`` during which old-regime jobs may still
    #: legitimately be draining under the new budgets
    window: int
    #: SE ports whose interface actually changed (the reprogramming
    #: work of this transition — O(log n) for a path-local update)
    reprogrammed_ports: int
    #: True when the window came from finite holistic response bounds;
    #: False when the old composition had no finite bound and the
    #: maximum old deadline was used as the fallback window
    analytic: bool = True

    @property
    def end(self) -> int:
        return self.cycle + self.window

    def covers(self, deadline: int) -> bool:
        """Whether a job deadline falls inside this transient window."""
        return self.cycle <= deadline <= self.end


@dataclass(frozen=True)
class TransientViolation:
    """A monitored job that missed its deadline inside a transient."""

    client_id: int
    deadline: int
    event_index: int


@dataclass(frozen=True)
class TransientReport:
    """Verification verdict over every transition of one trial."""

    bounds: tuple[TransientBound, ...]
    violations: tuple[TransientViolation, ...]
    #: monitored jobs whose deadline fell inside some window (how much
    #: exposure the transitions actually had)
    jobs_in_transit: int

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_window(self) -> int:
        return max((b.window for b in self.bounds), default=0)

    @property
    def mean_window(self) -> float:
        if not self.bounds:
            return 0.0
        return sum(b.window for b in self.bounds) / len(self.bounds)


def compute_transient_bound(
    event_index: int,
    event: ScenarioEvent,
    cycle: int,
    old_tasksets: dict[int, TaskSet],
    old_composition: CompositionResult,
    new_composition: CompositionResult,
    *,
    ctx: AnalysisContext | None = None,
) -> TransientBound:
    """Bound the drain window of one admitted transition.

    The window is the worst holistic end-to-end response bound of any
    task under the *old* composition: every job released before the
    switch is, by the old guarantee, complete within that many cycles
    of its release — so ``cycle + window`` is when the system is
    provably back in steady state.  If the old composition admits no
    finite bound (it can happen right at the schedulability edge), the
    maximum old deadline is the conservative fallback and the bound is
    marked non-analytic.  The bounds run under ``ctx`` (callers pass
    their admission session's context).
    """
    populated = {c: ts for c, ts in old_tasksets.items() if len(ts) > 0}
    window = 0
    analytic = True
    if populated:
        try:
            bounds = holistic_response_bounds(
                populated, old_composition, ctx=ctx
            )
            window = max(
                bounds[client].bound_for(task.name)
                for client, taskset in populated.items()
                for task in taskset
            )
        except InfeasibleError:
            analytic = False
            window = max(
                task.period for ts in populated.values() for task in ts
            )
    return TransientBound(
        event_index=event_index,
        kind=event.kind,
        client_id=event.client_id,
        cycle=cycle,
        window=window,
        reprogrammed_ports=len(changed_ports(old_composition, new_composition)),
        analytic=analytic,
    )


def verify_transients(
    clients,  # noqa: ANN001 — iterable of TrafficGenerator
    bounds,  # noqa: ANN001 — iterable of TransientBound
    end_cycle: int,
) -> TransientReport:
    """Check a finished trial's job ledgers against transient windows.

    Mirrors :func:`repro.faults.verify.verify_isolation`: walks every
    client's :class:`~repro.clients.traffic_generator.JobRecord` and
    flags monitored jobs that (a) had to be judged by ``end_cycle``,
    (b) missed their deadline, and (c) had that deadline inside some
    transition's window — i.e. a deadline miss *during
    reconfiguration*, exactly what the mode-change protocol promises
    cannot happen.
    """
    bounds = tuple(bounds)
    violations: list[TransientViolation] = []
    in_transit = 0
    for client in clients:
        for job in client.jobs:
            if not job.monitored or job.deadline > end_cycle:
                continue
            covering = [b for b in bounds if b.covers(job.deadline)]
            if not covering:
                continue
            in_transit += 1
            if not job.met_deadline:
                violations.append(
                    TransientViolation(
                        client_id=client.client_id,
                        deadline=job.deadline,
                        event_index=covering[0].event_index,
                    )
                )
    return TransientReport(
        bounds=bounds,
        violations=tuple(violations),
        jobs_in_transit=in_transit,
    )
