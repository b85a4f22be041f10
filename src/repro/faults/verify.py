"""Temporal-isolation verification against analytical bounds.

BlueScale's predictability claim (paper Sec. 5) is *compositional*:
each client's (Π, Θ) server interface bounds its response time
regardless of what the other clients do.  The analytical side of that
claim lives in :func:`repro.analysis.response_time.holistic_response_bounds`,
computed from the clients' **declared** task sets — crucially, it knows
nothing about the fault plan.  This module checks a faulted simulation
against those fault-oblivious bounds: if isolation holds, an aggressor
bursting arbitrarily past its contract must not push any *victim* task
beyond its pre-computed bound.

Two kinds of evidence are collected per victim:

* **response-time containment** — the worst observed per-task response
  (tracked by :class:`~repro.clients.traffic_generator.TrafficGenerator`
  on every completion) must stay ``<= bound_for(task)``;
* **no vanished work** — a victim job that did not finish, although its
  release plus bound lies within the simulated window, is a violation
  with unbounded observed response (e.g. a dropped victim request).

Deadline-miss *ratios* are job-level and per-client (from the clients'
monitored-job ledgers), so the aggressor's own self-inflicted misses
never contaminate the victims' statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import AnalysisContext
from repro.analysis.response_time import holistic_response_bounds
from repro.errors import InfeasibleError


@dataclass(frozen=True)
class BoundViolation:
    """One victim task observed beyond its analytical response bound."""

    client_id: int
    task_name: str
    #: worst observed response (cycles); -1 = a job never finished
    observed: int
    bound: int

    def describe(self) -> str:
        observed = "unbounded (unfinished job)" if self.observed < 0 else str(
            self.observed
        )
        return (
            f"client {self.client_id} task {self.task_name!r}: "
            f"observed {observed} > bound {self.bound}"
        )


@dataclass(frozen=True)
class IsolationVerdict:
    """Outcome of checking victims against their analytical bounds."""

    #: False when the composition admitted no finite bounds, e.g. an
    #: unschedulable one (the check is then vacuous, not passed —
    #: reported separately)
    bounds_checked: bool
    violations: tuple[BoundViolation, ...] = ()
    #: worst observed victim response over all checked tasks
    worst_observed: int = 0
    #: tightest analytical bound among checked tasks (context for reports)
    tightest_bound: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def victim_miss_from_outcomes(
    job_outcomes: dict[int, tuple[int, int]], victims: set[int]
) -> float:
    """Job-level deadline-miss ratio across the ``victims`` clients,
    from a :class:`~repro.soc.TrialResult`'s ``job_outcomes`` fold.

    ``job_outcomes`` is the per-client ``(judged, missed)`` pair at the
    trial's horizon, so this works on any backend's
    :class:`~repro.soc.TrialResult` without touching the client objects.
    """
    judged = 0
    missed = 0
    for client_id, (client_judged, client_missed) in job_outcomes.items():
        if client_id not in victims:
            continue
        judged += client_judged
        missed += client_missed
    if judged == 0:
        return 0.0
    return missed / judged


def verify_isolation(
    clients,  # noqa: ANN001 - list[TrafficGenerator]
    client_tasksets,  # noqa: ANN001 - dict[int, TaskSet]
    composition,  # noqa: ANN001 - CompositionResult
    end_cycle: int,
    victims: set[int],
    *,
    ctx: AnalysisContext | None = None,
) -> IsolationVerdict:
    """Check every victim task's observed behaviour against its bound.

    ``end_cycle`` must be the last cycle through which clients are
    *driven* (the horizon, not horizon + drain: clients stop issuing
    their pending queues at the horizon, so a later-released job may
    sit unfinished for reasons the analysis does not model).  A job is
    only accused of "never finishing" when the analysis says it had
    time to (``release + bound <= end_cycle``), so truncation at the
    end of a trial cannot fabricate violations.  The bounds run under
    ``ctx``, the trial's analysis context.
    """
    try:
        bounds = holistic_response_bounds(client_tasksets, composition, ctx=ctx)
    except InfeasibleError:
        return IsolationVerdict(bounds_checked=False)
    violations: list[BoundViolation] = []
    worst_observed = 0
    tightest_bound = 0
    for client in clients:
        cid = client.client_id
        if cid not in victims or cid not in bounds:
            continue
        path_bound = bounds[cid]
        task_bounds = {
            task.name: path_bound.bound_for(task.name)
            for task in client_tasksets[cid]
        }
        for name, bound in task_bounds.items():
            if tightest_bound == 0 or bound < tightest_bound:
                tightest_bound = bound
            observed = client.max_response_by_task.get(name, 0)
            if observed > worst_observed:
                worst_observed = observed
            if observed > bound:
                violations.append(
                    BoundViolation(
                        client_id=cid,
                        task_name=name,
                        observed=observed,
                        bound=bound,
                    )
                )
        for job in client.jobs:
            bound = task_bounds.get(job.task_name)
            if bound is None or job.release + bound > end_cycle:
                continue
            if not job.finished or job.dropped:
                violations.append(
                    BoundViolation(
                        client_id=cid,
                        task_name=job.task_name,
                        observed=-1,
                        bound=bound,
                    )
                )
                break  # one unbounded witness per client is enough
    return IsolationVerdict(
        bounds_checked=True,
        violations=tuple(violations),
        worst_observed=worst_observed,
        tightest_bound=tightest_bound,
    )
