"""Replay a scenario plan through the analysis and service layers.

The simulator's :class:`~repro.scenarios.driver.ScenarioDriver` is one
consumer of a plan; this module provides the other two:

* :func:`replay_plan` — drive the events through a live
  :class:`~repro.analysis.session.AdmissionSession` via
  :func:`decide_event` (the one event → decision mapping, which the
  churn experiment's simulated gate shares), emitting
  one :class:`~repro.scenarios.transient.TransientBound` per committed
  transition.  This is the pure-analysis view of a churn timeline —
  what budgets would be reprogrammed, and how long each old guarantee
  keeps covering in-flight work.
* :func:`replay_plan_service` — drive the same events against a running
  ``repro serve`` daemon over its ``/admission`` and ``/evict``
  endpoints, so churn can be rehearsed against production admission
  control.  The HTTP surface has no atomic retask, so a mode switch is
  replayed as evict + admit (noted per event).

Both replays derive post-event task sets via the same pure helpers in
:mod:`repro.scenarios.plan` that the simulator driver uses, so the
three layers can never disagree about what a plan *means*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.session import AdmissionDecision, AdmissionSession
from repro.scenarios.plan import ScenarioEvent, ScenarioKind, ScenarioPlan
from repro.scenarios.transient import TransientBound, compute_transient_bound
from repro.tasks.taskset import TaskSet

__all__ = [
    "ReplayedEvent",
    "decide_event",
    "replay_plan",
    "replay_plan_service",
]


@dataclass(frozen=True)
class ReplayedEvent:
    """One plan event as the admission session decided it."""

    index: int
    event: ScenarioEvent
    decision: AdmissionDecision
    #: present exactly when the event committed and bounds were requested
    transient: TransientBound | None = None

    @property
    def applied(self) -> bool:
        return self.decision.committed


def decide_event(
    session: AdmissionSession, event: ScenarioEvent, proposed: TaskSet
) -> AdmissionDecision:
    """Run one plan event through ``session``: join → ``admit``, leave →
    ``evict``, rate change / mode switch → ``retask``.

    ``proposed`` is the client's task set after the event
    (:meth:`~repro.scenarios.plan.ScenarioEvent.proposed`).  A rate
    change that leaves the client running nothing degenerates to an
    evict (``retask`` refuses empty submissions by design).
    """
    if event.kind is ScenarioKind.CLIENT_JOIN:
        return session.admit(event.client_id, event.assigned_tasks())
    if event.kind is ScenarioKind.CLIENT_LEAVE or len(proposed) == 0:
        return session.evict(event.client_id)
    return session.retask(event.client_id, proposed)


def replay_plan(
    session: AdmissionSession,
    plan: ScenarioPlan,
    *,
    transients: bool = True,
) -> list[ReplayedEvent]:
    """Apply every plan event to ``session`` in timeline order.

    Rejected transitions (the new mode would not be schedulable) leave
    the session untouched — exactly the admission gate the simulator's
    driver applies — and carry their
    :class:`~repro.analysis.session.RejectionWitness` in the decision.
    """
    replayed: list[ReplayedEvent] = []
    for index, event in enumerate(plan.events):
        old_tasksets = session.tasksets
        old_composition = session.composition
        current = old_tasksets.get(event.client_id, TaskSet())
        decision = decide_event(session, event, event.proposed(current))
        transient = None
        if transients and decision.committed:
            transient = compute_transient_bound(
                index,
                event,
                event.cycle,
                old_tasksets,
                old_composition,
                decision.composition,
                ctx=session.context,
            )
        replayed.append(
            ReplayedEvent(
                index=index,
                event=event,
                decision=decision,
                transient=transient,
            )
        )
    return replayed


def replay_plan_service(
    client,  # noqa: ANN001 — ServiceClient (kept untyped: no hard dep)
    plan: ScenarioPlan,
    *,
    initial_tasksets: dict[int, TaskSet] | None = None,
) -> list[dict]:
    """Drive ``plan`` against a running daemon via HTTP.

    ``initial_tasksets`` must describe the workload the daemon's
    session currently holds (the model baseline after a ``/reset``);
    rate changes are computed against this local mirror, which is kept
    in lock-step with every committed response.  Returns one record per
    event: ``{"index", "kind", "client_id", "responses"}`` where
    ``responses`` are the raw decision payloads (two for a replayed
    retask: evict then admit).
    """
    current: dict[int, TaskSet] = dict(initial_tasksets or {})
    records: list[dict] = []
    for index, event in enumerate(plan.events):
        before = current.get(event.client_id, TaskSet())
        proposed = event.proposed(before)
        responses: list[dict] = []
        applied = True
        if event.kind is ScenarioKind.CLIENT_JOIN:
            response = client.admission(
                event.client_id, list(event.assigned_tasks()), commit=True
            )
            responses.append(response)
            applied = bool(response.get("committed"))
            if applied:
                current[event.client_id] = proposed
        elif event.kind is ScenarioKind.CLIENT_LEAVE:
            responses.append(client.evict(event.client_id))
            current[event.client_id] = TaskSet()
        else:
            # No atomic /retask on the wire: replay as evict + admit.
            # A rejected re-admission leaves the client evicted, and
            # the local mirror tracks that honestly.
            responses.append(client.evict(event.client_id))
            current[event.client_id] = TaskSet()
            if len(proposed) > 0:
                response = client.admission(
                    event.client_id, list(proposed), commit=True
                )
                responses.append(response)
                applied = bool(response.get("committed"))
                if applied:
                    current[event.client_id] = proposed
        records.append(
            {
                "index": index,
                "kind": event.kind.value,
                "client_id": event.client_id,
                "applied": applied,
                "responses": responses,
            }
        )
    return records
