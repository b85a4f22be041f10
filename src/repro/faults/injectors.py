"""The fault orchestrator: interprets a plan against a running trial.

The :class:`FaultOrchestrator` is registered by
:class:`~repro.soc.SoCSimulation` as the *first* tick stage (name
``"faults"``), so a burst armed for cycle ``c`` enters its client's
queue before that cycle's client releases, arbitration and service —
exactly as if the client had misbehaved at the start of the cycle.

Bursts fire from a min-heap inside :meth:`FaultOrchestrator.tick`,
through the clients' one fault hook
(:meth:`~repro.clients.traffic_generator.TrafficGenerator.inject_rogue_burst`);
the fault-free path never notices it.

Fast-path correctness is the load-bearing property.  The orchestrator
is always "quiescent" (its state never changes outside its own tick)
but it *declares* the head of its action heap as activity, so the
engine can never leap over a cycle on which a burst fires.
"""

from __future__ import annotations

import heapq

from repro.errors import ConfigurationError
from repro.faults.plan import FaultEvent, FaultPlan


class FaultOrchestrator:
    """Executes one :class:`FaultPlan` against one simulation trial.

    ``SoCSimulation(faults=plan)`` builds one per simulation (it holds
    per-run mutable state).  With an empty plan every code path below
    degenerates to counter reads and ``None`` returns — the differential
    tests assert the instrumented run is bit-for-bit identical to an
    uninstrumented one on both engine paths.
    """

    def __init__(self, plan: FaultPlan, tracer=None) -> None:  # noqa: ANN001
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError(
                f"expected a FaultPlan, got {type(plan).__name__}"
            )
        self.plan = plan
        self._tracer = tracer
        # Wired by SoCSimulation.run() before the engine starts.
        self._clients_by_id: dict[int, object] = {}
        self._client_stage = None
        # (cycle, event_index) min-heap of pending bursts.
        self._actions: list[tuple[int, int]] = []
        for index, event in enumerate(plan.events):
            for cycle in event.action_cycles():
                heapq.heappush(self._actions, (cycle, index))
        # -- fault ledger (read by SoCSimulation._collect) ----------------
        self.rogue_requests = 0
        self.events_applied = 0
        self.events_ignored = 0

    # -- wiring (SoCSimulation.run) -----------------------------------------
    def bind(self, clients, client_stage) -> None:  # noqa: ANN001
        """Attach the trial's clients (called once per run)."""
        self._clients_by_id = {c.client_id: c for c in clients}
        self._client_stage = client_stage

    def _emit(self, event: FaultEvent, cycle: int, injected: int) -> None:
        """Fault span + counter through the observability layer (if on)."""
        tracer = self._tracer
        if tracer is None:
            return
        from repro.observability.spans import Span

        tracer.recorder.record(
            Span(
                rid=-1,
                client_id=event.client_id,
                site="fault:rogue-burst",
                kind="fault",
                cycle=cycle,
                attrs={"injected": injected},
            )
        )
        tracer.registry.counter("faults/rogue-burst").increment()

    # -- bursts -----------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Fire every burst armed for ``cycle``."""
        actions = self._actions
        while actions and actions[0][0] <= cycle:
            _, index = heapq.heappop(actions)
            self._apply(self.plan.events[index], cycle)

    def _apply(self, event: FaultEvent, cycle: int) -> None:
        client = self._clients_by_id.get(event.client_id)
        burst_hook = getattr(client, "inject_rogue_burst", None)
        if burst_hook is None:
            self.events_ignored += 1
            return
        injected = burst_hook(cycle, event.magnitude, event.deadline_slack)
        self.rogue_requests += injected
        self.events_applied += 1
        # A sleeping client's cached wake predates the burst.
        self._client_stage.notify_external_activity(event.client_id)
        self._emit(event, cycle, injected)

    # -- quiescence contract --------------------------------------------------
    def is_quiescent(self) -> bool:
        """Always true: the orchestrator only acts inside its own tick,
        and every cycle it must act on is declared below."""
        return True

    def next_activity_cycle(self, cycle: int) -> int | None:
        """The next burst's cycle (``None`` once every burst fired)."""
        return self._actions[0][0] if self._actions else None

    # -- ledger ---------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """The fault ledger as plain ints (folded into TrialResult)."""
        return {
            "rogue_requests": self.rogue_requests,
            "events_applied": self.events_applied,
            "events_ignored": self.events_ignored,
        }
