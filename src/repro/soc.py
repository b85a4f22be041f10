"""SoC-level simulation: clients + interconnect + memory controller.

One :class:`SoCSimulation` is a single experimental *trial*: it wires a
set of clients to an interconnect and the shared memory subsystem,
advances everything cycle by cycle, and collects the metrics the
paper's figures report (blocking latency, deadline-miss ratio, per-job
success).

Per-cycle ordering (fixed, so trials are deterministic):

1. clients release due jobs and inject at most one transaction each;
2. the interconnect advances its request path (root-first pipelining);
3. the memory controller arbitrates/services;
4. the interconnect advances its response path; completed transactions
   are recorded and handed back to their client's job tracker.

The loop runs on :class:`repro.sim.engine.Engine`: each of the four
steps is a registered tick component (in the order above), so the
engine's quiescence fast path can leap over idle stretches.  Because
every stage implements the quiescence contract, fast-path trials are
bit-for-bit identical to slow-path trials — ``fast_path=False``
restores the literal cycle-by-cycle loop for differential testing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.clients.traffic_generator import TrafficGenerator
from repro.errors import ConfigurationError, SimulationError
from repro.faults.injectors import FaultOrchestrator
from repro.faults.plan import FaultPlan
from repro.scenarios.driver import ScenarioDriver, make_driver
from repro.scenarios.plan import ScenarioPlan
from repro.interconnects.base import Interconnect
from repro.memory.controller import MemoryController
from repro.memory.dram import FixedLatencyDevice
from repro.memory.request import MemoryRequest, reset_request_ids
from repro.observability.tracer import (
    ObservabilityConfig,
    Tracer,
    make_tracer,
)
from repro.sim.engine import Engine
from repro.sim.stats import LatencyRecorder, SummaryStatistics


@dataclass
class TrialResult:
    """Everything one simulation trial produced."""

    horizon: int
    recorder: LatencyRecorder
    #: monitored job outcomes per client: (judged, missed)
    job_outcomes: dict[int, tuple[int, int]] = field(default_factory=dict)
    requests_released: int = 0
    requests_completed: int = 0
    requests_dropped: int = 0
    requests_in_flight: int = 0
    #: cycles the engine executed / leapt over (quiescence fast path)
    cycles_executed: int = 0
    cycles_skipped: int = 0
    #: sha256 over the completion stream; equal digests = equal traces
    trace_digest: str = ""
    #: fault-injection ledger (empty when no orchestrator was attached);
    #: see FaultOrchestrator.counters()
    fault_counters: dict[str, int] = field(default_factory=dict)
    #: workload-churn ledger (empty when no scenario driver was
    #: attached); see ScenarioDriver.counters()
    scenario_counters: dict[str, int] = field(default_factory=dict)

    @property
    def deadline_miss_ratio(self) -> float:
        return self.recorder.deadline_miss_ratio

    @property
    def mean_blocking(self) -> float:
        if not self.recorder.blocking_times:
            return 0.0
        return sum(self.recorder.blocking_times) / len(self.recorder.blocking_times)

    @property
    def success(self) -> bool:
        """True when no monitored job missed its deadline (Fig. 7)."""
        return all(missed == 0 for _, missed in self.job_outcomes.values())

    @property
    def jobs_judged(self) -> int:
        return sum(judged for judged, _ in self.job_outcomes.values())

    @property
    def jobs_missed(self) -> int:
        return sum(missed for _, missed in self.job_outcomes.values())

    def blocking_summary(self) -> SummaryStatistics:
        return self.recorder.blocking_summary()

    def response_summary(self) -> SummaryStatistics:
        return self.recorder.response_summary()


class _ClientStage:
    """Stage 1: clients release and inject, only while ``cycle < horizon``.

    A client is quiescent when it says so itself (nothing pending) or
    when the interconnect guarantees its injections are refused without
    side effects (``injection_blocked_until``).  Job releases are never
    deferred into a leap, even for blocked clients: request ids are
    allocated globally in release order and tie-break EDF arbitration,
    so every client's next release caps the leap and lands on its exact
    cycle.
    """

    def __init__(
        self,
        clients: list[TrafficGenerator],
        interconnect: Interconnect,
        horizon: int,
        engine: Engine,
        fast_path: bool = False,
        inject=None,
    ) -> None:
        self._clients = clients
        self._interconnect = interconnect
        # The tracer shims the inject callable to attach trace contexts;
        # untraced runs use the interconnect's bound method directly.
        self._inject = inject if inject is not None else interconnect.try_inject
        self._horizon = horizon
        self._engine = engine
        self._index_of = {
            client.client_id: index for index, client in enumerate(clients)
        }
        # Per-client wake cache for the fast path: a quiescent client's
        # ticks before its declared next activity are pure no-ops, so
        # they can be elided even on cycles other stages force to
        # execute.  The reference path ticks every client every cycle
        # and is never asked about quiescence.
        self._fast = fast_path
        self._wake = [0] * len(clients)
        # Indices of clients that were non-quiescent after their last
        # tick (their wake is cycle + 1, so they tick every executed
        # cycle and keep their membership fresh).  Lets the engine's
        # quiescence check touch only the handful of active clients
        # instead of scanning the full roster.
        self._active: set[int] = set()

    def tick(self, cycle: int) -> None:
        if cycle >= self._horizon:
            return
        inject = self._inject
        if not self._fast:
            for client in self._clients:
                client.tick(cycle, inject)
            return
        wake = self._wake
        active = self._active
        for index, client in enumerate(self._clients):
            if cycle < wake[index]:
                continue
            client.tick(cycle, inject)
            if client.is_quiescent():
                activity = client.next_activity_cycle(cycle)
                wake[index] = (
                    self._horizon if activity is None else activity
                )
                active.discard(index)
            else:
                wake[index] = cycle + 1
                active.add(index)

    def notify_external_activity(self, client_id: int) -> None:
        """Invalidate a client's cached wake after out-of-band input.

        The wake cache assumes a client's pending state only changes
        inside its own tick; the fault orchestrator violates that by
        pushing rogue traffic directly into a (possibly sleeping)
        client's queue, so it must reset the cache or the burst would
        sit unissued until the client's next declared release.
        """
        if not self._fast:
            return
        index = self._index_of.get(client_id)
        if index is not None:
            self._wake[index] = 0

    def is_quiescent(self) -> bool:
        # Past the horizon the stage never ticks a client again, so it
        # is a pure no-op regardless of leftover pending traffic.
        now = self._engine.now
        if now >= self._horizon:
            return True
        blocked_until = self._interconnect.injection_blocked_until
        # Only clients seen non-quiescent at their last tick can veto;
        # everyone else declared a wake cycle still ahead.
        for index in self._active:
            client = self._clients[index]
            if blocked_until(client.client_id, now) is None:
                return False
        return True

    def next_activity_cycle(self, cycle: int) -> int | None:
        if cycle >= self._horizon:
            return None
        blocked_until = self._interconnect.injection_blocked_until
        earliest: int | None = None
        wake = self._wake
        for index, client in enumerate(self._clients):
            if cycle < wake[index]:
                # The cached wake IS the client's declared activity
                # (client state only changes inside its own tick, so
                # the declaration made then still holds).
                activity = wake[index]
            elif client.is_quiescent():
                # A quiescent client's own declaration already covers
                # everything it could do (releases and injections).
                activity = client.next_activity_cycle(cycle)
            else:
                blocked = blocked_until(client.client_id, cycle)
                if blocked is None:
                    activity = cycle  # may inject: the engine won't leap
                else:
                    # Refusals are side-effect free, but releases still
                    # must happen on time (global request-id order); -1
                    # means the refusal guarantee only expires on fabric
                    # action, which caps the leap via the fabric's own
                    # declaration.
                    activity = client.next_activity_cycle(cycle)
                    if blocked >= 0 and (
                        activity is None or blocked < activity
                    ):
                        activity = blocked
            if activity is not None and (earliest is None or activity < earliest):
                earliest = activity
        if earliest is None or earliest >= self._horizon:
            return None
        return earliest


class _RequestPathStage:
    """Stage 2: the interconnect's request pipeline."""

    def __init__(self, interconnect: Interconnect) -> None:
        self._interconnect = interconnect

    def tick(self, cycle: int) -> None:
        self._interconnect.tick_request_path(cycle)

    def is_quiescent(self) -> bool:
        return self._interconnect.is_quiescent()

    def next_activity_cycle(self, cycle: int) -> int | None:
        return self._interconnect.next_activity_cycle(cycle)

    def on_cycles_skipped(self, start: int, cycles: int) -> None:
        self._interconnect.on_cycles_skipped(start, cycles)


class _ResponseStage:
    """Stage 4: deliver responses, record metrics, update job trackers.

    Also folds every completion into a running sha256 — the trial's
    *trace digest*.  Two runs with equal digests delivered the same
    requests on the same cycles with the same blocking accounting,
    which is how the differential tests certify fast-path equivalence.
    """

    def __init__(
        self,
        interconnect: Interconnect,
        client_by_id: dict[int, TrafficGenerator],
        recorder: LatencyRecorder,
        tracer: Tracer | None = None,
    ) -> None:
        self._interconnect = interconnect
        self._client_by_id = client_by_id
        self._recorder = recorder
        self._tracer = tracer
        self.completed_total = 0
        self._hasher = hashlib.sha256()

    def tick(self, cycle: int) -> None:
        tracer = self._tracer
        for request in self._interconnect.tick_response_path(cycle):
            self.completed_total += 1
            self._hasher.update(self._trace_record(request))
            self._recorder.record_completion(
                response_time=request.response_time,
                blocking_time=request.blocking_cycles,
                met_deadline=request.complete_cycle
                <= request.absolute_deadline,
            )
            if tracer is not None:
                tracer.on_completion(request, cycle)
            client = self._client_by_id.get(request.client_id)
            if client is None:
                raise SimulationError(
                    f"response for unknown client {request.client_id}"
                )
            client.on_response(request)

    @staticmethod
    def _trace_record(request: MemoryRequest) -> bytes:
        return (
            f"{request.rid},{request.client_id},{request.release_cycle},"
            f"{request.complete_cycle},{request.blocking_cycles};"
        ).encode()

    @property
    def trace_digest(self) -> str:
        return self._hasher.hexdigest()

    def is_quiescent(self) -> bool:
        # Delivery cycles are pre-computed in the response heap; the
        # earliest one is declared as the next activity.
        return True

    def next_activity_cycle(self, cycle: int) -> int | None:
        # Only the response heap matters here: request-path activity is
        # already declared by the request stage, so re-scanning it via
        # interconnect.next_activity_cycle would double the leap cost.
        return self._interconnect.next_response_cycle()


def default_drain(horizon: int) -> int:
    """Drain cycles when the caller names none: enough for queued work
    to finish under light load."""
    return min(4 * horizon, 20_000)


class SoCSimulation:
    """A complete system trial around one interconnect."""

    def __init__(
        self,
        clients: list[TrafficGenerator],
        interconnect: Interconnect,
        controller: MemoryController | None = None,
        fast_path: bool = True,
        observability: "bool | ObservabilityConfig | Tracer | None" = None,
        faults: "FaultPlan | None" = None,
        scenario: "ScenarioPlan | ScenarioDriver | None" = None,
    ) -> None:
        if not clients:
            raise ConfigurationError("need at least one client")
        ids = [client.client_id for client in clients]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate client ids: {sorted(ids)}")
        if min(ids) < 0:
            raise ConfigurationError(f"client id {min(ids)} is negative")
        if max(ids) >= interconnect.n_clients:
            raise ConfigurationError(
                f"client id {max(ids)} exceeds interconnect size "
                f"{interconnect.n_clients}"
            )
        self.clients = clients
        self._client_by_id = {client.client_id: client for client in clients}
        self.interconnect = interconnect
        self.controller = (
            controller
            if controller is not None
            # Unit-service provider: one transaction per cycle, the
            # transaction-slot time base of the schedulability model.
            else MemoryController(FixedLatencyDevice(1), queue_capacity=4)
        )
        self.interconnect.attach_controller(self.controller)
        self.recorder = LatencyRecorder()
        self.fast_path = fast_path
        #: opt-in request tracing (None = off, zero overhead); see
        #: repro.observability — the tracer owns the span ring and the
        #: metrics registry for this trial.
        self.tracer = make_tracer(observability)
        #: opt-in fault injection (None = off, zero overhead): a
        #: FaultPlan (even an empty one) attaches a FaultOrchestrator
        #: as an extra tick stage ahead of the clients — see
        #: repro.faults.  An empty plan is observation-free: the
        #: instrumented run is bit-for-bit identical to an
        #: uninstrumented one (differential tests assert it).
        self.faults = (
            None
            if faults is None
            else FaultOrchestrator(faults, tracer=self.tracer)
        )
        #: opt-in workload churn (None = off, zero overhead): a
        #: ScenarioPlan (even an empty one) attaches a ScenarioDriver
        #: as an extra tick stage between faults and clients — see
        #: repro.scenarios.  An empty plan is bit-for-bit inert on both
        #: engine paths (differential tests assert it).
        self.scenario = make_driver(scenario)
        #: engine counters from the last run() (see TrialResult)
        self.cycles_executed = 0
        self.cycles_skipped = 0
        self.leaps = 0

    def run(self, horizon: int, drain: int | None = None) -> TrialResult:
        """Simulate ``horizon`` cycles of releases plus a drain window.

        ``drain`` extra cycles (default :func:`default_drain`) let
        in-flight transactions complete so their latencies are
        recorded; no new jobs are released during the drain.  Every
        completion is recorded.
        """
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        if drain is None:
            drain = default_drain(horizon)
        reset_request_ids()
        # A fresh engine per run, so every run starts at cycle 0.
        engine = Engine(fast_path=self.fast_path)
        # With the engine fast path on, components may also elide work
        # their quiescence contracts prove to be pure no-ops (empty mux
        # nodes / SEs, idle clients); results are identical either way.
        self.interconnect.fast_tick = self.fast_path
        inject = None
        if self.tracer is not None:
            inject = self.tracer.wrap_inject(self.interconnect.try_inject)
        response_stage = _ResponseStage(
            self.interconnect,
            self._client_by_id,
            self.recorder,
            tracer=self.tracer,
        )
        client_stage = _ClientStage(
            self.clients,
            self.interconnect,
            horizon,
            engine,
            fast_path=self.fast_path,
            inject=inject,
        )
        if self.faults is not None:
            self.faults.bind(self.clients, client_stage)
            # First stage: a burst armed for cycle c is queued before
            # that cycle's releases, arbitration and service.
            engine.register(self.faults)
        if self.scenario is not None:
            # Ahead of the clients: a transition at cycle c changes
            # that cycle's releases (a join's first jobs, a switch's
            # withdrawal) before the client stage runs it.
            self.scenario.bind(
                self.clients, self.interconnect, client_stage=client_stage
            )
            engine.register(self.scenario)
        engine.register(client_stage)
        engine.register(_RequestPathStage(self.interconnect))
        engine.register(self.controller)
        engine.register(response_stage)
        engine.run(horizon + drain)
        self.cycles_executed = engine.cycles_executed
        self.cycles_skipped = engine.cycles_skipped
        self.leaps = engine.leaps
        if self.tracer is not None:
            self.tracer.record_controller_stats(self.controller)
        return self._collect(horizon, response_stage)

    def _collect(
        self, horizon: int, response_stage: _ResponseStage
    ) -> TrialResult:
        released = sum(client.released_requests for client in self.clients)
        dropped = sum(client.dropped_requests for client in self.clients)
        for _ in range(dropped):
            self.recorder.record_drop()
        in_flight = (
            self.interconnect.requests_in_flight()
            + self.interconnect.responses_in_flight()
            + self.controller.in_flight
            + sum(client.pending_count for client in self.clients)
        )
        completed = response_stage.completed_total
        if completed + dropped + in_flight != released:
            raise SimulationError(
                f"request conservation violated: released={released}, "
                f"completed={completed}, dropped={dropped}, in_flight={in_flight}"
            )
        job_outcomes = {
            client.client_id: (
                client.monitored_jobs_judged(horizon),
                client.monitored_job_misses(horizon),
            )
            for client in self.clients
        }
        return TrialResult(
            horizon=horizon,
            recorder=self.recorder,
            job_outcomes=job_outcomes,
            requests_released=released,
            requests_completed=completed,
            requests_dropped=dropped,
            requests_in_flight=in_flight,
            cycles_executed=self.cycles_executed,
            cycles_skipped=self.cycles_skipped,
            trace_digest=response_stage.trace_digest,
            fault_counters=(
                self.faults.counters() if self.faults is not None else {}
            ),
            scenario_counters=(
                self.scenario.counters() if self.scenario is not None else {}
            ),
        )
