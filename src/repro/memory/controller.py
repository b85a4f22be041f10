"""Memory controller servicing one request at a time.

The controller is the shared provider at the root of every interconnect
in the paper's platform.  It owns a bounded request queue (providing
backpressure to the interconnect root), an arbitration policy (FCFS or
FR-FCFS), and the DRAM device model that determines per-access cost.

Blocking accounting: while the controller services request ``r``, every
queued request with an earlier absolute deadline than ``r`` is being
*blocked by a lower-priority request* and is charged one blocking cycle
per cycle — the definition Fig. 6 measures.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Protocol

from repro.errors import CapacityError, ConfigurationError, SimulationError
from repro.memory.request import MemoryRequest


class ArbitrationPolicy(enum.Enum):
    """Controller-level request arbitration."""

    FCFS = "fcfs"
    FR_FCFS = "fr-fcfs"  # row hits first, then oldest


class _Device(Protocol):
    def access(self, request: MemoryRequest) -> int: ...  # pragma: no cover
    def access_cost(self, request: MemoryRequest) -> int: ...  # pragma: no cover


ResponseCallback = Callable[[MemoryRequest, int], None]


class MemoryController:
    """Cycle-level controller front-end.

    Drive it with :meth:`enqueue` (from the interconnect root) and
    :meth:`tick` (once per cycle).  Completed requests are handed to the
    ``on_response`` callback, which the SoC simulator wires to the
    interconnect's response path.
    """

    def __init__(
        self,
        device: _Device,
        queue_capacity: int = 16,
        policy: ArbitrationPolicy = ArbitrationPolicy.FCFS,
        on_response: ResponseCallback | None = None,
        reorder_cap: int | None = None,
    ) -> None:
        """``reorder_cap`` bounds FR-FCFS starvation blacklisting-style:
        after the oldest queued request has been bypassed by that many
        row hits, the scheduler reverts to strict FCFS until the head
        is served.  ``None`` (default) keeps the unbounded reordering
        of plain FR-FCFS; 0 degenerates to FCFS.  Every bypass of the
        head is counted in ``reorder_count`` regardless of the cap."""
        if queue_capacity <= 0:
            raise ConfigurationError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
        if reorder_cap is not None and reorder_cap < 0:
            raise ConfigurationError(
                f"reorder cap cannot be negative, got {reorder_cap}"
            )
        self.device = device
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.on_response = on_response
        self.reorder_cap = reorder_cap
        #: FR-FCFS picks that bypassed the oldest queued request
        self.reorder_count = 0
        self._head_bypasses = 0
        self._queue: deque[MemoryRequest] = deque()
        self._in_service: MemoryRequest | None = None
        self._service_remaining = 0
        self.serviced = 0
        self.busy_cycles = 0

    # -- ingress ------------------------------------------------------------
    def can_accept(self) -> bool:
        return len(self._queue) < self.queue_capacity

    def enqueue(self, request: MemoryRequest, cycle: int) -> None:
        """Accept a request from the interconnect root."""
        if not self.can_accept():
            raise CapacityError(
                f"controller queue full ({self.queue_capacity}); the "
                "interconnect must respect can_accept()"
            )
        request.arrive_controller_cycle = cycle
        self._queue.append(request)
        ctx = request.trace_ctx
        if ctx is not None:
            ctx.emit("mc", "enqueue", cycle, {"occupancy": len(self._queue)})

    # -- arbitration --------------------------------------------------------
    def _pick_next(self) -> MemoryRequest:
        if self.policy is ArbitrationPolicy.FCFS:
            return self._queue.popleft()
        # FR-FCFS: oldest row hit, else oldest.  The reorder cap bounds
        # starvation of the queue head: once it has been bypassed
        # ``reorder_cap`` times the scheduler falls back to strict FCFS
        # until the head is served (blacklisting-style fairness).
        hit_checker = getattr(self.device, "is_row_hit", None)
        if hit_checker is not None and (
            self.reorder_cap is None or self._head_bypasses < self.reorder_cap
        ):
            for index, request in enumerate(self._queue):
                if hit_checker(request):
                    del self._queue[index]
                    if index > 0:
                        self.reorder_count += 1
                        self._head_bypasses += 1
                    else:
                        self._head_bypasses = 0
                    return request
        self._head_bypasses = 0
        return self._queue.popleft()

    # -- per-cycle ------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if self._in_service is None and self._queue:
            request = self._pick_next()
            request.service_start_cycle = cycle
            self._in_service = request
            self._service_remaining = self.device.access(request)
            ctx = request.trace_ctx
            if ctx is not None:
                ctx.emit(
                    "mc",
                    "service_start",
                    cycle,
                    {"cost": self._service_remaining},
                )
        if self._in_service is None:
            return
        self.busy_cycles += 1
        # Priority-inversion accounting at the provider.
        in_service_key = self._in_service.priority_key
        for queued in self._queue:
            if queued.priority_key < in_service_key:
                queued.charge_blocking()
        self._service_remaining -= 1
        if self._service_remaining == 0:
            done = self._in_service
            done.service_end_cycle = cycle + 1
            self._in_service = None
            self.serviced += 1
            ctx = done.trace_ctx
            if ctx is not None:
                ctx.emit("mc", "service_end", cycle + 1)
            if self.on_response is not None:
                self.on_response(done, cycle + 1)

    # -- quiescence --------------------------------------------------------
    def is_quiescent(self) -> bool:
        """True when per-cycle ticking is reconcilable without input.

        An empty controller is a pure no-op.  A controller *serving*
        with an empty queue is also quiescent: each tick only counts a
        busy cycle and decrements the service countdown (no queued
        request to charge blocking against), which
        :meth:`on_cycles_skipped` replays arithmetically —
        :meth:`next_activity_cycle` pins the completion cycle so the
        response fires on time.  A non-empty queue needs real per-cycle
        work.
        """
        return not self._queue

    def next_activity_cycle(self, cycle: int) -> int | None:
        """Earliest upcoming cycle whose tick is not a no-op.

        ``cycle`` is the next cycle the engine would execute; service
        countdown state reflects every tick before it.
        """
        if self._in_service is None:
            return None
        # Ticks at cycle, cycle+1, ... decrement the countdown;
        # completion (and on_response) happens on the tick that takes
        # it to zero.
        return cycle + self._service_remaining - 1

    def on_cycles_skipped(self, start: int, cycles: int) -> None:
        """Replay ``cycles`` idle ticks of the service countdown.

        A valid leap never swallows the completion tick: the engine must
        execute the cycle that takes the countdown to zero (it fires
        ``on_response``), so ``cycles < _service_remaining`` is a hard
        simulation invariant.  An over-skip would drive the countdown
        negative and the in-service request would never complete —
        detected here instead of surfacing as a request-conservation
        failure at trial end.  ``busy_cycles`` is clamped to the largest
        legal replay before raising, so accounting stays consistent for
        post-mortem inspection.
        """
        if self._in_service is not None:
            if cycles >= self._service_remaining:
                legal = max(0, self._service_remaining - 1)
                self.busy_cycles += legal
                self._service_remaining -= legal
                raise SimulationError(
                    f"engine over-skip: leapt {cycles} cycles at {start} but "
                    f"request {self._in_service.rid} completes in "
                    f"{legal + 1} (the completion tick must execute)"
                )
            self.busy_cycles += cycles
            self._service_remaining -= cycles

    # -- introspection -----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._in_service is not None

    @property
    def in_flight(self) -> int:
        """Requests inside the controller (queued + in service)."""
        return len(self._queue) + (1 if self._in_service is not None else 0)
