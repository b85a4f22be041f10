"""Common machinery for all interconnect models.

Every interconnect in the paper's evaluation (BlueScale, AXI-IC^RT,
BlueTree, BlueTree-Smooth, GSMTree-TDM/-FBSP) implements the same
contract so the SoC simulator and the experiment harness can swap them
freely:

* ``try_inject(request, cycle)`` — a client offers a request at its
  ingress port; returns False when the port buffer is full (the client
  retries next cycle).
* ``tick_request_path(cycle)`` — advance the request pipeline one
  cycle; requests reaching the provider are pushed into the attached
  :class:`~repro.memory.controller.MemoryController` (respecting its
  backpressure).
* ``begin_response(request, cycle)`` — the controller finished a
  request; the interconnect routes the response back to the client.
* ``tick_response_path(cycle)`` — advance responses; returns requests
  delivered to their clients this cycle.

**Time base.** Simulations run in *transaction slots*: one cycle is the
time the provider needs to service one transaction (the paper's
"transaction time unit" from the compositional scheduling model).  All
periods, budgets and deadlines share this unit, which keeps the
schedulability analysis and the simulator commensurable.

**Response routing.** Response paths in all six designs are demux
chains without arbitration, so they are modelled as a fixed per-client
hop latency (one cycle per tree level, or the pipeline depth for the
centralized design).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.memory.controller import MemoryController
from repro.memory.request import MemoryRequest


class Interconnect(ABC):
    """Abstract interconnect between ``n_clients`` and one provider."""

    #: short identifier used in experiment reports (override per design)
    name: str = "abstract"

    #: set by the SoC simulation when the engine's quiescence fast path
    #: is on: the interconnect may then elide per-stage work its own
    #: quiescence contract proves to be a pure no-op (e.g. ticking an
    #: empty mux node).  Off by default — the reference path ticks
    #: every stage every cycle, and results are identical either way.
    fast_tick: bool = False

    def __init__(self, n_clients: int) -> None:
        if n_clients < 1:
            raise ConfigurationError(f"need at least one client, got {n_clients}")
        self.n_clients = n_clients
        self.controller: MemoryController | None = None
        self._responses: list[tuple[int, int, MemoryRequest]] = []
        self._response_seq = 0
        self.forwarded_to_provider = 0

    # -- wiring ----------------------------------------------------------------
    def attach_controller(self, controller: MemoryController) -> None:
        """Connect the provider and register for its responses."""
        self.controller = controller
        controller.on_response = self.begin_response

    # -- client-side ingress -----------------------------------------------
    @abstractmethod
    def try_inject(self, request: MemoryRequest, cycle: int) -> bool:
        """Offer a request at the client's ingress; False if port full."""

    # -- request path ----------------------------------------------------------
    @abstractmethod
    def tick_request_path(self, cycle: int) -> None:
        """Advance the request pipeline by one cycle."""

    # -- response path -----------------------------------------------------
    @abstractmethod
    def response_latency(self, client_id: int) -> int:
        """Response-path latency (cycles) back to ``client_id``."""

    def begin_response(self, request: MemoryRequest, cycle: int) -> None:
        """Route a completed request back toward its client."""
        deliver_at = cycle + self.response_latency(request.client_id)
        heapq.heappush(
            self._responses, (deliver_at, self._response_seq, request)
        )
        self._response_seq += 1
        ctx = request.trace_ctx
        if ctx is not None:
            ctx.emit(
                "response-path",
                "response_enqueue",
                cycle,
                {"deliver_at": deliver_at},
            )

    def tick_response_path(self, cycle: int) -> list[MemoryRequest]:
        """Responses that reach their client this cycle."""
        delivered: list[MemoryRequest] = []
        responses = self._responses
        while responses and responses[0][0] <= cycle:
            _, _, request = heapq.heappop(responses)
            request.mark_complete(cycle)
            delivered.append(request)
        return delivered

    # -- provider-side helpers --------------------------------------------------
    def _provider_can_accept(self) -> bool:
        return self.controller is not None and self.controller.can_accept()

    def _forward_to_provider(self, request: MemoryRequest, cycle: int) -> None:
        assert self.controller is not None
        self.controller.enqueue(request, cycle)
        self.forwarded_to_provider += 1

    # -- accounting --------------------------------------------------------
    @abstractmethod
    def requests_in_flight(self) -> int:
        """Requests currently buffered inside the request path."""

    def responses_in_flight(self) -> int:
        return len(self._responses)

    def next_response_cycle(self) -> int | None:
        """Delivery cycle of the earliest buffered response (None = none).

        Response delivery cycles are pre-computed at
        :meth:`begin_response` time, so the heap head alone bounds the
        response path's next activity — cheaper than the full
        :meth:`next_activity_cycle`, which also scans request-path
        state the request stage already declares."""
        if self._responses:
            return self._responses[0][0]
        return None

    # -- quiescence --------------------------------------------------------
    def is_quiescent(self) -> bool:
        """True when ticking either path is a no-op (or reconcilable).

        With the request path empty no arbiter has anything to forward;
        in-flight responses do not veto quiescence because their
        delivery cycles are pre-computed — :meth:`next_activity_cycle`
        pins the earliest of them instead.  Designs whose idle ticks
        mutate cycle-counted state must also override
        ``on_cycles_skipped`` to reconcile it.
        """
        return self.requests_in_flight() == 0

    def next_activity_cycle(self, cycle: int) -> int | None:
        """Earliest cycle a buffered response reaches its client."""
        return self.next_response_cycle()

    def on_cycles_skipped(self, start: int, cycles: int) -> None:
        """Reconcile cycle-counted idle state after a quiescence leap.

        The base request/response plumbing keeps no per-cycle state, so
        the default is a no-op; subclasses with replenishment windows or
        period counters override this.
        """

    def injection_blocked_until(self, client_id: int, cycle: int) -> int | None:
        """Is an injection by ``client_id`` guaranteed to be refused?

        Lets a client with pending traffic count as quiescent while its
        refusals are side-effect-free no-ops.  Returns:

        * ``None`` — an injection may succeed at ``cycle``; the client
          must keep ticking (it vetoes quiescence).
        * a cycle ``>= cycle`` — refusals are guaranteed strictly before
          it (e.g. the next regulation replenishment); the engine may
          leap that far.
        * ``-1`` — blocked until the fabric itself acts (e.g. a full
          ingress buffer); safe because any fabric action caps the leap
          through the fabric's own quiescence declaration.

        The default is conservative: never blocked.
        """
        return None
