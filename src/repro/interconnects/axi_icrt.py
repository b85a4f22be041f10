"""AXI-Interconnect^RT — the centralized real-time baseline (Jiang et
al., RTAS 2021; paper Sec. 1 and 6).

A monolithic switch box buffers every client's requests in a per-client
ingress FIFO; one central arbiter with a global view picks a winner
each arbitration round and pushes it down a fixed-depth pipeline to the
memory controller.

AXI-IC^RT allocates memory bandwidth to each client based on its
workload: a token-bucket regulator per client (budget ``B_c`` per
replenishment window ``W``) gates eligibility, and the arbiter applies
EDF among eligible clients every cycle.  Regulation is what bounds
clients' interference — and what causes the residual priority
inversions Fig. 6 shows for this design.

The monolithic arbiter's critical path grows with the client count,
lowering the achievable clock (Fig. 5(c)); that cost is reported by the
hardware frequency model (:func:`repro.hardware.axi_icrt_fmax_mhz`) and
not simulated, so every design is compared in transaction slots.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.errors import ConfigurationError
from repro.interconnects.base import Interconnect
from repro.memory.request import MemoryRequest


class AxiIcRtInterconnect(Interconnect):
    """Centralized interconnect: regulated clients + global-EDF arbiter."""

    name = "AXI-IC^RT"

    #: switch-box pipeline depth: cycles from arbitration win to the
    #: controller, and the response path's latency back to the client
    PIPELINE_LATENCY = 2

    def __init__(self, n_clients: int, fifo_capacity: int = 8) -> None:
        super().__init__(n_clients)
        if fifo_capacity <= 0:
            raise ConfigurationError("fifo capacity must be positive")
        self.fifo_capacity = fifo_capacity
        self._fifos: list[deque[MemoryRequest]] = [
            deque() for _ in range(n_clients)
        ]
        # The switch-box pipeline: (exit_cycle, request), FIFO order.
        self._pipeline: deque[tuple[int, MemoryRequest]] = deque()
        # Bandwidth regulation state (None = unregulated, pure EDF).
        self._window: int | None = None
        self._budgets: list[int] = []
        self._tokens: list[int] = []
        # Next window boundary whose replenishment has not run yet.
        # Boundaries are reconciled lazily (only whether one passed
        # matters, because replenishment fully resets the buckets), so
        # skipped idle ticks and quiescence leaps need no eager work.
        self._next_refill = 0
        # O(1) switch-box occupancy: requests enter at try_inject and
        # leave when the pipeline hands them to the provider.
        self._occupancy = 0
        # Clients with a non-empty ingress FIFO.  The arbiter's winner
        # is a unique priority minimum (rid breaks ties), so scanning
        # only these — in any order — picks the same request as the
        # full left-to-right scan.
        self._occupied_ids: set[int] = set()

    # -- configuration -----------------------------------------------------------
    def configure_regulation(
        self, budgets: Sequence[int], window: int
    ) -> None:
        """Assign per-client bandwidth: ``budgets[c]`` slots per ``window``.

        The experiments' one budget rule is
        :func:`repro.experiments.factory.axi_budgets`.  The centralized design's scheduling-scalability weakness shows
        here: *all* budgets must be recomputed whenever any client's
        workload changes (the paper contrasts this with BlueScale's
        path-local updates).
        """
        if len(budgets) != self.n_clients:
            raise ConfigurationError(
                f"{len(budgets)} budgets for {self.n_clients} clients"
            )
        if window < 1:
            raise ConfigurationError("regulation window must be >= 1")
        if any(b < 0 for b in budgets):
            raise ConfigurationError("budgets must be non-negative")
        if any(b > window for b in budgets):
            raise ConfigurationError("a budget cannot exceed the window")
        self._window = window
        self._budgets = list(budgets)
        self._tokens = list(budgets)
        self._next_refill = 0

    @property
    def window(self) -> int | None:
        """Bandwidth-regulation replenishment window (None = unregulated)."""
        return self._window

    # -- ingress ------------------------------------------------------------
    def try_inject(self, request: MemoryRequest, cycle: int) -> bool:
        fifo = self._fifos[request.client_id]
        if len(fifo) >= self.fifo_capacity:
            return False
        if request.inject_cycle < 0:
            request.inject_cycle = cycle
        fifo.append(request)
        self._occupancy += 1
        self._occupied_ids.add(request.client_id)
        ctx = request.trace_ctx
        if ctx is not None:
            ctx.emit(
                "axi-switch",
                "enqueue",
                cycle,
                {"port": request.client_id, "occupancy": len(fifo)},
            )
        return True

    # -- request path ------------------------------------------------------------
    def _eligible(self, client_id: int) -> bool:
        if self._window is None:
            return True
        return self._tokens[client_id] > 0

    def tick_request_path(self, cycle: int) -> None:
        if self.fast_tick and not self._occupancy:
            # Empty switch box: the arbiter has nothing to pick and the
            # pipeline nothing to drain; any missed window boundary is
            # reconciled by the lazy refill below on the next occupied
            # tick (no forward can have spent tokens in between).
            return
        # Token replenishment at window boundaries (lazy: one reset
        # covers every boundary passed since the last one ran, because
        # replenishment fully restores the buckets).
        if self._window is not None and cycle >= self._next_refill:
            self._tokens = list(self._budgets)
            self._next_refill = (cycle // self._window + 1) * self._window
        # Pipeline exit first: oldest entry reaches the controller.
        if self._pipeline and self._pipeline[0][0] <= cycle:
            if self._provider_can_accept():
                _, request = self._pipeline.popleft()
                self._forward_to_provider(request, cycle)
                self._occupancy -= 1
        best_client = -1
        best_key: tuple[int, int] | None = None
        if self.fast_tick:
            # Scan only occupied FIFOs: the winner is a unique priority
            # minimum (rid breaks ties), so any scan order picks the
            # same request as the reference left-to-right scan below.
            for client_id in self._occupied_ids:
                if not self._eligible(client_id):
                    continue
                key = self._fifos[client_id][0].priority_key
                if best_key is None or key < best_key:
                    best_key = key
                    best_client = client_id
        else:
            for client_id, fifo in enumerate(self._fifos):
                if not fifo or not self._eligible(client_id):
                    continue
                key = fifo[0].priority_key
                if best_key is None or key < best_key:
                    best_key = key
                    best_client = client_id
        if best_client < 0:
            return
        winner = self._fifos[best_client].popleft()
        if not self._fifos[best_client]:
            self._occupied_ids.discard(best_client)
        if self._window is not None:
            self._tokens[best_client] -= 1
        self._pipeline.append((cycle + self.PIPELINE_LATENCY, winner))
        ctx = winner.trace_ctx
        if ctx is not None:
            ctx.emit(
                "axi-switch", "arbitration_win", cycle, {"port": best_client}
            )
        self._charge_blocking(winner)

    def _charge_blocking(self, forwarded: MemoryRequest) -> None:
        """Charge inversion to eligible (token-holding) waiting requests.

        A client throttled by its own bandwidth regulation is being
        shaped, not blocked by lower-priority traffic; only waiters the
        arbiter *could* have picked are charged.
        """
        key = forwarded.priority_key
        if self.fast_tick:
            # Charging is per-request and order-independent, so the
            # occupied-FIFO scan charges exactly the reference set.
            for client_id in self._occupied_ids:
                if not self._eligible(client_id):
                    continue
                for request in self._fifos[client_id]:
                    if request.priority_key < key:
                        request.charge_blocking()
            return
        for client_id, fifo in enumerate(self._fifos):
            if not self._eligible(client_id):
                continue
            for request in fifo:
                if request.priority_key < key:
                    request.charge_blocking()

    # -- response path -----------------------------------------------------
    def response_latency(self, client_id: int) -> int:
        return self.PIPELINE_LATENCY

    # -- accounting --------------------------------------------------------
    def requests_in_flight(self) -> int:
        return self._occupancy

    # -- quiescence --------------------------------------------------------
    def is_quiescent(self) -> bool:
        """Idle ticks only touch token replenishment (reconciled below).

        Waiting requests whose clients are all token-starved also leave
        the tick pure (the arbiter skips ineligible clients and charges
        no blocking); :meth:`next_activity_cycle` pins the replenishment
        boundary that ends the starvation.
        """
        if not self._occupancy:
            return True
        if self._pipeline:
            return False
        return all(
            not self._eligible(client_id) for client_id in self._occupied_ids
        )

    def next_activity_cycle(self, cycle: int) -> int | None:
        candidate = super().next_activity_cycle(cycle)
        if self._window is not None and self._occupied_ids:
            boundary = -(-cycle // self._window) * self._window
            if candidate is None or boundary < candidate:
                candidate = boundary
        return candidate

    def on_cycles_skipped(self, start: int, cycles: int) -> None:
        """No eager work: token replenishment is reconciled lazily by
        the next occupied tick (see :meth:`tick_request_path`) — a
        single bucket reset covers every boundary inside the gap, and
        no forward can have spent tokens while the box sat idle."""

    def injection_blocked_until(self, client_id: int, cycle: int) -> int | None:
        """A full ingress FIFO refuses injections with no side effects
        (tokens gate the arbiter, not ingress)."""
        if len(self._fifos[client_id]) >= self.fifo_capacity:
            return -1  # space only opens when the arbiter picks this client
        return None
