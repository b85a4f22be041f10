"""The Scale Element (paper Sec. 3.1 and 4, Fig. 2(b)).

An SE wires together the two nested priority queues:

* **lower level** — one :class:`RandomAccessBuffer` per local client
  port, each delivering its earliest-deadline request;
* **upper level** — the :class:`LocalScheduler`'s server tasks, which
  gate each port by its VE budget and compete under EDF (Algorithm 1).

Each cycle an SE forwards at most one request toward its local
provider (the parent SE's port buffer, or the memory controller at the
root).  Forwarding respects provider backpressure: the winning request
is only fetched when the provider can accept it, so nothing is dropped
inside the tree.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.prm import ResourceInterface
from repro.core.local_scheduler import LocalScheduler
from repro.core.random_access_buffer import RandomAccessBuffer
from repro.errors import ConfigurationError
from repro.memory.request import MemoryRequest
from repro.topology import NodeId

#: provider-side hook: returns True when it consumed the request
ForwardHook = Callable[[MemoryRequest, int], bool]

#: requests per port buffer: the paper's small random-access buffers,
#: the depth the hardware cost model prices (``scale_element_cost``)
PORT_BUFFER_DEPTH = 2


class ScaleElement:
    """One Scale Element of the BlueScale tree.

    The paper's SEs are 4-to-1 (quadtree); ``fanout`` generalizes the
    element for design-space studies (e.g. the binary-fanout ablation).
    """

    FANOUT = 4

    def __init__(
        self,
        node: NodeId,
        buffer_capacity: int = PORT_BUFFER_DEPTH,
        fanout: int | None = None,
    ) -> None:
        self.fanout = fanout if fanout is not None else self.FANOUT
        if self.fanout < 2:
            raise ConfigurationError(f"SE fanout must be >= 2, got {self.fanout}")
        self.node = node
        #: observability site label (precomputed; used only for traced
        #: requests, via ``request.trace_ctx`` duck typing)
        self._site = f"se:{node[0]}:{node[1]}"
        self.buffers = [
            RandomAccessBuffer(buffer_capacity) for _ in range(self.fanout)
        ]
        # Until programmed (:meth:`program_port`), every port gets a
        # background (idle) interface: traffic still flows, EDF order only.
        self.scheduler = LocalScheduler(
            [ResourceInterface(1, 0)] * self.fanout
        )
        self.forward_to_provider: ForwardHook | None = None
        self.forwarded = 0
        self.stalled_cycles = 0
        # O(1) occupancy (requests across all port buffers) and the
        # first cycle whose scheduler tick has not been applied yet.
        # Idle scheduler ticks are reconciled lazily: an empty SE's tick
        # is select_port(None) plus a counter op, so the fast path may
        # skip the call entirely and replay the counters on the next
        # cycle that matters (:meth:`sync_to`).
        self._occupancy = 0
        self._synced_until = 0
        # First cycle whose scheduling decision can differ from "no
        # forward".  Set by tick() when select_port comes up empty
        # (empty or budget-gated SE: the earliest replenishment among
        # occupied ports), reset to 0 by any arrival or reprogramming.
        # While cycle < _wake the SE is provably quiescent and the fast
        # path skips its tick.
        self._wake = 0

    # -- local client ports ----------------------------------------------------
    def try_accept(
        self, port: int, request: MemoryRequest, cycle: int = 0
    ) -> bool:
        """Local-client-port ingress (loader side of the port buffer).

        ``cycle`` is only consumed by the observability span of a traced
        request; untraced traffic ignores it (callers that predate the
        tracing layer may omit it).
        """
        if not 0 <= port < self.fanout:
            raise ConfigurationError(f"port {port} out of range")
        accepted = self.buffers[port].try_load(request)
        if accepted:
            self._occupancy += 1
            self._wake = 0  # a new request may change the next decision
            ctx = request.trace_ctx
            if ctx is not None:
                ctx.emit(
                    self._site,
                    "enqueue",
                    cycle,
                    {"port": port, "occupancy": self._occupancy},
                )
        return accepted

    # -- parameter path ----------------------------------------------------------
    def program_port(
        self, port: int, interface: ResourceInterface, now: int = 0
    ) -> None:
        """Program one server task's (Π, Θ) via the parameter path."""
        if not 0 <= port < self.fanout:
            raise ConfigurationError(f"port {port} out of range")
        self.sync_to(now)
        self.scheduler.reprogram_port(port, interface, now)
        self._wake = 0  # fresh budgets invalidate any cached gating

    def interfaces(self) -> list[ResourceInterface]:
        return [server.interface for server in self.scheduler.servers]

    # -- request path ------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """One cycle: scheduling decision, forward, counter update."""
        self.sync_to(cycle)
        port = self.scheduler.select_port(self.buffers)
        if port is not None:
            buffer = self.buffers[port]
            winner = buffer.peek_highest_priority()
            assert winner is not None
            if self.forward_to_provider is not None and self.forward_to_provider(
                winner, cycle
            ):
                buffer.fetch_highest_priority()
                self._occupancy -= 1
                self.scheduler.account_forward(port)
                self.forwarded += 1
                ctx = winner.trace_ctx
                if ctx is not None:
                    ctx.emit(
                        self._site, "arbitration_win", cycle, {"port": port}
                    )
                self._charge_blocking(winner)
            else:
                self.stalled_cycles += 1
        self.scheduler.tick(cycle)
        self._synced_until = cycle + 1
        if port is None:
            # select_port returning None means every occupied port was
            # budget-gated at this cycle's decision.  A replenishment
            # may have landed during the counter update just above, so
            # gate on has_budget before trusting the replenish distance.
            wake = 1 << 62
            for buffer_port, buffer in enumerate(self.buffers):
                if buffer.is_quiescent():
                    continue
                counters = self.scheduler.servers[buffer_port].counters
                if counters.has_budget:
                    wake = cycle + 1
                    break
                replenish = cycle + 1 + counters.cycles_to_replenish
                if replenish < wake:
                    wake = replenish
            self._wake = wake
        else:
            self._wake = 0

    def sync_to(self, cycle: int) -> None:
        """Replay elided idle scheduler ticks for cycles < ``cycle``.

        Only ever called with a gap when the SE sat empty (the fast
        path skipped its ticks) — each elided tick was select_port over
        empty buffers (None) plus one counter step, which
        ``LocalScheduler.on_cycles_skipped`` reproduces exactly.
        """
        gap = cycle - self._synced_until
        if gap > 0:
            self.scheduler.on_cycles_skipped(self._synced_until, gap)
            self._synced_until = cycle

    def _charge_blocking(self, forwarded: MemoryRequest) -> None:
        """Charge priority inversion to eligible waiting requests.

        A waiting request is *blocked by a lower-priority request* when
        a later-deadline request is forwarded while it (a) has an
        earlier deadline and (b) was eligible — its server still had
        budget (a port waiting only because its VE budget is exhausted
        is being shaped by its reservation, not blocked by lower-
        priority traffic).
        """
        key = forwarded.priority_key
        for port, buffer in enumerate(self.buffers):
            server = self.scheduler.servers[port]
            if not (server.is_idle_interface or server.has_budget):
                continue
            for request in buffer.waiting_requests():
                if request.priority_key < key:
                    request.charge_blocking()

    # -- quiescence --------------------------------------------------------------
    def is_quiescent(self) -> bool:
        """True when a tick only advances the P/B counters.

        That covers two cases, both reproduced exactly by
        :meth:`on_cycles_skipped`:

        * every port buffer is empty (nothing to schedule), or
        * every occupied port is *budget-gated*: its server is a
          provisioned one whose B-counter is exhausted, so
          ``select_port`` returns None (no forward, no stall count, no
          blocking charge) until a replenishment —
          :meth:`next_activity_cycle` pins the earliest one.
        """
        if not self._occupancy:
            return True
        for port, buffer in enumerate(self.buffers):
            if buffer.is_quiescent():
                continue
            server = self.scheduler.servers[port]
            if server.is_idle_interface or server.has_budget:
                return False
        return True

    def activity_if_quiescent(self, cycle: int) -> int | None:
        """Fused quiescence + activity scan: one pass over the ports.

        Returns None when the SE is *not* quiescent, else the earliest
        budget replenishment among occupied ports — the same values
        :meth:`is_quiescent` and :meth:`next_activity_cycle` produce,
        computed without walking the ports twice.  Callers must ensure
        the SE is occupied (empty SEs have no activity of their own).
        """
        self.sync_to(cycle)
        earliest = 1 << 62
        for port, buffer in enumerate(self.buffers):
            if buffer.is_quiescent():
                continue
            server = self.scheduler.servers[port]
            if server.is_idle_interface or server.has_budget:
                return None
            replenish = cycle + server.counters.cycles_to_replenish
            if replenish < earliest:
                earliest = replenish
        return earliest

    def next_activity_cycle(self, cycle: int) -> int | None:
        """Earliest select_port() that could forward: the first budget
        replenishment among occupied, budget-gated ports.

        With the P-counter at ``v``, the zero-crossing happens on the
        tick at ``cycle + v - 1`` (a pure counter op, reconciled by
        :meth:`sync_to`), so ``cycle + v`` is the first tick whose
        scheduling decision can differ — the exact wake cycle.
        """
        if not self._occupancy:
            return None
        self.sync_to(cycle)
        earliest: int | None = None
        for port, buffer in enumerate(self.buffers):
            if buffer.is_quiescent():
                continue
            replenish = cycle + self.scheduler.servers[port].counters.cycles_to_replenish
            if earliest is None or replenish < earliest:
                earliest = replenish
        return earliest

    # -- introspection -----------------------------------------------------------
    def occupancy(self) -> int:
        return sum(len(buffer) for buffer in self.buffers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        level, order = self.node
        return f"<SE({level},{order}) occ={self.occupancy()} fwd={self.forwarded}>"
