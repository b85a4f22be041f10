"""GSMTree — the globally arbitrated memory tree (Gomony et al., DATE
2015 / IEEE TC 2016; paper Sec. 2 and 6).

GSMTree keeps the distributed binary-tree datapath but arbitrates
*globally* with Time Division Multiplexing: memory-service slots are
assigned to clients by a fixed frame, and a request may only reach the
memory when its owner's slot is current.  Tree nodes themselves
forward first-come-first-served (work-conserving inside the tree); the
TDM gate at the root enforces the reservation.

Two reservation strategies from the paper's setup:

* **GSMTree-TDM** — equal bandwidth for all clients (one slot each per
  frame).
* **GSMTree-FBSP** — frame-based static priority with slots
  proportional to each client's maximum workload (utilization).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.errors import ConfigurationError
from repro.interconnects.mux_tree import MuxNode, MuxTreeInterconnect
from repro.topology import NodeId


class FcfsNode(MuxNode):
    """2-to-1 mux forwarding the oldest head (FCFS; ties favour port 0)."""

    def choose_port(self, cycle: int) -> int | None:
        left, right = self.fifos
        if left and right:
            return 0 if left[0].rid <= right[0].rid else 1
        if left:
            return 0
        if right:
            return 1
        return None


def build_tdm_frame(n_clients: int) -> list[int]:
    """Equal-share frame: one slot per client, round-robin."""
    if n_clients <= 0:
        raise ConfigurationError("need at least one client")
    return list(range(n_clients))


def build_fbsp_frame(
    weights: Sequence[float | Fraction], min_frame: int | None = None
) -> list[int]:
    """Workload-proportional frame via largest-remainder apportionment.

    ``weights[c]`` is client ``c``'s workload (e.g. utilization).  Every
    client receives at least one slot; the frame length defaults to
    ``max(n_clients, min_frame)``.  Slots are spread round-robin-style
    (clients with more slots appear multiple times, interleaved) to
    avoid long droughts.
    """
    n = len(weights)
    if n == 0:
        raise ConfigurationError("need at least one weight")
    if any(w < 0 for w in weights):
        raise ConfigurationError("weights must be non-negative")
    frame_len = max(n, min_frame or 0)
    total = sum(weights)
    if total == 0:
        return build_tdm_frame(n)[:frame_len] or list(range(n))
    # Largest remainder with a one-slot floor per client.
    exact = [float(w) / float(total) * frame_len for w in weights]
    counts = [max(1, int(e)) for e in exact]
    while sum(counts) > frame_len:
        # Shrink the most over-allocated client (but keep the floor).
        candidates = [i for i in range(n) if counts[i] > 1]
        if not candidates:
            break
        victim = max(candidates, key=lambda i: counts[i] - exact[i])
        counts[victim] -= 1
    remainders = sorted(
        range(n), key=lambda i: exact[i] - int(exact[i]), reverse=True
    )
    index = 0
    while sum(counts) < frame_len:
        counts[remainders[index % n]] += 1
        index += 1
    # Interleave: repeatedly emit one slot per client that still owes slots.
    frame: list[int] = []
    pending = list(counts)
    while len(frame) < sum(counts):
        for client in range(n):
            if pending[client] > 0:
                frame.append(client)
                pending[client] -= 1
    return frame


class TdmRootNode(FcfsNode):
    """The root stage owning the global TDM schedule.

    Each slot, the root's schedule buffer looks for a request of the
    slot's owner anywhere in its input buffers and forwards it;
    when the owner has nothing pending, the slot is reclaimed
    work-conservingly for the oldest request (Gomony et al.'s slack
    reclamation), so reserved-but-idle bandwidth is not wasted.
    """

    def __init__(self, node: NodeId, fifo_capacity: int, owner_of):  # noqa: ANN001
        super().__init__(node, fifo_capacity)
        self._owner_of = owner_of

    def tick(self, cycle: int) -> None:
        owner = self._owner_of(cycle)
        # Prefer the slot owner's oldest request, wherever it is queued.
        chosen_fifo = None
        chosen = None
        for fifo in self.fifos:
            for request in fifo:
                if request.client_id == owner and (
                    chosen is None or request.rid < chosen.rid
                ):
                    chosen_fifo, chosen = fifo, request
        if chosen is None:
            # Slack reclamation: fall back to plain FCFS.
            super().tick(cycle)
            return
        if self.forward is not None and self.forward(chosen, cycle):
            chosen_fifo.remove(chosen)
            self.forwarded += 1
            self.on_forwarded(0, chosen)


class GsmTreeInterconnect(MuxTreeInterconnect):
    """Binary tree, globally arbitrated by a TDM frame at the root."""

    name = "GSMTree-TDM"

    #: max injection credits a client can bank (bounds burst admission)
    CREDIT_CAP = 4

    def __init__(
        self,
        n_clients: int,
        fifo_capacity: int = 4,
        frame: Sequence[int] | None = None,
    ) -> None:
        super().__init__(n_clients, fifo_capacity)
        self.frame: list[int] = (
            list(frame) if frame is not None else build_tdm_frame(n_clients)
        )
        if not self.frame:
            raise ConfigurationError("TDM frame cannot be empty")
        for owner in self.frame:
            if not 0 <= owner < n_clients:
                raise ConfigurationError(f"frame slot owner {owner} out of range")
        # The global schedule admits traffic at the leaves: a client may
        # inject one request per owned slot (banked up to CREDIT_CAP).
        # This is the bandwidth reservation that decouples clients —
        # and that wastes capacity when reservations mismatch demand.
        self._credits = [float(self.CREDIT_CAP)] * n_clients
        self._last_credit_cycle = -1
        # Per-owner slot counts of one full frame, for the analytic
        # credit catch-up after long idle gaps (quiescence leaps).
        self._frame_counts = [0] * n_clients
        for owner in self.frame:
            self._frame_counts[owner] += 1

    def make_node(self, node_id: NodeId) -> MuxNode:
        if node_id == (0, 0):
            return TdmRootNode(node_id, self.fifo_capacity, self.slot_owner)
        return FcfsNode(node_id, self.fifo_capacity)

    def slot_owner(self, cycle: int) -> int:
        """Owner of the one-cycle TDM slot ``cycle``."""
        return self.frame[cycle % len(self.frame)]

    def _refresh_credits(self, cycle: int) -> None:
        """Grant each slot owner one injection credit (idempotent per cycle).

        Credits are granted lazily at injection time, so the grant loop
        naturally absorbs idle gaps (including quiescence leaps).  Long
        gaps take the analytic path: because credits saturate at the cap
        and no injection can occur inside the gap, granting is
        order-free within it — ``min(cap, credits + slots_owned)`` per
        client reproduces the cycle-by-cycle loop exactly.
        """
        if cycle == self._last_credit_cycle:
            return
        start = self._last_credit_cycle + 1
        if cycle - start < 2 * len(self.frame):
            for c in range(start, cycle + 1):
                owner = self.slot_owner(c)
                if self._credits[owner] < self.CREDIT_CAP:
                    self._credits[owner] += 1
            self._last_credit_cycle = cycle
            return
        # Analytic catch-up: count the slots each owner got in
        # (last_credit_cycle, cycle] without walking every cycle.
        frame_len = len(self.frame)
        full_frames, remainder = divmod(cycle - start + 1, frame_len)
        grants = [count * full_frames for count in self._frame_counts]
        base = start % frame_len
        for offset in range(remainder):
            grants[self.frame[(base + offset) % frame_len]] += 1
        for client, granted in enumerate(grants):
            if granted and self._credits[client] < self.CREDIT_CAP:
                self._credits[client] = min(
                    float(self.CREDIT_CAP), self._credits[client] + granted
                )
        self._last_credit_cycle = cycle

    def try_inject(self, request, cycle: int) -> bool:  # noqa: ANN001
        self._refresh_credits(cycle)
        client = request.client_id
        if self._credits[client] < 1:
            return False
        if super().try_inject(request, cycle):
            self._credits[client] -= 1
            return True
        return False

    def injection_blocked_until(self, client_id: int, cycle: int) -> int | None:
        """Full leaf FIFO (inherited), or credit starvation.

        A credit-starved client is refused, side-effect-free, until its
        next owned slot (where the lazy refresh grants it a credit);
        advancing the refresh here is safe because grants are order-free
        while no injection can happen.
        """
        blocked = super().injection_blocked_until(client_id, cycle)
        if blocked is not None:
            return blocked
        self._refresh_credits(cycle)
        if self._credits[client_id] >= 1:
            return None
        # Slots <= cycle are already granted by the refresh above; scan
        # one frame of strictly later slots.
        frame_len = len(self.frame)
        for slot in range(cycle + 1, cycle + 1 + frame_len):
            if self.frame[slot % frame_len] == client_id:
                return slot
        return -1  # not in the frame: never granted a credit


def gsmtree_tdm(n_clients: int, fifo_capacity: int = 4) -> GsmTreeInterconnect:
    """GSMTree with equal bandwidth reservation (paper's GSMTree-TDM)."""
    interconnect = GsmTreeInterconnect(n_clients, fifo_capacity)
    interconnect.name = "GSMTree-TDM"
    return interconnect


def gsmtree_fbsp(
    n_clients: int,
    workloads: Sequence[float | Fraction],
    fifo_capacity: int = 4,
    min_frame: int | None = None,
) -> GsmTreeInterconnect:
    """GSMTree with workload-proportional reservation (GSMTree-FBSP).

    The frame must be longer than one slot per client or proportional
    apportionment degenerates to equal shares; default is 4 slots per
    client."""
    if len(workloads) != n_clients:
        raise ConfigurationError(
            f"{len(workloads)} workloads for {n_clients} clients"
        )
    if min_frame is None:
        min_frame = 4 * n_clients
    frame = build_fbsp_frame(workloads, min_frame=min_frame)
    interconnect = GsmTreeInterconnect(n_clients, fifo_capacity, frame=frame)
    interconnect.name = "GSMTree-FBSP"
    return interconnect
