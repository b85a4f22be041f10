"""SoA kernel for the binary mux-tree designs.

Covers the three concrete :class:`~repro.interconnects.mux_tree`
families: BlueTree / BlueTree-Smooth (streak-based alternation) and
GSMTree TDM/FBSP (FCFS inner nodes + a TDM-slotted root with
credit-gated injection).

Layout: a *compact* FIFO per (trial, node, port) — ``buf[level]`` is
``(N, nodes_at_level, 2, fifo_capacity)`` with the head always at slot
0 and ``length`` counting live slots; a pop shifts the (tiny) window
down one slot.  A parallel ``kbuf`` carries each entry's encoded
priority key so blocking charges never gather through the rid table.
Because node order ``o`` feeds port ``o % 2`` of parent ``o // 2``,
the flattened ``(node, port)`` axis makes the parent slot of node
``o`` simply index ``o`` — pushes up the tree are direct writes, no
index arithmetic.  A cycle ticks levels root-first exactly like the
scalar ``_tick_order``; within a level every node forwards into a
*distinct* parent port, so the vectorized read-then-write is identical
to the scalar per-node sequence.
"""

from __future__ import annotations

import numpy as np

from repro.interconnects.gsmtree import GsmTreeInterconnect
from repro.sim.batched.extract import BIG


class MuxTreeKernel:
    """Lock-step tick over a batch of identical binary-tree fabrics."""

    def __init__(self, core, sims) -> None:
        self.core = core
        ic = sims[0].interconnect
        topo = ic.topology
        self.depth = topo.depth
        self.f = ic.fifo_capacity
        n = core.n
        self.n = n
        # per-level node counts (orders are a contiguous prefix)
        counts = [0] * (topo.depth + 1)
        for level, order in topo.all_nodes():
            counts[level] = max(counts[level], order + 1)
        self.counts = counts
        self.buf = [
            np.zeros((n, m, 2, self.f), dtype=np.int64) for m in counts
        ]
        # empty key slots hold the BIG sentinel: charges and head reads
        # then need no occupancy mask at all
        self.kbuf = [
            np.full((n, m, 2, self.f), BIG, dtype=np.int64) for m in counts
        ]
        self.length = [np.zeros((n, m, 2), dtype=np.int64) for m in counts]
        # flattened (node, port) views sharing memory with the above:
        # flat index o at level l is port o % 2 of node o // 2, i.e.
        # exactly where level l+1's node order o forwards to
        self.fbuf = [b.reshape(n, -1, self.f) for b in self.buf]
        self.fkbuf = [b.reshape(n, -1, self.f) for b in self.kbuf]
        self.flen = [le.reshape(n, -1) for le in self.length]
        #: scalar request count per level — skips empty levels without
        #: an array scan (matters for the drain tail)
        self.occ = [0] * (topo.depth + 1)
        self._n_idx = np.arange(n)
        self._off = np.arange(self.f, dtype=np.int64)
        if isinstance(ic, GsmTreeInterconnect):
            self.variant = "fcfs"
            self.alpha = 0
            self.streak = None
            self.flen_frame = len(ic.frame)
            self.cap = ic.CREDIT_CAP
            self.frame = np.asarray(
                [sim.interconnect.frame for sim in sims], dtype=np.int64
            )
            self.credits = np.full(
                (n, core.n_ports), self.cap, dtype=np.int64
            )
        else:
            self.variant = "streak"
            self.alpha = ic.alpha
            self.streak = [np.zeros((n, m), dtype=np.int64) for m in counts]
            self.frame = None
            self.credits = None

    # -- client ingress ------------------------------------------------------

    def begin_cycle(self, cycle: int, active: np.ndarray) -> None:
        if self.credits is None:
            return
        # one credit (capped) to the owner of this cycle's slot — the
        # dense form of the scalar's lazy _refresh_credits
        owner = self.frame[self._n_idx, cycle % self.flen_frame]
        current = self.credits[self._n_idx, owner]
        self.credits[self._n_idx, owner] = np.minimum(self.cap, current + 1)

    def inject_space(self, cycle: int) -> np.ndarray:
        space = self.flen[self.depth][:, self.core.client_ids] < self.f
        if self.credits is not None:
            space = space & (self.credits[:, self.core.client_ids] >= 1)
        return space

    def accept(self, cycle, trials, cols, rids) -> None:
        level = self.depth
        ids = self.core.client_ids[cols]
        length = self.flen[level]
        at = length[trials, ids]
        self.fbuf[level][trials, ids, at] = rids
        self.fkbuf[level][trials, ids, at] = self.core.key[trials, rids]
        length[trials, ids] += 1
        self.occ[level] += len(trials)
        if self.credits is not None:
            self.credits[trials, ids] -= 1

    # -- fabric tick ---------------------------------------------------------

    def tick(self, cycle: int, active: np.ndarray) -> None:
        for level in range(self.depth + 1):
            if not self.occ[level]:
                continue
            if level == 0 and self.variant == "fcfs":
                self._tick_tdm_root(cycle, active)
            else:
                self._tick_level(cycle, active, level)

    def _tick_level(self, cycle: int, active: np.ndarray, level: int) -> None:
        buf = self.buf[level]
        length = self.length[level]
        has0 = length[..., 0] > 0
        has1 = length[..., 1] > 0
        occupied = has0 | has1
        heads = buf[..., 0]
        if self.variant == "streak":
            alt = (self.streak[level] >= self.alpha).astype(np.int64)
        else:
            # FCFS: older (lower-rid) head wins when both sides wait
            alt = (heads[..., 0] > heads[..., 1]).astype(np.int64)
        port = np.where(has0 & has1, alt, np.where(has0, 0, 1))
        m = self.counts[level]
        if level > 0:
            space = self.flen[level - 1][:, :m] < self.f
        else:
            space = self.core.provider_space()[:, None]
        tt, nn = np.nonzero(occupied & active[:, None] & space)
        if not len(tt):
            return
        pp = port[tt, nn]
        kbuf = self.kbuf[level]
        rids = buf[tt, nn, pp, 0]
        keys = kbuf[tt, nn, pp, 0]
        buf[tt, nn, pp, : self.f - 1] = buf[tt, nn, pp, 1:]
        kbuf[tt, nn, pp, : self.f - 1] = kbuf[tt, nn, pp, 1:]
        kbuf[tt, nn, pp, self.f - 1] = BIG
        length[tt, nn, pp] -= 1
        self.occ[level] -= len(tt)
        if self.variant == "streak":
            streak = self.streak[level]
            streak[tt, nn] = np.where(pp == 0, streak[tt, nn] + 1, 0)
        if level > 0:
            up_length = self.flen[level - 1]
            at = up_length[tt, nn]
            self.fbuf[level - 1][tt, nn, at] = rids
            self.fkbuf[level - 1][tt, nn, at] = keys
            up_length[tt, nn] += 1
            self.occ[level - 1] += len(tt)
        else:
            self.core.enqueue_provider(tt, rids, keys)
        self._charge(level, tt, nn, keys)

    def _tick_tdm_root(self, cycle: int, active: np.ndarray) -> None:
        f = self.f
        buf = self.buf[0][:, 0]
        kbuf = self.kbuf[0][:, 0]
        length = self.length[0][:, 0]
        n_idx = self._n_idx
        owner = self.frame[n_idx, cycle % self.flen_frame]
        off = self._off
        valid = off[None, None, :] < length[..., None]
        cid = self.core.rclient[
            n_idx[:, None, None], np.where(valid, buf, 0)
        ]
        match = valid & (cid == owner[:, None, None])
        encoded = np.where(match, buf, BIG)
        flat = encoded.reshape(self.n, 2 * f)
        pos = np.argmin(flat, axis=1)
        winner = flat[n_idx, pos]
        found = winner < BIG
        tt = np.nonzero(found & active & self.core.provider_space())[0]
        if len(tt):
            fifo = pos[tt] // f
            at = pos[tt] % f
            rids = winner[tt]
            keys = kbuf[tt, fifo, at]
            # middle removal: close the gap by shifting the tail down
            take = np.minimum(
                off[None, :] + (off[None, :] >= at[:, None]), f - 1
            )
            buf[tt, fifo] = np.take_along_axis(buf[tt, fifo], take, axis=1)
            kbuf[tt, fifo] = np.take_along_axis(
                kbuf[tt, fifo], take, axis=1
            )
            kbuf[tt, fifo, f - 1] = BIG
            length[tt, fifo] -= 1
            self.occ[0] -= len(tt)
            self.core.enqueue_provider(tt, rids, keys)
            self._charge(0, tt, np.zeros(len(tt), dtype=np.int64), keys)
        # trials whose slot owner has nothing queued fall back to plain
        # FCFS arbitration; an owner match that failed to forward
        # (controller full) is a complete no-op, exactly like the scalar
        fallback = active & ~found
        if fallback.any() and self.occ[0]:
            self._tick_level(cycle, fallback, 0)

    def _charge(self, level, tt, nn, winner_key) -> None:
        keys = self.kbuf[level][tt, nn]  # (K, 2, F); empty slots = BIG
        charge = keys < winner_key[:, None, None]
        if charge.any():
            window = self.buf[level][tt, nn]
            tb = np.broadcast_to(tt[:, None, None], charge.shape)
            self.core.blocking[tb[charge], window[charge]] += 1
