"""SoA kernel for the binary mux-tree designs.

One kernel instance covers every :class:`~repro.interconnects.mux_tree`
family at once: BlueTree / BlueTree-Smooth (streak-based alternation)
and GSMTree TDM/FBSP (FCFS inner nodes + a TDM-slotted root with
credit-gated injection).  Trials of one client count share the binary
topology; everything else is a per-trial column:

* ``fcap`` — each trial's FIFO capacity; the buffers are sized to the
  group maximum and space is checked against the trial's own column,
* ``is_fcfs`` — FCFS arbitration (GSMTree) vs the α-streak (BlueTree),
* ``alpha`` — the BlueTree blocking factor,
* the GSMTree frame, padded to the longest frame with a per-trial
  length; only GSMTree trials are credited, credit-gated at injection,
  and arbitrated by the TDM root — BlueTree trials, and GSMTree trials
  whose slot owner has nothing queued, take the plain level-0 tick.

Layout: a *compact* FIFO per (trial, node, port) — ``buf[level]`` is
``(N, nodes_at_level, 2, F)`` with ``F`` the largest capacity in the
group, the head always at slot 0 and ``length`` counting live slots; a
pop shifts the (tiny) window down one slot.  A parallel ``kbuf``
carries each entry's encoded priority key so blocking charges never
gather through the rid table.  Because node order ``o`` feeds port
``o % 2`` of parent ``o // 2``, the flattened ``(node, port)`` axis
makes the parent slot of node ``o`` simply index ``o`` — pushes up the
tree are direct writes, no index arithmetic.  A cycle ticks levels
root-first exactly like the scalar ``_tick_order``; within a level
every node forwards into a *distinct* parent port, so the vectorized
read-then-write is identical to the scalar per-node sequence.
"""

from __future__ import annotations

import numpy as np

from repro.interconnects.gsmtree import GsmTreeInterconnect
from repro.sim.batched.extract import BIG


class MuxTreeKernel:
    """Lock-step tick over a batch of binary-tree fabrics of one size."""

    def __init__(self, core, sims) -> None:
        self.core = core
        fabrics = [sim.interconnect for sim in sims]
        topo = fabrics[0].topology
        self.depth = topo.depth
        n = core.n
        self.n = n
        capacity = np.asarray(
            [ic.fifo_capacity for ic in fabrics], dtype=np.int64
        )
        self.f = int(capacity.max())
        #: (N, 1) per-trial FIFO capacity column
        self.fcap = capacity[:, None]
        gsm = np.asarray(
            [isinstance(ic, GsmTreeInterconnect) for ic in fabrics]
        )
        #: (N, 1) FCFS arbitration (GSMTree) vs α-streak (BlueTree)
        self.is_fcfs = gsm[:, None]
        #: (N, 1) BlueTree blocking factor (unread on FCFS rows)
        self.alpha = np.asarray(
            [getattr(ic, "alpha", 0) for ic in fabrics], dtype=np.int64
        )[:, None]
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
        self.streak = [np.zeros((n, m), dtype=np.int64) for m in counts]
        self._n_idx = np.arange(n)
        self._off = np.arange(self.f, dtype=np.int64)
        self.gsm_rows = np.nonzero(gsm)[0]
        if not len(self.gsm_rows):
            self.credits = None
            return
        frames = [fabrics[t].frame for t in self.gsm_rows.tolist()]
        self.frame = np.full(
            (len(frames), max(map(len, frames))), -1, dtype=np.int64
        )
        for g, frame in enumerate(frames):
            self.frame[g, : len(frame)] = frame
        self.frame_len = np.asarray(
            [len(frame) for frame in frames], dtype=np.int64
        )
        self._g_idx = np.arange(len(frames))
        #: this cycle's slot owner per trial; -1 (never a client) on
        #: BlueTree rows, so the TDM root finds no match there
        self.owner = np.full(n, -1, dtype=np.int64)
        self.cap = GsmTreeInterconnect.CREDIT_CAP
        self.credits = np.full((n, core.n_ports), self.cap, dtype=np.int64)
        #: (N, 1) rows injection credits do not gate
        self.ungated = ~self.is_fcfs

    # -- client ingress ------------------------------------------------------

    def begin_cycle(self, cycle: int, active: np.ndarray) -> None:
        if self.credits is None:
            return
        # one credit (capped) to the owner of this cycle's slot on every
        # GSMTree row — the dense form of the scalar's lazy
        # _refresh_credits
        g = self.gsm_rows
        owner = self.frame[self._g_idx, cycle % self.frame_len]
        self.owner[g] = owner
        current = self.credits[g, owner]
        self.credits[g, owner] = np.minimum(self.cap, current + 1)

    def inject_space(self, cycle: int) -> np.ndarray:
        ids = self.core.client_ids
        space = self.flen[self.depth][:, ids] < self.fcap
        if self.credits is not None:
            space &= (self.credits[:, ids] >= 1) | self.ungated
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
            # BlueTree rows' credits are never read
            self.credits[trials, ids] -= 1

    # -- fabric tick ---------------------------------------------------------

    def tick(self, cycle: int, active: np.ndarray) -> None:
        for level in range(self.depth + 1):
            if not self.occ[level]:
                continue
            if level == 0 and self.credits is not None:
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
        streak = self.streak[level]
        # FCFS rows: older (lower-rid) head wins when both sides wait;
        # streak rows: the right port slips through after α left wins
        alt = np.where(
            self.is_fcfs, heads[..., 0] > heads[..., 1], streak >= self.alpha
        ).astype(np.int64)
        port = np.where(has0 & has1, alt, np.where(has0, 0, 1))
        m = self.counts[level]
        if level > 0:
            space = self.flen[level - 1][:, :m] < self.fcap
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
        # FCFS rows' streaks are never read
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
        owner = self.owner
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
        # BlueTree rows, and GSMTree rows whose slot owner has nothing
        # queued, take the plain level-0 tick; an owner match that
        # failed to forward (controller full) is a complete no-op,
        # exactly like the scalar
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
