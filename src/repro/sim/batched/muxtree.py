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
  whose slot owner has nothing queued, take the plain FCFS/streak pick
  at the root too.

Layout: a *compact* FIFO per (trial, node, port), every level in one
table — ``buf`` is ``(N, nodes, 2, F)`` with nodes in
:class:`~repro.sim.batched.tree.TreeTable` order (root first, level by
level), ``F`` the largest capacity in the group, the head always at
slot 0 and ``length`` counting live slots; a pop closes the gap by
shifting the (tiny) window down one slot.  A parallel ``kbuf`` carries
each entry's encoded priority key (``BIG`` in free slots) so blocking
charges never gather through the rid table.

**One pass per cycle.**  The scalar tree ticks root first
(``_tick_order``): level ``l`` forwards into level ``l - 1``, which has
already ticked, so nothing lands in a level before its own tick this
cycle, and every node's pick — FCFS or streak at slot 0, or the TDM
root's owner match anywhere in its FIFOs — depends on start-of-cycle
state alone (plus this cycle's injections at the leaves, which precede
the fabric stage).  The one dependency that crosses levels is space: a
child forwards only if its parent port has room *after* the parent's
own pop.  A full parent port has room exactly when the parent forwards
from that port — a chain resolved root to leaf over the few blocked
nodes.  Pops, streak updates and blocking charges then read the
post-pop state of every node, before any push lands, as the scalar
per-node sequence does; pushes go last, each into a distinct parent
port.  An owner match that cannot forward (controller full) leaves the
root idle, exactly like the scalar ``TdmRootNode``.
"""

from __future__ import annotations

import numpy as np

from repro.interconnects.gsmtree import GsmTreeInterconnect
from repro.sim.batched.extract import BIG
from repro.sim.batched.tree import TreeTable


class MuxTreeKernel:
    """Lock-step tick over a batch of binary-tree fabrics of one size."""

    def __init__(self, core, sims) -> None:
        self.core = core
        fabrics = [sim.interconnect for sim in sims]
        topo = fabrics[0].topology
        n = core.n
        self.n = n
        capacity = np.asarray(
            [ic.fifo_capacity for ic in fabrics], dtype=np.int64
        )
        f = int(capacity.max())
        self.f = f
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
        self.tree = tree = TreeTable(topo, core.client_ids)
        total = tree.size
        self.buf = np.zeros((n, total, 2, f), dtype=np.int64)
        # empty key slots hold the BIG sentinel: charges and head reads
        # then need no occupancy mask at all
        self.kbuf = np.full((n, total, 2, f), BIG, dtype=np.int64)
        self.length = np.zeros((n, total, 2), dtype=np.int64)
        # flattened (node, port) views sharing memory with the above
        self.fbuf = self.buf.reshape(n, -1, f)
        self.fkbuf = self.kbuf.reshape(n, -1, f)
        self.flen = self.length.reshape(n, -1)
        #: requests in the fabric — skips the pass on an empty tree
        #: (matters for the drain tail)
        self.occ = 0
        self.streak = np.zeros((n, total), dtype=np.int64)
        self._n_idx = np.arange(n)
        self._root_rows = self._n_idx[:, None, None]
        #: gap-closing gather per removed slot: row ``a`` reads slot
        #: ``j + (j >= a)`` (the last slot repeats; its key is reset)
        off = np.arange(f)
        self._close = np.minimum(
            off[None, :] + (off[None, :] >= off[:, None]), f - 1
        )
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

    def inject_space(self, cycle: int, out: np.ndarray) -> None:
        np.less(self.flen[:, self.tree.leaf_ports], self.fcap, out=out)
        if self.credits is not None:
            out &= (self.credits[:, self.core.client_ids] >= 1) | self.ungated

    def accept(self, cycle, trials, cols, rids, keys) -> None:
        target = self.tree.leaf_ports[cols]
        length = self.flen
        at = length[trials, target]
        self.fbuf[trials, target, at] = rids
        self.fkbuf[trials, target, at] = keys
        length[trials, target] += 1
        self.occ += len(trials)
        if self.credits is not None:
            # BlueTree rows' credits are never read
            self.credits[trials, self.core.client_ids[cols]] -= 1

    # -- fabric tick ---------------------------------------------------------

    def tick(self, cycle: int, active: np.ndarray) -> None:
        if self.occ:
            self._pass(cycle, active)

    def _pass(self, cycle: int, active: np.ndarray) -> None:
        """Every mux node's tick of one cycle, as one array pass."""
        buf = self.buf
        kbuf = self.kbuf
        has = self.length > 0
        has0 = has[..., 0]
        has1 = has[..., 1]
        heads = buf[..., 0]
        # FCFS rows: older (lower-rid) head wins when both sides wait;
        # streak rows: the right port slips through after α left wins
        alt = np.where(
            self.is_fcfs, heads[..., 0] > heads[..., 1], self.streak >= self.alpha
        )
        port = np.where(has0 & has1, alt, has1).view(np.int8)
        go = (has0 | has1) & active[:, None]
        root_at = None
        if self.credits is not None:
            root_at = self._tdm_root(port)
        go[:, 0] &= self.core.provider_space()
        self.tree.settle_space(go, port, self.flen, self.fcap)
        # winners node-major: the root's come first
        gg, tt = go.T.nonzero()
        if not len(tt):
            return
        k = len(tt)
        r = int(go[:, 0].sum())
        pp = port[tt, gg]
        at = np.zeros(k, dtype=np.int64)
        if root_at is not None:
            at[:r] = root_at[tt[:r]]
        window = buf[tt, gg, pp]
        kwindow = kbuf[tt, gg, pp]
        k_idx = np.arange(k)
        rids = window[k_idx, at]
        keys = kwindow[k_idx, at]
        close = (k_idx[:, None], self._close[at])
        buf[tt, gg, pp] = window[close]
        kwindow = kwindow[close]
        kwindow[:, -1] = BIG
        kbuf[tt, gg, pp] = kwindow
        self.length[tt, gg, pp] -= 1
        # FCFS rows' streaks are never read
        streak = self.streak
        streak[tt, gg] = np.where(pp == 0, streak[tt, gg] + 1, 0)
        self._charge(tt, gg, keys)
        self.core.enqueue_provider(tt[:r], rids[:r], keys[:r])
        self.occ -= r
        if r < k:
            ut = tt[r:]
            target = self.tree.parent_port[gg[r:]]
            up_length = self.flen
            up_at = up_length[ut, target]
            self.fbuf[ut, target, up_at] = rids[r:]
            self.fkbuf[ut, target, up_at] = keys[r:]
            up_length[ut, target] += 1

    def _tdm_root(self, port) -> np.ndarray:
        """Point the root of every GSMTree row whose slot owner has a
        request queued at that owner's oldest one; returns the slot it
        sits in per row (0 where the plain pick stands)."""
        f = self.f
        buf = self.buf[:, 0]
        # slots past a FIFO's length hold stale rids of the same trial
        # (in range, never matched: their key is BIG)
        cid = self.core.rclient[self._root_rows, buf]
        match = (self.kbuf[:, 0] < BIG) & (cid == self.owner[:, None, None])
        flat = np.where(match, buf, BIG).reshape(self.n, 2 * f)
        pos = flat.argmin(axis=1)
        matched = flat[self._n_idx, pos] < BIG
        fifo, slot = np.divmod(pos, f)
        np.copyto(port[:, 0], fifo, where=matched, casting="unsafe")
        slot *= matched
        return slot

    def _charge(self, tt, gg, winner_key) -> None:
        keys = self.kbuf[tt, gg]  # (K, 2, F); empty slots = BIG
        charge = keys < winner_key[:, None, None]
        if charge.any():
            rows = tt[charge.nonzero()[0]]
            self.core.blocking[rows, self.buf[tt, gg][charge]] += 1
