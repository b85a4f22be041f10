"""SoA kernel for the BlueScale fabric (scale elements + SE servers).

Every level of the quadtree lives in one slot table ``(N, nodes,
fanout, buffer_capacity)`` of request ids, nodes in
:class:`~repro.sim.batched.tree.TreeTable` order (root first, level by
level), plus a parallel key table ``kslots`` in which free slots hold
the ``BIG`` sentinel — per-port minima and blocking charges then run
straight off ``kslots`` with no gather and no occupancy mask.
Per-port fill counts (``cnt``) replace mask reductions for the space
checks.

**One pass per cycle.**  The scalar fabric ticks its elements root
first (``_tick_order``): level ``l`` forwards into level ``l - 1``,
which has already ticked, so nothing lands in a level before its own
tick this cycle.  Every node's pick therefore depends on start-of-cycle
state alone (plus this cycle's injections at the leaves, which precede
the fabric stage), and one pass picks every node's winner at once.  The
one dependency that crosses levels is space: a child forwards only if
its parent port has room *after* the parent's own pop.  A port with
room at the start of the cycle keeps it; a full one has room exactly
when the parent forwards from it — a chain resolved root to leaf over
the few blocked nodes.  Pops, budget spending and blocking charges then
read the post-pop state of every node, before any push lands, as the
scalar per-node sequence does; pushes go last, each into a distinct
parent port.

The server counter state per port — replenishment period ``P``, full
budget ``Bfull`` and the live budget — replays exactly as closed forms
on the cycle number ``c``:

* the budget is full again at the start of every window ``c // P``:
  a port stores the budget left and the window it was last spent in,
  and reads ``Bfull`` whenever that window is stale,
* the server deadline at select time is ``P * (c // P + 1)``.

The two-pass EDF pick (budgeted servers by ``(server deadline, earliest
request deadline)``, then idle-interface background ports by earliest
request deadline) is encoded into a single int64 key per pass so
``argmin`` reproduces the scalar's strict-<, lowest-port tie-break.
"""

from __future__ import annotations

import numpy as np

from repro.sim.batched.extract import BIG, KEY_SCALE, SHIFT
from repro.sim.batched.tree import TreeTable


class BlueScaleKernel:
    def __init__(self, core, sims) -> None:
        self.core = core
        ic = sims[0].interconnect
        fo = ic.topology.fanout
        cap = ic.elements[(0, 0)].buffers[0].capacity
        self.cap = cap
        n = core.n
        self.tree = tree = TreeTable(ic.topology, core.client_ids)
        total = tree.size
        self.slots = np.zeros((n, total, fo, cap), dtype=np.int64)
        self.kslots = np.full((n, total, fo, cap), BIG, dtype=np.int64)
        #: live entries per port; space check and first-free insert both
        #: run off this instead of reducing an occupancy mask
        self.cnt = np.zeros((n, total, fo), dtype=np.int64)
        # flattened (node, port) views sharing memory with the above
        self.fslots = self.slots.reshape(n, -1, cap)
        self.fkslots = self.kslots.reshape(n, -1, cap)
        self.fcnt = self.cnt.reshape(n, -1)
        period = np.ones((n, total, fo), dtype=np.int64)
        bfull = np.zeros((n, total, fo), dtype=np.int64)
        for t, sim in enumerate(sims):
            elements = sim.interconnect.elements
            for g, node in enumerate(tree.nodes):
                servers = elements[node].scheduler.servers
                for port, server in enumerate(servers):
                    period[t, g, port] = server.counters.period
                    bfull[t, g, port] = server.counters.budget
        self.period = period
        self.period_key = period * KEY_SCALE
        self.budget_full = bfull
        self.idle = bfull == 0
        #: pass 2 can only pick an idle interface some request reaches
        self.any_idle = bool(self.idle.reshape(n, -1)[:, tree.fed_ports].any())
        #: budget left in window ``spent_in``; stale windows read Bfull
        self.budget = bfull.copy()
        self.spent_in = np.full((n, total, fo), -1, dtype=np.int64)
        #: requests in the fabric — skips the pass on an empty tree
        self.occ = 0

    def begin_cycle(self, cycle: int, active: np.ndarray) -> None:
        pass

    def inject_space(self, cycle: int, out: np.ndarray) -> None:
        np.less(self.fcnt[:, self.tree.leaf_ports], self.cap, out=out)

    def accept(self, cycle, trials, cols, rids, keys) -> None:
        target = self.tree.leaf_ports[cols]
        fkslots = self.fkslots
        slot = (fkslots[trials, target] == BIG).argmax(axis=1)
        self.fslots[trials, target, slot] = rids
        fkslots[trials, target, slot] = keys
        self.fcnt[trials, target] += 1
        self.occ += len(trials)

    def tick(self, cycle: int, active: np.ndarray) -> None:
        if self.occ:
            self._pass(cycle, active)

    def _pass(self, cycle: int, active: np.ndarray) -> None:
        """Every scale element's tick of one cycle, as one array pass."""
        kslots = self.kslots
        min_key = kslots.min(axis=3)
        occupied = min_key < BIG
        earliest = min_key >> SHIFT
        window = cycle // self.period
        live = np.where(
            self.spent_in == window, self.budget, self.budget_full
        )
        # pass 1: budgeted servers, EDF over (server deadline, earliest
        # request deadline) — idle interfaces never have budget
        pass1 = np.where(
            occupied & (live > 0),
            (window + 1) * self.period_key + earliest,
            BIG,
        )
        budgeted = pass1.min(axis=2) < BIG
        port = pass1.argmin(axis=2)
        found = budgeted
        # pass 2: background (idle-interface) ports, where no budgeted
        # server is ready
        if self.any_idle:
            pass2 = np.where(occupied & self.idle, earliest, BIG)
            fallback = ~budgeted & (pass2.min(axis=2) < BIG)
            port = np.where(fallback, pass2.argmin(axis=2), port)
            found = budgeted | fallback
        go = found & active[:, None]
        go[:, 0] &= self.core.provider_space()
        self.tree.settle_space(go, port, self.fcnt, self.cap)
        # winners node-major: the root's come first
        gg, tt = go.T.nonzero()
        if not len(tt):
            return
        pp = port[tt, gg]
        port_keys = kslots[tt, gg, pp]
        ss = port_keys.argmin(axis=1)
        winner_key = port_keys[np.arange(len(tt)), ss]
        rids = self.slots[tt, gg, pp, ss]
        kslots[tt, gg, pp, ss] = BIG
        self.cnt[tt, gg, pp] -= 1
        # pass-1 winners spend one unit of their window's budget
        spent = live[tt, gg, pp] - budgeted[tt, gg]
        live[tt, gg, pp] = spent
        self.budget[tt, gg, pp] = spent
        self.spent_in[tt, gg, pp] = window[tt, gg, pp]
        self._charge(tt, gg, winner_key, live)
        r = int(go[:, 0].sum())
        self.core.enqueue_provider(tt[:r], rids[:r], winner_key[:r])
        self.occ -= r
        if r < len(tt):
            ut = tt[r:]
            target = self.tree.parent_port[gg[r:]]
            fkslots = self.fkslots
            free = (fkslots[ut, target] == BIG).argmax(axis=1)
            self.fslots[ut, target, free] = rids[r:]
            fkslots[ut, target, free] = winner_key[r:]
            self.fcnt[ut, target] += 1

    def _charge(self, tt, gg, winner_key, live) -> None:
        keys = self.kslots[tt, gg]  # (K, fanout, cap); free = BIG
        # a port shields its requests unless its server still has budget
        # (checked after the winner's spend) or is an idle interface
        eligible = self.idle[tt, gg] | (live[tt, gg] > 0)
        charge = eligible[..., None] & (keys < winner_key[:, None, None])
        if charge.any():
            rows = tt[charge.nonzero()[0]]
            self.core.blocking[rows, self.slots[tt, gg][charge]] += 1
