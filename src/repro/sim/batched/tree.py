"""Node table shared by the tree kernels (BlueScale and the mux trees).

Every node of a k-ary :class:`~repro.topology.TreeTopology` gets one
row, root first and level by level — the order of
:meth:`~repro.topology.TreeTopology.all_nodes`, since each level's
orders are a contiguous prefix.  Node order ``o`` of level ``l`` feeds
port ``o % k`` of node ``o // k`` one level up, which is flat port
``o`` of that level in the ``(node, port)`` view, so each node's parent
port is one fixed index into a flattened ``(N, nodes * k)`` table.
"""

from __future__ import annotations

import numpy as np


class TreeTable:
    """Per-node indices of one tree shape, plus the space rule that is
    the fused pass's only dependency across levels."""

    def __init__(self, topo, client_ids: np.ndarray) -> None:
        fanout = topo.fanout
        counts = [0] * (topo.depth + 1)
        for level, order in topo.all_nodes():
            counts[level] = max(counts[level], order + 1)
        first = np.cumsum([0] + counts)
        #: nodes in table order
        self.nodes = topo.all_nodes()
        self.size = len(self.nodes)
        level = np.repeat(np.arange(topo.depth + 1), counts)
        order = np.arange(self.size) - first[level]
        self.level = level
        # the root's entries are never read
        self.parent = np.where(level > 0, first[level - 1] + order // fanout, 0)
        self.parent_port = np.where(
            level > 0, first[np.maximum(level - 1, 0)] * fanout + order, 0
        )
        self._child_ports = self.parent_port[1:]
        self.port_at_parent = order % fanout
        #: the flat leaf port each client injects into
        self.leaf_ports = int(first[topo.depth]) * fanout + client_ids
        #: every flat port a child node or a client feeds; no request
        #: ever reaches the others
        self.fed_ports = np.concatenate([self._child_ports, self.leaf_ports])

    def settle_space(self, go, port, fill, capacity) -> None:
        """Withdraw every forward in ``go`` (N, nodes) whose parent port
        has no room after the parent's own pop.

        ``port`` is each node's pick and ``fill`` the start-of-cycle
        fill of every flat port.  A port with room keeps it; a full one
        has room exactly when its parent forwards from it.
        """
        room = fill[:, self._child_ports] < capacity
        blocked = go[:, 1:] > room  # wants to forward, has no room
        go[:, 1:] &= room
        if not blocked.any():
            return
        tb, gb = blocked.nonzero()
        gb += 1
        pb = self.parent[gb]
        # a blocked parent is settled one round before its child, and a
        # chain of blocked nodes spans at most every level they sit on
        pops_here = port[tb, pb] == self.port_at_parent[gb]
        levels = self.level[gb]
        for _ in range(int(levels.max() - levels.min()) + 1):
            go[tb, gb] = go[tb, pb] & pops_here
