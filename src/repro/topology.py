"""Tree topologies shared by the analysis and the simulator.

BlueScale organizes its Scale Elements as a quadtree (fan-out 4);
BlueTree and GSMTree use binary trees (fan-out 2).  The same indexing
convention covers both: node ``(x, y)`` sits at depth ``x`` (0 = root,
adjacent to the memory subsystem) and is the ``y``-th node at that
depth.  Node ``(x, y)``'s children are ``(x+1, k·y) .. (x+1, k·y+k−1)``
for fan-out ``k``; at the deepest level the children are clients, with
client ``c`` attached to leaf node ``(L, c // k)`` port ``c % k``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

NodeId = tuple[int, int]


@dataclass(frozen=True)
class TreeTopology:
    """A complete k-ary tree connecting ``n_clients`` leaves to one root.

    ``n_clients`` is rounded up to the next power of ``fanout``
    internally; ports beyond ``n_clients`` are simply left idle, which
    matches how a hardware tree with unpopulated ports behaves.
    """

    n_clients: int
    fanout: int = 4

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigurationError(f"need at least one client, got {self.n_clients}")
        if self.fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {self.fanout}")

    @property
    def depth(self) -> int:
        """L: the deepest SE level.  Levels run 0 (root) .. L (leaves)."""
        levels = 1
        capacity = self.fanout
        while capacity < self.n_clients:
            capacity *= self.fanout
            levels += 1
        return levels - 1

    @property
    def capacity(self) -> int:
        """Leaf-port capacity of the (complete) tree: fanout^(L+1)."""
        return self.fanout ** (self.depth + 1)

    def nodes_at_level(self, level: int) -> int:
        """Number of nodes at ``level`` (before pruning empty subtrees)."""
        if not 0 <= level <= self.depth:
            raise ConfigurationError(
                f"level {level} out of range [0, {self.depth}]"
            )
        return self.fanout**level

    def all_nodes(self) -> list[NodeId]:
        """All non-empty nodes, root first, then level by level.

        A node is non-empty when at least one real client lives in its
        subtree; complete-tree nodes whose subtree is entirely idle are
        pruned (they would synthesize away in hardware too).
        """
        nodes: list[NodeId] = []
        for level in range(self.depth + 1):
            for order in range(self.nodes_at_level(level)):
                if self.subtree_client_range(level, order)[0] < self.n_clients:
                    nodes.append((level, order))
        return nodes

    def n_nodes(self) -> int:
        return len(self.all_nodes())

    # -- structural relations ------------------------------------------------
    def children(self, node: NodeId) -> list[NodeId]:
        """Child SE ids of an internal node (empty list for leaf SEs)."""
        level, order = node
        if level >= self.depth:
            return []
        return [
            (level + 1, self.fanout * order + port) for port in range(self.fanout)
        ]

    def parent(self, node: NodeId) -> NodeId | None:
        level, order = node
        if level == 0:
            return None
        return (level - 1, order // self.fanout)

    def leaf_of_client(self, client_id: int) -> tuple[NodeId, int]:
        """The leaf node a client attaches to, and the port index used."""
        self._check_client(client_id)
        return (self.depth, client_id // self.fanout), client_id % self.fanout

    def clients_of_leaf(self, node: NodeId) -> list[int]:
        """Real client ids on a leaf node's ports (idle ports excluded)."""
        level, order = node
        if level != self.depth:
            raise ConfigurationError(f"{node} is not a leaf-level node")
        first = order * self.fanout
        return [c for c in range(first, first + self.fanout) if c < self.n_clients]

    def subtree_client_range(self, level: int, order: int) -> tuple[int, int]:
        """Half-open client-id range [lo, hi) covered by node (level, order)."""
        span = self.fanout ** (self.depth + 1 - level)
        lo = order * span
        return lo, lo + span

    def path_to_root(self, client_id: int) -> list[NodeId]:
        """Nodes a client's requests traverse, leaf first, root last."""
        self._check_client(client_id)
        node, _ = self.leaf_of_client(client_id)
        path = [node]
        parent = self.parent(node)
        while parent is not None:
            path.append(parent)
            parent = self.parent(parent)
        return path

    def hops_to_memory(self, client_id: int) -> int:
        """Number of tree nodes between a client and the memory subsystem.

        ``len(path_to_root(client_id))`` without building the path: the
        tree is complete, so every client hangs off a leaf at depth L.
        """
        self._check_client(client_id)
        return self.depth + 1

    def _check_client(self, client_id: int) -> None:
        if not 0 <= client_id < self.n_clients:
            raise ConfigurationError(
                f"client {client_id} out of range [0, {self.n_clients})"
            )


def quadtree(n_clients: int) -> TreeTopology:
    """BlueScale's quadtree of Scale Elements."""
    return TreeTopology(n_clients=n_clients, fanout=4)


def binary_tree(n_clients: int) -> TreeTopology:
    """BlueTree/GSMTree's binary multiplexer tree."""
    return TreeTopology(n_clients=n_clients, fanout=2)
