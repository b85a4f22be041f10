"""Unit and property tests for tree topologies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.topology import TreeTopology, binary_tree, quadtree


class TestQuadtreeShape:
    def test_16_clients_two_levels(self):
        topo = quadtree(16)
        assert topo.depth == 1
        assert topo.n_nodes() == 5  # 1 root + 4 leaves (Fig 2(a))

    def test_64_clients_three_levels(self):
        topo = quadtree(64)
        assert topo.depth == 2
        assert topo.n_nodes() == 21  # 1 + 4 + 16 (Fig 2(d))

    def test_4_clients_single_se(self):
        topo = quadtree(4)
        assert topo.depth == 0
        assert topo.n_nodes() == 1

    def test_non_power_of_four_prunes_empty_subtrees(self):
        topo = quadtree(17)
        # capacity 64, but only subtrees containing clients materialize
        assert topo.capacity == 64
        nodes = topo.all_nodes()
        assert (0, 0) in nodes
        # leaf (2, 4) holds clients 16..19 -> kept; (2, 5) holds 20..23 -> pruned
        assert (2, 4) in nodes
        assert (2, 5) not in nodes

    def test_binary_tree_shape(self):
        topo = binary_tree(16)
        assert topo.depth == 3
        assert topo.n_nodes() == 15  # classic 2:1 mux tree


class TestStructuralRelations:
    def test_children_of_root(self):
        topo = quadtree(16)
        assert topo.children((0, 0)) == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_leaves_have_no_children(self):
        topo = quadtree(16)
        assert topo.children((1, 2)) == []

    def test_parent_inverts_children(self):
        topo = quadtree(64)
        for node in topo.all_nodes():
            for child in topo.children(node):
                assert topo.parent(child) == node

    def test_root_has_no_parent(self):
        assert quadtree(16).parent((0, 0)) is None

    def test_leaf_of_client(self):
        topo = quadtree(16)
        assert topo.leaf_of_client(0) == ((1, 0), 0)
        assert topo.leaf_of_client(5) == ((1, 1), 1)
        assert topo.leaf_of_client(15) == ((1, 3), 3)

    def test_clients_of_leaf(self):
        topo = quadtree(16)
        assert topo.clients_of_leaf((1, 2)) == [8, 9, 10, 11]

    def test_clients_of_leaf_excludes_idle_ports(self):
        topo = quadtree(6)
        assert topo.clients_of_leaf((1, 1)) == [4, 5]

    def test_path_to_root(self):
        topo = quadtree(64)
        path = topo.path_to_root(37)
        assert path[0] == (2, 9)  # 37 // 4
        assert path[1] == (1, 2)
        assert path[-1] == (0, 0)
        assert topo.hops_to_memory(37) == 3

    def test_subtree_client_range(self):
        topo = quadtree(64)
        assert topo.subtree_client_range(1, 2) == (32, 48)
        assert topo.subtree_client_range(2, 15) == (60, 64)


class TestValidation:
    def test_rejects_zero_clients(self):
        with pytest.raises(ConfigurationError):
            TreeTopology(n_clients=0)

    def test_rejects_fanout_one(self):
        with pytest.raises(ConfigurationError):
            TreeTopology(n_clients=4, fanout=1)

    def test_rejects_out_of_range_client(self):
        topo = quadtree(16)
        with pytest.raises(ConfigurationError):
            topo.leaf_of_client(16)
        with pytest.raises(ConfigurationError):
            topo.path_to_root(-1)

    def test_rejects_bad_level(self):
        with pytest.raises(ConfigurationError):
            quadtree(16).nodes_at_level(5)

    def test_clients_of_leaf_rejects_internal_node(self):
        with pytest.raises(ConfigurationError):
            quadtree(64).clients_of_leaf((0, 0))


class TestTopologyProperties:
    @given(
        n=st.integers(min_value=1, max_value=300),
        fanout=st.sampled_from([2, 4]),
    )
    def test_every_client_reaches_the_root(self, n, fanout):
        topo = TreeTopology(n_clients=n, fanout=fanout)
        for client in range(n):
            path = topo.path_to_root(client)
            assert path[-1] == (0, 0)
            assert len(path) == topo.depth + 1

    @pytest.mark.parametrize("fanout", [2, 4])
    @pytest.mark.parametrize("n", [1, 4, 5, 16, 17, 64])
    def test_hops_to_memory_is_the_path_length(self, n, fanout):
        topo = TreeTopology(n_clients=n, fanout=fanout)
        for client in range(n):
            assert topo.hops_to_memory(client) == len(topo.path_to_root(client))
        with pytest.raises(ConfigurationError):
            topo.hops_to_memory(n)

    @given(n=st.integers(min_value=2, max_value=256))
    def test_quadtree_node_count_bound(self, n):
        topo = quadtree(n)
        # A quadtree over n clients needs at least ceil(n/4) leaves and
        # never more nodes than the complete tree.
        assert topo.n_nodes() >= (n + 3) // 4
        complete = sum(4**level for level in range(topo.depth + 1))
        assert topo.n_nodes() <= complete

    @given(n=st.integers(min_value=1, max_value=256))
    def test_leaf_ports_partition_clients(self, n):
        topo = quadtree(n)
        seen = []
        for level, order in topo.all_nodes():
            if level == topo.depth:
                seen.extend(topo.clients_of_leaf((level, order)))
        assert sorted(seen) == list(range(n))
