"""Tests for the hierarchical composition over the quadtree."""

import random
from fractions import Fraction

import pytest

from repro.analysis.composition import (
    RELATIVE_MARGIN,
    compose,
    default_deadline_margin,
    tighten_deadlines,
    update_client,
)
from repro.analysis.schedulability import is_schedulable
from repro.errors import ConfigurationError
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.topology import quadtree


def light_tasksets(n_clients: int, period: int = 400, wcet: int = 4):
    return {
        c: TaskSet([PeriodicTask(period=period + 16 * c, wcet=wcet, client_id=c)])
        for c in range(n_clients)
    }


class TestTightenDeadlines:
    def test_margin_shrinks_periods(self):
        """The absolute margin comes off on top of RELATIVE_MARGIN."""
        taskset = TaskSet([PeriodicTask(period=100, wcet=5)])
        tightened = tighten_deadlines(taskset, margin=10)
        assert tightened[0].period == 100 - 10 - round(RELATIVE_MARGIN * 100)

    def test_relative_margin(self):
        """With no absolute margin, RELATIVE_MARGIN of the period goes."""
        taskset = TaskSet([PeriodicTask(period=100, wcet=5)])
        tightened = tighten_deadlines(taskset, margin=0)
        assert RELATIVE_MARGIN > 0
        assert tightened[0].period == 100 - round(RELATIVE_MARGIN * 100)

    def test_never_below_wcet(self):
        taskset = TaskSet([PeriodicTask(period=10, wcet=8)])
        tightened = tighten_deadlines(taskset, margin=50)
        assert tightened[0].period == 8


class TestCompose:
    def test_light_load_is_schedulable(self):
        topology = quadtree(16)
        result = compose(topology, light_tasksets(16))
        assert result.schedulable
        assert result.failure == ""
        assert result.root_bandwidth <= 1

    def test_every_node_has_interfaces(self):
        topology = quadtree(16)
        result = compose(topology, light_tasksets(16))
        assert set(result.interfaces) == set(topology.all_nodes())
        for interfaces in result.interfaces.values():
            assert len(interfaces) == 4

    def test_root_bandwidth_is_sum_of_root_servers(self):
        topology = quadtree(16)
        result = compose(topology, light_tasksets(16))
        total = sum(
            (i.bandwidth for i in result.interfaces[(0, 0)]), Fraction(0)
        )
        assert result.root_bandwidth == total

    def test_leaf_interfaces_schedule_their_clients(self):
        """Each leaf port's interface schedules that client's (tightened)
        task set — the core guarantee of the interface selection."""
        topology = quadtree(16)
        tasksets = light_tasksets(16)
        margin = default_deadline_margin(topology)
        result = compose(topology, tasksets)
        for client, taskset in tasksets.items():
            leaf, port = topology.leaf_of_client(client)
            iface = result.interfaces[leaf][port]
            tightened = tighten_deadlines(taskset, margin)
            assert is_schedulable(tightened, iface).schedulable

    def test_interior_interfaces_schedule_child_servers(self):
        """Interior SEs schedule their children's server tasks."""
        topology = quadtree(16)
        result = compose(topology, light_tasksets(16))
        for port, child in enumerate(topology.children((0, 0))):
            iface = result.interfaces[(0, 0)][port]
            child_servers = result.server_taskset(child)
            assert is_schedulable(child_servers, iface).schedulable

    def test_idle_clients_get_idle_interfaces(self):
        topology = quadtree(16)
        tasksets = light_tasksets(16)
        del tasksets[7]
        result = compose(topology, tasksets)
        leaf, port = topology.leaf_of_client(7)
        assert result.interfaces[leaf][port].budget == 0

    def test_overload_reported_not_raised(self):
        topology = quadtree(4)
        heavy = {
            c: TaskSet([PeriodicTask(period=10, wcet=5, client_id=c)])
            for c in range(4)
        }
        result = compose(topology, heavy)  # total U = 2.0
        assert not result.schedulable
        assert result.failure != ""

    def test_rejects_unknown_client(self):
        topology = quadtree(4)
        with pytest.raises(ConfigurationError):
            compose(topology, {9: TaskSet([PeriodicTask(period=10, wcet=1)])})

    def test_64_client_composition(self):
        topology = quadtree(64)
        result = compose(topology, light_tasksets(64, period=2000, wcet=3))
        assert result.schedulable
        assert len(result.interfaces) == 21

    def test_utilization_drives_infeasibility_boundary(self):
        """Raising demand high enough flips the result to unschedulable."""
        topology = quadtree(4)
        rng = random.Random(3)
        low = generate_client_tasksets(rng, 4, 2, 0.4)
        result_low = compose(topology, low)
        heavy = {
            c: TaskSet(
                [PeriodicTask(period=12, wcet=4, client_id=c) for _ in range(1)]
            )
            for c in range(4)
        }
        result_heavy = compose(topology, heavy)  # U = 4/3 > 1
        assert result_low.schedulable
        assert not result_heavy.schedulable


class TestUpdateClient:
    def test_update_matches_full_recompose(self):
        """Path-local refresh must produce exactly the interfaces a full
        recomposition would (the paper's scheduling-scalability claim)."""
        topology = quadtree(16)
        tasksets = light_tasksets(16)
        baseline = compose(topology, tasksets)
        tasksets[9] = tasksets[9].merged_with(
            TaskSet([PeriodicTask(period=300, wcet=3, client_id=9)])
        )
        updated = update_client(baseline, tasksets, 9)
        full = compose(topology, tasksets)
        assert updated.interfaces == full.interfaces
        assert updated.schedulable == full.schedulable
        assert updated.root_bandwidth == full.root_bandwidth

    def test_update_touches_only_path(self):
        topology = quadtree(64)
        tasksets = light_tasksets(64, period=2000, wcet=3)
        baseline = compose(topology, tasksets)
        tasksets[17] = tasksets[17].merged_with(
            TaskSet([PeriodicTask(period=900, wcet=5, client_id=17)])
        )
        updated = update_client(baseline, tasksets, 17)
        path = set(topology.path_to_root(17))
        for node in baseline.interfaces:
            if node not in path:
                assert updated.interfaces[node] == baseline.interfaces[node]

    def test_task_leave_reduces_bandwidth(self):
        topology = quadtree(16)
        tasksets = light_tasksets(16)
        baseline = compose(topology, tasksets)
        tasksets[3] = TaskSet()  # all tasks leave client 3
        updated = update_client(baseline, tasksets, 3)
        assert updated.root_bandwidth <= baseline.root_bandwidth
        leaf, port = topology.leaf_of_client(3)
        assert updated.interfaces[leaf][port].budget == 0
