"""Tests for the sensitivity / admission analysis."""

import random
from contextlib import nullcontext

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.context import AnalysisContext
from repro.analysis.composition import compose
from repro.analysis.model import SystemModel
from repro.analysis.sensitivity import breakdown_scale, slack_per_client
from repro.errors import ConfigurationError
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.topology import quadtree

from . import oracle


def light_system(n_clients=16, utilization=0.3, seed=5):
    rng = random.Random(seed)
    tasksets = generate_client_tasksets(rng, n_clients, 2, utilization)
    topology = quadtree(n_clients)
    return topology, tasksets


class TestBreakdown:
    def test_breakdown_scale_above_one_for_light_load(self):
        topology, tasksets = light_system(utilization=0.2)
        result = breakdown_scale(topology, tasksets, precision=0.05)
        assert result.scale > 1.5
        assert result.composition.schedulable

    def test_scaled_past_breakdown_is_unschedulable(self):
        topology, tasksets = light_system(utilization=0.3)
        result = breakdown_scale(topology, tasksets, precision=0.05)
        over = {
            client: taskset.scaled(result.scale * 1.2)
            for client, taskset in tasksets.items()
        }
        assert not compose(topology, over).schedulable

    def test_breakdown_ceiling_below_one(self):
        topology, tasksets = light_system(utilization=0.3)
        result = breakdown_scale(topology, tasksets, precision=0.05)
        assert 0.3 < result.utilization <= 1.0

    def test_unschedulable_base_rejected(self):
        topology, tasksets = light_system(utilization=0.3)
        heavy = {c: ts.scaled(10.0) for c, ts in tasksets.items()}
        with pytest.raises(ConfigurationError):
            breakdown_scale(topology, heavy)

    def test_bad_precision_rejected(self):
        topology, tasksets = light_system()
        with pytest.raises(ConfigurationError):
            breakdown_scale(topology, tasksets, precision=0)

    def test_two_level_tree_has_higher_ceiling_than_three_level(self):
        """Composition overhead grows with depth: the 16-client system
        admits more utilization than a 64-client one."""
        topo16, ts16 = light_system(16, 0.25, seed=7)
        rng = random.Random(7)
        ts64 = generate_client_tasksets(rng, 64, 2, 0.25)
        ceiling16 = breakdown_scale(topo16, ts16, precision=0.1)
        ceiling64 = breakdown_scale(quadtree(64), ts64, precision=0.1)
        assert ceiling16.utilization > ceiling64.utilization


class TestAdmission:
    """Online admission through the one entry point,
    :meth:`AdmissionSession.probe`."""

    def test_small_task_admitted(self):
        topology, tasksets = light_system(utilization=0.3)
        decision = SystemModel.build(topology, tasksets).session().probe(
            5, PeriodicTask(period=1000, wcet=1, name="tiny")
        )
        assert decision.admitted
        assert decision.composition.schedulable

    def test_huge_task_rejected(self):
        topology, tasksets = light_system(utilization=0.5)
        decision = SystemModel.build(topology, tasksets).session().probe(
            5, PeriodicTask(period=100, wcet=90, name="hog")
        )
        assert not decision.admitted
        assert not decision.composition.schedulable

    def test_admission_does_not_mutate_inputs(self):
        topology, tasksets = light_system(utilization=0.3)
        sizes = {c: len(ts) for c, ts in tasksets.items()}
        SystemModel.build(topology, tasksets).session().probe(
            3, PeriodicTask(period=500, wcet=2, name="x")
        )
        assert {c: len(ts) for c, ts in tasksets.items()} == sizes

    def test_admitting_to_empty_client(self):
        topology, tasksets = light_system(utilization=0.3)
        del tasksets[7]
        decision = SystemModel.build(topology, tasksets).session().probe(
            7, PeriodicTask(period=400, wcet=2, name="newcomer")
        )
        assert decision.admitted
        leaf, port = topology.leaf_of_client(7)
        assert decision.composition.interfaces[leaf][port].budget > 0


class TestSlack:
    def test_slack_positive_when_schedulable(self):
        topology, tasksets = light_system(utilization=0.3)
        composition = compose(topology, tasksets)
        slack = slack_per_client(composition, tasksets)
        assert sorted(slack) == sorted(tasksets)
        assert all(value > -1e9 for value in slack.values())
        # at least the lightest client has real head-room
        assert max(slack.values()) > 0

    def test_heavier_client_has_less_slack(self):
        topology = quadtree(4)
        tasksets = {
            0: TaskSet([PeriodicTask(period=100, wcet=30, name="big", client_id=0)]),
            1: TaskSet([PeriodicTask(period=100, wcet=2, name="small", client_id=1)]),
        }
        composition = compose(topology, tasksets)
        slack = slack_per_client(composition, tasksets)
        # the selected interfaces track demand, so both have bounded
        # slack; the comparison that matters: scaled-up demand shrinks it
        heavier = {
            0: tasksets[0].scaled(1.5),
            1: tasksets[1],
        }
        re_comp = compose(topology, heavier)
        re_slack = slack_per_client(re_comp, heavier)
        assert re_slack[0] <= slack[0] + 0.05

    def test_empty_clients_skipped(self):
        topology, tasksets = light_system(utilization=0.3)
        tasksets[2] = TaskSet()
        composition = compose(topology, tasksets)
        slack = slack_per_client(composition, tasksets)
        assert 2 not in slack


class TestBreakdownCacheReuse:
    """Regression for the per-perturbation re-derivation bug: every
    probe of a breakdown search used to recompose unchanged subtrees
    from scratch.  The search now routes all probes through one
    :class:`AnalysisCache`; these tests pin that the caching is (a)
    output-transparent and (b) actually happening."""

    @pytest.mark.parametrize("cold_on", ["oracle", "engine"])
    def test_breakdown_identical_with_and_without_cache(self, cold_on):
        """A cached engine search equals an uncached one — on the engine
        itself, or on the test oracle, which never caches."""
        topology, tasksets = light_system(utilization=0.25)
        with oracle.installed() if cold_on == "oracle" else nullcontext():
            cold = breakdown_scale(
                topology,
                tasksets,
                precision=0.05,
                ctx=AnalysisContext(cache=AnalysisCache(enabled=False)),
            )
        cache = AnalysisCache()
        warm = breakdown_scale(
            topology,
            tasksets,
            precision=0.05,
            ctx=AnalysisContext(cache=cache),
        )
        assert warm.scale == cold.scale
        assert warm.composition.interfaces == cold.composition.interfaces
        assert (
            warm.composition.root_bandwidth == cold.composition.root_bandwidth
        )
        # the probes really did share work across sweep points: a
        # repeated SE is answered whole, before any selection lookup
        assert cache.stats.node_hits > 0
