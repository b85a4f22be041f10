"""Tests for the SystemModel / AdmissionSession split: the frozen model
matches a direct composition, sessions answer exactly like the
stateless entry points, commits are atomic, everything round-trips
through pickle, and the engine's decisions equal the test oracle's."""

import pickle
import random
import threading

import pytest

from repro.analysis import AdmissionSession, SystemModel, compose
from repro.analysis.cache import DISABLED, AnalysisCache, get_default_cache
from repro.analysis.context import AnalysisContext
from repro.analysis.composition import default_deadline_margin, update_client
from repro.errors import ConfigurationError
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.topology import quadtree

from . import oracle

SMALL = PeriodicTask(period=1000, wcet=1, name="small")
HEAVY = PeriodicTask(period=64, wcet=60, name="heavy")


def _model(n_clients: int = 16, **kwargs) -> SystemModel:
    return SystemModel.from_seed(n_clients, utilization=0.3, seed=7, **kwargs)


class TestSystemModel:
    def test_baseline_matches_direct_compose(self):
        model = _model()
        direct = compose(model.topology, dict(model.client_tasksets))
        assert direct.interfaces == model.baseline.interfaces
        assert direct.root_bandwidth == model.baseline.root_bandwidth
        assert model.schedulable == direct.schedulable

    def test_build_freezes_task_sets(self):
        topology = quadtree(8)
        rng = random.Random("model-test")
        tasksets = generate_client_tasksets(rng, 8, 2, 0.3)
        model = SystemModel.build(topology, tasksets, label="frozen")
        with pytest.raises(TypeError):
            model.client_tasksets[0] = TaskSet()  # type: ignore[index]
        # mutating the caller's dict afterwards cannot reach the model
        tasksets[0] = TaskSet([PeriodicTask(period=10, wcet=10)])
        assert len(model.client_tasksets[0]) == 2

    def test_a_model_owns_its_memo_tables(self):
        """``build`` and ``from_seed`` share one rule: no cache given
        means a fresh one, never the process-wide cache — and a given
        cache is used as is."""
        topology = quadtree(8)
        tasksets = generate_client_tasksets(random.Random("own"), 8, 2, 0.3)
        built = SystemModel.build(topology, tasksets)
        assert built.cache is not get_default_cache()
        assert _model(n_clients=8).cache is not get_default_cache()
        assert SystemModel.build(topology, tasksets).cache is not built.cache
        shared = AnalysisCache()
        assert SystemModel.build(topology, tasksets, cache=shared).cache is shared

    def test_default_margin_matches_composition_default(self):
        model = _model()
        assert model.deadline_margin == default_deadline_margin(model.topology)

    def test_from_seed_is_deterministic(self):
        a, b = _model(), _model()
        assert dict(a.client_tasksets) == dict(b.client_tasksets)
        assert a.baseline.interfaces == b.baseline.interfaces

    def test_from_seed_rejects_empty_system(self):
        with pytest.raises(ConfigurationError):
            SystemModel.from_seed(0)

    def test_describe_is_json_shaped(self):
        import json

        summary = _model().describe()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["n_clients"] == 16
        assert summary["baseline_schedulable"] is True

    def test_pickle_round_trip_preserves_answers(self):
        model = _model()
        clone = pickle.loads(pickle.dumps(model))
        assert dict(clone.client_tasksets) == dict(model.client_tasksets)
        assert clone.baseline.interfaces == model.baseline.interfaces
        assert (
            clone.session().probe(3, SMALL).admitted
            == model.session().probe(3, SMALL).admitted
        )


class TestAdmissionSession:
    def test_probe_matches_merged_update_client(self):
        """A probe is the path-local update of the client's merged task
        set, computed here independently on a cold cache."""
        model = _model()
        session = model.session()
        for task in (SMALL, HEAVY):
            merged = dict(model.client_tasksets)
            merged[3] = merged[3].merged_with(TaskSet([task.with_client(3)]))
            expected = update_client(
                model.baseline,
                merged,
                3,
                ctx=AnalysisContext(cache=AnalysisCache()),
            )
            decision = session.probe(3, task)
            assert decision.admitted == expected.schedulable
            assert decision.composition.interfaces == expected.interfaces

    def test_probe_does_not_mutate_state(self):
        session = _model().session()
        before = session.tasksets
        session.probe(3, SMALL)
        session.probe(3, HEAVY)
        assert session.tasksets == before
        assert session.composition is session.model.baseline

    def test_admit_commits_and_evict_rolls_back(self):
        model = _model()
        session = model.session()
        decision = session.admit(3, SMALL)
        assert decision.admitted and decision.committed
        assert len(session.tasksets[3]) == len(model.client_tasksets[3]) + 1
        assert session.composition is decision.composition
        evicted = session.evict(3)
        assert evicted.committed
        assert 3 not in session.tasksets
        session.reset()
        assert session.tasksets == dict(model.client_tasksets)
        assert session.composition is model.baseline

    def test_rejected_admit_leaves_state_untouched(self):
        session = _model().session()
        decision = session.admit(3, HEAVY)
        assert not decision.admitted
        assert not decision.committed
        assert decision.witness is not None
        assert session.composition is session.model.baseline

    def test_witness_carries_the_numbers(self):
        decision = _model().session().probe(3, HEAVY)
        witness = decision.witness
        assert witness.client_id == 3
        assert witness.reason
        assert witness.submitted_utilization == HEAVY.utilization
        payload = witness.as_dict()
        assert payload["root_bandwidth"] > 1.0

    def test_admitted_decision_exposes_leaf_interface_and_path(self):
        model = _model()
        decision = model.session().probe(3, SMALL)
        leaf, port = model.topology.leaf_of_client(3)
        assert decision.interface == decision.composition.interface_for(
            leaf, port
        )
        hops = decision.path_interfaces()
        assert [node for node, _, _ in hops] == model.topology.path_to_root(3)
        assert hops[0][1] == port

    def test_client_range_validated(self):
        session = _model().session()
        with pytest.raises(ConfigurationError):
            session.probe(99, SMALL)
        with pytest.raises(ConfigurationError):
            session.probe(0, TaskSet())

    def test_scalar_and_vectorized_sessions_agree(self):
        """A model and its probes on the test oracle equal the engine's."""
        model_v = _model()
        with oracle.installed() as calls:
            model_s = _model(cache=DISABLED)
            probes = [
                model_s.session().probe(5, task) for task in (SMALL, HEAVY)
            ]
        assert calls["select_interface"] > 0
        assert model_v.baseline.interfaces == model_s.baseline.interfaces
        for task, ds in zip((SMALL, HEAVY), probes):
            dv = model_v.session().probe(5, task)
            assert dv.admitted == ds.admitted
            assert dv.composition.interfaces == ds.composition.interfaces

    def test_sessions_share_the_model_cache(self):
        model = _model()
        first = model.session()
        first.probe(3, SMALL)
        warm = model.cache.stats_snapshot()
        second = model.session()
        decision = second.probe(3, SMALL)
        after = model.cache.stats_snapshot()
        assert decision.admitted
        # the second session's identical probe is answered from cache
        assert after.selection_misses == warm.selection_misses

    def test_concurrent_admits_serialize(self):
        model = _model(n_clients=16)
        session = model.session()
        outcomes = []
        barrier = threading.Barrier(4)

        def worker(client: int) -> None:
            barrier.wait()
            outcomes.append(session.admit(client, SMALL))

        threads = [
            threading.Thread(target=worker, args=(c,)) for c in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(o.admitted for o in outcomes)
        for client in range(4):
            assert len(session.tasksets[client]) == len(
                model.client_tasksets[client]
            ) + 1
        assert session.composition.schedulable

    def test_breakdown_and_slack_views(self):
        session = _model().session()
        breakdown = session.breakdown(precision=0.1)
        assert breakdown.scale >= 1.0
        slack = session.slack()
        assert set(slack) == set(session.tasksets)
        assert all(value > -1.0 for value in slack.values())

    def test_session_borrows_the_model_context(self):
        """A session decides under its model's context, nothing else."""
        own_cache = AnalysisCache()
        model = _model(cache=own_cache)
        session = AdmissionSession(model)
        assert session.context is model.context
        assert session.context.cache is own_cache
        assert session.probe(3, SMALL).admitted
        assert own_cache.stats.lookups > 0
