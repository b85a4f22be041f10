"""The whole-SE memo (``AnalysisCache``'s node table).

A session deciding on a shared, warm cache must equal a session
deciding on :data:`~repro.analysis.cache.DISABLED` decision for
decision — verdict, failure text, root bandwidth, every interface and
the witness — over random admit/evict/retask/probe walks that reach
every failure kind.  A warm decision does exactly the SE lookups its
path needs, and SEs resolved under different search configs never
share an entry.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis import SystemModel, compose
from repro.analysis.cache import DISABLED, AnalysisCache
from repro.analysis.context import AnalysisContext, SelectionConfig
from repro.tasks.task import PeriodicTask

SIZES = (4, 5, 16, 64)

#: light tasks that mostly fit, and heavy ones that overload a port:
#: (100, 95) has utilization exactly 1 once tightened (infeasible on
#: its own); short periods cost far more bandwidth than utilization,
#: so (16, 3) and (40, 18) overflow a loaded SE's selected bandwidth
PALETTE = (
    PeriodicTask(period=1000, wcet=1, name="light/a"),
    PeriodicTask(period=2500, wcet=3, name="light/b"),
    PeriodicTask(period=400, wcet=5, name="light/c"),
    PeriodicTask(period=100, wcet=95, name="heavy/full"),
    PeriodicTask(period=16, wcet=3, name="heavy/short"),
    PeriodicTask(period=40, wcet=18, name="heavy/overflow"),
    PeriodicTask(period=64, wcet=60, name="heavy/over"),
)

#: one cache shared by every warm model, so walks reuse each other's SEs
SHARED = AnalysisCache()


def _pair(n: int, seed: int, cache) -> tuple[SystemModel, SystemModel]:
    """The same system twice: on ``cache``, and cold."""
    return tuple(
        SystemModel.from_seed(n, utilization=0.3, seed=seed, cache=c)
        for c in (cache, DISABLED)
    )


def _kind(failure: str) -> str:
    for marker, kind in (
        ("is over-utilized", "over-utilized"),
        (" port ", "infeasible-port"),
        ("selected server bandwidths", "bandwidth-overflow"),
        ("memory controller", "root"),
    ):
        if marker in failure:
            return kind
    return "schedulable" if not failure else failure


def _view(decision) -> dict:
    composition = decision.composition
    return {
        "admitted": decision.admitted,
        "committed": decision.committed,
        "schedulable": composition.schedulable,
        "failure": composition.failure,
        "root_bandwidth": composition.root_bandwidth,
        "interfaces": composition.interfaces,
        "witness": decision.witness,
    }


def _decide(session, kind: str, client: int, task: int):
    if kind == "evict":
        return session.evict(client)
    return getattr(session, kind)(client, PALETTE[task])


def _replay(n: int, seed: int, ops, cache=SHARED) -> set[str]:
    """Walk both sessions through ``ops``; returns the kinds seen."""
    warm_model, cold_model = _pair(n, seed, cache)
    warm, cold = warm_model.session(), cold_model.session()
    kinds = set()
    for kind, client, task in ops:
        got = _decide(warm, kind, client % n, task)
        want = _decide(cold, kind, client % n, task)
        assert _view(got) == _view(want), (kind, client % n, task)
        kinds.add(_kind(want.composition.failure))
    assert warm.tasksets == cold.tasksets
    return kinds


op = st.tuples(
    st.sampled_from(("admit", "evict", "retask", "probe")),
    # -1 is the last client, the one a sparse start keeps busy
    st.one_of(st.just(-1), st.integers(0, 63)),
    st.integers(0, len(PALETTE) - 1),
)


def _evict_all_but_last(n: int) -> list[tuple[str, int, int]]:
    return [("evict", client, 0) for client in range(n - 1)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 3),
    sparse=st.booleans(),
    ops=st.lists(op, min_size=1, max_size=12),
)
def test_shared_cache_session_equals_cold_session(n, seed, sparse, ops):
    # a sparse start leaves one busy port, where a port of utilization
    # exactly 1 fails selection without over-utilizing its SE
    prefix = _evict_all_but_last(n) if sparse else []
    for kind in sorted(_replay(n, seed, prefix + ops)):
        event(kind)


#: pinned walks, one per failure kind, each on the memo path
WALKS = {
    "over-utilized": (16, 7, [("probe", 3, 6), ("admit", 3, 6)]),
    "infeasible-port": (
        5,
        7,
        _evict_all_but_last(5) + [("retask", 4, 3), ("probe", 4, 3)],
    ),
    "infeasible-port-single-se": (
        4,
        7,
        _evict_all_but_last(4) + [("retask", 3, 3), ("probe", 3, 3)],
    ),
    "bandwidth-overflow": (4, 7, [("probe", 3, 5), ("probe", 3, 5)]),
}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_walk_reaches_its_failure_kind(name):
    n, seed, ops = WALKS[name]
    kind = name.removesuffix("-single-se")
    assert kind in _replay(n, seed, ops)
    # the same walk again is answered from the warm memo
    hits = SHARED.stats_snapshot().node_hits
    assert kind in _replay(n, seed, ops)
    assert SHARED.stats_snapshot().node_hits > hits


def test_a_record_reused_at_another_se_names_that_se():
    """Records are position-free: a failing SE's record, made at one
    node, replays with the node it is reused at in the failure text."""
    cache = AnalysisCache()
    # leaf (1, 3) of 16 clients: ports 0-2 empty, port 3 infeasible
    _replay(16, 7, _evict_all_but_last(16) + [("retask", -1, 3)], cache)
    hits = cache.stats_snapshot().node_hits
    # the one SE of 4 clients presents the very same ports
    kinds = _replay(4, 7, _evict_all_but_last(4) + [("retask", -1, 3)], cache)
    assert "infeasible-port" in kinds
    assert cache.stats_snapshot().node_hits > hits


SMALL = PeriodicTask(period=1000, wcet=1, name="small")


class TestExactWork:
    def test_repeated_probe_is_one_hit_per_path_se(self):
        model = SystemModel.from_seed(64, utilization=0.3, seed=7)
        session = model.session()
        session.probe(9, SMALL)
        before = model.cache.stats_snapshot()
        session.probe(9, SMALL)
        after = model.cache.stats_snapshot()
        assert (
            after.node_hits - before.node_hits,
            after.node_misses - before.node_misses,
            after.lookups - before.lookups,
        ) == (model.topology.depth + 1, 0, 0)

    @pytest.mark.parametrize(
        "task, leaf_changes",
        [
            (PeriodicTask(period=4000, wcet=1, name="tiny"), False),
            (PeriodicTask(period=500, wcet=5, name="light"), True),
        ],
    )
    def test_new_task_misses_at_the_leaf_only(self, task, leaf_changes):
        model = SystemModel.from_seed(16, utilization=0.3, seed=7)
        session = model.session()
        leaf = model.topology.leaf_of_client(5)[0]
        before = model.cache.stats_snapshot()
        decision = session.probe(5, task)
        after = model.cache.stats_snapshot()
        changed = (
            decision.composition.interfaces[leaf]
            != session.composition.interfaces[leaf]
        )
        assert changed is leaf_changes
        # leaf then root: the root's key is its children's interfaces
        expected = (0, 2) if changed else (1, 1)
        assert (
            after.node_hits - before.node_hits,
            after.node_misses - before.node_misses,
        ) == expected


def test_configs_never_share_an_se_entry():
    """One cache, two search configs: each gets its own answer."""
    model = SystemModel.from_seed(16, utilization=0.3, seed=7)
    tasksets = dict(model.client_tasksets)
    cache = AnalysisCache()
    results = {}
    for k in (8, 64):
        config = SelectionConfig(max_period_candidates=k)
        warm = compose(
            model.topology, tasksets, ctx=AnalysisContext(cache, config)
        )
        cold = compose(
            model.topology, tasksets, ctx=AnalysisContext(DISABLED, config)
        )
        assert warm == cold
        results[k] = warm
    # the premise: the two configs really select differently here
    assert results[8].interfaces != results[64].interfaces
