"""Property test: an AdmissionSession's incremental state is path-
independent — whatever admit/evict/retask/reset walk produced it, the
composition equals a from-scratch composition of the tasksets it ended
up holding.  This is the invariant the scenarios subsystem leans on:
replaying a churn plan incrementally must land on the same interfaces a
cold analysis of the post-churn workload would select."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SystemModel, compose
from repro.analysis.cache import AnalysisCache
from repro.analysis.context import AnalysisContext
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

N_CLIENTS = 8

#: a small palette of light tasks so most admits commit but some walks
#: still hit rejections (which must leave the session untouched)
PALETTE = tuple(
    PeriodicTask(period=period, wcet=wcet, name=f"p{period}w{wcet}")
    for period, wcet in ((400, 1), (650, 2), (900, 3), (1200, 2))
)

_MODEL = None


def model():
    global _MODEL
    if _MODEL is None:
        _MODEL = SystemModel.from_seed(
            N_CLIENTS, utilization=0.25, seed=13
        )
    return _MODEL


op = st.one_of(
    st.tuples(
        st.just("admit"),
        st.integers(0, N_CLIENTS - 1),
        st.integers(0, len(PALETTE) - 1),
    ),
    st.tuples(
        st.just("evict"), st.integers(0, N_CLIENTS - 1), st.just(0)
    ),
    st.tuples(
        st.just("retask"),
        st.integers(0, N_CLIENTS - 1),
        st.integers(0, len(PALETTE) - 1),
    ),
    st.tuples(st.just("reset"), st.just(0), st.just(0)),
)


def apply_ops(session, ops):
    for kind, client, index in ops:
        if kind == "admit":
            session.admit(client, PALETTE[index])
        elif kind == "evict":
            session.evict(client)
        elif kind == "retask":
            task = PALETTE[index].with_client(client)
            session.retask(client, TaskSet([task]))
        else:
            session.reset()


class TestSessionPathIndependence:
    @given(ops=st.lists(op, min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_incremental_state_matches_cold_composition(self, ops):
        m = model()
        session = m.session()
        apply_ops(session, ops)
        final = dict(session.tasksets)
        populated = {c: ts for c, ts in final.items() if len(ts) > 0}
        if not populated:
            return
        cold = compose(
            m.topology,
            populated,
            ctx=AnalysisContext(cache=AnalysisCache(), config=m.context.config),
        )
        incremental = session.composition
        for client in populated:
            leaf, port = m.topology.leaf_of_client(client)
            assert incremental.interface_for(leaf, port) == (
                cold.interface_for(leaf, port)
            ), (ops, client)
        assert incremental.schedulable == cold.schedulable

    @given(ops=st.lists(op, min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_same_final_multiset_same_interfaces_as_fresh_walk(self, ops):
        """Two different walks that end with identical tasksets hold
        identical interfaces: replay the final state into a fresh
        session as evict+retask and compare."""
        m = model()
        first = m.session()
        apply_ops(first, ops)
        final = dict(first.tasksets)

        second = m.session()
        for client in range(N_CLIENTS):
            taskset = final.get(client, TaskSet())
            if len(taskset) > 0:
                second.retask(client, taskset)
            else:
                second.evict(client)
        assert dict(second.tasksets) == {
            c: ts for c, ts in final.items()
        }
        assert (
            second.composition.interfaces == first.composition.interfaces
        )
