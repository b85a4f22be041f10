"""Exactness wall: the holistic response bound, engine against oracle.

The engine runs one array fixpoint per port
(:func:`repro.analysis.vectorized.port_wcrts`); the test oracle
(:mod:`tests.analysis.oracle`, installed over the pipeline's
``_port_wcrts`` seam) runs Spuri's fixpoint per task and release
offset, with its own busy period and supply delay.  The contract is
integer identity: every ``level_wcrt`` and ``path_latency`` equal, and
:class:`InfeasibleError` raised on both or on neither.  The draws are
small quadtrees whose interfaces sit at (or just off) the minimal
budgets, so interior ports see large upstream jitters and some draws
run into the divergence cap.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro.analysis.response_time as response_time
from repro.analysis import AnalysisCache, AnalysisContext, compose
from repro.analysis.cache import DISABLED
from repro.analysis.prm import ResourceInterface
from repro.analysis.response_time import holistic_response_bounds
from repro.errors import InfeasibleError
from repro.scenarios import ScenarioEvent, ScenarioKind, compute_transient_bound
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.topology import quadtree

from . import oracle
from .golden_utils import GOLDEN_SIZES, golden_system

#: the oracle's context: it never reads the cache, so keep it empty
SCALAR = AnalysisContext(cache=DISABLED)


def _vectorized() -> AnalysisContext:
    return AnalysisContext(cache=AnalysisCache())


def _outcome(tasksets, composition, ctx):
    """The bounds, or the string ``"infeasible"`` if the bound raises."""
    try:
        return holistic_response_bounds(tasksets, composition, ctx=ctx)
    except InfeasibleError:
        return "infeasible"


def _on_oracle(run):
    """``run()`` with the pipeline on the oracle, and the number of
    port bounds the oracle computed."""
    with oracle.installed() as calls:
        outcome = run()
    return outcome, calls["port_wcrts"]


def _assert_backends_agree(tasksets, composition):
    scalar, ports = _on_oracle(
        lambda: _outcome(tasksets, composition, SCALAR)
    )
    # only a composition ``compose`` rejected is refused before any port
    assert ports > 0 or not composition.schedulable
    fast = _outcome(tasksets, composition, _vectorized())
    assert fast == scalar
    return scalar


def _note(outcome) -> None:
    """Tally the draw for ``--hypothesis-show-statistics``."""
    event("infeasible" if outcome == "infeasible" else "bounded")


@st.composite
def near_saturated_systems(draw):
    """A quadtree, 1–3 tasks per client, and minimal-budget interfaces.

    Leaf budgets are the selected minimum or one above it, so every
    leaf passes the dbf<=sbf precondition; interior budgets move by at
    most one unit either way (never to zero), so an interior port can
    end up just below its subtree's demand.
    """
    n_clients = draw(st.sampled_from([4, 5, 8, 16]))
    tasksets = {}
    for client in range(n_clients):
        tasks = []
        for index in range(draw(st.integers(1, 3))):
            period = draw(st.integers(20, 400))
            wcet = draw(st.integers(1, max(1, period // (4 * n_clients))))
            tasks.append(PeriodicTask(period=period, wcet=wcet, name=f"t{index}"))
        tasksets[client] = TaskSet(tasks)
    topology = quadtree(n_clients)
    composition = compose(topology, tasksets, ctx=_vectorized())
    interfaces = {}
    for node, ports in sorted(composition.interfaces.items()):
        leaf = node[0] == topology.depth
        shifts = st.sampled_from([0, 1] if leaf else [-1, 0, 0, 1])
        interfaces[node] = [
            ResourceInterface(
                interface.period,
                min(
                    max(interface.budget + draw(shifts), min(interface.budget, 1)),
                    interface.period,
                ),
            )
            for interface in ports
        ]
    return tasksets, replace(composition, interfaces=interfaces)


class TestBackendsAgree:
    @given(system=near_saturated_systems())
    @settings(max_examples=60, deadline=None)
    def test_holistic_bounds_are_identical(self, system):
        tasksets, composition = system
        _note(_assert_backends_agree(tasksets, composition))

    @given(system=near_saturated_systems(), cap=st.integers(60, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_divergence_cap_trips_on_both_or_neither(self, system, cap):
        """A low cap makes busy periods and fixpoints overflow it often."""
        tasksets, composition = system
        with mock.patch.object(response_time, "_BUSY_PERIOD_CAP", cap):
            _note(_assert_backends_agree(tasksets, composition))

    @pytest.mark.parametrize("n_clients", GOLDEN_SIZES)
    def test_golden_systems(self, n_clients):
        topology, tasksets = golden_system(n_clients)
        composition = compose(topology, tasksets, ctx=_vectorized())
        bounds = _assert_backends_agree(tasksets, composition)
        assert bounds != "infeasible"
        assert sorted(bounds) == sorted(tasksets)


def test_transient_fallback_is_backend_independent():
    """An old composition with no finite bound falls back on the
    engine and on the oracle alike."""
    topology, tasksets = golden_system(16)
    composition = compose(topology, tasksets, ctx=_vectorized())
    # Starve one root port: its subtree's busy period outgrows the cap.
    root_ports = list(composition.interfaces[(0, 0)])
    root_ports[0] = ResourceInterface(1_000, 1)
    starved = replace(
        composition, interfaces={**composition.interfaces, (0, 0): root_ports}
    )
    join = ScenarioEvent(
        kind=ScenarioKind.CLIENT_JOIN,
        cycle=500,
        client_id=3,
        tasks=(PeriodicTask(period=1000, wcet=1, name="small"),),
    )
    def bound(ctx):
        return compute_transient_bound(
            0, join, 500, tasksets, starved, composition, ctx=ctx
        )

    scalar, ports = _on_oracle(lambda: bound(SCALAR))
    assert ports > 0
    bounds = [scalar, bound(_vectorized())]
    assert bounds[0] == bounds[1]
    assert not bounds[0].analytic
    assert bounds[0].window == max(
        task.period for taskset in tasksets.values() for task in taskset
    )
