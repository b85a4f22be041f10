"""The test oracle's seam patching: it installs, counts, restores, and
refuses a block in which the engine ran."""

import pytest

from repro.analysis import AnalysisCache, AnalysisContext, compose
from repro.analysis import composition, response_time
from repro.analysis.interface_selection import select_interface
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

from . import oracle
from .golden_utils import golden_system


def test_installed_patches_only_inside_the_block():
    seams = (composition.select_interface, response_time._port_wcrts)
    topology, tasksets = golden_system(16)
    with oracle.installed() as calls:
        assert composition.select_interface is not seams[0]
        assert response_time._port_wcrts is not seams[1]
        result = compose(topology, tasksets)
        response_time.holistic_response_bounds(tasksets, result)
    assert (composition.select_interface, response_time._port_wcrts) == seams
    # one selection per busy port, none for idle ones
    assert calls["select_interface"] == sum(
        interface.budget > 0
        for ports in result.interfaces.values()
        for interface in ports
    )
    assert calls["port_wcrts"] > 0


def test_engine_run_inside_the_block_fails_it():
    taskset = TaskSet([PeriodicTask(period=40, wcet=4, name="a")])
    with pytest.raises(AssertionError, match="engine ran under the oracle"):
        with oracle.installed():
            select_interface(taskset, ctx=AnalysisContext(cache=AnalysisCache()))


def test_a_warm_se_memo_never_answers_inside_the_block():
    """An engine-filled cache must not serve the oracle's composition:
    inside the block every SE is solved afresh and nothing is memoized,
    so neither side of an engine ≡ oracle wall sees the other's work."""
    topology, tasksets = golden_system(16)
    ctx = AnalysisContext(cache=AnalysisCache())
    engine = compose(topology, tasksets, ctx=ctx)
    before = ctx.cache.stats_snapshot()
    with oracle.installed() as calls:
        on_oracle = compose(topology, tasksets, ctx=ctx)
    after = ctx.cache.stats_snapshot()
    assert calls["select_interface"] > 0
    assert on_oracle == engine
    assert (after.node_hits, after.node_misses) == (
        before.node_hits,
        before.node_misses,
    )
