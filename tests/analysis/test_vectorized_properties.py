"""Property tests: the vectorized engine against the scalar oracle.

The vectorized backend's contract is *bit-identical results* — not
approximately equal, identical — so every property here is an exact
comparison on randomized tasksets and interfaces:

* pointwise dbf/sbf equality between the array evaluators and the
  scalar formulas;
* sbf is monotone in t and consistent with superadditivity of supply;
* the step grid's points are exactly the instants where dbf changes;
* full :func:`is_schedulable` result equality (witnesses included) and
  :func:`select_interface` equality between backends;
* a cache hit returns the *same object* the cold path produced.
"""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AnalysisCache,
    AnalysisContext,
    is_schedulable,
    select_interface,
    taskset_key,
)
from repro.analysis.cache import DISABLED
from repro.analysis.prm import ResourceInterface, dbf, dbf_step_points, sbf
from repro.analysis.vectorized import (
    StepGrid,
    dbf_values,
    grid_for,
    sbf_values,
    schedulable_many,
)
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

#: the scalar oracle, never memoized
SCALAR = AnalysisContext(backend="scalar", cache=DISABLED)


def vectorized(cache: AnalysisCache) -> AnalysisContext:
    return AnalysisContext(backend="vectorized", cache=cache)


def random_taskset(seed: int, max_tasks: int = 6, max_period: int = 400):
    rng = random.Random(seed)
    tasks = []
    for index in range(rng.randint(1, max_tasks)):
        period = rng.randint(2, max_period)
        wcet = rng.randint(1, max(1, period // rng.randint(2, 10)))
        tasks.append(PeriodicTask(period=period, wcet=wcet, name=f"t{index}"))
    return TaskSet(tasks)


def random_interface(seed: int, max_period: int = 250):
    rng = random.Random(seed ^ 0x5EED)
    period = rng.randint(1, max_period)
    return ResourceInterface(period, rng.randint(0, period))


class TestPointwiseEquality:
    @given(seed=st.integers(0, 10_000), horizon=st.integers(1, 1_500))
    @settings(max_examples=60, deadline=None)
    def test_dbf_values_match_scalar(self, seed, horizon):
        taskset = random_taskset(seed)
        ts = np.arange(1, horizon + 1, dtype=np.int64)
        values = dbf_values(ts, taskset)
        for t, value in zip(ts, values):
            assert int(value) == dbf(int(t), taskset)

    @given(seed=st.integers(0, 10_000), horizon=st.integers(1, 1_500))
    @settings(max_examples=60, deadline=None)
    def test_sbf_values_match_scalar(self, seed, horizon):
        interface = random_interface(seed)
        ts = np.arange(0, horizon + 1, dtype=np.int64)
        values = sbf_values(ts, interface.period, interface.budget)
        for t, value in zip(ts, values):
            assert int(value) == sbf(int(t), interface)


class TestSupplyShape:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_sbf_monotone_in_t(self, seed):
        interface = random_interface(seed)
        ts = np.arange(0, 1_000, dtype=np.int64)
        values = sbf_values(ts, interface.period, interface.budget)
        assert np.all(np.diff(values) >= 0)

    @given(
        seed=st.integers(0, 10_000),
        t1=st.integers(0, 500),
        t2=st.integers(0, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_sbf_superadditive_consistent(self, seed, t1, t2):
        """sbf(t1 + t2) >= sbf(t1) + sbf(t2): splitting an interval can
        only add blackout, never supply — the guarantee composition
        leans on when it stacks child servers inside parent budgets."""
        interface = random_interface(seed)
        ts = np.array([t1, t2, t1 + t2], dtype=np.int64)
        s1, s2, joint = sbf_values(ts, interface.period, interface.budget)
        assert joint >= s1 + s2


class TestStepGrid:
    @given(seed=st.integers(0, 10_000), horizon=st.integers(1, 2_000))
    @settings(max_examples=60, deadline=None)
    def test_grid_points_are_exactly_the_demand_steps(self, seed, horizon):
        """The grid's points are precisely where dbf changes value —
        the same (Theorem-1) set the scalar scan walks, no more, no
        less."""
        taskset = random_taskset(seed)
        grid = StepGrid(taskset)
        ts, _ = grid.upto(horizon)
        assert list(int(t) for t in ts) == dbf_step_points(taskset, horizon)
        changes = [
            t
            for t in range(1, horizon + 1)
            if dbf(t, taskset) != dbf(t - 1, taskset)
        ]
        assert set(changes) <= set(int(t) for t in ts)

    @given(seed=st.integers(0, 10_000), horizon=st.integers(1, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_grid_demands_match_dbf(self, seed, horizon):
        taskset = random_taskset(seed)
        ts, demands = StepGrid(taskset).upto(horizon)
        for t, demand in zip(ts, demands):
            assert int(demand) == dbf(int(t), taskset)


class TestBackendEquality:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=120, deadline=None)
    def test_is_schedulable_full_result_equal(self, seed):
        taskset = random_taskset(seed)
        interface = random_interface(seed)
        scalar = is_schedulable(taskset, interface, ctx=SCALAR)
        batched = is_schedulable(
            taskset, interface, ctx=vectorized(AnalysisCache())
        )
        assert scalar == batched  # witnesses and test bound included

    @given(
        seed=st.integers(0, 50_000),
        sibling=st.fractions(
            min_value=0, max_value=Fraction(3, 4), max_denominator=16
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_select_interface_equal(self, seed, sibling):
        taskset = random_taskset(seed, max_tasks=4, max_period=300)
        def run(ctx):
            try:
                return select_interface(taskset, sibling, ctx=ctx)
            except Exception as exc:  # InfeasibleError etc: compare type
                return type(exc).__name__

        assert run(SCALAR) == run(vectorized(AnalysisCache()))

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_schedulable_many_matches_single_tests(self, seed):
        taskset = random_taskset(seed, max_tasks=4)
        utilization = taskset.utilization
        rng = random.Random(seed ^ 0xBA7C4)
        interfaces = []
        for _ in range(rng.randint(1, 8)):
            period = rng.randint(1, 200)
            floor = int(utilization * period) + 1
            if floor > period:
                continue
            interfaces.append((period, rng.randint(floor, period)))
        verdicts = schedulable_many(taskset, interfaces, AnalysisCache())
        for (period, budget), verdict in zip(interfaces, verdicts):
            expected = is_schedulable(
                taskset, ResourceInterface(period, budget), ctx=SCALAR
            ).schedulable
            assert verdict == expected


class TestFallbackPaths:
    """Force the engine's degenerate regimes — the lazy heap-merged
    scan (grid point budget exhausted) and tiny broadcast chunks — and
    require exact scalar equality there too."""

    def test_lazy_scan_matches_scalar(self, monkeypatch):
        import repro.analysis.vectorized as vectorized_module

        monkeypatch.setattr(vectorized_module, "MAX_GRID_POINTS", 8)
        for seed in range(300):
            taskset = random_taskset(seed, max_tasks=3, max_period=60)
            interface = random_interface(seed, max_period=50)
            scalar = is_schedulable(taskset, interface, ctx=SCALAR)
            lazy = is_schedulable(
                taskset, interface, ctx=vectorized(AnalysisCache())
            )
            assert scalar == lazy

    def test_tiny_chunks_match_scalar_selection(self, monkeypatch):
        import repro.analysis.vectorized as vectorized_module

        monkeypatch.setattr(vectorized_module, "MAX_BATCH_CELLS", 16)
        for seed in range(12):
            taskset = random_taskset(seed, max_tasks=3, max_period=120)
            if taskset.utilization >= 1:
                continue
            scalar = select_interface(taskset, ctx=SCALAR)
            chunked = select_interface(
                taskset, ctx=vectorized(AnalysisCache())
            )
            assert chunked == scalar


class TestCacheTransparency:
    @given(
        seed=st.integers(0, 50_000),
        sibling=st.fractions(
            min_value=0, max_value=Fraction(1, 2), max_denominator=8
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_cache_hit_is_bit_identical_to_cold_path(self, seed, sibling):
        taskset = random_taskset(seed, max_tasks=4, max_period=300)
        if taskset.utilization >= 1:
            return
        cache = AnalysisCache()
        try:
            cold = select_interface(taskset, sibling, ctx=vectorized(cache))
        except Exception:
            return  # infeasible draws carry nothing to memoize
        hits_before = cache.stats.selection_hits
        warm = select_interface(taskset, sibling, ctx=vectorized(cache))
        assert warm == cold
        assert warm is cold  # the memo returns the stored object itself
        assert cache.stats.selection_hits == hits_before + 1

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=30, deadline=None)
    def test_grid_cache_returns_same_grid(self, seed):
        taskset = random_taskset(seed)
        cache = AnalysisCache()
        first = grid_for(taskset, cache)
        again = grid_for(taskset, cache)
        assert again is first
        assert cache.stats.grid_hits == 1
        # a name-permuted but (T, C)-identical task set shares the grid
        renamed = TaskSet(
            [
                PeriodicTask(period=t.period, wcet=t.wcet, name=f"x{i}")
                for i, t in enumerate(taskset)
            ]
        )
        assert taskset_key(renamed) == taskset_key(taskset)
        assert grid_for(renamed, cache) is first
