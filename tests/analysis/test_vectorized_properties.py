"""Property tests: the analysis engine against the exact test oracle.

The engine's contract is *bit-identical results* to the exact
analysis — not approximately equal, identical — so every property here
is an exact comparison, on randomized tasksets and interfaces, with the
scalar oracle of :mod:`tests.analysis.oracle` (written from the
definitions, sharing no code with the engine):

* pointwise dbf/sbf equality between the array evaluators and the
  scalar formulas;
* sbf is monotone in t and consistent with superadditivity of supply;
* the step grid's points are exactly the instants where dbf changes;
* full :func:`is_schedulable` result equality (witnesses included) and
  :func:`select_interface` equality with the oracle;
* the equivalence wall: selections and lock-step budget searches equal
  the oracle on coprime periods (utilization denominators past
  2⁶⁴), on probes just above the utilization floor (huge β, windowed
  scan) and under tiny grid and chunk budgets;
* the float horizon never undercuts the exact Theorem-1 bound;
* a cache hit returns the *same object* the cold path produced.
"""

import random
from contextlib import ExitStack
from dataclasses import astuple
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.vectorized as vectorized_module
from repro.analysis import (
    AnalysisCache,
    AnalysisContext,
    is_schedulable,
    select_interface,
    taskset_key,
)
from repro.analysis.context import SelectionConfig
from repro.analysis.interface_selection import minimal_budgets_for_periods
from repro.analysis.prm import ResourceInterface, dbf, sbf
from repro.analysis.vectorized import (
    HORIZON_OVERFLOW,
    StepGrid,
    dbf_values,
    grid_for,
    grid_verdicts,
    sbf_values,
    theorem1_betas,
    theorem1_horizons,
)
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

from . import oracle


def vectorized(cache: AnalysisCache) -> AnalysisContext:
    return AnalysisContext(cache=cache)


def selection(taskset, sibling, ctx):
    """The engine's selection as the oracle reports one, or the
    exception type's name."""
    try:
        result = select_interface(taskset, sibling, ctx=ctx)
    except Exception as exc:  # InfeasibleError etc: compare type
        return type(exc).__name__
    return (result.interface, result.periods_examined, result.period_bound)


def oracle_selection(taskset, sibling, candidates=oracle.DEFAULT_CANDIDATES):
    try:
        return tuple(oracle.select(taskset, sibling, candidates))
    except Exception as exc:
        return type(exc).__name__


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
        assert list(int(t) for t in ts) == oracle.step_points(taskset, horizon)
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
        scalar = oracle.schedulability(taskset, interface)
        batched = is_schedulable(
            taskset, interface, ctx=vectorized(AnalysisCache())
        )
        assert scalar == astuple(batched)  # witnesses and test bound included

    @given(
        seed=st.integers(0, 50_000),
        sibling=st.fractions(
            min_value=0, max_value=Fraction(3, 4), max_denominator=16
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_select_interface_equal(self, seed, sibling):
        taskset = random_taskset(seed, max_tasks=4, max_period=300)
        assert oracle_selection(taskset, sibling) == selection(
            taskset, sibling, vectorized(AnalysisCache())
        )

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_grid_verdicts_match_single_tests(self, seed):
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
        pairs = np.array(interfaces, dtype=np.int64).reshape(-1, 2)
        verdicts = grid_verdicts(
            grid_for(taskset, AnalysisCache()),
            utilization,
            pairs[:, 0],
            pairs[:, 1],
        )
        assert len(verdicts) == len(interfaces)
        for (period, budget), verdict in zip(interfaces, verdicts):
            expected = oracle.schedulability(
                taskset, ResourceInterface(period, budget)
            ).schedulable
            assert verdict == expected


class TestFallbackPaths:
    """Force the engine's degenerate regimes — the windowed scan (grid
    point budget exhausted) and tiny broadcast chunks — and
    require exact equality with the oracle there too."""

    def test_lazy_scan_matches_scalar(self, monkeypatch):
        import repro.analysis.vectorized as vectorized_module

        monkeypatch.setattr(vectorized_module, "MAX_GRID_POINTS", 8)
        for seed in range(300):
            taskset = random_taskset(seed, max_tasks=3, max_period=60)
            interface = random_interface(seed, max_period=50)
            scalar = oracle.schedulability(taskset, interface)
            lazy = is_schedulable(
                taskset, interface, ctx=vectorized(AnalysisCache())
            )
            assert scalar == astuple(lazy)

    def test_tiny_chunks_match_scalar_selection(self, monkeypatch):
        import repro.analysis.vectorized as vectorized_module

        monkeypatch.setattr(vectorized_module, "MAX_BATCH_CELLS", 16)
        for seed in range(12):
            taskset = random_taskset(seed, max_tasks=3, max_period=120)
            if taskset.utilization >= 1:
                continue
            scalar = oracle_selection(taskset, Fraction(0))
            chunked = selection(
                taskset, Fraction(0), vectorized(AnalysisCache())
            )
            assert chunked == scalar


#: distinct primes: task sets over them have U's denominator = Π Tᵢ
PRIMES = [p for p in range(257, 700) if all(p % d for d in range(2, 27))]


@st.composite
def wall_tasksets(draw):
    """Task sets of the three regimes the equivalence wall must cover.

    * ``random``: small arbitrary task sets;
    * ``coprime``: eight distinct prime periods, so U's denominator is
      their product, above 2⁶⁴;
    * ``floor``: U = Θ₀/Π₀ − 1/(Π₀·m), so the probe ``(Π₀, Θ₀)`` sits
      1/m above the utilization floor and its β = 2Θ₀(Π₀−Θ₀)·m is huge.
    Returns ``(taskset, periods worth searching)``.
    """
    kind = draw(st.sampled_from(["random", "coprime", "floor"]))
    if kind == "random":
        taskset = random_taskset(draw(st.integers(0, 50_000)), max_tasks=4)
        return taskset, sorted(draw(st.sets(st.integers(1, 120), max_size=12)))
    if kind == "coprime":
        periods = draw(st.permutations(PRIMES))[:8]
        tasks = [
            PeriodicTask(period=t, wcet=draw(st.integers(1, t // 16)))
            for t in periods
        ]
        taskset = TaskSet(tasks)
        assert taskset.utilization.denominator > 2**64
        return taskset, sorted(draw(st.sets(st.integers(1, 256), max_size=12)))
    period = draw(st.integers(4, 24))
    budget = draw(st.integers(period // 2 + 1, period - 1))
    m = draw(st.integers(50, 2_000))
    taskset = TaskSet(
        [
            PeriodicTask(period=period, wcet=budget - 1),
            PeriodicTask(period=period * m, wcet=m - 1),
        ]
    )
    assert budget - taskset.utilization * period == Fraction(1, m)
    extra = draw(st.sets(st.integers(1, 3 * period), max_size=6))
    return taskset, sorted(extra | {period})


def tiny_budgets(tiny: bool) -> ExitStack:
    """Shrink the grid point and chunk budgets (or leave them) for a block."""
    stack = ExitStack()
    if tiny:
        for name, value in (("MAX_GRID_POINTS", 8), ("MAX_BATCH_CELLS", 16)):
            stack.enter_context(mock.patch.object(vectorized_module, name, value))
    return stack


class TestEquivalenceWall:
    """The engine's searches equal the test oracle exactly."""

    @given(
        drawn=wall_tasksets(),
        sibling=st.fractions(
            min_value=0, max_value=Fraction(1, 2), max_denominator=16
        ),
        candidates=st.sampled_from([8, 32]),
        tiny=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_select_interface_equals_scalar_oracle(
        self, drawn, sibling, candidates, tiny
    ):
        taskset, _ = drawn
        config = SelectionConfig(max_period_candidates=candidates)
        with tiny_budgets(tiny):
            engine = selection(
                taskset,
                sibling,
                AnalysisContext(cache=AnalysisCache(), config=config),
            )
        assert engine == oracle_selection(taskset, sibling, candidates)

    @given(drawn=wall_tasksets(), tiny=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_lockstep_budgets_equal_per_period_scalar(self, drawn, tiny):
        taskset, periods = drawn
        with tiny_budgets(tiny):
            budgets = minimal_budgets_for_periods(
                taskset, periods, ctx=AnalysisContext(cache=AnalysisCache())
            )
        assert budgets == [
            oracle.minimal_budget(taskset, period) for period in periods
        ]

    def test_floor_probe_takes_the_lazy_scan(self, monkeypatch):
        """The ``floor`` regime really reaches the windowed scan, and
        the scan walks windows of at most ``MAX_GRID_POINTS`` points
        plus one per period."""
        calls = []
        windows = []
        scan = vectorized_module._window_violation
        step_points = vectorized_module._step_points
        monkeypatch.setattr(
            vectorized_module,
            "_window_violation",
            lambda *args: calls.append(args) or scan(*args),
        )

        def recording_step_points(*args):
            ts, demands = step_points(*args)
            windows.append(len(ts))
            return ts, demands

        monkeypatch.setattr(
            vectorized_module, "_step_points", recording_step_points
        )
        monkeypatch.setattr(vectorized_module, "MAX_GRID_POINTS", 8)
        taskset = TaskSet(
            [
                PeriodicTask(period=10, wcet=8),
                PeriodicTask(period=10_000, wcet=999),
            ]
        )
        budgets = minimal_budgets_for_periods(
            taskset, [10], ctx=AnalysisContext(cache=AnalysisCache())
        )
        assert budgets == [oracle.minimal_budget(taskset, 10)]
        assert [(args[1], args[2]) for args in calls] == [(10, 9)]
        # β of (10, 9) is 18 000 cycles: many windows, none oversized
        assert len(windows) > 100
        assert max(windows) <= 8 + len(taskset)


class TestTheorem1Horizons:
    @given(
        # below 2³¹ the float bound runs; above it, the exact fallback
        period=st.one_of(st.integers(1, 2**31 - 1), st.integers(2**31, 2**40)),
        budget_share=st.fractions(min_value=0, max_value=1),
        gap=st.one_of(
            st.integers(1, 2**80).map(lambda q: Fraction(1, 2**64 + q)),
            st.fractions(min_value=0, max_value=1).filter(lambda f: f > 0),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_horizon_never_below_exact_beta(self, period, budget_share, gap):
        """For any Θ/Π > U — including Θ − UΠ = 1/q with q > 2⁶⁴ — the
        int64 horizon is at least the exact ``ceil(β)``."""
        budget = max(1, min(period, round(budget_share * period)))
        # Θ − UΠ = gap > 0, and U >= 0
        utilization = (budget - min(gap, Fraction(budget))) / period
        horizon = int(
            theorem1_horizons(
                utilization,
                np.array([period], dtype=np.int64),
                np.array([budget], dtype=np.int64),
            )[0]
        )
        exact = theorem1_betas(utilization, [(period, budget)])[0]
        assert horizon >= min(exact, HORIZON_OVERFLOW)

    def test_batch_horizons_bound_beta_tightly(self):
        utilization = Fraction(3, 7) + Fraction(1, 2**70)
        periods = np.arange(3, 300, dtype=np.int64)
        budgets = (periods * 3) // 7 + 1
        horizons = theorem1_horizons(utilization, periods, budgets)
        exact = theorem1_betas(
            utilization, list(zip(periods.tolist(), budgets.tolist()))
        )
        assert np.all(horizons >= np.array(exact))
        # well-conditioned horizons stay within 0.1 % (+1) of β
        assert np.all(horizons <= np.array(exact) * 1.001 + 1)


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
