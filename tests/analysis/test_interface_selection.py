"""Tests for the minimum-bandwidth interface selection (Sec. 5)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.vectorized as vectorized_module
from repro.analysis.cache import AnalysisCache
from repro.analysis.context import (
    DEFAULT_CONFIG,
    AnalysisContext,
    SelectionConfig,
)
from repro.analysis.interface_selection import (
    _candidate_periods,
    _minimum_bandwidth,
    minimal_budgets_for_periods,
    select_interface,
    theorem2_period_bound,
)
from repro.analysis.prm import ResourceInterface
from repro.analysis.schedulability import is_schedulable
from repro.errors import ConfigurationError, InfeasibleError
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

from . import oracle


def minimal_budget_for_period(taskset, period):
    """The engine's minimal budget at one period, which must equal the
    test oracle's."""
    (budget,) = minimal_budgets_for_periods(taskset, [period])
    assert budget == oracle.minimal_budget(taskset, period)
    return budget


def _searching(candidates: int) -> AnalysisContext:
    """The default context with a ``candidates``-period search."""
    return AnalysisContext(
        config=SelectionConfig(max_period_candidates=candidates)
    )


class TestTheorem2:
    def test_known_bound(self):
        # min T = 40, siblings' utilization 1/2: Pi <= 40 / (2 * 1/2) = 40
        taskset = TaskSet([PeriodicTask(period=40, wcet=4)])
        assert theorem2_period_bound(taskset, Fraction(1, 2)) == 40

    def test_heavier_siblings_tighten_bound(self):
        taskset = TaskSet([PeriodicTask(period=60, wcet=6)])
        loose = theorem2_period_bound(taskset, Fraction(1, 4))
        tight = theorem2_period_bound(taskset, Fraction(3, 4))
        assert tight < loose

    def test_no_siblings_caps_at_min_period(self):
        taskset = TaskSet([PeriodicTask(period=25, wcet=2)])
        assert theorem2_period_bound(taskset, Fraction(0)) == 25

    def test_empty_taskset_rejected(self):
        with pytest.raises(ConfigurationError):
            theorem2_period_bound(TaskSet(), Fraction(0))

    def test_bound_is_necessary(self):
        """Violating the Theorem-2 bound really is unschedulable.

        With sibling utilization U_s, the VE's bandwidth caps at
        1 - U_s; any period above the bound leaves a supply blackout
        longer than the shortest deadline.
        """
        taskset = TaskSet([PeriodicTask(period=20, wcet=2)])
        sibling = Fraction(1, 2)
        bound = theorem2_period_bound(taskset, sibling)
        period = bound + 1
        max_budget = int((1 - sibling) * period)  # bandwidth cap
        for budget in range(0, max_budget + 1):
            iface = ResourceInterface(period, budget)
            assert not is_schedulable(taskset, iface).schedulable


class TestMinimalBudget:
    def test_finds_minimal(self, small_taskset):
        period = 10
        budget = minimal_budget_for_period(small_taskset, period)
        assert budget is not None
        assert is_schedulable(
            small_taskset, ResourceInterface(period, budget)
        ).schedulable
        if budget > 1:
            assert not is_schedulable(
                small_taskset, ResourceInterface(period, budget - 1)
            ).schedulable

    def test_empty_taskset_needs_nothing(self):
        assert minimal_budget_for_period(TaskSet(), 10) == 0

    def test_overutilized_set_returns_none(self):
        # U = 1.2 cannot be scheduled at any budget (even Theta = Pi)
        taskset = TaskSet(
            [PeriodicTask(period=10, wcet=6), PeriodicTask(period=10, wcet=6)]
        )
        assert minimal_budget_for_period(taskset, 10) is None

    def test_full_budget_always_schedules_feasible_set(self):
        # With Theta = Pi the supply is the whole resource, so any U <= 1
        # implicit-deadline set is schedulable regardless of Pi.
        taskset = TaskSet([PeriodicTask(period=10, wcet=4)])
        for period in (1, 3, 10, 17):
            budget = minimal_budget_for_period(taskset, period)
            assert budget is not None and budget <= period

    def test_rejects_bad_period(self, small_taskset):
        with pytest.raises(ConfigurationError):
            minimal_budget_for_period(small_taskset, 0)


class TestSelectInterface:
    def test_result_is_schedulable(self, small_taskset):
        result = select_interface(small_taskset, Fraction(1, 2))
        assert is_schedulable(small_taskset, result.interface).schedulable

    def test_bandwidth_exceeds_utilization(self, small_taskset):
        result = select_interface(small_taskset, Fraction(0))
        assert result.interface.bandwidth > small_taskset.utilization

    def test_empty_taskset_gets_idle_interface(self):
        result = select_interface(TaskSet())
        assert result.interface.budget == 0

    def test_matches_brute_force_bandwidth(self):
        """The search finds the same minimum bandwidth as an exhaustive
        (Pi, Theta) scan, on instances small enough to scan."""
        rng = random.Random(7)
        for _ in range(10):
            period = rng.randint(8, 24)
            wcet = rng.randint(1, period // 3)
            taskset = TaskSet([PeriodicTask(period=period, wcet=wcet)])
            chosen = select_interface(
                taskset, Fraction(0), ctx=_searching(0)
            ).interface
            brute = oracle.brute_force(taskset, period)
            assert brute is not None
            assert chosen.bandwidth == brute.bandwidth, (
                f"task ({period},{wcet}): selected {chosen} vs brute {brute}"
            )

    def test_infeasible_raises(self):
        # Sibling load so heavy that Theorem 2 leaves no feasible period
        # (bound < 1): happens inside over-utilized SEs.
        taskset = TaskSet([PeriodicTask(period=10, wcet=4)])
        with pytest.raises(InfeasibleError):
            select_interface(taskset, Fraction(51, 10))

    def test_sampled_search_close_to_exhaustive(self):
        taskset = TaskSet(
            [PeriodicTask(period=400, wcet=9), PeriodicTask(period=1000, wcet=30)]
        )
        exhaustive = select_interface(
            taskset, Fraction(1, 4), ctx=_searching(0)
        )
        sampled = select_interface(
            taskset, Fraction(1, 4), ctx=_searching(32)
        )
        assert sampled.interface.bandwidth <= exhaustive.interface.bandwidth * Fraction(
            11, 10
        )

    @given(
        period=st.integers(6, 60),
        wcet=st.integers(1, 10),
        sibling_num=st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_selected_interface_always_schedulable(
        self, period, wcet, sibling_num
    ):
        wcet = min(wcet, period // 2 + 1)
        taskset = TaskSet([PeriodicTask(period=period, wcet=wcet)])
        sibling = Fraction(sibling_num, 10)
        if taskset.utilization + sibling >= 1:
            return
        try:
            result = select_interface(taskset, sibling)
        except InfeasibleError:
            return
        assert is_schedulable(taskset, result.interface).schedulable


class TestPruning:
    """The vectorized search drops periods that can no longer win."""

    def test_tie_goes_to_the_larger_period(self):
        """(2, 1) and (4, 2) both reach the minimum bandwidth 1/2: the
        larger period wins, on the pruned search as on the oracle.  A
        pruning test that also drops *tying* periods picks (2, 1)."""
        taskset = TaskSet([PeriodicTask(period=6, wcet=2)])
        assert minimal_budgets_for_periods(taskset, [2, 4]) == [1, 2]
        chosen = select_interface(
            taskset, ctx=AnalysisContext(cache=AnalysisCache())
        ).interface
        assert chosen == ResourceInterface(4, 2)
        assert oracle.select(taskset).interface == ResourceInterface(4, 2)

    def test_pruning_evaluates_fewer_probes(self, monkeypatch):
        """On one n=64 leaf task set the pruned selection evaluates
        strictly fewer (Π, Θ) probes than the full lock-step search and
        picks the identical interface."""
        tasksets = generate_client_tasksets(random.Random(64), 64, 2, 0.4)
        taskset = tasksets[0]
        sibling = sum((tasksets[c].utilization for c in (1, 2, 3)), Fraction(0))
        probes = []
        verdicts = vectorized_module.grid_verdicts

        def counting(grid, utilization, periods, budgets):
            probes.append(len(periods))
            return verdicts(grid, utilization, periods, budgets)

        monkeypatch.setattr(vectorized_module, "grid_verdicts", counting)
        pruned = select_interface(
            taskset, sibling, ctx=AnalysisContext(cache=AnalysisCache())
        )
        pruned_probes, probes[:] = sum(probes), []
        periods = _candidate_periods(
            theorem2_period_bound(taskset, sibling), DEFAULT_CONFIG
        )
        budgets = minimal_budgets_for_periods(
            taskset, periods, ctx=AnalysisContext(cache=AnalysisCache())
        )
        full_probes = sum(probes)
        full = _minimum_bandwidth(periods, budgets)
        assert pruned.interface == ResourceInterface(*full)
        assert 0 < pruned_probes < full_probes


class TestSelectionConfig:
    def test_rejects_negative_candidates(self):
        with pytest.raises(ConfigurationError):
            SelectionConfig(max_period_candidates=-1)

    def test_rejects_a_single_candidate(self):
        """One candidate cannot span the Theorem-2 range: the even
        sample would divide by ``k - 1 = 0``."""
        with pytest.raises(ConfigurationError, match="0 or >= 2"):
            SelectionConfig(max_period_candidates=1)
        with pytest.raises(ConfigurationError, match="0 or >= 2"):
            oracle.candidate_periods(40, 1)

    def test_two_candidates_span_the_range(self):
        taskset = TaskSet([PeriodicTask(period=40, wcet=4)])
        ctx = AnalysisContext(
            cache=AnalysisCache(),
            config=SelectionConfig(max_period_candidates=2),
        )
        selection = select_interface(taskset, ctx=ctx)
        assert selection.interface.budget > 0
