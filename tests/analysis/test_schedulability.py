"""Tests for the dbf<=sbf schedulability test and Theorem 1."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.prm import ResourceInterface, dbf, sbf
from repro.analysis.schedulability import is_schedulable, theorem1_bound
from repro.analysis.vectorized import StepGrid
from repro.errors import ConfigurationError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

from . import oracle


def random_small_taskset(rng: random.Random) -> TaskSet:
    tasks = []
    for _ in range(rng.randint(1, 3)):
        period = rng.randint(4, 30)
        wcet = rng.randint(1, max(1, period // 2))
        tasks.append(PeriodicTask(period=period, wcet=wcet))
    return TaskSet(tasks)


class TestTheorem1Bound:
    def test_known_value(self):
        # (Pi=10, Theta=5), U=1/4: beta = 2*0.5*5 / (0.5-0.25) = 20
        iface = ResourceInterface(10, 5)
        from fractions import Fraction

        assert theorem1_bound(iface, Fraction(1, 4)) == 20

    def test_requires_strict_bandwidth(self):
        from fractions import Fraction

        with pytest.raises(ConfigurationError):
            theorem1_bound(ResourceInterface(10, 5), Fraction(1, 2))

    def test_theorem1_statement_holds(self):
        """If dbf<=sbf for all t < beta, then for all t (checked far out)."""
        rng = random.Random(42)
        checked = 0
        while checked < 30:
            taskset = random_small_taskset(rng)
            period = rng.randint(2, 15)
            budget = rng.randint(1, period)
            iface = ResourceInterface(period, budget)
            if iface.bandwidth <= taskset.utilization:
                continue
            beta = theorem1_bound(iface, taskset.utilization)
            holds_below_beta = all(
                dbf(t, taskset) <= sbf(t, iface) for t in range(beta)
            )
            if not holds_below_beta:
                continue
            # Theorem 1 claims it then holds everywhere; probe well beyond.
            horizon = max(4 * beta, 4 * taskset.hyperperiod(), 500)
            for t in range(horizon):
                assert dbf(t, taskset) <= sbf(t, iface), (
                    f"Theorem 1 violated at t={t} for {taskset.tasks} on "
                    f"({period},{budget}), beta={beta}"
                )
            checked += 1


class TestTheorem1BoundaryRegression:
    """The scan must cover t ∈ (0, β] — including β itself.

    ``theorem1_bound`` returns ceil(β); when β lands exactly on a
    demand step (a period multiple), the pre-fix exclusive scan
    (`while multiple < horizon`) silently never checked ``t == β``.
    These cases are crafted so β is integral AND a period multiple.
    """

    # (interface, task): each yields an integral β equal to the task
    # period, so the boundary point is the ONLY demand step in range.
    BOUNDARY_CASES = [
        # Π=2, Θ=1 → bw=1/2, slack=1; task (4,1) → U=1/4, β=4=T
        (ResourceInterface(2, 1), PeriodicTask(period=4, wcet=1)),
        # Π=3, Θ=1 → bw=1/3, slack=2; task (16,4) → U=1/4, β=16=T
        (ResourceInterface(3, 1), PeriodicTask(period=16, wcet=4)),
    ]

    @pytest.mark.parametrize("iface,task", BOUNDARY_CASES)
    def test_scan_includes_integral_beta(self, iface, task):
        taskset = TaskSet([task])
        beta = theorem1_bound(iface, taskset.utilization)
        assert beta == task.period, "case must put β exactly on a step"
        ts, _ = StepGrid(taskset).upto(beta)
        # Pre-fix this was [] — the single step point in (0, β] is β.
        assert beta in ts
        assert beta in oracle.step_points(taskset, beta)

    @pytest.mark.parametrize("iface,task", BOUNDARY_CASES)
    def test_boundary_verdict_matches_exhaustive(self, iface, task):
        taskset = TaskSet([task])
        beta = theorem1_bound(iface, taskset.utilization)
        result = is_schedulable(taskset, iface)
        horizon = 4 * taskset.hyperperiod() + 4 * iface.period + beta
        assert result.schedulable == oracle.exhaustive(taskset, iface, horizon)
        if not result.schedulable:
            t = result.violation_time
            assert t is not None and 0 < t <= beta

    def test_integer_beta_sweep_agrees_with_exhaustive(self):
        """Directed sweep over interfaces/tasks that make β integral and
        a period multiple — the exact shape the old scan mishandled."""
        covered = 0
        for period in range(2, 8):
            for budget in range(1, period):
                iface = ResourceInterface(period, budget)
                for task_period in range(2, 33):
                    for wcet in range(1, task_period + 1):
                        taskset = TaskSet(
                            [PeriodicTask(period=task_period, wcet=wcet)]
                        )
                        if iface.bandwidth <= taskset.utilization:
                            continue
                        beta = theorem1_bound(iface, taskset.utilization)
                        if beta % task_period != 0:
                            continue  # β not on a demand step
                        covered += 1
                        fast = is_schedulable(taskset, iface).schedulable
                        horizon = 3 * task_period * period + beta
                        slow = oracle.exhaustive(taskset, iface, horizon)
                        assert fast == slow, (
                            f"disagreement for ({task_period},{wcet}) on "
                            f"({period},{budget}), β={beta}"
                        )
        assert covered > 50  # the sweep genuinely exercises the boundary


class TestBandwidthFailureWitness:
    """The bandwidth-failure branch must return a real violation witness."""

    def test_witness_is_concrete_and_real(self, tight_taskset):
        # U = 0.9 but bandwidth 0.5: long-run demand outpaces supply.
        iface = ResourceInterface(10, 5)
        result = is_schedulable(tight_taskset, iface)
        assert not result.schedulable
        assert result.violation_time is not None
        t = result.violation_time
        assert result.demand_at_violation == dbf(t, tight_taskset)
        assert result.supply_at_violation == sbf(t, iface)
        assert result.demand_at_violation > result.supply_at_violation

    def test_witness_is_first_step_violation(self):
        taskset = TaskSet([PeriodicTask(period=4, wcet=3)])  # U = 3/4
        iface = ResourceInterface(2, 1)  # bw = 1/2
        result = is_schedulable(taskset, iface)
        assert not result.schedulable
        t = result.violation_time
        assert t is not None
        # no earlier instant violates (the witness is the first)
        for earlier in range(1, t):
            assert dbf(earlier, taskset) <= sbf(earlier, iface)

    def test_equal_bandwidth_with_slack_fails_with_witness(self):
        # bw == U == 1/2 but Π−Θ > 0: sbf lags by the blackout, so the
        # hyperperiod (or earlier) witnesses the violation.
        taskset = TaskSet([PeriodicTask(period=4, wcet=2)])
        iface = ResourceInterface(8, 4)
        result = is_schedulable(taskset, iface)
        assert not result.schedulable
        assert result.violation_time is not None
        t = result.violation_time
        assert dbf(t, taskset) > sbf(t, iface)

    def test_dedicated_resource_full_utilization_is_schedulable(self):
        # Degenerate Θ == Π with U exactly 1: dbf(t) <= t = sbf(t).
        taskset = TaskSet(
            [PeriodicTask(period=2, wcet=1), PeriodicTask(period=4, wcet=2)]
        )
        iface = ResourceInterface(5, 5)
        result = is_schedulable(taskset, iface)
        assert result.schedulable
        assert oracle.exhaustive(taskset, iface, 1000)


class TestIsSchedulable:
    def test_empty_taskset_always_schedulable(self):
        assert is_schedulable(TaskSet(), ResourceInterface(1, 0)).schedulable

    def test_full_resource_schedules_feasible_set(self, small_taskset):
        assert is_schedulable(small_taskset, ResourceInterface(1, 1)).schedulable

    def test_zero_budget_never_schedules_demand(self, small_taskset):
        result = is_schedulable(small_taskset, ResourceInterface(10, 0))
        assert not result.schedulable
        assert result.violation_time == small_taskset.min_period

    def test_insufficient_bandwidth_fails(self, tight_taskset):
        # U = 0.9 but bandwidth 0.5
        result = is_schedulable(tight_taskset, ResourceInterface(10, 5))
        assert not result.schedulable

    def test_violation_witness_is_real(self, small_taskset):
        result = is_schedulable(small_taskset, ResourceInterface(40, 10))
        if not result.schedulable and result.violation_time is not None:
            t = result.violation_time
            assert dbf(t, small_taskset) > sbf(t, ResourceInterface(40, 10))
            assert result.demand_at_violation == dbf(t, small_taskset)

    def test_known_schedulable_example(self):
        # One task (40, 4) on (10, 2): sbf(40)=6 >= 4, and rate suffices.
        taskset = TaskSet([PeriodicTask(period=40, wcet=4)])
        assert is_schedulable(taskset, ResourceInterface(10, 2)).schedulable

    def test_known_unschedulable_example(self):
        # (10, 4) needs 4 units by t=10, but (10, 4)-interface blackout
        # 2*(10-4)=12 > 10 means sbf(10)=0.
        taskset = TaskSet([PeriodicTask(period=10, wcet=4)])
        assert not is_schedulable(taskset, ResourceInterface(10, 4)).schedulable

    @given(
        seed=st.integers(0, 10_000),
        period=st.integers(2, 16),
        budget=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_exhaustive_scan(self, seed, period, budget):
        """The step-point + Theorem 1 test equals brute force over a long
        horizon on random small instances."""
        budget = min(budget, period)
        taskset = random_small_taskset(random.Random(seed))
        iface = ResourceInterface(period, budget)
        fast = is_schedulable(taskset, iface).schedulable
        horizon = 3 * taskset.hyperperiod() + 6 * period + 100
        slow = oracle.exhaustive(taskset, iface, horizon)
        if fast:
            assert slow, "fast test accepted an unschedulable instance"
        else:
            # the fast test may reject via the bandwidth condition whose
            # violation only shows past any fixed horizon; verify demand
            # genuinely outpaces supply asymptotically in that case
            if slow:
                assert iface.bandwidth <= taskset.utilization

    def test_budget_monotonicity(self, small_taskset):
        """If (Pi, Theta) schedules the set, so does (Pi, Theta+1)."""
        period = 12
        schedulable_budgets = [
            budget
            for budget in range(0, period + 1)
            if is_schedulable(
                small_taskset, ResourceInterface(period, budget)
            ).schedulable
        ]
        if schedulable_budgets:
            lo = schedulable_budgets[0]
            assert schedulable_budgets == list(range(lo, period + 1))
