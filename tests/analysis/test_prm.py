"""Unit and property tests for the periodic resource model (sbf/dbf)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.prm import (
    ResourceInterface,
    dbf,
    dbf_task,
    sbf,
    sbf_linear_lower_bound,
)
from repro.analysis.vectorized import StepGrid
from repro.errors import ConfigurationError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

from . import oracle


def dbf_step_points(taskset, horizon):
    """The engine's demand step points in (0, horizon], which must
    equal the test oracle's."""
    ts, _ = StepGrid(taskset).upto(horizon)
    points = [int(t) for t in ts]
    assert points == oracle.step_points(taskset, horizon)
    return points

interfaces = st.builds(
    lambda p, b: ResourceInterface(p, min(b, p)),
    st.integers(1, 60),
    st.integers(0, 60),
)


class TestResourceInterface:
    def test_bandwidth_exact(self):
        assert ResourceInterface(10, 3).bandwidth == Fraction(3, 10)

    def test_rejects_budget_above_period(self):
        with pytest.raises(ConfigurationError):
            ResourceInterface(5, 6)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ConfigurationError):
            ResourceInterface(0, 0)

    def test_zero_budget_allowed(self):
        assert ResourceInterface(4, 0).bandwidth == 0

    def test_as_server_task(self):
        server = ResourceInterface(20, 5).as_server_task(name="srv")
        assert server.period == 20
        assert server.wcet == 5

    def test_zero_budget_has_no_server_task(self):
        with pytest.raises(ConfigurationError):
            ResourceInterface(5, 0).as_server_task()


class TestSbfKnownValues:
    """Worked examples of the Shin & Lee formula quoted in Sec. 5."""

    def test_zero_before_blackout(self):
        # (Pi=10, Theta=3): no supply guaranteed before 2(Pi-Theta)=14.
        iface = ResourceInterface(10, 3)
        for t in range(0, 15):
            assert sbf(t, iface) == 0, t

    def test_supply_after_blackout(self):
        iface = ResourceInterface(10, 3)
        # t=15: t'=8, floor=0, eps=max(8-0-7,0)=1
        assert sbf(15, iface) == 1
        assert sbf(17, iface) == 3
        # a whole extra period adds exactly Theta
        assert sbf(27, iface) == 6

    def test_full_bandwidth_resource(self):
        iface = ResourceInterface(5, 5)
        for t in (0, 1, 7, 100):
            assert sbf(t, iface) == t

    def test_zero_budget_supplies_nothing(self):
        iface = ResourceInterface(7, 0)
        assert sbf(1000, iface) == 0

    def test_negative_t_rejected(self):
        with pytest.raises(ConfigurationError):
            sbf(-1, ResourceInterface(10, 3))


class TestSbfProperties:
    @given(iface=interfaces, t=st.integers(0, 500))
    def test_sbf_bounded_by_time_and_ideal(self, iface, t):
        value = sbf(t, iface)
        assert 0 <= value <= t
        # cannot exceed the long-run share plus one budget chunk
        assert value <= iface.bandwidth_float * t + iface.budget + 1e-9

    @given(iface=interfaces, t=st.integers(0, 300))
    def test_sbf_monotone_nondecreasing(self, iface, t):
        assert sbf(t + 1, iface) >= sbf(t, iface)

    @given(iface=interfaces, t=st.integers(0, 300))
    def test_sbf_lipschitz_one(self, iface, t):
        # supply grows at most one unit per time unit
        assert sbf(t + 1, iface) - sbf(t, iface) <= 1

    @given(iface=interfaces, t=st.integers(0, 400))
    def test_sbf_dominates_linear_lower_bound(self, iface, t):
        # the bound used in the proof of Theorem 1
        assert Fraction(sbf(t, iface)) >= sbf_linear_lower_bound(t, iface)

    @given(iface=interfaces, k=st.integers(0, 5), t=st.integers(0, 100))
    def test_sbf_periodicity(self, iface, k, t):
        # beyond the initial blackout (t' >= 0), shifting by k whole
        # periods adds exactly k budgets
        t += iface.period - iface.budget
        assert (
            sbf(t + k * iface.period, iface) == sbf(t, iface) + k * iface.budget
        )


class TestDbf:
    def test_single_task_steps_at_periods(self):
        task = PeriodicTask(period=10, wcet=3)
        assert dbf_task(9, task) == 0
        assert dbf_task(10, task) == 3
        assert dbf_task(19, task) == 3
        assert dbf_task(20, task) == 6

    def test_taskset_sums(self, small_taskset):
        assert dbf(100, small_taskset) == 2 * 4 + 10

    def test_empty_taskset_zero(self):
        assert dbf(1000, TaskSet()) == 0

    def test_negative_t_rejected(self):
        with pytest.raises(ConfigurationError):
            dbf_task(-5, PeriodicTask(period=10, wcet=1))

    @given(
        period=st.integers(1, 50),
        wcet=st.integers(1, 50),
        t=st.integers(0, 500),
    )
    @settings(max_examples=60)
    def test_dbf_below_utilization_line_plus_jitter(self, period, wcet, t):
        wcet = min(wcet, period)
        task = PeriodicTask(period=period, wcet=wcet)
        # floor(t/T)*C <= (t/T)*C
        assert dbf_task(t, task) <= t * wcet / period + 1e-9

    @given(period=st.integers(1, 30), wcet=st.integers(1, 30), t=st.integers(0, 200))
    def test_dbf_monotone(self, period, wcet, t):
        task = PeriodicTask(period=period, wcet=min(wcet, period))
        assert dbf_task(t + 1, task) >= dbf_task(t, task)


class TestDbfStepPoints:
    def test_step_points_are_period_multiples(self, small_taskset):
        points = dbf_step_points(small_taskset, 200)
        assert points == sorted(set(points))
        assert all(p % 40 == 0 or p % 100 == 0 for p in points)
        assert 40 in points and 100 in points
        # The scan covers (0, horizon]: a horizon landing exactly on a
        # demand step (200 = 5·40 = 2·100) must be included — Theorem
        # 1's bound β is part of the range the theorem requires.
        assert all(0 < p <= 200 for p in points)
        assert 200 in points

    def test_horizon_on_step_is_included(self, small_taskset):
        # Regression for the Theorem-1 boundary bug: with the old
        # exclusive scan (`while multiple < horizon`) a horizon equal
        # to a period multiple silently dropped the boundary point.
        assert 40 in dbf_step_points(small_taskset, 40)
        assert dbf_step_points(small_taskset, 39) == []

    def test_captures_every_dbf_change(self, small_taskset):
        points = set(dbf_step_points(small_taskset, 250))
        previous = dbf(0, small_taskset)
        for t in range(1, 251):
            current = dbf(t, small_taskset)
            if current != previous:
                assert t in points, f"dbf changed at {t} but not a step point"
            previous = current
