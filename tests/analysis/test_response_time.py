"""Tests for the WCRT analysis (supply inverse, Spuri-on-sbf, holistic)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.response_time as response_time
from repro.analysis import vectorized
from repro.analysis.composition import compose
from repro.analysis.prm import ResourceInterface, sbf
from repro.analysis.response_time import (
    busy_period_length,
    end_to_end_bound,
    holistic_response_bounds,
    supply_inverse,
)
from repro.analysis.schedulability import is_schedulable
from repro.analysis.vectorized import supply_inverse_values
from repro.errors import ConfigurationError, InfeasibleError
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.topology import quadtree

from . import oracle

interfaces = st.builds(
    lambda p, b: ResourceInterface(p, min(max(b, 1), p)),
    st.integers(1, 40),
    st.integers(1, 40),
)


class TestSupplyInverse:
    def test_zero_demand_is_instant(self):
        assert supply_inverse(0, ResourceInterface(10, 3)) == 0

    def test_full_bandwidth_is_identity(self):
        iface = ResourceInterface(5, 5)
        for demand in (1, 4, 17):
            assert supply_inverse(demand, iface) == demand

    def test_single_unit_spans_blackout(self):
        # (10, 3): blackout 2*(10-3)=14, then one unit at 15
        assert supply_inverse(1, ResourceInterface(10, 3)) == 15

    def test_zero_budget_rejected(self):
        with pytest.raises(InfeasibleError):
            supply_inverse(1, ResourceInterface(10, 0))

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            supply_inverse(-1, ResourceInterface(10, 3))

    @given(iface=interfaces, demand=st.integers(1, 200))
    @settings(max_examples=80)
    def test_closed_form_matches_linear_scan(self, iface, demand):
        """supply_inverse is the exact inverse of sbf — and so is its
        array form, over demand 0 and the whole-budget (``remainder ==
        0``) boundaries as well."""
        t = supply_inverse(demand, iface)
        assert sbf(t, iface) >= demand
        assert sbf(t - 1, iface) < demand
        demands = [0, demand, iface.budget, demand * iface.budget]
        ts = supply_inverse_values(
            np.array(demands, dtype=np.int64), iface.period, iface.budget
        )
        assert ts.tolist() == [supply_inverse(d, iface) for d in demands]
        for value, d in zip(ts.tolist(), demands):
            assert sbf(value, iface) >= d
            assert value == 0 or sbf(value - 1, iface) < d

    def test_array_form_keeps_the_scalar_errors(self):
        with pytest.raises(InfeasibleError):
            supply_inverse_values(np.array([0, 1]), 10, 0)
        assert supply_inverse_values(np.array([0, 0]), 10, 0).tolist() == [0, 0]
        with pytest.raises(ConfigurationError):
            supply_inverse_values(np.array([3, -1]), 10, 3)


class TestBusyPeriod:
    def test_empty_taskset(self):
        assert busy_period_length(TaskSet(), ResourceInterface(4, 2)) == 0

    def test_light_load_short_busy_period(self):
        taskset = TaskSet([PeriodicTask(period=100, wcet=1)])
        length = busy_period_length(taskset, ResourceInterface(2, 1))
        assert length == supply_inverse(1, ResourceInterface(2, 1))

    def test_jitter_extends_busy_period(self):
        taskset = TaskSet(
            [PeriodicTask(period=10, wcet=3, name="a"),
             PeriodicTask(period=15, wcet=4, name="b")]
        )
        iface = ResourceInterface(2, 2)
        plain = busy_period_length(taskset, iface)
        jittered = busy_period_length(taskset, iface, {"a": 30, "b": 30})
        assert jittered >= plain

    def test_overload_raises(self):
        taskset = TaskSet([PeriodicTask(period=4, wcet=3)])  # U = 0.75
        with pytest.raises(InfeasibleError):
            busy_period_length(taskset, ResourceInterface(2, 1))  # bw 0.5


def wcrt_on_interface(task, taskset, interface, jitters=None):
    """WCRT of ``task`` within ``taskset`` (no blocking) by the engine's
    port fixpoint, which must equal the test oracle's; raises
    :class:`InfeasibleError` unless the pair passes dbf<=sbf."""
    tasks = list(taskset)
    if all(member is not task for member in tasks):
        tasks.append(task)
    jitters = jitters or {}

    def engine():
        members = TaskSet(tasks)
        if not is_schedulable(members, interface).schedulable:
            raise InfeasibleError("the pair fails dbf <= sbf")
        return vectorized.port_wcrts(
            tasks,
            interface,
            [jitters.get(member.name, 0) for member in tasks],
            busy_period_length(members, interface, jitters),
            blocking=0,
            cap=response_time._BUSY_PERIOD_CAP,
        )

    def exact():
        return oracle.port_wcrts(
            tasks, interface, jitters, checked=True, blocking=0
        )

    outcomes = []
    for run in (engine, exact):
        try:
            outcomes.append(run())
        except InfeasibleError:
            outcomes.append("infeasible")
    assert outcomes[0] == outcomes[1]
    if outcomes[0] == "infeasible":
        raise InfeasibleError("the pair fails dbf <= sbf")
    return next(
        wcrt
        for member, wcrt in zip(tasks, outcomes[0])
        if member is task
    )


class TestWcrtOnInterface:
    def test_single_task_full_resource(self):
        task = PeriodicTask(period=20, wcet=5, name="t")
        wcrt = wcrt_on_interface(task, TaskSet([task]), ResourceInterface(1, 1))
        assert wcrt == 5  # runs alone at full speed

    def test_single_task_throttled(self):
        task = PeriodicTask(period=40, wcet=4, name="t")
        iface = ResourceInterface(10, 2)
        wcrt = wcrt_on_interface(task, TaskSet([task]), iface)
        assert wcrt == supply_inverse(4, iface)

    def test_interference_raises_wcrt(self):
        victim = PeriodicTask(period=50, wcet=2, name="v")
        noisy = PeriodicTask(period=40, wcet=8, name="n")
        alone = wcrt_on_interface(
            victim, TaskSet([victim]), ResourceInterface(4, 2)
        )
        contended = wcrt_on_interface(
            victim, TaskSet([victim, noisy]), ResourceInterface(4, 2)
        )
        assert contended > alone

    def test_deadline_coincidence_offset_found(self):
        """The asynchronous worst case (interferer due just before the
        analyzed job) must be covered — a pure synchronous analysis
        under-estimates this instance."""
        light = PeriodicTask(period=311, wcet=1, name="light")
        burst = PeriodicTask(period=357, wcet=8, name="burst")
        iface = ResourceInterface(31, 1)
        wcrt = wcrt_on_interface(light, TaskSet([light, burst]), iface)
        # released just after the burst with a barely-later deadline, the
        # light job waits for all 9 units: supply_inverse(9) - offset 47
        assert wcrt >= supply_inverse(9, iface) - 47

    def test_jitter_increases_wcrt(self):
        victim = PeriodicTask(period=60, wcet=2, name="v")
        other = PeriodicTask(period=50, wcet=5, name="n")
        taskset = TaskSet([victim, other])
        iface = ResourceInterface(5, 2)
        plain = wcrt_on_interface(victim, taskset, iface)
        jittered = wcrt_on_interface(victim, taskset, iface, {"n": 45})
        assert jittered >= plain

    def test_unschedulable_pair_rejected(self):
        task = PeriodicTask(period=10, wcet=4, name="t")
        with pytest.raises(InfeasibleError):
            wcrt_on_interface(task, TaskSet([task]), ResourceInterface(10, 4))

    def test_wcrt_at_most_deadline_when_schedulable(self):
        rng = random.Random(8)
        for _ in range(10):
            period = rng.randint(20, 80)
            wcet = rng.randint(1, 6)
            task = PeriodicTask(period=period, wcet=wcet, name="t")
            iface = ResourceInterface(8, 4)
            try:
                wcrt = wcrt_on_interface(task, TaskSet([task]), iface)
            except InfeasibleError:
                continue
            assert wcrt <= task.deadline


class TestHolisticBounds:
    @pytest.fixture(scope="class")
    def system(self):
        rng = random.Random(5)
        tasksets = generate_client_tasksets(rng, 16, 2, 0.5)
        composition = compose(quadtree(16), tasksets)
        assert composition.schedulable
        return tasksets, composition

    def test_bounds_for_every_client_task(self, system):
        tasksets, composition = system
        bounds = holistic_response_bounds(tasksets, composition)
        assert sorted(bounds) == sorted(tasksets)
        for client, bound in bounds.items():
            for task in tasksets[client]:
                assert bound.bound_for(task.name) > 0

    def test_levels_match_tree_depth(self, system):
        tasksets, composition = system
        bounds = holistic_response_bounds(tasksets, composition)
        depth = composition.topology.depth
        for bound in bounds.values():
            assert len(bound.level_wcrt) == depth + 1

    def test_end_to_end_bound_single_client(self, system):
        tasksets, composition = system
        full = holistic_response_bounds(tasksets, composition)
        single = end_to_end_bound(3, tasksets, composition)
        for task in tasksets[3]:
            assert single.bound_for(task.name) == full[3].bound_for(task.name)

    def test_rejects_unknown_client(self, system):
        tasksets, composition = system
        with pytest.raises(ConfigurationError):
            end_to_end_bound(999, tasksets, composition)

    def test_bound_exceeds_path_latency(self, system):
        tasksets, composition = system
        bounds = holistic_response_bounds(tasksets, composition)
        for client, bound in bounds.items():
            for task in tasksets[client]:
                assert bound.bound_for(task.name) > bound.path_latency


#: compositions whose root demands more than the memory controller
#: supplies: ``(n_clients, generator seed, utilization)``
UNSCHEDULABLE_DRAWS = [("32/0/0.6", 32, 0.6)] + [
    (f"4/{s}/0.85", 4, 0.85) for s in range(4)
]


class TestUnschedulableComposition:
    """No finite bound exists on a composition ``compose`` rejected."""

    @pytest.mark.parametrize("side", ["oracle", "engine"])
    @pytest.mark.parametrize("seed,n,utilization", UNSCHEDULABLE_DRAWS)
    def test_bounds_and_verdict_refuse_it(self, seed, n, utilization, side):
        from contextlib import nullcontext

        from repro.analysis.cache import DISABLED, AnalysisCache
        from repro.analysis.context import AnalysisContext
        from repro.faults.verify import verify_isolation

        on_oracle = side == "oracle"
        ctx = AnalysisContext(cache=DISABLED if on_oracle else AnalysisCache())
        tasksets = generate_client_tasksets(
            random.Random(seed), n, 2, utilization
        )
        with oracle.installed() if on_oracle else nullcontext():
            composition = compose(quadtree(n), tasksets, ctx=ctx)
            assert not composition.schedulable
            with pytest.raises(InfeasibleError, match="unschedulable"):
                holistic_response_bounds(tasksets, composition, ctx=ctx)
            verdict = verify_isolation(
                [],
                tasksets,
                composition,
                end_cycle=1_000,
                victims=set(),
                ctx=ctx,
            )
        assert not verdict.bounds_checked
