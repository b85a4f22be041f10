"""Property-based tests for the engine's quiescence semantics.

Hypothesis drives randomized activity schedules through the engine
twice — fast path on and off — and checks the invariants the
simulation relies on: both paths fire the same activities on the same
cycles, and a leap never jumps over a declared activity.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

HORIZON = 120

#: activity cycles inside the run window, duplicates welcome
event_cycles = st.lists(
    st.integers(min_value=0, max_value=HORIZON - 1), min_size=0, max_size=30
)


class Pulse:
    """Quiescent component that declares activity at preset cycles.

    ``tick`` records every executed cycle, so comparing the recorded
    cycles across fast/slow runs shows exactly what a leap skipped;
    ``fired`` keeps the executed cycles that were declared activities.
    """

    def __init__(self, activity):
        self._activity = sorted(set(activity))
        self.ticked = []
        self.fired = []

    def tick(self, cycle):
        self.ticked.append(cycle)
        if cycle in self._activity:
            self.fired.append(cycle)

    def is_quiescent(self):
        return True

    def next_activity_cycle(self, cycle):
        for candidate in self._activity:
            if candidate >= cycle:
                return candidate
        return None


def _run_collect(cycles, activity, fast):
    """Run one engine with an event pulse and an activity pulse."""
    engine = Engine(fast_path=fast)
    events, pulse = Pulse(cycles), Pulse(activity)
    engine.register(events)
    engine.register(pulse)
    end = engine.run(HORIZON)
    return engine, pulse, events.fired, end


class TestLeapSafety:
    @given(cycles=event_cycles, activity=event_cycles)
    @settings(max_examples=50, deadline=None)
    def test_fast_and_slow_fire_identical_events(self, cycles, activity):
        _, fast_pulse, fast_fired, fast_end = _run_collect(cycles, activity, True)
        _, slow_pulse, slow_fired, slow_end = _run_collect(cycles, activity, False)
        assert fast_fired == slow_fired == sorted(set(cycles))
        assert fast_pulse.fired == slow_pulse.fired
        assert fast_end == slow_end == HORIZON

    @given(cycles=event_cycles, activity=event_cycles)
    @settings(max_examples=50, deadline=None)
    def test_leaps_never_skip_events_or_activities(self, cycles, activity):
        engine, pulse, _, _ = _run_collect(cycles, activity, True)
        executed = set(pulse.ticked)
        # Every cycle either pulse declared was actually executed (a
        # leap may only span provably idle cycles).
        assert set(cycles) <= executed
        assert {a for a in activity if a < HORIZON} <= executed
        # Leap accounting adds up to the simulated span.
        assert engine.cycles_executed + engine.cycles_skipped == HORIZON
        assert engine.cycles_executed == len(pulse.ticked)
        assert 0.0 <= engine.skip_ratio <= 1.0

    @given(activity=event_cycles)
    @settings(max_examples=50, deadline=None)
    def test_leap_lands_exactly_on_next_activity(self, activity):
        engine, pulse, _, _ = _run_collect([], activity, True)
        if not activity:
            # Nothing to wake for: one executed cycle, then a single
            # leap to the horizon.
            assert engine.cycles_executed == 1
            return
        # Ticked cycles are exactly cycle 0 plus runs starting at each
        # declared activity (an executed cycle declares the next one).
        assert pulse.ticked[0] == 0
        assert set(activity) <= set(pulse.ticked)
