"""FaultPlan/FaultEvent: validation and scheduling data."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultPlan


def burst_event(**overrides):
    defaults = dict(cycle=10, duration=5, client_id=1)
    defaults.update(overrides)
    return FaultEvent(**defaults)


class TestFaultEventValidation:
    def test_negative_cycle_rejected(self):
        with pytest.raises(ConfigurationError):
            burst_event(cycle=-1)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            burst_event(duration=0)

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ConfigurationError):
            burst_event(magnitude=0)

    def test_rogue_burst_needs_client_and_slack(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(cycle=0)
        with pytest.raises(ConfigurationError):
            FaultEvent(cycle=0, client_id=-1)
        with pytest.raises(ConfigurationError):
            FaultEvent(cycle=0, client_id=0, deadline_slack=0)


class TestFaultEventSemantics:
    def test_window(self):
        event = burst_event(cycle=10, duration=5, period=2)
        assert event.end == 15
        assert event.action_cycles() == [10, 12, 14]

    def test_action_cycles_by_kind(self):
        one_shot = FaultEvent(cycle=40, client_id=0)
        assert one_shot.action_cycles() == [40]
        periodic = FaultEvent(
            cycle=100,
            duration=250,
            client_id=0,
            period=100,
        )
        assert periodic.action_cycles() == [100, 200, 300]


class TestFaultPlan:
    def test_none_is_empty(self):
        plan = FaultPlan.none()
        assert plan.empty
        assert len(plan) == 0
        assert list(plan) == []

    def test_events_sorted_by_cycle(self):
        late = burst_event(cycle=50)
        early = burst_event(cycle=5, magnitude=3)
        tie_a = burst_event(cycle=20, client_id=4)
        tie_b = burst_event(cycle=20, client_id=2)
        plan = FaultPlan((late, tie_a, early, tie_b))
        assert plan.events == (early, tie_a, tie_b, late)

    def test_rogue_client_window_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.rogue_client(0, 100, 100)
        plan = FaultPlan.rogue_client(2, 100, 400, burst_every=75)
        (event,) = plan.events
        assert event.client_id == 2
        assert event.action_cycles() == [100, 175, 250, 325]
