"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Engine


class Recorder:
    """Tick component that records the cycles it saw."""

    def __init__(self):
        self.cycles = []

    def tick(self, cycle):
        self.cycles.append(cycle)


class TestEventScheduling:
    def test_event_fires_at_cycle(self):
        engine = Engine()
        fired = []
        engine.schedule(5, lambda c: fired.append(c))
        engine.run(10)
        assert fired == [5]

    def test_schedule_in_relative(self):
        engine = Engine()
        fired = []
        engine.schedule_in(3, lambda c: fired.append(c))
        engine.run(10)
        assert fired == [3]

    def test_same_cycle_events_fire_in_insertion_order(self):
        engine = Engine()
        order = []
        engine.schedule(2, lambda c: order.append("first"))
        engine.schedule(2, lambda c: order.append("second"))
        engine.schedule(2, lambda c: order.append("third"))
        engine.run(5)
        assert order == ["first", "second", "third"]

    def test_event_can_schedule_followup(self):
        engine = Engine()
        fired = []

        def chain(cycle):
            fired.append(cycle)
            if cycle < 6:
                engine.schedule(cycle + 2, chain)

        engine.schedule(0, chain)
        engine.run(10)
        assert fired == [0, 2, 4, 6]

    def test_cannot_schedule_in_past(self):
        engine = Engine()
        engine.run(5)
        with pytest.raises(SimulationError):
            engine.schedule(3, lambda c: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule_in(-1, lambda c: None)

    def test_pending_events_counter(self):
        engine = Engine()
        engine.schedule(1, lambda c: None)
        engine.schedule(2, lambda c: None)
        assert engine.pending_events == 2
        engine.run(10)
        assert engine.pending_events == 0


class TestTickComponents:
    def test_component_ticks_every_cycle(self):
        engine = Engine()
        recorder = Recorder()
        engine.register(recorder)
        engine.run(4)
        assert recorder.cycles == [0, 1, 2, 3]

    def test_components_tick_in_registration_order(self):
        engine = Engine()
        order = []

        class Named:
            def __init__(self, name):
                self.name = name

            def tick(self, cycle):
                if cycle == 0:
                    order.append(self.name)

        engine.register(Named("a"))
        engine.register(Named("b"))
        engine.run(1)
        assert order == ["a", "b"]

    def test_register_requires_tick_method(self):
        with pytest.raises(ConfigurationError):
            Engine().register(object())

    def test_events_fire_before_ticks_in_a_cycle(self):
        engine = Engine()
        order = []
        engine.schedule(0, lambda c: order.append("event"))

        class Ticker:
            def tick(self, cycle):
                if cycle == 0:
                    order.append("tick")

        engine.register(Ticker())
        engine.run(1)
        assert order == ["event", "tick"]


class TestRunControl:
    def test_stop_halts_run(self):
        engine = Engine()
        recorder = Recorder()
        engine.register(recorder)
        engine.schedule(3, lambda c: engine.stop())
        engine.run(100)
        # Cycle 3 still completes, nothing after.
        assert recorder.cycles[-1] == 3

    def test_run_backwards_rejected(self):
        engine = Engine()
        engine.run(10)
        with pytest.raises(SimulationError):
            engine.run(5)

    def test_run_resumes_where_it_stopped(self):
        engine = Engine()
        recorder = Recorder()
        engine.register(recorder)
        engine.run(3)
        engine.run(6)
        assert recorder.cycles == [0, 1, 2, 3, 4, 5]
