"""Unit tests for the cycle-driven engine."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Engine


class Busy:
    """Quiescence contract of a component that is never idle: the
    engine ticks it on every cycle, on either path."""

    def is_quiescent(self):
        return False

    def next_activity_cycle(self, cycle):
        return cycle


class Recorder(Busy):
    """Tick component that records the cycles it saw."""

    def __init__(self):
        self.cycles = []

    def tick(self, cycle):
        self.cycles.append(cycle)


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

        class Named(Busy):
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

    def test_register_requires_the_quiescence_contract(self):
        class TickOnly:
            def tick(self, cycle):
                pass

        class Ticker(Busy):
            def tick(self, cycle):
                pass

        with pytest.raises(ConfigurationError, match="is_quiescent"):
            Engine().register(TickOnly())
        engine = Engine()
        engine.register(Ticker())  # on_cycles_skipped stays optional
        engine.run(3)
        assert engine.cycles_executed == 3


class TestRunControl:
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
