"""Integration tests for the SoC-level simulation."""

import random

import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.errors import ConfigurationError
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.bluetree import BlueTreeInterconnect
from repro.memory.controller import MemoryController
from repro.memory.dram import DramDevice, FixedLatencyDevice
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


def simple_clients(n, period=100, wcet=2):
    return [
        TrafficGenerator(
            c, TaskSet([PeriodicTask(period=period, wcet=wcet, name=f"t{c}", client_id=c)])
        )
        for c in range(n)
    ]


class TestWiring:
    def test_rejects_duplicate_clients(self):
        clients = simple_clients(2)
        clients[1].client_id = 0
        with pytest.raises(ConfigurationError):
            SoCSimulation(clients, BlueScaleInterconnect(4))

    def test_rejects_client_beyond_interconnect(self):
        with pytest.raises(ConfigurationError):
            SoCSimulation(simple_clients(5), BlueScaleInterconnect(4))

    def test_simulation_rejects_negative_client_id(self):
        # TrafficGenerator rejects a negative id itself, but any object
        # speaking the client contract can be handed in.  AXI-IC^RT
        # would silently alias it to client n-1's FIFO.
        class IdleClient:
            client_id = -1

            def tick(self, cycle, inject):
                pass

            def is_quiescent(self):
                return True

            def next_activity_cycle(self, cycle):
                return None

        for interconnect in (BlueScaleInterconnect(4), AxiIcRtInterconnect(4)):
            with pytest.raises(ConfigurationError, match="client id -1"):
                SoCSimulation([IdleClient()], interconnect)

    def test_rejects_empty_clients(self):
        with pytest.raises(ConfigurationError):
            SoCSimulation([], BlueScaleInterconnect(4))

    def test_rejects_bad_horizon(self):
        sim = SoCSimulation(simple_clients(4), BlueScaleInterconnect(4))
        with pytest.raises(ConfigurationError):
            sim.run(0)


class TestConservationAndCompletion:
    def test_light_load_all_requests_complete(self):
        sim = SoCSimulation(simple_clients(4), BlueScaleInterconnect(4))
        result = sim.run(1000, drain=200)
        assert result.requests_released > 0
        assert result.requests_completed == result.requests_released
        assert result.requests_in_flight == 0
        assert result.requests_dropped == 0

    def test_conservation_under_load_with_short_drain(self):
        """Even when the drain window leaves work in flight, the ledger
        balances (the run() method raises otherwise)."""
        clients = simple_clients(4, period=10, wcet=4)  # heavy
        sim = SoCSimulation(clients, BlueTreeInterconnect(4, fifo_capacity=2))
        result = sim.run(500, drain=0)
        assert (
            result.requests_completed
            + result.requests_dropped
            + result.requests_in_flight
            == result.requests_released
        )

    def test_no_misses_on_trivially_light_load(self):
        sim = SoCSimulation(
            simple_clients(4, period=500, wcet=1), BlueScaleInterconnect(4)
        )
        result = sim.run(5000)
        assert result.deadline_miss_ratio == 0.0
        assert result.success

    def test_overload_produces_misses(self):
        # four clients each demanding 60% of one shared slot stream
        clients = simple_clients(4, period=10, wcet=6)  # total U = 2.4
        sim = SoCSimulation(clients, BlueScaleInterconnect(4))
        result = sim.run(2000, drain=500)
        assert result.deadline_miss_ratio > 0.2
        assert not result.success


class TestDeterminism:
    def build(self, seed):
        rng = random.Random(seed)
        tasksets = generate_client_tasksets(rng, 16, 2, 0.75)
        interconnect = BlueScaleInterconnect(16)
        interconnect.configure(tasksets)
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        return SoCSimulation(clients, interconnect)

    def test_same_seed_same_results(self):
        a = self.build(11).run(3000)
        b = self.build(11).run(3000)
        assert a.requests_completed == b.requests_completed
        assert a.recorder.response_times == b.recorder.response_times
        assert a.recorder.blocking_times == b.recorder.blocking_times

    def test_different_seed_differs(self):
        a = self.build(11).run(3000)
        b = self.build(12).run(3000)
        assert a.recorder.response_times != b.recorder.response_times


class TestAlternativeProviders:
    def test_dram_backed_controller(self):
        """The full DRAM model composes with any interconnect."""
        controller = MemoryController(DramDevice(), queue_capacity=8)
        sim = SoCSimulation(
            simple_clients(4, period=400, wcet=4),
            AxiIcRtInterconnect(4),
            controller=controller,
        )
        result = sim.run(4000, drain=2000)
        assert result.requests_completed == result.requests_released
        device = controller.device
        assert device.total_accesses == result.requests_completed
        # sequential bursts give row-buffer hits
        assert device.row_hit_ratio > 0.5

    def test_slow_fixed_latency_device_stretches_responses(self):
        fast = SoCSimulation(
            simple_clients(4, period=200, wcet=1),
            BlueScaleInterconnect(4),
            controller=MemoryController(FixedLatencyDevice(1), queue_capacity=4),
        ).run(2000)
        slow = SoCSimulation(
            simple_clients(4, period=200, wcet=1),
            BlueScaleInterconnect(4),
            controller=MemoryController(FixedLatencyDevice(20), queue_capacity=4),
        ).run(2000)
        assert slow.response_summary().mean > fast.response_summary().mean


class TestWriteTraffic:
    def test_writes_pay_the_dram_penalty(self):
        """write_ratio=1 traffic takes longer end to end than pure reads
        on the DRAM device (write recovery penalty)."""

        def run(write_ratio):
            import random

            clients = [
                TrafficGenerator(
                    c,
                    TaskSet(
                        [PeriodicTask(period=200, wcet=2, name="t", client_id=c)]
                    ),
                    rng=random.Random(c),
                    write_ratio=write_ratio,
                )
                for c in range(4)
            ]
            controller = MemoryController(DramDevice(), queue_capacity=8)
            sim = SoCSimulation(
                clients, BlueScaleInterconnect(4), controller=controller
            )
            return sim.run(3_000, drain=2_000).response_summary().mean

        assert run(1.0) > run(0.0)


class TestTrialResultApi:
    def test_job_outcomes_cover_all_clients(self):
        sim = SoCSimulation(simple_clients(4), BlueScaleInterconnect(4))
        result = sim.run(1000)
        assert sorted(result.job_outcomes) == [0, 1, 2, 3]
        assert result.jobs_judged > 0
        assert result.jobs_missed == 0

    def test_mean_blocking_zero_without_samples(self):
        sim = SoCSimulation(
            simple_clients(1, period=10_000, wcet=1), BlueScaleInterconnect(4)
        )
        result = sim.run(5)
        assert result.mean_blocking == 0.0
