"""Tests for the runtime invariant monitors."""

import random

import pytest

from repro.analysis.prm import ResourceInterface
from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.core.scale_element import ScaleElement
from repro.errors import SimulationError
from repro.sim.invariants import (
    SbfComplianceMonitor,
    StructuralMonitor,
    monitor_interconnect,
)
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets

from tests.conftest import make_request, programmed_se


class AcceptingSink:
    def __call__(self, request, cycle):
        return True


class TestStructuralMonitor:
    def test_clean_element_passes(self):
        element = programmed_se([ResourceInterface(4, 2)] * 4)
        element.forward_to_provider = AcceptingSink()
        monitor = StructuralMonitor(element)
        element.try_accept(0, make_request())
        for cycle in range(10):
            element.tick(cycle)
            monitor.check(cycle)
        assert monitor.checks == 10

    def test_detects_corrupted_budget(self):
        element = programmed_se([ResourceInterface(4, 2)] * 4)
        monitor = StructuralMonitor(element)
        # corrupt the hardware state the way a model bug would
        element.scheduler.servers[1].counters.b_counter.value = 99
        with pytest.raises(SimulationError, match="budget"):
            monitor.check(0)

    def test_detects_buffer_overrun(self):
        element = ScaleElement((0, 0), buffer_capacity=2)
        monitor = StructuralMonitor(element)
        buffer = element.buffers[0]
        buffer._entries.extend([make_request(), make_request(), make_request()])
        with pytest.raises(SimulationError, match="occupancy"):
            monitor.check(0)

    def test_detects_double_forward(self):
        element = ScaleElement((0, 0))
        monitor = StructuralMonitor(element)
        monitor.check(0)
        element.forwarded += 2  # impossible: one forward per cycle
        with pytest.raises(SimulationError, match="forwards"):
            monitor.check(1)


class TestSbfComplianceMonitor:
    def drive(self, element, monitor, cycles, offered):
        """Tick the element with a backlog of ``offered`` requests."""
        sent = 0
        for cycle in range(cycles):
            if sent < offered and element.try_accept(
                0, make_request(deadline=cycle + 10_000)
            ):
                sent += 1
            element.tick(cycle)
            monitor.check(cycle)
        monitor.finalize(cycles)

    def test_compliant_element_passes(self):
        element = programmed_se(
            [
                ResourceInterface(4, 1),
                ResourceInterface(1000, 1),
                ResourceInterface(1000, 1),
                ResourceInterface(1000, 1),
            ],
            buffer_capacity=8,
        )
        element.forward_to_provider = AcceptingSink()
        monitor = SbfComplianceMonitor(element)
        self.drive(element, monitor, 100, offered=30)
        assert monitor.intervals_checked >= 1

    def test_detects_withheld_service(self):
        """A scheduler that never grants port 0 violates its contract."""
        element = programmed_se(
            [ResourceInterface(4, 2)] * 4, buffer_capacity=8
        )
        element.forward_to_provider = AcceptingSink()
        # sabotage: the scheduler never selects any port
        element.scheduler.select_port = lambda buffers: None
        monitor = SbfComplianceMonitor(element)
        with pytest.raises(SimulationError, match="sbf"):
            self.drive(element, monitor, 60, offered=10)

    def test_output_stall_voids_the_interval(self):
        """Backpressure is not a contract violation."""
        element = programmed_se(
            [ResourceInterface(4, 2)] * 4, buffer_capacity=8
        )
        element.forward_to_provider = lambda request, cycle: False  # stalled
        monitor = SbfComplianceMonitor(element)
        self.drive(element, monitor, 40, offered=5)  # must not raise
        assert monitor.intervals_checked == 0


class TestInterconnectMonitor:
    def test_full_simulation_under_monitoring(self):
        """A composed 16-client system passes every invariant for the
        whole run — the hardware model honors the contracts the
        analysis assumes."""
        rng = random.Random(21)
        tasksets = generate_client_tasksets(rng, 16, 2, 0.65)
        interconnect = BlueScaleInterconnect(16)
        composition = interconnect.configure(tasksets)
        assert composition.schedulable
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        simulation = SoCSimulation(clients, interconnect)
        monitor = monitor_interconnect(interconnect)
        inject = interconnect.try_inject
        horizon = 5_000
        for cycle in range(horizon):
            for client in clients:
                client.tick(cycle, inject)
            interconnect.tick_request_path(cycle)
            monitor.check(cycle)
            simulation.controller.tick(cycle)
            for request in interconnect.tick_response_path(cycle):
                clients[request.client_id].on_response(request)
        monitor.finalize(horizon)
        assert monitor.intervals_checked > 0

    def test_structural_only_mode(self):
        interconnect = BlueScaleInterconnect(16)
        monitor = monitor_interconnect(interconnect, check_sbf=False)
        monitor.check(0)
        assert monitor.intervals_checked == 0
