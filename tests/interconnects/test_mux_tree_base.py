"""Tests for the shared interconnect base and the mux-tree substrate."""

import pytest

from repro.errors import ConfigurationError
from repro.interconnects.base import Interconnect
from repro.interconnects.bluetree import BlueTreeInterconnect
from repro.interconnects.mux_tree import MuxNode
from repro.memory.controller import MemoryController
from repro.memory.dram import FixedLatencyDevice

from tests.conftest import make_request


class TestInterconnectBase:
    def test_rejects_zero_clients(self):
        with pytest.raises(ConfigurationError):
            BlueTreeInterconnect(0)

    def test_attach_controller_wires_responses(self):
        interconnect = BlueTreeInterconnect(4)
        controller = MemoryController(FixedLatencyDevice(1))
        interconnect.attach_controller(controller)
        assert controller.on_response == interconnect.begin_response

    def test_response_delivery_respects_latency(self):
        interconnect = BlueTreeInterconnect(4)
        request = make_request(client_id=0)
        latency = interconnect.response_latency(0)
        interconnect.begin_response(request, cycle=10)
        for cycle in range(10, 10 + latency):
            assert interconnect.tick_response_path(cycle) == []
        delivered = interconnect.tick_response_path(10 + latency)
        assert delivered == [request]
        assert request.complete_cycle == 10 + latency

    def test_responses_in_flight_counter(self):
        interconnect = BlueTreeInterconnect(4)
        interconnect.begin_response(make_request(client_id=0), cycle=0)
        interconnect.begin_response(make_request(client_id=1), cycle=0)
        assert interconnect.responses_in_flight() == 2
        interconnect.tick_response_path(10_000)
        assert interconnect.responses_in_flight() == 0

    def test_simultaneous_responses_deliver_in_fifo_order(self):
        interconnect = BlueTreeInterconnect(4)
        first = make_request(client_id=0)
        second = make_request(client_id=1)
        interconnect.begin_response(first, cycle=0)
        interconnect.begin_response(second, cycle=0)
        delivered = interconnect.tick_response_path(10_000)
        assert delivered == [first, second]

    def test_abstract_base_enforces_interface(self):
        with pytest.raises(TypeError):
            Interconnect(4)  # abstract methods missing


class TestMuxNode:
    def test_choose_port_is_abstract(self):
        node = MuxNode((0, 0), fifo_capacity=2)
        node.try_accept(0, make_request())
        with pytest.raises(NotImplementedError):
            node.tick(0)

    def test_fifo_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            MuxNode((0, 0), fifo_capacity=0)

    def test_occupancy(self):
        node = MuxNode((0, 0), fifo_capacity=4)
        node.try_accept(0, make_request())
        node.try_accept(1, make_request())
        node.try_accept(1, make_request())
        assert node.occupancy() == 3


class TestTreeBackpressure:
    def test_stall_propagates_down_to_ingress(self):
        """With the controller refusing everything, the whole request
        path fills up and ingress eventually rejects."""
        interconnect = BlueTreeInterconnect(4, fifo_capacity=1)
        controller = MemoryController(FixedLatencyDevice(1000), queue_capacity=1)
        interconnect.attach_controller(controller)
        accepted = 0
        for cycle in range(100):
            if interconnect.try_inject(make_request(client_id=0), cycle):
                accepted += 1
            interconnect.tick_request_path(cycle)
            controller.tick(cycle)
        # path capacity: leaf fifo 1 + root fifo 1 + controller queue 1
        # + one in service = finite, far below 100
        assert accepted <= 5
        assert interconnect.requests_in_flight() <= 2

    def test_nothing_lost_under_backpressure(self):
        interconnect = BlueTreeInterconnect(4, fifo_capacity=1)
        controller = MemoryController(FixedLatencyDevice(5), queue_capacity=1)
        interconnect.attach_controller(controller)
        accepted = []
        delivered = []
        for cycle in range(400):
            if len(accepted) < 10:
                request = make_request(client_id=cycle % 4, deadline=cycle + 10_000)
                if interconnect.try_inject(request, cycle):
                    accepted.append(request)
            interconnect.tick_request_path(cycle)
            controller.tick(cycle)
            delivered.extend(interconnect.tick_response_path(cycle))
        assert len(delivered) == len(accepted) == 10
