"""Unit/integration tests for the BlueScale interconnect."""

import pytest

from repro.analysis.composition import changed_ports, compose, update_client
from repro.core.interconnect import BlueScaleInterconnect
from repro.errors import ConfigurationError
from repro.memory.controller import MemoryController
from repro.memory.dram import FixedLatencyDevice
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.topology import quadtree

from tests.conftest import make_request


def light_tasksets(n_clients, period=400, wcet=4):
    return {
        c: TaskSet([PeriodicTask(period=period + 16 * c, wcet=wcet, client_id=c)])
        for c in range(n_clients)
    }


def wired(n_clients=16):
    interconnect = BlueScaleInterconnect(n_clients)
    controller = MemoryController(FixedLatencyDevice(1), queue_capacity=4)
    interconnect.attach_controller(controller)
    return interconnect, controller


class TestConstruction:
    def test_16_clients_builds_5_elements(self):
        assert BlueScaleInterconnect(16).n_elements == 5

    def test_64_clients_builds_21_elements(self):
        assert BlueScaleInterconnect(64).n_elements == 21

    def test_element_lookup(self):
        interconnect = BlueScaleInterconnect(16)
        assert interconnect.element(1, 2).node == (1, 2)


class TestRequestFlow:
    def test_request_reaches_controller_and_returns(self):
        interconnect, controller = wired(16)
        request = make_request(client_id=5, deadline=1000)
        assert interconnect.try_inject(request, 0)
        delivered = []
        for cycle in range(20):
            interconnect.tick_request_path(cycle)
            controller.tick(cycle)
            delivered.extend(interconnect.tick_response_path(cycle))
        assert delivered == [request]
        assert request.completed
        # 2 SE hops + 1 service + 3 response hops = small constant
        assert request.response_time <= 10

    def test_pipelining_one_hop_per_cycle(self):
        interconnect, controller = wired(16)
        request = make_request(client_id=0, deadline=1000)
        interconnect.try_inject(request, 0)
        interconnect.tick_request_path(0)  # leaf forwards to root
        assert interconnect.element(0, 0).occupancy() == 1
        interconnect.tick_request_path(1)  # root forwards to controller
        assert controller.in_flight == 1

    def test_ingress_backpressure(self):
        interconnect, _ = wired(16)
        interconnect_capacity = interconnect.elements[(1, 0)].buffers[0].capacity
        accepted = 0
        for _ in range(interconnect_capacity + 3):
            if interconnect.try_inject(make_request(client_id=0), 0):
                accepted += 1
        assert accepted == interconnect_capacity

    def test_requests_in_flight_counts_buffers(self):
        interconnect, _ = wired(16)
        interconnect.try_inject(make_request(client_id=0), 0)
        interconnect.try_inject(make_request(client_id=9), 0)
        assert interconnect.requests_in_flight() == 2

    def test_response_latency_scales_with_depth(self):
        shallow = BlueScaleInterconnect(16)
        deep = BlueScaleInterconnect(64)
        assert deep.response_latency(0) == shallow.response_latency(0) + 1


class TestConfiguration:
    def test_configure_programs_all_elements(self):
        interconnect = BlueScaleInterconnect(16)
        tasksets = light_tasksets(16)
        result = interconnect.configure(tasksets)
        assert result.schedulable
        for node, element in interconnect.elements.items():
            assert element.interfaces() == result.interfaces[node]

    def test_apply_composition_rejects_wrong_size(self):
        interconnect = BlueScaleInterconnect(16)
        other = compose(quadtree(64), light_tasksets(64))
        with pytest.raises(ConfigurationError):
            interconnect.apply_composition(other)

    def test_apply_composition_programs_only_changed_ports(self):
        """The one way a composition reaches the fabric: every port on
        first use; afterwards exactly ``changed_ports(old, new)``, at
        the given cycle with fresh budgets; nothing for an identical
        composition."""
        interconnect = BlueScaleInterconnect(16)
        tasksets = light_tasksets(16)
        old = compose(interconnect.topology, tasksets)
        calls = []
        for node, element in interconnect.elements.items():
            program = element.program_port

            def recording(port, interface, now=0, node=node, program=program):
                calls.append((node, port, now))
                program(port, interface, now=now)

            element.program_port = recording

        total = sum(len(ifaces) for ifaces in old.interfaces.values())
        assert interconnect.apply_composition(old) == total
        assert len(calls) == total
        assert {now for _, _, now in calls} == {0}

        tasksets[9] = tasksets[9].merged_with(
            TaskSet([PeriodicTask(period=300, wcet=3, client_id=9)])
        )
        new = update_client(old, tasksets, 9)
        expected = changed_ports(old, new)
        assert expected
        calls.clear()
        assert interconnect.apply_composition(new, cycle=700) == len(expected)
        assert calls == [(node, port, 700) for node, port in expected]
        assert interconnect.composition is new
        for node, port in expected:
            server = interconnect.elements[node].scheduler.servers[port]
            assert server.interface == new.interface_for(node, port)
            assert server.deadline == 700 + server.counters.period
            assert server.counters.remaining_budget == server.interface.budget

        calls.clear()
        assert interconnect.apply_composition(new, cycle=900) == 0
        assert calls == []

    def test_reprogram_client_requires_initial_configure(self):
        interconnect = BlueScaleInterconnect(16)
        with pytest.raises(ConfigurationError):
            interconnect.reprogram_client(light_tasksets(16), 3, cycle=100)

    def test_reprogram_client_updates_only_path(self):
        interconnect = BlueScaleInterconnect(16)
        tasksets = light_tasksets(16)
        interconnect.configure(tasksets)
        before = {
            node: element.interfaces()
            for node, element in interconnect.elements.items()
        }
        tasksets[9] = tasksets[9].merged_with(
            TaskSet([PeriodicTask(period=300, wcet=3, client_id=9)])
        )
        updated = interconnect.reprogram_client(tasksets, 9, cycle=500)
        assert updated.schedulable
        path = set(interconnect.topology.path_to_root(9))
        for node, element in interconnect.elements.items():
            if node not in path:
                assert element.interfaces() == before[node], node
            else:
                assert element.interfaces() == updated.interfaces[node]

    def test_reprogram_mid_simulation_keeps_traffic_flowing(self):
        """A runtime parameter-path update does not break the datapath:
        the simulation continues and the new task's traffic is served."""
        from repro.clients.traffic_generator import TrafficGenerator
        from repro.soc import SoCSimulation

        tasksets = light_tasksets(16)
        interconnect = BlueScaleInterconnect(16)
        interconnect.configure(tasksets)
        joined = tasksets[5].merged_with(
            TaskSet([PeriodicTask(period=200, wcet=2, name="joiner", client_id=5)])
        )
        # client 5 starts with the joined set, but the interconnect is
        # reprogrammed for it only at cycle 1000 (before that, the
        # joiner's traffic runs as unprovisioned background).
        clients = [
            TrafficGenerator(c, joined if c == 5 else ts)
            for c, ts in tasksets.items()
        ]
        simulation = SoCSimulation(clients, interconnect)
        tasksets[5] = joined
        original_run = simulation.run

        # drive manually to interleave the reprogramming
        inject = interconnect.try_inject
        for cycle in range(3000):
            if cycle == 1000:
                interconnect.reprogram_client(tasksets, 5, cycle)
            for client in clients:
                client.tick(cycle, inject)
            interconnect.tick_request_path(cycle)
            simulation.controller.tick(cycle)
            for request in interconnect.tick_response_path(cycle):
                simulation.recorder.record_completion(
                    request.response_time,
                    request.blocking_cycles,
                    request.met_deadline,
                )
                clients[request.client_id].on_response(request)
        del original_run
        assert simulation.recorder.completed > 0
        joiner_jobs = [
            job for job in clients[5].jobs if job.task_name == "joiner"
        ]
        assert any(job.finished for job in joiner_jobs)
