"""Property-based integration tests across the whole stack."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.faults.verify import verify_isolation
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.bluetree import BlueTreeInterconnect
from repro.interconnects.gsmtree import gsmtree_tdm
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


def build_clients(seed: int, n_clients: int, utilization: float):
    rng = random.Random(seed)
    tasksets = generate_client_tasksets(
        rng, n_clients, 2, utilization, period_min=50, period_max=800
    )
    return tasksets, [TrafficGenerator(c, ts) for c, ts in tasksets.items()]


INTERCONNECT_FACTORIES = [
    lambda n: BlueScaleInterconnect(n),
    lambda n: AxiIcRtInterconnect(n),
    lambda n: BlueTreeInterconnect(n),
    lambda n: gsmtree_tdm(n),
]


class TestConservationProperty:
    @given(
        seed=st.integers(0, 10_000),
        n_clients=st.sampled_from([4, 8, 16]),
        utilization=st.floats(0.2, 1.4),
        factory_index=st.integers(0, len(INTERCONNECT_FACTORIES) - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_request_ledger_always_balances(
        self, seed, n_clients, utilization, factory_index
    ):
        """For any workload (including overload) on any interconnect,
        released == completed + dropped + in flight — the SoC simulator
        enforces it internally, this drives it across the input space."""
        tasksets, clients = build_clients(seed, n_clients, utilization)
        interconnect = INTERCONNECT_FACTORIES[factory_index](n_clients)
        result = SoCSimulation(clients, interconnect).run(800, drain=200)
        assert (
            result.requests_completed
            + result.requests_dropped
            + result.requests_in_flight
            == result.requests_released
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_all_metrics_well_formed(self, seed):
        tasksets, clients = build_clients(seed, 8, 0.7)
        interconnect = BlueScaleInterconnect(8)
        interconnect.configure(tasksets)
        result = SoCSimulation(clients, interconnect).run(1_000, drain=500)
        assert 0.0 <= result.deadline_miss_ratio <= 1.0
        summary = result.response_summary()
        if summary.count:
            assert summary.minimum >= 1  # at least one cycle of transport
        assert all(b >= 0 for b in result.recorder.blocking_times)


class TestResponsesBelongToIssuer:
    @given(seed=st.integers(0, 1_000))
    @settings(max_examples=10, deadline=None)
    def test_every_completion_returns_to_its_client(self, seed):
        rng = random.Random(seed)
        n_clients = 8
        tasksets = {
            c: TaskSet(
                [
                    PeriodicTask(
                        period=rng.randint(40, 300),
                        wcet=rng.randint(1, 4),
                        name=f"t{c}",
                        client_id=c,
                    )
                ]
            )
            for c in range(n_clients)
        }
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        interconnect = BlueScaleInterconnect(n_clients)
        simulation = SoCSimulation(clients, interconnect)
        simulation.run(600, drain=400)
        # each client's accounting is internally consistent
        for client in clients:
            completed_jobs = [job for job in client.jobs if job.finished]
            for job in completed_jobs:
                assert job.outstanding == 0
                assert job.task_name == f"t{client.client_id}"


class TestSoundnessProperty:
    @given(
        seed=st.integers(0, 10_000),
        n_clients=st.sampled_from([4, 5, 8, 16]),
        buffer_capacity=st.integers(1, 4),
        tasks_per_client=st.integers(1, 3),
        utilization=st.floats(0.2, 0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_admitted_jobs_stay_within_their_bounds(
        self, seed, n_clients, buffer_capacity, tasks_per_client, utilization
    ):
        """Admitted ⇒ every job within its analytical bound, over small
        trees (one SE, a sparse two-level tree, full two-level trees)
        and every port-buffer depth up to 4; fault-free, scalar fast
        path.  Draws the composition rejects are discarded."""
        rng = random.Random(seed)
        tasksets = generate_client_tasksets(
            rng,
            n_clients,
            tasks_per_client,
            utilization,
            period_min=50,
            period_max=800,
        )
        interconnect = BlueScaleInterconnect(
            n_clients, buffer_capacity=buffer_capacity
        )
        composition = interconnect.configure(tasksets)
        assume(composition.schedulable)
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        horizon = 2_000
        SoCSimulation(clients, interconnect).run(horizon, drain=1_000)
        verdict = verify_isolation(
            clients,
            tasksets,
            composition,
            end_cycle=horizon,
            victims=set(tasksets),
        )
        assert verdict.bounds_checked
        assert verdict.violations == ()
