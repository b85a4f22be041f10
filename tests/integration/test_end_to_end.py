"""End-to-end integration tests: the analysis predicts the simulator.

The headline property of the reproduction: when the interface-selection
composition reports *schedulable*, the cycle-level BlueScale simulation
meets every deadline; and across designs, the orderings the paper's
figures report hold on fixed seeds.
"""

import random

import pytest

from repro.analysis.composition import compose
from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.experiments.factory import build_interconnect
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.topology import quadtree


def run_bluescale(tasksets, n_clients, horizon=20_000):
    interconnect = BlueScaleInterconnect(n_clients)
    composition = interconnect.configure(tasksets)
    clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
    result = SoCSimulation(clients, interconnect).run(horizon, drain=6_000)
    return composition, result


class TestAnalysisPredictsSimulation:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_schedulable_composition_has_no_misses_16(self, seed):
        rng = random.Random(seed)
        tasksets = generate_client_tasksets(rng, 16, 3, 0.75, period_min=100)
        composition, result = run_bluescale(tasksets, 16)
        if composition.schedulable:
            assert result.deadline_miss_ratio == 0.0, (
                f"seed {seed}: analysis said schedulable but "
                f"{result.recorder.missed} requests missed"
            )

    def test_schedulable_composition_has_no_misses_64(self):
        # Composition inflates bandwidth at every level (integer (Pi,
        # Theta) granularity + analysis margins), so a 64-client system
        # is analytically schedulable at moderate utilization.
        rng = random.Random(101)
        tasksets = generate_client_tasksets(rng, 64, 2, 0.5, period_min=200)
        composition, result = run_bluescale(tasksets, 64, horizon=10_000)
        assert composition.schedulable
        assert result.deadline_miss_ratio == 0.0

    def test_unschedulable_workload_detected_before_simulation(self):
        """Overload is caught analytically (root bandwidth > 1)."""
        rng = random.Random(9)
        tasksets = generate_client_tasksets(rng, 16, 3, 3.0)
        composition = compose(quadtree(16), tasksets)
        assert not composition.schedulable


class TestCrossDesignOrdering:
    """Fig. 6's qualitative ordering on a fixed seed batch."""

    @pytest.fixture(scope="class")
    def results(self):
        outcomes = {}
        for name in ("BlueScale", "AXI-IC^RT", "BlueTree", "GSMTree-TDM"):
            misses, blockings = [], []
            for seed in (21, 22, 23):
                rng = random.Random(seed)
                tasksets = generate_client_tasksets(rng, 16, 3, 0.85)
                interconnect = build_interconnect(name, 16, tasksets)
                clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
                result = SoCSimulation(clients, interconnect).run(
                    15_000, drain=5_000
                )
                misses.append(result.deadline_miss_ratio)
                blockings.append(result.mean_blocking)
            outcomes[name] = (
                sum(misses) / len(misses),
                sum(blockings) / len(blockings),
            )
        return outcomes

    def test_bluescale_has_lowest_miss_ratio(self, results):
        blue_miss = results["BlueScale"][0]
        for name, (miss, _) in results.items():
            assert blue_miss <= miss, f"{name} beat BlueScale on misses"

    def test_bluescale_blocks_less_than_heuristic_designs(self, results):
        """Deadline-blind arbitration (BlueTree) accumulates more
        priority inversion than BlueScale's budgeted EDF.  (BlueScale
        vs AXI-IC^RT blocking is statistically close on arbitrary
        seeds; the Fig. 6 harness compares them at its default seeds.)"""
        blue_blocking = results["BlueScale"][1]
        assert blue_blocking <= results["BlueTree"][1]

    def test_demand_blind_tdm_worst_on_misses(self, results):
        tdm_miss = results["GSMTree-TDM"][0]
        assert tdm_miss >= results["BlueScale"][0]
        assert tdm_miss >= results["AXI-IC^RT"][0]


class TestWcrtBoundsHoldInSimulation:
    """The holistic WCRT analysis upper-bounds every simulated job.

    n=4 is a single SE, where no extra tree level's pessimism hides a
    missing term (at 0.7 one job exceeds a bound that omits the port
    buffer's priority-inversion blocking); n=5 is a sparse two-level
    tree."""

    @pytest.mark.parametrize(
        "n_clients,utilization", [(4, 0.7), (5, 0.65), (16, 0.6), (64, 0.5)]
    )
    def test_no_job_exceeds_its_bound(self, n_clients, utilization):
        from repro.analysis.response_time import holistic_response_bounds

        rng = random.Random(4)
        tasksets = generate_client_tasksets(rng, n_clients, 2, utilization)
        interconnect = BlueScaleInterconnect(n_clients)
        composition = interconnect.configure(tasksets)
        assert composition.schedulable
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        horizon = 12_000 if n_clients == 64 else 20_000
        SoCSimulation(clients, interconnect).run(horizon, drain=8_000)
        bounds = holistic_response_bounds(tasksets, composition)
        for client in clients:
            for job in client.jobs:
                if not (job.finished and job.dropped == 0):
                    continue
                observed = job.last_completion - job.release
                bound = bounds[client.client_id].bound_for(job.task_name)
                assert observed <= bound, (
                    f"client {client.client_id} task {job.task_name}: "
                    f"observed {observed} > bound {bound}"
                )


class TestScaleSensitivity:
    def test_bluetree_degrades_faster_than_bluescale(self):
        """Obs 4: the gap widens from 16 to 64 clients."""

        def miss_ratio(name, n_clients, seed=31):
            rng = random.Random(seed)
            tasksets = generate_client_tasksets(rng, n_clients, 3, 0.85)
            interconnect = build_interconnect(name, n_clients, tasksets)
            clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
            horizon = 12_000 if n_clients == 16 else 8_000
            return SoCSimulation(clients, interconnect).run(
                horizon, drain=4_000
            ).deadline_miss_ratio

        blue_gap = miss_ratio("BlueScale", 64) - miss_ratio("BlueScale", 16)
        tree_gap = miss_ratio("BlueTree", 64) - miss_ratio("BlueTree", 16)
        assert tree_gap > blue_gap
