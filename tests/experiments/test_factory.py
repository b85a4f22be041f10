"""Tests for the experiment-level interconnect factory."""

import pytest

from repro.core.interconnect import BlueScaleInterconnect
from repro.errors import ConfigurationError
from repro.experiments.factory import (
    AXI_WINDOW,
    INTERCONNECT_NAMES,
    axi_budgets,
    build_interconnect,
)
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.gsmtree import GsmTreeInterconnect
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


@pytest.fixture
def tasksets(rng):
    return generate_client_tasksets(rng, 16, 2, 0.6)


class TestBuildInterconnect:
    def test_builds_all_six(self, tasksets):
        for name in INTERCONNECT_NAMES:
            interconnect = build_interconnect(name, 16, tasksets)
            assert interconnect.name == name
            assert interconnect.n_clients == 16

    def test_unknown_name_rejected(self, tasksets):
        with pytest.raises(ConfigurationError):
            build_interconnect("CrossbarXL", 16, tasksets)

    def test_bluescale_is_configured(self, tasksets):
        interconnect = build_interconnect("BlueScale", 16, tasksets)
        assert isinstance(interconnect, BlueScaleInterconnect)
        assert interconnect.composition is not None
        assert interconnect.composition.schedulable

    def test_axi_is_regulated(self, tasksets):
        interconnect = build_interconnect("AXI-IC^RT", 16, tasksets)
        assert isinstance(interconnect, AxiIcRtInterconnect)
        assert interconnect._window == AXI_WINDOW

    def test_fbsp_frame_reflects_workloads(self, tasksets):
        interconnect = build_interconnect("GSMTree-FBSP", 16, tasksets)
        assert isinstance(interconnect, GsmTreeInterconnect)
        heaviest = max(tasksets, key=lambda c: tasksets[c].utilization_float)
        lightest = min(tasksets, key=lambda c: tasksets[c].utilization_float)
        assert interconnect.frame.count(heaviest) >= interconnect.frame.count(lightest)

    def test_missing_clients_treated_as_idle(self, rng):
        sparse = {0: TaskSet([PeriodicTask(period=100, wcet=2, client_id=0)])}
        for name in INTERCONNECT_NAMES:
            interconnect = build_interconnect(name, 16, sparse)
            assert interconnect.n_clients == 16


class TestAxiBudgets:
    def test_burst_floor_applied(self):
        tasksets = {0: TaskSet([PeriodicTask(period=1000, wcet=9, client_id=0)])}
        budgets = axi_budgets(4, tasksets)
        # utilization share is ~3 slots but the burst floor demands 18
        assert budgets[0] == 18

    def test_proportional_term_dominates_for_heavy_clients(self):
        tasksets = {0: TaskSet([PeriodicTask(period=10, wcet=5, client_id=0)])}
        budgets = axi_budgets(1, tasksets)
        assert budgets[0] == 150  # 0.5 * 200 * 1.5

    def test_budget_capped_at_window(self):
        tasksets = {0: TaskSet([PeriodicTask(period=10, wcet=10, client_id=0)])}
        budgets = axi_budgets(1, tasksets)
        assert budgets[0] == AXI_WINDOW  # 1.0 * 200 * 1.5 = 300, capped

    def test_idle_clients_get_floor(self):
        budgets = axi_budgets(3, {})
        assert budgets == [1, 1, 1]
