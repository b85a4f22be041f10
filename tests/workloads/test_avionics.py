"""Tests for the avionics workload catalogue."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.avionics import (
    ALL_AVIONICS,
    DAL_LEVELS,
    PARTITIONS,
    AvionicsProfile,
    assign_partitions,
    partition_taskset,
    tasks_at_or_above,
)


class TestCatalogue:
    def test_names_unique(self):
        names = [p.name for p in ALL_AVIONICS]
        assert len(set(names)) == len(names)

    def test_every_profile_valid_task(self):
        for profile in ALL_AVIONICS:
            task = profile.as_task()
            assert 1 <= task.wcet <= task.period

    def test_partitions_cover_catalogue(self):
        assert {p.partition for p in ALL_AVIONICS} == set(PARTITIONS)

    def test_flight_control_is_dal_a_and_fast(self):
        fc = [p for p in ALL_AVIONICS if p.partition == "flight-control"]
        assert all(p.dal == "A" for p in fc)
        assert all(p.period <= 500 for p in fc)

    def test_cabin_is_low_criticality(self):
        cabin = [p for p in ALL_AVIONICS if p.partition == "cabin"]
        assert all(p.dal in ("C", "D", "E") for p in cabin)

    def test_invalid_dal_rejected(self):
        with pytest.raises(ConfigurationError):
            AvionicsProfile("x", "cabin", "Z", 100, 1)

    def test_total_load_is_moderate(self):
        total = sum(p.transactions_per_job / p.period for p in ALL_AVIONICS)
        assert 0.05 < total < 0.5


class TestPartitionMapping:
    def test_partition_taskset(self):
        nav = partition_taskset("navigation", client_id=2)
        assert len(nav) == 4
        assert all(task.client_id == 2 for task in nav)

    def test_unknown_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_taskset("galley")

    def test_assign_partitions_segregates(self):
        assignment = assign_partitions(8)
        assert sorted(assignment) == [0, 1, 2, 3]
        for client, taskset in assignment.items():
            assert all(task.client_id == client for task in taskset)

    def test_too_few_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_partitions(3)


class TestDalFiltering:
    def test_dal_a_only_flight_control(self):
        critical = tasks_at_or_above("A")
        assert len(critical) == 4

    def test_dal_ordering_is_monotone(self):
        sizes = [len(tasks_at_or_above(dal)) for dal in DAL_LEVELS]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(ALL_AVIONICS)

    def test_unknown_dal_rejected(self):
        with pytest.raises(ConfigurationError):
            tasks_at_or_above("F")


class TestAvionicsOnBlueScale:
    def test_partitioned_system_composes_and_meets_deadlines(self):
        """The avionics partitions compose on a 4-client BlueScale and
        run without a single deadline miss."""
        from repro.clients import TrafficGenerator
        from repro.core import BlueScaleInterconnect
        from repro.soc import SoCSimulation

        assignment = assign_partitions(4)
        interconnect = BlueScaleInterconnect(4)
        composition = interconnect.configure(assignment)
        assert composition.schedulable
        clients = [
            TrafficGenerator(c, ts) for c, ts in assignment.items()
        ]
        result = SoCSimulation(clients, interconnect).run(10_000, drain=4_000)
        assert result.deadline_miss_ratio == 0.0
