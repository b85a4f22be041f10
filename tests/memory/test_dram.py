"""Unit tests for the DRAM device model."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.dram import DramDevice, DramTiming, FixedLatencyDevice
from repro.memory.request import MemoryRequest, RequestKind

from tests.conftest import make_request


def request_at(address: int, write: bool = False):
    return MemoryRequest(
        client_id=0,
        release_cycle=0,
        absolute_deadline=1000,
        address=address,
        kind=RequestKind.WRITE if write else RequestKind.READ,
    )


class TestDramTiming:
    def test_defaults_ordered(self):
        timing = DramTiming()
        assert timing.row_hit_cycles <= timing.row_miss_cycles
        assert timing.row_miss_cycles <= timing.row_conflict_cycles

    def test_rejects_inverted_ordering(self):
        with pytest.raises(ConfigurationError):
            DramTiming(row_hit_cycles=40, row_miss_cycles=30, row_conflict_cycles=50)

    def test_rejects_nonpositive_costs(self):
        with pytest.raises(ConfigurationError):
            DramTiming(row_hit_cycles=0)

    def test_rejects_negative_write_penalty(self):
        with pytest.raises(ConfigurationError):
            DramTiming(write_extra_cycles=-1)


class TestAddressMapping:
    def test_same_row_same_bank(self):
        dram = DramDevice(n_banks=8, row_size_bytes=2048)
        assert dram.bank_of(0) == dram.bank_of(2047)
        assert dram.row_of(0) == dram.row_of(2047)

    def test_adjacent_rows_rotate_banks(self):
        dram = DramDevice(n_banks=8, row_size_bytes=2048)
        assert dram.bank_of(0) == 0
        assert dram.bank_of(2048) == 1
        assert dram.bank_of(8 * 2048) == 0  # wraps around

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            DramDevice(n_banks=0)
        with pytest.raises(ConfigurationError):
            DramDevice(row_size_bytes=0)


class TestRowBufferBehaviour:
    def test_first_access_is_miss(self):
        dram = DramDevice()
        cost = dram.access(request_at(0))
        assert cost == dram.timing.row_miss_cycles
        assert dram.misses == 1

    def test_second_access_same_row_hits(self):
        dram = DramDevice()
        dram.access(request_at(0))
        cost = dram.access(request_at(64))
        assert cost == dram.timing.row_hit_cycles
        assert dram.hits == 1

    def test_different_row_same_bank_conflicts(self):
        dram = DramDevice(n_banks=8, row_size_bytes=2048)
        dram.access(request_at(0))
        conflicting = 8 * 2048  # same bank 0, next row
        cost = dram.access(request_at(conflicting))
        assert cost == dram.timing.row_conflict_cycles
        assert dram.conflicts == 1

    def test_write_penalty_added(self):
        dram = DramDevice()
        read_cost = dram.access_cost(request_at(0))
        write_cost = dram.access_cost(request_at(0, write=True))
        assert write_cost == read_cost + dram.timing.write_extra_cycles

    def test_access_cost_does_not_mutate(self):
        dram = DramDevice()
        dram.access_cost(request_at(0))
        assert dram.total_accesses == 0
        assert dram.open_row(0) is None

    def test_hit_ratio(self):
        dram = DramDevice()
        dram.access(request_at(0))
        dram.access(request_at(64))
        dram.access(request_at(128))
        assert dram.row_hit_ratio == pytest.approx(2 / 3)

    def test_hit_ratio_empty(self):
        assert DramDevice().row_hit_ratio == 0.0

    def test_is_row_hit_tracks_state(self):
        dram = DramDevice()
        assert not dram.is_row_hit(request_at(0))
        dram.access(request_at(0))
        assert dram.is_row_hit(request_at(64))

    def test_streaming_burst_mostly_hits(self):
        """A sequential burst (one job's requests) hits after the opener —
        the locality the clients' address generator is designed to give."""
        dram = DramDevice()
        costs = [dram.access(request_at(64 * i)) for i in range(16)]
        assert costs[0] == dram.timing.row_miss_cycles
        assert all(c == dram.timing.row_hit_cycles for c in costs[1:])


class TestFixedLatencyDevice:
    def test_constant_cost(self):
        device = FixedLatencyDevice(7)
        assert device.access(make_request()) == 7
        assert device.access_cost(make_request()) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            FixedLatencyDevice(0)
