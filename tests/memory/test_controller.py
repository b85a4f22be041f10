"""Unit tests for the memory controller."""

import pytest

from repro.errors import CapacityError, ConfigurationError, SimulationError
from repro.memory.controller import ArbitrationPolicy, MemoryController
from repro.memory.dram import DramDevice, FixedLatencyDevice

from tests.conftest import make_request


def run_cycles(controller: MemoryController, start: int, count: int) -> int:
    for cycle in range(start, start + count):
        controller.tick(cycle)
    return start + count


class TestServiceBasics:
    def test_services_one_request(self):
        done = []
        controller = MemoryController(
            FixedLatencyDevice(3), on_response=lambda r, c: done.append((r, c))
        )
        request = make_request()
        controller.enqueue(request, 0)
        run_cycles(controller, 0, 5)
        assert len(done) == 1
        completed, at = done[0]
        assert completed is request
        assert at == 3  # enqueued at 0, 3 cycles of service
        assert request.service_start_cycle == 0
        assert request.service_end_cycle == 3

    def test_services_back_to_back(self):
        done = []
        controller = MemoryController(
            FixedLatencyDevice(2), on_response=lambda r, c: done.append(c)
        )
        controller.enqueue(make_request(), 0)
        controller.enqueue(make_request(), 0)
        run_cycles(controller, 0, 6)
        assert done == [2, 4]

    def test_unit_service_rate(self):
        """With cost 1 the controller sustains one request per cycle —
        the transaction-slot time base of the experiments."""
        done = []
        controller = MemoryController(
            FixedLatencyDevice(1),
            queue_capacity=16,
            on_response=lambda r, c: done.append(c),
        )
        for i in range(10):
            controller.enqueue(make_request(), 0)
        run_cycles(controller, 0, 10)
        assert done == list(range(1, 11))

    def test_idle_controller_does_nothing(self):
        controller = MemoryController(FixedLatencyDevice(1))
        run_cycles(controller, 0, 5)
        assert controller.serviced == 0
        assert controller.busy_cycles == 0


class TestBackpressure:
    def test_capacity_respected(self):
        controller = MemoryController(FixedLatencyDevice(5), queue_capacity=2)
        controller.enqueue(make_request(), 0)
        controller.enqueue(make_request(), 0)
        assert not controller.can_accept()
        with pytest.raises(CapacityError):
            controller.enqueue(make_request(), 0)

    def test_capacity_frees_as_serviced(self):
        controller = MemoryController(FixedLatencyDevice(1), queue_capacity=1)
        controller.enqueue(make_request(), 0)
        controller.tick(0)  # pulled into service
        assert controller.can_accept()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            MemoryController(FixedLatencyDevice(1), queue_capacity=0)


class TestBlockingAccounting:
    def test_queued_urgent_request_charged(self):
        controller = MemoryController(FixedLatencyDevice(4), queue_capacity=4)
        relaxed = make_request(deadline=1000)
        urgent = make_request(deadline=50)
        controller.enqueue(relaxed, 0)
        controller.enqueue(urgent, 0)
        run_cycles(controller, 0, 4)  # relaxed in service for 4 cycles
        assert urgent.blocking_cycles == 4

    def test_lower_priority_waiter_not_charged(self):
        controller = MemoryController(FixedLatencyDevice(4), queue_capacity=4)
        urgent = make_request(deadline=50)
        relaxed = make_request(deadline=1000)
        controller.enqueue(urgent, 0)
        controller.enqueue(relaxed, 0)
        run_cycles(controller, 0, 4)
        assert relaxed.blocking_cycles == 0


class TestFrFcfs:
    def test_row_hit_first(self):
        dram = DramDevice(n_banks=8, row_size_bytes=2048)
        controller = MemoryController(
            dram, queue_capacity=8, policy=ArbitrationPolicy.FR_FCFS
        )
        opener = make_request(address=0)
        controller.enqueue(opener, 0)
        controller.tick(0)  # opener starts: opens row 0 of bank 0
        conflict = make_request(address=8 * 2048)  # same bank, other row
        hit = make_request(address=64)  # open row
        controller.enqueue(conflict, 1)
        controller.enqueue(hit, 1)
        # run until opener finishes and next is picked
        for cycle in range(1, 2 + dram.timing.row_miss_cycles):
            controller.tick(cycle)
        assert hit.service_start_cycle >= 0
        assert conflict.service_start_cycle == -1

    def test_fcfs_ignores_row_state(self):
        dram = DramDevice()
        controller = MemoryController(
            dram, queue_capacity=8, policy=ArbitrationPolicy.FCFS
        )
        opener = make_request(address=0)
        controller.enqueue(opener, 0)
        controller.tick(0)
        conflict = make_request(address=8 * 2048)
        hit = make_request(address=64)
        controller.enqueue(conflict, 1)
        controller.enqueue(hit, 1)
        for cycle in range(1, 2 + dram.timing.row_miss_cycles):
            controller.tick(cycle)
        assert conflict.service_start_cycle >= 0  # arrival order preserved
        assert hit.service_start_cycle == -1


class TestSkipGuard:
    """on_cycles_skipped must never swallow the completion tick."""

    def test_valid_skip_replays_countdown(self):
        done = []
        controller = MemoryController(
            FixedLatencyDevice(5), on_response=lambda r, c: done.append(c)
        )
        controller.enqueue(make_request(), 0)
        controller.tick(0)  # service starts, 4 cycles remain after this
        # next_activity_cycle(1) pins the completion tick at cycle 4
        assert controller.next_activity_cycle(1) == 4
        controller.on_cycles_skipped(1, 3)  # leap cycles 1..3
        assert controller.busy_cycles == 1 + 3
        controller.tick(4)  # completion tick executes
        assert done == [5]

    def test_over_skip_raises_simulation_error(self):
        controller = MemoryController(FixedLatencyDevice(5))
        controller.enqueue(make_request(), 0)
        controller.tick(0)  # 4 cycles of service remain
        with pytest.raises(SimulationError):
            controller.on_cycles_skipped(1, 4)  # would swallow completion

    def test_over_skip_clamps_busy_cycles(self):
        controller = MemoryController(FixedLatencyDevice(5))
        controller.enqueue(make_request(), 0)
        controller.tick(0)  # busy_cycles == 1, 4 remain
        with pytest.raises(SimulationError):
            controller.on_cycles_skipped(1, 100)
        # only the 3 legal idle replays were counted, not the over-skip
        assert controller.busy_cycles == 1 + 3

    def test_skip_without_service_is_noop(self):
        controller = MemoryController(FixedLatencyDevice(5))
        controller.on_cycles_skipped(0, 1000)
        assert controller.busy_cycles == 0


class TestReorderCap:
    """FR-FCFS with a blacklisting-style bound on head bypasses."""

    @staticmethod
    def _controller(cap):
        dram = DramDevice(n_banks=8, row_size_bytes=2048)
        return dram, MemoryController(
            dram,
            queue_capacity=16,
            policy=ArbitrationPolicy.FR_FCFS,
            reorder_cap=cap,
        )

    @staticmethod
    def _starve(controller, dram, streak):
        """Open row 0, queue one row-miss, then feed ``streak`` row hits
        arriving behind it; run until the queue drains."""
        opener = make_request(address=0)
        controller.enqueue(opener, 0)
        controller.tick(0)  # opens row 0 of bank 0
        miss = make_request(address=8 * 2048)  # same bank, other row
        controller.enqueue(miss, 1)
        hits = [make_request(address=64 * (i + 1)) for i in range(streak)]
        for hit in hits:
            controller.enqueue(hit, 1)
        cycle = 1
        while controller.in_flight:
            controller.tick(cycle)
            cycle += 1
            assert cycle < 10_000
        return miss, hits

    def test_uncapped_reorders_every_hit_first(self):
        dram, controller = self._controller(cap=None)
        miss, hits = self._starve(controller, dram, streak=6)
        assert all(h.service_start_cycle < miss.service_start_cycle for h in hits)
        assert controller.reorder_count == 6

    def test_cap_bounds_row_miss_waiting(self):
        dram, controller = self._controller(cap=3)
        miss, hits = self._starve(controller, dram, streak=6)
        # exactly cap hits bypass the miss, then FCFS serves it
        before = [h for h in hits if h.service_start_cycle < miss.service_start_cycle]
        assert len(before) == 3
        assert controller.reorder_count == 3

    def test_capped_waits_shorter_than_uncapped(self):
        def miss_start(cap):
            dram, controller = self._controller(cap)
            miss, _ = self._starve(controller, dram, streak=8)
            return miss.service_start_cycle

        assert miss_start(2) < miss_start(None)

    def test_cap_zero_degenerates_to_fcfs(self):
        dram, controller = self._controller(cap=0)
        miss, hits = self._starve(controller, dram, streak=4)
        assert all(miss.service_start_cycle < h.service_start_cycle for h in hits)
        assert controller.reorder_count == 0

    def test_cap_resets_when_head_served(self):
        # After the capped head is served the bypass budget resets and
        # reordering resumes for the next head.  The misses target bank
        # 0 while the hits target bank 1, so serving a miss does not
        # close the hits' open row.
        dram, controller = self._controller(cap=2)
        controller.enqueue(make_request(address=0), 0)  # opens bank 0 row 0
        controller.tick(0)
        while controller.in_flight:
            controller.tick(1)
        controller.enqueue(make_request(address=2048), 1)  # opens bank 1 row 0
        cycle = 1
        while controller.in_flight:
            controller.tick(cycle)
            cycle += 1
        base = 2048 * 8
        misses = [make_request(address=base * (1 + i)) for i in range(2)]
        for m in misses:
            controller.enqueue(m, cycle)
        hits = [make_request(address=2048 + 64 * (i + 1)) for i in range(4)]
        for h in hits:
            controller.enqueue(h, cycle)
        while controller.in_flight:
            controller.tick(cycle)
            cycle += 1
            assert cycle < 50_000
        # each miss allowed exactly 2 bypasses: 4 reorders total
        assert controller.reorder_count == 4

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryController(FixedLatencyDevice(1), reorder_cap=-1)

    def test_default_keeps_current_behaviour(self):
        assert MemoryController(FixedLatencyDevice(1)).reorder_cap is None


class TestIntrospection:
    def test_in_flight_counts_queue_and_service(self):
        controller = MemoryController(FixedLatencyDevice(5), queue_capacity=4)
        controller.enqueue(make_request(), 0)
        controller.enqueue(make_request(), 0)
        controller.tick(0)
        assert controller.busy
        assert controller.queue_depth == 1
        assert controller.in_flight == 2

    def test_busy_cycles_counted(self):
        controller = MemoryController(FixedLatencyDevice(3))
        controller.enqueue(make_request(), 0)
        run_cycles(controller, 0, 10)
        assert controller.busy_cycles == 3
