"""Unit tests for the traffic-generator client."""

import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.errors import ConfigurationError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


class AcceptAll:
    def __init__(self):
        self.requests = []

    def __call__(self, request, cycle):
        self.requests.append((request, cycle))
        return True


class RejectAll:
    def __call__(self, request, cycle):
        return False


def generator(tasks, **kwargs):
    return TrafficGenerator(0, TaskSet(tasks), **kwargs)


class TestReleases:
    def test_job_releases_burst_of_wcet_requests(self):
        gen = generator([PeriodicTask(period=100, wcet=3, name="t")])
        sink = AcceptAll()
        gen.tick(0, sink)
        assert gen.released_jobs == 1
        assert gen.released_requests == 3

    def test_periodic_re_release(self):
        gen = generator([PeriodicTask(period=10, wcet=1, name="t")])
        sink = AcceptAll()
        for cycle in range(25):
            gen.tick(cycle, sink)
        assert gen.released_jobs == 3  # releases at 0, 10, 20

    def test_deadline_is_release_plus_period(self):
        gen = generator([PeriodicTask(period=50, wcet=1, name="t")])
        sink = AcceptAll()
        gen.tick(0, sink)
        request, _ = sink.requests[0]
        assert request.absolute_deadline == 50

    def test_one_injection_per_cycle(self):
        gen = generator([PeriodicTask(period=100, wcet=5, name="t")])
        sink = AcceptAll()
        gen.tick(0, sink)
        assert len(sink.requests) == 1  # burst of 5 pending, 1 issued
        gen.tick(1, sink)
        assert len(sink.requests) == 2

    def test_pending_issued_in_edf_order(self):
        gen = generator(
            [
                PeriodicTask(period=300, wcet=1, name="slow"),
                PeriodicTask(period=50, wcet=1, name="fast"),
            ]
        )
        sink = AcceptAll()
        gen.tick(0, sink)
        gen.tick(1, sink)
        names = [r.task_name for r, _ in sink.requests]
        assert names == ["fast", "slow"]

    def test_rejected_injection_retried(self):
        gen = generator([PeriodicTask(period=100, wcet=1, name="t")])
        gen.tick(0, RejectAll())
        assert gen.pending_count == 1
        sink = AcceptAll()
        gen.tick(1, sink)
        assert gen.pending_count == 0
        assert len(sink.requests) == 1


class TestAddresses:
    def test_burst_addresses_are_sequential(self):
        gen = generator([PeriodicTask(period=100, wcet=3, name="t")])
        sink = AcceptAll()
        for cycle in range(3):
            gen.tick(cycle, sink)
        addresses = [r.address for r, _ in sink.requests]
        stride = TrafficGenerator.BURST_STRIDE
        assert addresses[1] - addresses[0] == stride
        assert addresses[2] - addresses[1] == stride

    def test_clients_use_disjoint_address_windows(self):
        a = TrafficGenerator(0, TaskSet([PeriodicTask(period=10, wcet=1)]))
        b = TrafficGenerator(1, TaskSet([PeriodicTask(period=10, wcet=1)]))
        assert (a.address_base, b.address_base) == (0, 1 << 24)


class TestOverflow:
    def test_overflow_drops_and_counts(self):
        gen = generator(
            [PeriodicTask(period=10, wcet=8, name="hog")], pending_capacity=4
        )
        gen.tick(0, RejectAll())  # 8 requests, only 4 fit
        assert gen.dropped_requests == 4
        assert gen.pending_count == 4

    def test_dropped_requests_fail_their_job(self):
        gen = generator(
            [PeriodicTask(period=10, wcet=8, name="hog")], pending_capacity=4
        )
        sink = AcceptAll()
        for cycle in range(8):
            gen.tick(cycle, sink)
        for request, _ in sink.requests:
            request.mark_complete(5)
            gen.on_response(request)
        job = gen.jobs[0]
        assert job.dropped == 4
        assert not job.met_deadline

    def test_overflow_drops_the_newest_transaction(self):
        gen = TrafficGenerator(
            0,
            TaskSet(
                [
                    PeriodicTask(period=100, wcet=4, name="infotainment"),
                    PeriodicTask(period=100, wcet=2, name="airbag"),
                ]
            ),
            pending_capacity=4,
        )
        gen.tick(0, RejectAll())
        names = [r.task_name for _, r in gen._pending]
        # infotainment released first fills the queue; airbag dropped
        assert names.count("infotainment") == 4
        assert gen.dropped_requests == 2


class TestJobTracking:
    def drive_to_completion(self, gen, complete_at):
        sink = AcceptAll()
        cycle = 0
        while gen.pending_count or not sink.requests:
            gen.tick(cycle, sink)
            cycle += 1
            if cycle > 100:
                break
        for request, _ in sink.requests:
            request.mark_complete(complete_at)
            gen.on_response(request)

    def test_job_meets_deadline(self):
        gen = generator([PeriodicTask(period=50, wcet=2, name="t")])
        self.drive_to_completion(gen, complete_at=40)
        job = gen.jobs[0]
        assert job.finished and job.met_deadline
        assert gen.monitored_job_misses(horizon=60) == 0
        assert gen.monitored_jobs_judged(horizon=60) == 1

    def test_job_misses_deadline(self):
        gen = generator([PeriodicTask(period=50, wcet=2, name="t")])
        self.drive_to_completion(gen, complete_at=55)
        assert gen.monitored_job_misses(horizon=60) == 1

    def test_jobs_beyond_horizon_not_judged(self):
        gen = generator([PeriodicTask(period=50, wcet=1, name="t")])
        self.drive_to_completion(gen, complete_at=10)
        assert gen.monitored_jobs_judged(horizon=20) == 0

    def test_unmonitored_tasks_excluded(self):
        gen = TrafficGenerator(
            0,
            TaskSet(
                [
                    PeriodicTask(period=50, wcet=1, name="app"),
                    PeriodicTask(period=50, wcet=1, name="noise"),
                ]
            ),
            monitored_tasks={"app"},
        )
        sink = AcceptAll()
        gen.tick(0, sink)
        gen.tick(1, sink)
        # complete both late
        for request, _ in sink.requests:
            request.mark_complete(60)
            gen.on_response(request)
        assert gen.monitored_jobs_judged(horizon=100) == 1
        assert gen.monitored_job_misses(horizon=100) == 1  # only "app"

    def test_unknown_response_ignored(self):
        gen = generator([PeriodicTask(period=50, wcet=1, name="t")])
        from tests.conftest import make_request

        stray = make_request()
        stray.mark_complete(3)
        gen.on_response(stray)  # must not raise


class TestValidation:
    def test_rejects_negative_client(self):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(-1, TaskSet([PeriodicTask(period=10, wcet=1)]))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            generator([PeriodicTask(period=10, wcet=1)], pending_capacity=0)

    def test_rejects_bad_write_ratio(self):
        with pytest.raises(ConfigurationError):
            generator([PeriodicTask(period=10, wcet=1)], write_ratio=1.5)
