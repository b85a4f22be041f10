"""Tests for trace capture, persistence and replay."""

import random

import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.errors import ConfigurationError
from repro.experiments.factory import INTERCONNECT_NAMES, build_interconnect
from repro.interconnects.bluetree import BlueTreeInterconnect
from repro.sim.trace import (
    TraceRecord,
    TraceReplayClient,
    load_trace,
    save_trace,
    split_by_client,
    trace_from_clients,
)
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


def record(release=0, client=0, address=0, deadline=None, **kwargs):
    return TraceRecord(
        release_cycle=release,
        client_id=client,
        address=address,
        absolute_deadline=deadline if deadline is not None else release + 100,
        **kwargs,
    )


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            record(release=10, deadline=10)
        with pytest.raises(ConfigurationError):
            record(kind="erase")

    def test_negative_client_and_release_rejected(self):
        with pytest.raises(ConfigurationError, match="client id"):
            record(client=-1)
        with pytest.raises(ConfigurationError, match="release cycle"):
            record(release=-1, deadline=10)

    def test_to_request_roundtrip(self):
        rec = record(release=5, client=3, address=256, deadline=77, kind="write")
        request = rec.to_request()
        assert request.client_id == 3
        assert request.release_cycle == 5
        assert request.absolute_deadline == 77
        assert request.kind.value == "write"

    def test_ordering(self):
        early = record(release=1, client=5)
        late = record(release=2, client=0)
        assert sorted([late, early]) == [early, late]


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        records = [record(release=i, client=i % 3, address=64 * i) for i in range(10)]
        path = tmp_path / "trace.jsonl"
        assert save_trace(records, path) == 10
        loaded = load_trace(path)
        assert loaded == records

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"release_cycle": 0}\n')
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_negative_ids_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "negative.jsonl"
        path.write_text(
            '{"release_cycle": 0, "client_id": 0, "address": 0, '
            '"absolute_deadline": 9}\n'
            '{"release_cycle": 0, "client_id": -1, "address": 0, '
            '"absolute_deadline": 9}\n'
        )
        with pytest.raises(ConfigurationError, match=":2: .*client id"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace([record()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_trace(path)) == 1


class TestCaptureAndReplay:
    def run_generators(self, tasksets, interconnect, horizon=3000):
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        result = SoCSimulation(clients, interconnect).run(horizon, drain=2000)
        return clients, result

    def test_capture_counts_match(self):
        rng = random.Random(2)
        tasksets = generate_client_tasksets(rng, 4, 2, 0.4)
        clients, result = self.run_generators(tasksets, BlueScaleInterconnect(4))
        records = trace_from_clients(clients)
        assert len(records) == result.requests_released - result.requests_dropped

    def test_replay_reproduces_workload(self):
        """Replaying a captured trace releases the same transactions."""
        rng = random.Random(2)
        tasksets = generate_client_tasksets(rng, 4, 2, 0.4)
        clients, original = self.run_generators(tasksets, BlueScaleInterconnect(4))
        records = trace_from_clients(clients)
        per_client = split_by_client(records)
        replay_clients = [
            TraceReplayClient(c, recs) for c, recs in per_client.items()
        ]
        replayed = SoCSimulation(
            replay_clients, BlueScaleInterconnect(4)
        ).run(3000, drain=2000)
        assert replayed.requests_released == len(records)
        assert replayed.requests_completed == len(records)

    def test_paired_comparison_across_interconnects(self):
        """The same trace drives two designs — a paired experiment."""
        rng = random.Random(7)
        tasksets = generate_client_tasksets(rng, 8, 2, 0.7)
        clients, _ = self.run_generators(tasksets, BlueScaleInterconnect(8))
        per_client = split_by_client(trace_from_clients(clients))

        def run_on(interconnect):
            replay = [TraceReplayClient(c, r) for c, r in per_client.items()]
            return SoCSimulation(replay, interconnect).run(3000, drain=3000)

        blue = run_on(BlueScaleInterconnect(8))
        tree = run_on(BlueTreeInterconnect(8))
        assert blue.requests_released == tree.requests_released
        assert blue.deadline_miss_ratio <= tree.deadline_miss_ratio + 0.05

    def test_replay_client_rejects_foreign_records(self):
        with pytest.raises(ConfigurationError):
            TraceReplayClient(0, [record(client=1)])

    def test_simulation_rejects_negative_client_id(self):
        # A replay client is the one client type that can carry a
        # negative id (TrafficGenerator rejects it itself).  AXI-IC^RT
        # would silently alias it to client n-1's FIFO.
        for name in ("BlueScale", "AXI-IC^RT"):
            interconnect = build_interconnect(name, 4, {0: TaskSet()})
            with pytest.raises(ConfigurationError, match="client id -1"):
                SoCSimulation([TraceReplayClient(-1, [])], interconnect)

    def test_replay_overflow_counts_drops(self):
        records = [record(release=0, address=64 * i) for i in range(5)]
        client = TraceReplayClient(0, records, pending_capacity=2)
        client.tick(0, lambda request, cycle: False)
        assert client.dropped_requests == 3
        assert client.pending_count == 2


class TestReplayDeterminism:
    def test_two_replays_identical(self):
        taskset = TaskSet([PeriodicTask(period=50, wcet=2, name="t", client_id=0)])
        clients = [TrafficGenerator(0, taskset)]
        SoCSimulation(clients, BlueScaleInterconnect(4)).run(500, drain=500)
        records = trace_from_clients(clients)

        def run():
            replay = [TraceReplayClient(0, list(records))]
            return SoCSimulation(replay, BlueScaleInterconnect(4)).run(
                500, drain=500
            )

        a, b = run(), run()
        assert a.recorder.response_times == b.recorder.response_times


class TestReplayFastPath:
    """Replay speaks the quiescence contract, so it leaps on every design
    and the fast path stays bit-identical to the cycle-by-cycle oracle."""

    N_CLIENTS = 8
    HORIZON = 3_000
    DRAIN = 300

    def test_fast_path_matches_reference_on_every_design(self):
        tasksets = generate_client_tasksets(random.Random(11), self.N_CLIENTS, 2, 0.5)
        generators = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        SoCSimulation(generators, BlueScaleInterconnect(self.N_CLIENTS)).run(
            self.HORIZON, drain=2_000
        )
        per_client = split_by_client(trace_from_clients(generators))
        for name in INTERCONNECT_NAMES:
            results = []
            for fast in (True, False):
                # A two-entry queue overflows on multi-request releases.
                replay = [
                    TraceReplayClient(c, recs, pending_capacity=2)
                    for c, recs in per_client.items()
                ]
                interconnect = build_interconnect(name, self.N_CLIENTS, tasksets)
                results.append(
                    SoCSimulation(replay, interconnect, fast_path=fast).run(
                        self.HORIZON, drain=self.DRAIN
                    )
                )
            fast_result, slow = results
            assert fast_result.trace_digest == slow.trace_digest, name
            assert fast_result.job_outcomes == slow.job_outcomes, name
            ledger = [
                (r.requests_released, r.requests_completed,
                 r.requests_dropped, r.requests_in_flight)
                for r in results
            ]
            assert ledger[0] == ledger[1], name
            released, completed, dropped, in_flight = ledger[0]
            assert dropped > 0 and completed > 0, name
            assert completed + dropped + in_flight == released, name
            # Leaps happen before the horizon too, not only in the drain.
            assert fast_result.cycles_skipped > self.DRAIN, name
            assert slow.cycles_skipped == 0, name
