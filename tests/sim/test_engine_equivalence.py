"""Differential tests: quiescence fast path vs. cycle-by-cycle reference.

Every interconnect design is simulated twice on the same randomized
workload — once with the engine's quiescence fast path (and the
stages' fast-tick elision) enabled, once with ``fast_path=False``
forcing the literal per-cycle loop — and the two runs must be
*bit-for-bit identical*: same completion trace (request ids, cycles,
blocking charges), same recorder contents, same job outcomes.

This is the safety net for every optimization behind ``fast_path``:
a leap or an elided tick that changes any observable behaviour shows
up here as a digest mismatch with the exact first diverging record.
"""

from __future__ import annotations

import random

import pytest

from repro.clients.accelerator import AcceleratorClient
from repro.clients.traffic_generator import TrafficGenerator
from repro.experiments.factory import INTERCONNECT_NAMES, build_interconnect
from repro.memory.controller import MemoryController
from repro.memory.dram import FixedLatencyDevice
from repro.soc import SoCSimulation, TrialResult, _ResponseStage
from repro.tasks.generators import generate_client_tasksets

N_CLIENTS = 5
HORIZON = 4_000
DRAIN = 2_000


def _build_clients(tasksets, *, accelerator: bool):
    """One TrafficGenerator per taskset; optionally the last client is
    a bandwidth-capped accelerator (the Fig. 7 HA configuration)."""
    clients = []
    regular = N_CLIENTS - 1 if accelerator else N_CLIENTS
    for client_id in range(regular):
        clients.append(
            TrafficGenerator(
                client_id,
                tasksets[client_id],
                rng=random.Random(9_000 + client_id),
            )
        )
    if accelerator:
        clients.append(
            AcceleratorClient(
                N_CLIENTS - 1,
                tasksets[N_CLIENTS - 1],
                bandwidth_cap=1.0 / N_CLIENTS,
                rng=random.Random(7),
            )
        )
    return clients


def _run_once(
    name: str,
    utilization: float,
    *,
    fast: bool,
    seed: int,
    accelerator: bool = True,
    controller_factory=None,
) -> tuple[TrialResult, list, list]:
    """One trial; returns (result, trace records, recorder snapshot).

    The raw completion records are captured by wrapping the response
    stage's trace hook, so a divergence points at the exact first
    differing completion instead of just a digest mismatch.
    """
    rng = random.Random(seed)
    tasksets = generate_client_tasksets(
        rng,
        n_clients=N_CLIENTS,
        tasks_per_client=3,
        system_utilization=utilization,
    )
    interconnect = build_interconnect(name, N_CLIENTS, tasksets)
    clients = _build_clients(tasksets, accelerator=accelerator)
    controller = controller_factory() if controller_factory else None
    simulation = SoCSimulation(
        clients, interconnect, controller=controller, fast_path=fast
    )

    records: list[str] = []
    original = _ResponseStage._trace_record

    def capture(request):
        record = original(request)
        records.append(record)
        return record

    _ResponseStage._trace_record = staticmethod(capture)
    try:
        result = simulation.run(HORIZON, drain=DRAIN)
    finally:
        _ResponseStage._trace_record = staticmethod(original)
    recorder = simulation.recorder
    snapshot = [
        recorder.response_times,
        recorder.blocking_times,
        recorder.completed,
        recorder.missed,
        recorder.dropped,
    ]
    return result, records, snapshot


def _assert_identical(name: str, fast_run, slow_run) -> None:
    fast_result, fast_records, fast_recorder = fast_run
    slow_result, slow_records, slow_recorder = slow_run
    # Pinpoint the first diverging completion before the digest check.
    for index, (fast_rec, slow_rec) in enumerate(
        zip(fast_records, slow_records)
    ):
        assert fast_rec == slow_rec, (
            f"{name}: completion {index} diverged:\n"
            f"  fast: {fast_rec}\n  slow: {slow_rec}"
        )
    assert len(fast_records) == len(slow_records), name
    assert fast_result.trace_digest == slow_result.trace_digest, name
    assert fast_recorder == slow_recorder, name
    assert fast_result.job_outcomes == slow_result.job_outcomes, name
    assert fast_result.requests_released == slow_result.requests_released
    assert fast_result.requests_completed == slow_result.requests_completed
    assert fast_result.requests_dropped == slow_result.requests_dropped
    assert fast_result.mean_blocking == slow_result.mean_blocking
    assert fast_result.deadline_miss_ratio == slow_result.deadline_miss_ratio
    # The reference path never leaps; the fast path is free to.
    assert slow_result.cycles_skipped == 0
    assert (
        fast_result.cycles_executed + fast_result.cycles_skipped
        == slow_result.cycles_executed
    )


@pytest.mark.parametrize("name", INTERCONNECT_NAMES)
@pytest.mark.parametrize("utilization", [0.1, 0.6])
def test_fast_path_identical_to_reference(name, utilization):
    """Fast- and slow-path runs of every design are bit-for-bit equal."""
    fast_run = _run_once(name, utilization, fast=True, seed=1234)
    slow_run = _run_once(name, utilization, fast=False, seed=1234)
    _assert_identical(name, fast_run, slow_run)


@pytest.mark.parametrize("name", INTERCONNECT_NAMES)
def test_fast_path_actually_leaps_when_idle(name):
    """At low utilization the fast path must skip a substantial share
    of cycles — otherwise the equivalence tests above test nothing."""
    result, _, _ = _run_once(name, 0.1, fast=True, seed=1234)
    assert result.cycles_skipped > 0, name
    total = result.cycles_executed + result.cycles_skipped
    assert total == HORIZON + DRAIN
    assert result.cycles_skipped / total > 0.2, name


@pytest.mark.parametrize("seed", [11, 42, 77])
def test_randomized_workloads_all_designs(seed):
    """Fresh workload draws (different seeds) stay equivalent on every
    design at a mid utilization."""
    for name in INTERCONNECT_NAMES:
        fast_run = _run_once(name, 0.4, fast=True, seed=seed)
        slow_run = _run_once(name, 0.4, fast=False, seed=seed)
        _assert_identical(f"{name}/seed={seed}", fast_run, slow_run)


@pytest.mark.parametrize("name", ["BlueScale", "AXI-IC^RT", "GSMTree-FBSP"])
def test_equivalence_with_multicycle_device(name):
    """A three-cycle device behind a short controller queue exercises
    the controller's completion activity declaration and backpressure."""

    def controller():
        return MemoryController(FixedLatencyDevice(3), queue_capacity=4)

    fast_run = _run_once(
        name, 0.3, fast=True, seed=2024, controller_factory=controller
    )
    slow_run = _run_once(
        name, 0.3, fast=False, seed=2024, controller_factory=controller
    )
    _assert_identical(f"{name}+3-cycle device", fast_run, slow_run)
    assert fast_run[0].cycles_skipped > 0


@pytest.mark.parametrize("name", ["BlueScale", "BlueTree"])
def test_equivalence_without_accelerator(name):
    """Pure TrafficGenerator population (the Fig. 6 configuration)."""
    fast_run = _run_once(
        name, 0.2, fast=True, seed=555, accelerator=False
    )
    slow_run = _run_once(
        name, 0.2, fast=False, seed=555, accelerator=False
    )
    _assert_identical(f"{name}/no-ha", fast_run, slow_run)


def test_fast_path_identical_with_client_queue_overflow():
    """Clients that drop on queue overflow leap on every design, and
    the fast path stays bit-identical to the cycle-by-cycle reference.
    No other equivalence test makes a client drop."""
    n_clients, horizon, drain = 8, 3_000, 300
    tasksets = generate_client_tasksets(random.Random(11), n_clients, 2, 0.5)
    for name in INTERCONNECT_NAMES:
        results = []
        for fast in (True, False):
            # A two-entry queue overflows on multi-request releases.
            clients = [
                TrafficGenerator(c, ts, pending_capacity=2)
                for c, ts in tasksets.items()
            ]
            interconnect = build_interconnect(name, n_clients, tasksets)
            results.append(
                SoCSimulation(clients, interconnect, fast_path=fast).run(
                    horizon, drain=drain
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
        assert fast_result.cycles_skipped > drain, name
        assert slow.cycles_skipped == 0, name
