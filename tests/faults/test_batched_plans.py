"""Fault plans under the batched simulator backend.

A rogue burst's firings are deterministic extra releases, so a fault
plan compiles straight into the
:class:`~repro.sim.batched.extract.TrialPlan` request schedule:

* a plan stays eligible, runs on the SoA path, and must be bit-for-bit
  identical to the scalar orchestrator: same trace digest, same job
  outcomes, same fault counters, same per-client job ledgers (the edge
  plans are also held to the cycle-by-cycle reference);
* an **empty** plan is inert by definition, stays eligible, and must
  be indistinguishable from a run with no fault instrumentation.
"""

from __future__ import annotations

import random

import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.experiments.factory import build_interconnect
from repro.experiments.isolation import ISOLATION_INTERCONNECTS
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim import batched_supported, run_many
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets

N_CLIENTS = 8
HORIZON = 1_500
DRAIN = 700


def build_sim(
    name: str, seed: int, faults: FaultPlan | None, fast_path: bool = True
) -> SoCSimulation:
    rng = random.Random(seed)
    tasksets = generate_client_tasksets(
        rng,
        n_clients=N_CLIENTS,
        tasks_per_client=3,
        system_utilization=0.45,
    )
    interconnect = build_interconnect(name, N_CLIENTS, tasksets)
    clients = [
        TrafficGenerator(c, ts, rng=random.Random(seed * 17 + c))
        for c, ts in tasksets.items()
    ]
    return SoCSimulation(
        clients, interconnect, fast_path=fast_path, faults=faults
    )


def fingerprint(result) -> tuple:
    return (
        result.trace_digest,
        result.job_outcomes,
        result.requests_released,
        result.requests_completed,
        result.requests_dropped,
        dict(result.fault_counters),
    )


def client_ledger(client) -> tuple:
    """Everything the scalar run leaves on a client that downstream
    consumers (verify_isolation, the isolation fold) read back."""
    return (
        [
            (
                job.task_name,
                job.release,
                job.deadline,
                job.outstanding,
                job.monitored,
                job.last_completion,
                job.dropped,
            )
            for job in client.jobs
        ],
        dict(client.max_response_by_task),
        client.max_blocking,
        client.released_requests,
        client.dropped_requests,
        client.released_jobs,
    )


@pytest.mark.parametrize("name", ISOLATION_INTERCONNECTS)
def test_rogue_client_campaign_identical_across_designs(name):
    """The isolation campaign's aggressor plan runs on the SoA kernels
    and stays bit-identical on every campaign design — digests, job
    outcomes, fault counters, and the per-client job ledgers the
    isolation harness reads."""
    plan = FaultPlan.rogue_client(
        0, 300, HORIZON, burst_size=16, burst_every=80
    )
    sims = [build_sim(name, seed, plan) for seed in (3, 4)]
    assert all(batched_supported(sim) for sim in sims), name
    results = run_many(sims, HORIZON, drain=DRAIN, backend="batched")
    for seed, sim, result in zip((3, 4), sims, results):
        # cycles_skipped == 0 certifies the SoA path ran (the scalar
        # fast path leaps over idle stretches at this utilization)
        assert result.cycles_skipped == 0, name
        oracle_sim = build_sim(name, seed, plan)
        oracle = oracle_sim.run(HORIZON, drain=DRAIN)
        assert fingerprint(result) == fingerprint(oracle), name
        assert result.fault_counters.get("rogue_requests", 0) > 0, name
        for batched_client, scalar_client in zip(
            sim.clients, oracle_sim.clients
        ):
            assert client_ledger(batched_client) == client_ledger(
                scalar_client
            ), (name, seed, batched_client.client_id)


EDGE_PLANS = {
    # several events, overlapping cycles, two distinct targets — pins
    # the faults-stage-before-clients and event-heap-pop ordering
    "multi-event": FaultPlan(
        (
            FaultEvent(
                cycle=200,
                duration=400,
                client_id=2,
                magnitude=8,
                period=60,
                deadline_slack=12,
            ),
            FaultEvent(
                cycle=200,
                client_id=5,
                magnitude=24,
                deadline_slack=30,
            ),
            FaultEvent(
                cycle=450,
                client_id=2,
                magnitude=6,
                deadline_slack=9,
            ),
        )
    ),
    # a target port with no client attached → events_ignored, plus a
    # real firing on the same plan
    "missing-target": FaultPlan(
        (
            FaultEvent(
                cycle=100,
                client_id=99,
                magnitude=4,
                deadline_slack=10,
            ),
            FaultEvent(
                cycle=150,
                client_id=1,
                magnitude=4,
                deadline_slack=10,
            ),
        )
    ),
    # fires during the drain window: releases into the pending queue
    # but the client stage never injects past the horizon, so the
    # burst ends the trial in flight
    "post-horizon": FaultPlan(
        (
            FaultEvent(
                cycle=HORIZON + 100,
                client_id=3,
                magnitude=5,
                deadline_slack=7,
            ),
        )
    ),
    # burst far beyond pending capacity → overflow drops counted
    # against the client, like any other release
    "capacity-overflow": FaultPlan(
        (
            FaultEvent(
                cycle=50,
                client_id=0,
                magnitude=500,
                deadline_slack=600,
            ),
        )
    ),
}


@pytest.mark.parametrize("label", sorted(EDGE_PLANS))
def test_rogue_edge_plans_identical(label):
    plan = EDGE_PLANS[label]
    sims = [build_sim("BlueScale", seed, plan) for seed in (3, 4)]
    assert all(batched_supported(sim) for sim in sims), label
    results = run_many(sims, HORIZON, drain=DRAIN, backend="batched")
    for seed, sim, result in zip((3, 4), sims, results):
        oracle_sim = build_sim("BlueScale", seed, plan)
        oracle = oracle_sim.run(HORIZON, drain=DRAIN)
        assert fingerprint(result) == fingerprint(oracle), (label, seed)
        assert result.requests_in_flight == oracle.requests_in_flight
        # the cycle-by-cycle reference agrees too: all three paths
        slow = build_sim("BlueScale", seed, plan, fast_path=False)
        assert fingerprint(slow.run(HORIZON, drain=DRAIN)) == fingerprint(
            oracle
        ), (label, seed)
        for batched_client, scalar_client in zip(
            sim.clients, oracle_sim.clients
        ):
            assert client_ledger(batched_client) == client_ledger(
                scalar_client
            ), (label, seed, batched_client.client_id)
    if label == "missing-target":
        assert results[0].fault_counters["events_ignored"] == 1
        assert results[0].fault_counters["events_applied"] == 1
    if label == "capacity-overflow":
        assert results[0].requests_dropped > 0


def test_unfaulted_ledgers_match_scalar():
    """The finalizer's ledger write-back is not rogue-specific: plain
    SoA trials leave the same client state a scalar run would."""
    for name in ("BlueScale", "AXI-IC^RT"):
        sim = build_sim(name, 7, None)
        (result,) = run_many([sim], HORIZON, drain=DRAIN, backend="batched")
        assert result.cycles_skipped == 0
        oracle_sim = build_sim(name, 7, None)
        oracle_sim.run(HORIZON, drain=DRAIN)
        for batched_client, scalar_client in zip(
            sim.clients, oracle_sim.clients
        ):
            assert client_ledger(batched_client) == client_ledger(
                scalar_client
            ), (name, batched_client.client_id)


def test_empty_plan_is_inert_on_the_soa_path():
    """An empty plan keeps the trial on the batched kernels and changes
    nothing: same digest as a run with no fault instrumentation, zero
    injected work, zero counters."""
    with_empty = build_sim("BlueScale", 5, FaultPlan.none())
    without = build_sim("BlueScale", 5, None)
    assert batched_supported(with_empty)
    assert batched_supported(without)
    result_empty, result_plain = run_many(
        [with_empty, without], HORIZON, drain=DRAIN, backend="batched"
    )
    # cycles_skipped == 0 certifies the SoA path ran (the scalar fast
    # path leaps over idle stretches at this utilization)
    assert result_empty.cycles_skipped == 0
    assert result_plain.cycles_skipped == 0
    assert result_empty.trace_digest == result_plain.trace_digest
    assert result_empty.job_outcomes == result_plain.job_outcomes
    assert all(v == 0 for v in result_empty.fault_counters.values())
    oracle = build_sim("BlueScale", 5, None).run(HORIZON, drain=DRAIN)
    assert result_plain.trace_digest == oracle.trace_digest
