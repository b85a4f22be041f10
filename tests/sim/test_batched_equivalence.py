"""Differential tests: batched SoA backend vs. the scalar engine.

Every interconnect design is simulated on the same randomized workload
three ways — through :func:`repro.sim.batched.run_many` (lock-step
numpy kernels), on the scalar engine with the quiescence fast path,
and on the literal cycle-by-cycle reference — and all three must be
*bit-for-bit identical*: same completion-trace digest, same recorder
contents, same job outcomes, same conservation counters.

This is the safety net for the entire batched backend: any vectorized
stage that reorders an arbitration decision, drops a blocking charge,
or mistimes a release by one cycle shows up here as a digest mismatch.
The executor-level test at the bottom closes the loop end to end:
campaign results through :class:`ParallelExecutor` are identical
across worker counts on the batched backend.
"""

from __future__ import annotations

import random

import pytest

from repro.clients.accelerator import AcceleratorClient
from repro.clients.traffic_generator import TrafficGenerator
from repro.experiments.factory import INTERCONNECT_NAMES, build_interconnect
from repro.sim import batched_supported, run_many
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets

HORIZON = 1_200
DRAIN = 600


def build_sim(
    name: str,
    n_clients: int,
    utilization: float,
    seed: int,
    *,
    accelerator: bool = False,
    fast: bool = True,
) -> SoCSimulation:
    """One fresh trial setup; equal arguments build identical trials."""
    rng = random.Random(seed)
    tasksets = generate_client_tasksets(
        rng,
        n_clients=n_clients,
        tasks_per_client=3,
        system_utilization=utilization,
    )
    interconnect = build_interconnect(name, n_clients, tasksets)
    clients: list = [
        TrafficGenerator(
            client_id, tasksets[client_id], rng=random.Random(9_000 + seed + client_id)
        )
        for client_id in range(n_clients - 1 if accelerator else n_clients)
    ]
    if accelerator:
        clients.append(
            AcceleratorClient(
                n_clients - 1,
                tasksets[n_clients - 1],
                bandwidth_cap=1.0 / n_clients,
                rng=random.Random(7 + seed),
            )
        )
    return SoCSimulation(clients, interconnect, fast_path=fast)


def snapshot(sim: SoCSimulation, result) -> dict:
    """Everything observable about one finished trial."""
    recorder = sim.recorder
    return {
        "digest": result.trace_digest,
        "response_times": list(recorder.response_times),
        "blocking_times": list(recorder.blocking_times),
        "completed": recorder.completed,
        "missed": recorder.missed,
        "dropped": recorder.dropped,
        "job_outcomes": result.job_outcomes,
        "released": result.requests_released,
        "requests_completed": result.requests_completed,
        "requests_dropped": result.requests_dropped,
        "in_flight": result.requests_in_flight,
        "mean_blocking": result.mean_blocking,
        "miss_ratio": result.deadline_miss_ratio,
        "span": result.cycles_executed + result.cycles_skipped,
    }


def assert_matches_scalar(
    name: str,
    n_clients: int,
    utilization: float,
    seeds: list[int],
    *,
    accelerator: bool = False,
    slow_reference: bool = False,
) -> None:
    """One batched run over ``seeds`` vs one scalar run per seed."""
    batch = [
        build_sim(name, n_clients, utilization, seed, accelerator=accelerator)
        for seed in seeds
    ]
    assert all(batched_supported(sim) for sim in batch), name
    batched = run_many(batch, HORIZON, drain=DRAIN, backend="batched")
    for seed, sim, result in zip(seeds, batch, batched):
        scalar_sim = build_sim(
            name, n_clients, utilization, seed, accelerator=accelerator
        )
        scalar = scalar_sim.run(HORIZON, drain=DRAIN)
        label = f"{name}/n={n_clients}/u={utilization}/seed={seed}"
        assert snapshot(sim, result) == snapshot(scalar_sim, scalar), label
        if slow_reference:
            slow_sim = build_sim(
                name,
                n_clients,
                utilization,
                seed,
                accelerator=accelerator,
                fast=False,
            )
            slow = slow_sim.run(HORIZON, drain=DRAIN)
            assert snapshot(sim, result) == snapshot(slow_sim, slow), label


@pytest.mark.parametrize("name", INTERCONNECT_NAMES)
@pytest.mark.parametrize("n_clients", [16, 32, 64])
def test_batched_identical_to_scalar(name, n_clients):
    """Batched ≡ scalar-fast for every design at three system sizes,
    low and high utilization, multiple seeds per batch."""
    for utilization in (0.15, 0.65):
        assert_matches_scalar(name, n_clients, utilization, [11, 42, 77])


@pytest.mark.parametrize("name", INTERCONNECT_NAMES)
def test_batched_identical_to_slow_reference(name):
    """Batched ≡ the literal cycle-by-cycle loop (``fast_path=False``):
    the equivalence chain does not lean on the fast path's own proofs."""
    assert_matches_scalar(name, 16, 0.45, [5, 23], slow_reference=True)


@pytest.mark.parametrize("name", INTERCONNECT_NAMES)
def test_batched_with_accelerator_client(name):
    """The Fig. 7 population (bandwidth-capped accelerator) batches
    identically — the interval-gated injection path is exercised — on
    every design, and at 64 clients and low utilization (where the fast
    path leaps most) all three engines agree."""
    assert_matches_scalar(name, 16, 0.4, [3, 14], accelerator=True)
    assert_matches_scalar(
        name, 64, 0.1, [3], accelerator=True, slow_reference=True
    )


def test_mixed_designs_one_call(kernel_groups):
    """One ``run_many`` over all six designs at once: trials sharing a
    client roster run as one lock-step group, each on its own design's
    kernel."""
    seeds = [1, 2]
    sims = [
        build_sim(name, 16, 0.3, seed)
        for name in INTERCONNECT_NAMES
        for seed in seeds
    ]
    results = run_many(sims, HORIZON, drain=DRAIN, backend="batched")
    assert kernel_groups == [len(sims)]
    at = 0
    for name in INTERCONNECT_NAMES:
        for seed in seeds:
            scalar_sim = build_sim(name, 16, 0.3, seed)
            scalar = scalar_sim.run(HORIZON, drain=DRAIN)
            assert (
                snapshot(sims[at], results[at])
                == snapshot(scalar_sim, scalar)
            ), f"{name}/seed={seed}"
            at += 1


def test_scalar_backend_runs_the_scalar_engine():
    """``backend="scalar"`` is the oracle: plain ``sim.run`` per trial."""
    sims = [build_sim("BlueScale", 16, 0.3, seed) for seed in (1, 2)]
    via_run_many = run_many(sims, HORIZON, drain=DRAIN, backend="scalar")
    for seed, sim, result in zip((1, 2), sims, via_run_many):
        scalar_sim = build_sim("BlueScale", 16, 0.3, seed)
        scalar = scalar_sim.run(HORIZON, drain=DRAIN)
        assert snapshot(sim, result) == snapshot(scalar_sim, scalar)
        # the scalar path really ran the engine (fast path leaps)
        assert result.cycles_skipped > 0 or result.cycles_executed > 0


def test_executor_results_identical_across_worker_counts(kernel_groups):
    """Fig. 6 campaign outcomes are bit-identical on the batched engine
    for --workers 1, 2 and 3 (and equal to the scalar oracle)."""
    from repro.experiments.fig6 import Fig6Config, build_fig6_specs, run_fig6_trial
    from repro.runtime import make_executor

    config = Fig6Config(trials=4, horizon=1_500, drain=500)
    specs = build_fig6_specs(config)

    def fingerprint(sim_backend, workers):
        outcomes = make_executor(workers, sim_backend).map(
            run_fig6_trial, specs
        )
        return [(o.metrics.scalars, o.metrics.tags, o.error) for o in outcomes]

    batched_runs = [fingerprint("batched", workers) for workers in (1, 2, 3)]
    assert kernel_groups, "the in-process batched leg never reached a kernel"
    kernel_groups.clear()
    oracle = fingerprint("scalar", 1)
    assert not kernel_groups, "the scalar oracle ran on the kernels"
    assert batched_runs[0] == batched_runs[1] == batched_runs[2]
    assert batched_runs[0] == oracle
