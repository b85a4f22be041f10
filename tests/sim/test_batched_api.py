"""Edge cases of the :func:`repro.sim.run_many` batch seam itself.

The differential wall (``test_batched_equivalence``) pins the kernels;
these tests pin the *seam* — argument normalisation, input-order
preservation across the eligible/ineligible split, and ragged per-trial
horizons.  Campaign grids routinely hand over numpy scalars
(``np.int64`` from an ``np.arange`` sweep), which historically crashed
``run_many`` with ``TypeError: 'numpy.int64' object is not iterable``
because the scalar/sequence dispatch tested ``isinstance(value, int)``
only.  The regression tests here fail on that implementation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.errors import ConfigurationError
from repro.experiments.ablation import VARIANTS, build_variant
from repro.experiments.factory import build_interconnect
from repro.sim import batched_supported, run_many
from repro.scenarios.plan import ScenarioPlan
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets

HORIZON = 1_000
DRAIN = 500

#: makes a trial ineligible for the SoA path (workload churn)
CHURN = ScenarioPlan.generate(2, 800, 4)


def build_sim(seed: int, scenario: ScenarioPlan | None = None) -> SoCSimulation:
    """One fresh BlueScale trial; equal seeds build identical trials."""
    rng = random.Random(seed)
    tasksets = generate_client_tasksets(
        rng, n_clients=4, tasks_per_client=3, system_utilization=0.5
    )
    interconnect = build_interconnect("BlueScale", 4, tasksets)
    clients = [
        TrafficGenerator(c, ts, rng=random.Random(7_000 + seed + c))
        for c, ts in tasksets.items()
    ]
    return SoCSimulation(clients, interconnect, scenario=scenario)


def fingerprint(result) -> tuple:
    return (
        result.horizon,
        result.trace_digest,
        result.job_outcomes,
        result.requests_released,
        result.requests_completed,
    )


@pytest.mark.parametrize("backend", ["batched", "scalar"])
def test_numpy_integer_horizon_regression(backend):
    """A single ``np.int64`` horizon/drain must behave exactly like the
    equivalent python ints on both backends (regression: the scalar
    value fell through to the sequence branch and raised TypeError)."""
    results = run_many(
        [build_sim(1), build_sim(2)],
        np.int64(HORIZON),
        drain=np.int64(DRAIN),
        backend=backend,
    )
    for seed, result in zip((1, 2), results):
        oracle = build_sim(seed).run(HORIZON, drain=DRAIN)
        assert fingerprint(result) == fingerprint(oracle)


@pytest.mark.parametrize("backend", ["batched", "scalar"])
def test_numpy_array_per_trial_values_round_trip(backend):
    """Ragged per-trial horizons/drains as numpy arrays (whose
    elements are ``np.int64``) round-trip both backends bit-for-bit."""
    sims = [build_sim(seed) for seed in (1, 2, 3)]
    results = run_many(
        sims,
        np.array([HORIZON, 800, 1_200]),
        drain=np.array([DRAIN, 400, 600]),
        backend=backend,
    )
    oracles = [
        build_sim(1).run(HORIZON, drain=DRAIN),
        build_sim(2).run(800, drain=400),
        build_sim(3).run(1_200, drain=600),
    ]
    for result, oracle in zip(results, oracles):
        assert fingerprint(result) == fingerprint(oracle)


def test_bool_cycle_counts_rejected():
    """``bool`` is Integral but a True/False cycle count is always a
    bug — rejected loudly instead of silently running horizon=1."""
    with pytest.raises(ConfigurationError, match="bool"):
        run_many([build_sim(1)], True)
    with pytest.raises(ConfigurationError, match="bool"):
        run_many([build_sim(1)], HORIZON, drain=[True])


def test_wrong_length_per_trial_values_rejected():
    with pytest.raises(ConfigurationError, match="expected 2"):
        run_many([build_sim(1), build_sim(2)], [HORIZON])


def test_mixed_eligibility_preserves_order_and_horizons():
    """A batch interleaving SoA-eligible trials with scalar-fallback
    trials (scenario plans) comes back in input order, each trial
    honouring its own horizon."""
    sims = [
        build_sim(1),
        build_sim(2, scenario=CHURN),
        build_sim(3),
        build_sim(4, scenario=CHURN),
    ]
    eligibility = [batched_supported(sim) for sim in sims]
    assert eligibility == [True, False, True, False]
    horizons = [HORIZON, 800, 1_200, 900]
    results = run_many(
        sims, horizons, drain=DRAIN, backend="batched"
    )
    oracle_scenarios = [None, CHURN, None, CHURN]
    for seed, horizon, scenario, result in zip(
        (1, 2, 3, 4), horizons, oracle_scenarios, results
    ):
        oracle = build_sim(seed, scenario=scenario).run(horizon, drain=DRAIN)
        assert fingerprint(result) == fingerprint(oracle), seed
        if scenario is not None:
            assert result.scenario_counters["events_applied"] > 0, seed


#: ablation variants that swap a scale-element part the SoA kernel
#: hard-codes (nested EDF server selection, priority port buffers)
SUBSTITUTED_PARTS = ("round_robin", "fifo_buffers")


def build_variant_sim(variant: str) -> SoCSimulation:
    """One 16-client ablation trial; every variant sees one workload."""
    tasksets = generate_client_tasksets(
        random.Random(5), n_clients=16, tasks_per_client=3,
        system_utilization=0.85,
    )
    clients = [
        TrafficGenerator(c, ts, rng=random.Random(9_000 + c))
        for c, ts in tasksets.items()
    ]
    return SoCSimulation(clients, build_variant(variant, 16, tasksets))


@pytest.mark.parametrize("variant", VARIANTS)
def test_ablation_variants_batched_equals_scalar(variant):
    """A substituted scheduler or buffer takes the scalar engine instead
    of running the paper's EDF kernel in its place; every other variant
    stays on the kernel.  Either way the batched result is the scalar
    one."""
    assert batched_supported(build_variant_sim(variant)) == (
        variant not in SUBSTITUTED_PARTS
    )
    (batched,) = run_many(
        [build_variant_sim(variant)], 3_000, drain=1_000, backend="batched"
    )
    oracle = build_variant_sim(variant).run(3_000, drain=1_000)
    assert fingerprint(batched) == fingerprint(oracle)
