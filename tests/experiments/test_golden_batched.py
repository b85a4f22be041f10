"""Golden regression for the batched campaign path.

The golden-trace fixtures (test_golden_traces.py) pin the *scalar*
per-trial runners.  This suite pins the other half of the tentpole:
the same small fig6/fig7 configurations — plus the fault-injection
isolation campaign, whose rogue-burst plans compile into the SoA
request schedule — executed through the **batch entry points**
(``run_fig6_batch`` / ``run_fig7_batch`` / ``run_isolation_batch``)
on the batched backend: every scalar metric and every
completion-trace digest, per trial, in
``tests/fixtures/golden_batched_metrics.json``.

Because the batched backend is bit-identical to the scalar engine, the
digests in this fixture must also equal the ones pinned in
``golden_traces.json`` — asserted below as a cross-fixture consistency
check, so the two fixtures can never drift apart silently.

Regenerate (together with the scalar fixture) after a deliberate
behavioural change::

    PYTHONPATH=src python scripts/regen_golden.py traces
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.fig6 import build_fig6_specs, run_fig6_batch
from repro.experiments.fig7 import build_fig7_specs, run_fig7_batch
from repro.experiments.isolation import (
    IsolationConfig,
    build_isolation_specs,
    run_isolation_batch,
)
from tests.experiments.test_golden_traces import (
    GOLDEN_PATH,
    fig6_config,
    fig7_config,
)

GOLDEN_BATCHED_PATH = (
    Path(__file__).resolve().parent.parent
    / "fixtures"
    / "golden_batched_metrics.json"
)

REGEN_HINT = (
    "golden batched-campaign mismatch — if the behaviour change is "
    "intentional, regenerate with: "
    "PYTHONPATH=src python scripts/regen_golden.py traces"
)


def isolation_config() -> IsolationConfig:
    """The pinned isolation campaign: small, but with real rogue work."""
    return IsolationConfig(trials=2, horizon=2_000, drain=800)


def collect_batched_metrics() -> dict:
    """Run the pinned configurations through the batch entry points,
    on the engine fresh specs carry (the default: batched)."""
    fig6_sets = run_fig6_batch(build_fig6_specs(fig6_config()))
    fig7_sets = run_fig7_batch(build_fig7_specs(fig7_config()))
    isolation_sets = run_isolation_batch(
        build_isolation_specs(isolation_config())
    )
    return {
        "fig6": [
            {"scalars": dict(ms.scalars), "tags": dict(ms.tags)}
            for ms in fig6_sets
        ],
        "fig7": [
            {"scalars": dict(ms.scalars), "tags": dict(ms.tags)}
            for ms in fig7_sets
        ],
        "isolation": [
            {"scalars": dict(ms.scalars), "tags": dict(ms.tags)}
            for ms in isolation_sets
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_BATCHED_PATH.exists(), (
        f"missing fixture {GOLDEN_BATCHED_PATH}; {REGEN_HINT}"
    )
    return json.loads(GOLDEN_BATCHED_PATH.read_text())


@pytest.fixture(scope="module")
def observed() -> dict:
    return collect_batched_metrics()


def test_batched_campaign_matches_golden(golden, observed):
    for experiment in ("fig6", "fig7", "isolation"):
        assert observed[experiment] == golden[experiment], (
            f"{experiment}: {REGEN_HINT}"
        )


def test_batched_digests_equal_scalar_golden_traces(golden):
    """Cross-fixture consistency: the batched campaign's trace digests
    are the very digests the scalar golden fixture pins."""
    scalar_digests = json.loads(GOLDEN_PATH.read_text())["digests"]
    for entry in golden["fig6"]:
        trial = entry["tags"]["trial"]
        for key, value in entry["tags"].items():
            if key.endswith("/trace"):
                assert (
                    scalar_digests[f"fig6/trial{trial}/{key[:-6]}"] == value
                ), REGEN_HINT
    for entry in golden["fig7"]:
        utilization = entry["tags"]["utilization"]
        for key, value in entry["tags"].items():
            if key.endswith("/trace"):
                assert (
                    scalar_digests[f"fig7/u{utilization}/{key[:-6]}"] == value
                ), REGEN_HINT


def test_golden_batched_fixture_is_well_formed(golden):
    # Two fig6 trials; two fig7 utilization points; six designs each.
    assert len(golden["fig6"]) == 2
    assert len(golden["fig7"]) == 2
    for entry in golden["fig6"] + golden["fig7"]:
        traces = [k for k in entry["tags"] if k.endswith("/trace")]
        assert len(traces) == 6
        assert all(len(entry["tags"][k]) == 64 for k in traces)
        assert all(
            isinstance(v, float) for v in entry["scalars"].values()
        )
    # Two isolation trials; four designs, each with a baseline and a
    # faulted digest — and a rogue aggressor that actually injected.
    assert len(golden["isolation"]) == 2
    for entry in golden["isolation"]:
        bases = [k for k in entry["tags"] if k.endswith("/trace_base")]
        faults = [k for k in entry["tags"] if k.endswith("/trace_fault")]
        assert len(bases) == len(faults) == 4
        assert all(
            len(entry["tags"][k]) == 64 for k in bases + faults
        )
        assert all(
            entry["scalars"][f"{k[: -len('/trace_base')]}/rogue_requests"] > 0
            for k in bases
        )
        assert entry["scalars"]["BlueScale/bound_violations"] == 0.0
