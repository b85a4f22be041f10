"""Golden-trace regression tests for the Fig. 6 / Fig. 7 experiments.

Each experiment trial emits a sha256 digest over its completion stream
(request ids, release/completion cycles, blocking charges — see
``_ResponseStage._trace_record``).  The digests of a small, fixed
configuration are pinned in ``tests/fixtures/golden_traces.json``: any
change to scheduling, arbitration, client behaviour, or the engine's
fast path that alters even one completion shows up as a digest flip.

When a *deliberate* behavioural change invalidates the fixtures,
regenerate them with::

    PYTHONPATH=src python scripts/regen_golden.py traces

and review the diff alongside the change that caused it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.fig6 import (
    Fig6Config,
    build_fig6_specs,
    fig6_build,
    run_fig6_trial,
)
from repro.experiments.fig7 import Fig7Config, build_fig7_specs, run_fig7_trial

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "fixtures" / "golden_traces.json"
)

REGEN_HINT = (
    "golden trace mismatch — if the behaviour change is intentional, "
    "regenerate with: PYTHONPATH=src python scripts/regen_golden.py traces"
)


def fig6_config(**overrides) -> Fig6Config:
    """Small, fixed Fig. 6 draw (fast to run, stable by construction)."""
    params = dict(n_clients=8, trials=2, horizon=4_000, drain=2_000)
    params.update(overrides)
    return Fig6Config(**params)


def fig7_config(**overrides) -> Fig7Config:
    """Small, fixed Fig. 7 draw: 4 processors + the accelerator."""
    params = dict(
        n_processors=4,
        trials=1,
        horizon=4_000,
        drain=2_000,
        utilizations=(0.3, 0.6),
    )
    params.update(overrides)
    return Fig7Config(**params)


def collect_digests() -> dict[str, str]:
    """Run the pinned configurations and gather every trace digest."""
    digests: dict[str, str] = {}
    for spec in build_fig6_specs(fig6_config()):
        metrics = run_fig6_trial(spec)
        for key, value in sorted(metrics.tags.items()):
            if key.endswith("/trace"):
                digests[f"fig6/trial{spec.index}/{key[:-6]}"] = value
    for spec in build_fig7_specs(fig7_config()):
        metrics = run_fig7_trial(spec)
        utilization = spec.param("utilization")
        for key, value in sorted(metrics.tags.items()):
            if key.endswith("/trace"):
                digests[f"fig7/u{utilization}/{key[:-6]}"] = value
    return digests


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    assert GOLDEN_PATH.exists(), f"missing fixture {GOLDEN_PATH}; {REGEN_HINT}"
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_trace_digests_match_golden(golden):
    observed = collect_digests()
    assert observed.keys() == golden.keys(), REGEN_HINT
    mismatched = {
        key: (observed[key], golden[key])
        for key in golden
        if observed[key] != golden[key]
    }
    assert not mismatched, f"{REGEN_HINT}\n{mismatched}"


def test_reference_path_matches_golden(golden):
    """The cycle-by-cycle reference path reproduces the same traces:
    the fixture pins the *semantics*, not a fast-path artifact.

    One Fig. 6 trial is enough here (the full differential matrix lives
    in tests/sim/test_engine_equivalence.py)."""
    spec = build_fig6_specs(fig6_config(trials=1))[0]
    pairs, _, horizon, drain = fig6_build(spec)
    for name, simulation in pairs:
        simulation.fast_path = False
        result = simulation.run(horizon, drain=drain)
        assert golden[f"fig6/trial0/{name}"] == result.trace_digest, REGEN_HINT


def test_golden_fixture_is_well_formed():
    payload = json.loads(GOLDEN_PATH.read_text())
    digests = payload["digests"]
    # Two fig6 trials and two fig7 utilization points, six designs each.
    assert len([k for k in digests if k.startswith("fig6/")]) == 12
    assert len([k for k in digests if k.startswith("fig7/")]) == 12
    assert all(
        isinstance(v, str) and len(v) == 64 for v in digests.values()
    ), "digests must be sha256 hex strings"
