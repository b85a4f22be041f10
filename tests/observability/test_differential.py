"""Differential tests: tracing is observation-only on both engine paths.

The claim under test is ISSUE acceptance-grade: a traced trial produces
bit-for-bit the same completion-trace digest as an untraced one, on both
the quiescence fast path and the cycle-by-cycle path — and a traced
fast-path run records the *same span stream* as a traced slow-path run.
Workloads here are real fig6/fig7 trials (replayed through
``repro.experiments.trace_replay``, i.e. the experiments' own build
functions), on every design, just at CI-sized horizons.
"""

import dataclasses

import pytest

from repro.experiments.factory import INTERCONNECT_NAMES
from repro.experiments.fig6 import (
    Fig6Config,
    build_fig6_specs,
    fig6_build,
    run_fig6_trial,
)
from repro.experiments.fig7 import (
    Fig7Config,
    build_fig7_specs,
    fig7_build,
    run_fig7_trial,
)
from repro.experiments.trace_replay import (
    DEFAULT_REPLAY_RING,
    trace_fig6_trial,
    trace_fig7_trial,
)
from repro.observability import (
    ObservabilityConfig,
    load_spans_jsonl,
    validate_spans_jsonl,
)
from repro.runtime import SerialExecutor, make_executor

FIG7_CONFIG = Fig7Config(trials=1, horizon=1_500, drain=800, utilizations=(0.8,))
FIG6_CONFIG = Fig6Config(trials=1, horizon=1_500, drain=800)


def _reference_run(build, spec):
    """``spec``'s one simulation, built by the experiment's own
    ``build``, run on the cycle-by-cycle reference path."""
    _, (simulation,), horizon, drain = build(spec)
    simulation.fast_path = False
    return simulation, simulation.run(horizon, drain=drain)


def _spans(tracer):
    return [span.as_dict() for span in tracer.recorder.spans()]


def _traced(config, sample_every=1):
    return dataclasses.replace(
        config,
        observability=ObservabilityConfig(DEFAULT_REPLAY_RING, sample_every),
    )


def _assert_traced_equals_untraced(
    config, build_specs, build, run_trial, trace, name
):
    """Replay ≡ experiment trial on ``name``, on both engine paths, and
    both paths observe the same span stream."""
    untraced = run_trial(build_specs(config, (name,))[0]).tags[f"{name}/trace"]
    fast = trace(config, 0, name)
    _, slow_untraced = _reference_run(build, build_specs(config, (name,))[0])
    slow, slow_traced = _reference_run(
        build, build_specs(_traced(config), (name,))[0]
    )
    # tracing did not perturb the simulation, and both engine paths
    # agree — on results AND on the observed spans
    assert fast.trace_digest == untraced, name
    assert slow_untraced.trace_digest == untraced, name
    assert slow_traced.trace_digest == untraced, name
    assert _spans(fast.tracer) == _spans(slow.tracer), name
    assert _spans(fast.tracer), f"{name}: trial recorded no spans"


# every design: the replay shares the experiments' build functions, and
# the designs are exactly where a shared build function could drift
@pytest.mark.parametrize("name", INTERCONNECT_NAMES)
def test_fig7_traced_equals_untraced_on_both_paths(name):
    _assert_traced_equals_untraced(
        FIG7_CONFIG,
        build_fig7_specs,
        fig7_build,
        run_fig7_trial,
        trace_fig7_trial,
        name,
    )


def test_fig6_traced_equals_untraced_on_both_paths():
    for name in INTERCONNECT_NAMES:
        _assert_traced_equals_untraced(
            FIG6_CONFIG,
            build_fig6_specs,
            fig6_build,
            run_fig6_trial,
            trace_fig6_trial,
            name,
        )


def test_sampled_tracing_is_deterministic_across_paths():
    """Sampling counts issue attempts in rid order, so fast and slow
    runs must trace the identical request subset."""
    fast = trace_fig6_trial(FIG6_CONFIG, 0, "BlueScale", sample_every=5)
    slow, _ = _reference_run(
        fig6_build,
        build_fig6_specs(_traced(FIG6_CONFIG, 5), ("BlueScale",))[0],
    )
    assert _spans(fast.tracer) == _spans(slow.tracer)
    full = trace_fig6_trial(FIG6_CONFIG, 0, "BlueScale")
    sampled_rids = {span["rid"] for span in _spans(fast.tracer)}
    full_rids = {span.rid for span in full.tracer.recorder.spans()}
    assert sampled_rids < full_rids


def test_observability_flag_through_trial_function():
    """``Fig6Config(observability=True)`` folds obs scalars into the
    metric set without changing any measured result."""
    plain = run_fig6_trial(build_fig6_specs(FIG6_CONFIG, ("BlueScale",))[0])
    config = dataclasses.replace(FIG6_CONFIG, observability=True)
    traced = run_fig6_trial(build_fig6_specs(config, ("BlueScale",))[0])
    assert traced.tags["BlueScale/trace"] == plain.tags["BlueScale/trace"]
    assert traced.scalars["BlueScale/blocking"] == plain.scalars["BlueScale/blocking"]
    assert traced.scalars["BlueScale/miss"] == plain.scalars["BlueScale/miss"]
    obs = {k: v for k, v in traced.scalars.items() if "/obs/" in k}
    assert obs["BlueScale/obs/requests/traced"] > 0
    assert obs["BlueScale/obs/spans_dropped"] >= 0.0
    assert all(isinstance(v, float) for v in obs.values())


def test_observability_config_through_trial_function():
    """``Fig6Config(observability=ObservabilityConfig(...))`` is the
    replay's switch: a sampled tracer, same measured results."""
    plain = run_fig6_trial(build_fig6_specs(FIG6_CONFIG, ("BlueScale",))[0])
    config = dataclasses.replace(
        FIG6_CONFIG, observability=ObservabilityConfig(sample_every=5)
    )
    sampled = run_fig6_trial(build_fig6_specs(config, ("BlueScale",))[0])
    assert sampled.tags["BlueScale/trace"] == plain.tags["BlueScale/trace"]
    assert sampled.scalars["BlueScale/obs/requests/traced"] > 0
    assert sampled.scalars["BlueScale/obs/spans_emitted"] > 0


def test_obs_scalars_survive_process_fanout():
    """Traced trials fan out over processes bit-identically to serial."""
    config = dataclasses.replace(
        FIG6_CONFIG, trials=2, horizon=800, drain=400, observability=True
    )
    specs = build_fig6_specs(config, ("BlueScale",))
    serial = SerialExecutor().map(run_fig6_trial, specs, None)
    parallel = make_executor(2).map(run_fig6_trial, specs, None)
    for left, right in zip(serial, parallel):
        assert left.metrics == right.metrics


def test_trace_cli_reconstructs_timeline_and_validates_export(tmp_path, capsys):
    from repro.cli import main

    export = tmp_path / "spans.jsonl"
    code = main(
        [
            "trace",
            "--figure",
            "fig6",
            "--horizon",
            "1500",
            "--export",
            str(export),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "spans recorded" in out
    assert "hop waits:" in out
    assert "deliver" in out
    spans = load_spans_jsonl(export)
    assert spans
    assert validate_spans_jsonl(export) == len(spans)
