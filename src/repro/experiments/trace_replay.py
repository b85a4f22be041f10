"""Replay one fig6/fig7 trial with request tracing enabled.

The experiment trial functions (:func:`repro.experiments.fig6.run_fig6_trial`,
:func:`repro.experiments.fig7.run_fig7_trial`) are pure functions of their
spec, so any trial can be reconstructed after the fact: narrow the same
spec to one design, switch the config's ``observability`` on with a ring
large enough to hold the full span stream, and build the simulation with
the experiment's own build function
(:func:`~repro.experiments.fig6.fig6_build`,
:func:`~repro.experiments.fig7.fig7_build`).  The replay's completion-trace
digest equals the original trial's ``{name}/trace`` tag (tracing is
observation-only; the differential tests assert this on every design),
which is what makes ``repro trace`` trustworthy: the timeline it prints is
from *the* fig6/fig7 run, not a lookalike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.fig6 import Fig6Config, build_fig6_specs, fig6_build
from repro.experiments.fig7 import Fig7Config, build_fig7_specs, fig7_build
from repro.observability import ObservabilityConfig, Tracer

#: default replay ring: big enough that a CLI-scale trial never evicts,
#: so the worst-blocking request's full journey is reconstructable
DEFAULT_REPLAY_RING = 1 << 20


@dataclass(frozen=True)
class TracedTrial:
    """A replayed trial plus the tracer that observed it."""

    experiment: str
    trial: int
    interconnect: str
    tracer: Tracer
    trace_digest: str


def _replay(
    experiment: str,
    build_specs: Callable,
    build: Callable,
    config,  # noqa: ANN001 - Fig6Config | Fig7Config
    trial: int,
    interconnect: str,
    ring_capacity: int,
    sample_every: int,
) -> TracedTrial:
    """Build spec ``trial`` of ``config`` narrowed to one design, traced,
    with the experiment's own ``build``, and run it."""
    traced = replace(
        config,
        observability=ObservabilityConfig(ring_capacity, sample_every),
    )
    specs = build_specs(traced, (interconnect,))
    if not 0 <= trial < len(specs):
        raise ConfigurationError(
            f"trial {trial} out of range: config builds {len(specs)} specs"
        )
    _, (simulation,), horizon, drain = build(specs[trial])
    result = simulation.run(horizon, drain=drain)
    return TracedTrial(
        experiment=experiment,
        trial=trial,
        interconnect=interconnect,
        tracer=simulation.tracer,
        trace_digest=result.trace_digest,
    )


def trace_fig6_trial(
    config: Fig6Config = Fig6Config(),
    trial: int = 0,
    interconnect: str = "BlueScale",
    ring_capacity: int = DEFAULT_REPLAY_RING,
    sample_every: int = 1,
) -> TracedTrial:
    """Re-run fig6 trial ``trial`` against one design, traced."""
    return _replay(
        "fig6",
        build_fig6_specs,
        fig6_build,
        config,
        trial,
        interconnect,
        ring_capacity,
        sample_every,
    )


def trace_fig7_trial(
    config: Fig7Config = Fig7Config(),
    trial: int = 0,
    interconnect: str = "BlueScale",
    ring_capacity: int = DEFAULT_REPLAY_RING,
    sample_every: int = 1,
) -> TracedTrial:
    """Re-run fig7 spec ``trial`` against one design, traced.

    ``trial`` indexes the spec list built by ``build_fig7_specs`` (one
    spec per utilization × trial pair, in sweep order); narrow
    ``config.utilizations`` to a single point to address trials within
    one utilization level directly.
    """
    return _replay(
        "fig7",
        build_fig7_specs,
        fig7_build,
        config,
        trial,
        interconnect,
        ring_capacity,
        sample_every,
    )
