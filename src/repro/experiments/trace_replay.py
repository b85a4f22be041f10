"""Replay one fig6/fig7 trial with request tracing enabled.

The experiment trial functions (:func:`repro.experiments.fig6.run_fig6_trial`,
:func:`repro.experiments.fig7.run_fig7_trial`) are pure functions of their
spec, so any trial can be reconstructed after the fact: re-derive the same
spec, re-draw the same workload from the same seeds, and run the same
simulation — this time with a :class:`~repro.observability.Tracer` attached
and a ring large enough to hold the full span stream.  The replay's
completion-trace digest equals the original trial's ``{name}/trace`` tag
(tracing is observation-only; the differential tests assert this), which is
what makes ``repro trace`` trustworthy: the timeline it prints is from *the*
fig6/fig7 run, not a lookalike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.clients.accelerator import AcceleratorClient
from repro.clients.processor import ProcessorClient
from repro.errors import ConfigurationError
from repro.experiments.factory import build_interconnect, traffic_generators
from repro.experiments.fig6 import Fig6Config, build_fig6_specs
from repro.experiments.fig7 import (
    Fig7Config,
    _build_trial_tasksets,
    build_fig7_specs,
)
from repro.observability import ObservabilityConfig, Tracer
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.taskset import TaskSet

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


def _replay_tracer(ring_capacity: int, sample_every: int) -> Tracer:
    return Tracer(
        ObservabilityConfig(
            ring_capacity=ring_capacity, sample_every=sample_every
        )
    )


def trace_fig6_trial(
    config: Fig6Config = Fig6Config(),
    trial: int = 0,
    interconnect: str = "BlueScale",
    ring_capacity: int = DEFAULT_REPLAY_RING,
    sample_every: int = 1,
) -> TracedTrial:
    """Re-run fig6 trial ``trial`` against one design, traced.

    The workload derivation mirrors ``run_fig6_trial`` exactly: the
    taskset draw comes from the trial RNG (independent of which designs
    are simulated) and each client's stream is re-derived from the
    spec, so the replay is bit-identical to the untraced original.
    """
    specs = build_fig6_specs(config, (interconnect,))
    if not 0 <= trial < len(specs):
        raise ConfigurationError(
            f"trial {trial} out of range: config builds {len(specs)} specs"
        )
    spec = specs[trial]
    trial_rng = random.Random(spec.seed)
    utilization = trial_rng.uniform(
        config.utilization_low, config.utilization_high
    )
    tasksets = generate_client_tasksets(
        trial_rng,
        config.n_clients,
        config.tasks_per_client,
        utilization,
        period_min=config.period_min,
        period_max=config.period_max,
    )
    clients = traffic_generators(spec, tasksets)
    tracer = _replay_tracer(ring_capacity, sample_every)
    simulation = SoCSimulation(
        clients,
        build_interconnect(
            interconnect, config.n_clients, tasksets, config.factory
        ),
        fast_path=config.fast_path,
        observability=tracer,
    )
    result = simulation.run(config.horizon, drain=config.drain)
    return TracedTrial(
        experiment="fig6",
        trial=trial,
        interconnect=interconnect,
        tracer=tracer,
        trace_digest=result.trace_digest,
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
    specs = build_fig7_specs(config, (interconnect,))
    if not 0 <= trial < len(specs):
        raise ConfigurationError(
            f"trial {trial} out of range: config builds {len(specs)} specs"
        )
    spec = specs[trial]
    utilization: float = spec.param("utilization")
    accelerator_id = config.n_processors
    rng = random.Random(spec.seed)
    application, interference, accelerator_tasks = _build_trial_tasksets(
        config, utilization, rng
    )
    combined: dict[int, TaskSet] = {
        client: application[client].merged_with(
            interference.get(client, TaskSet())
        )
        for client in application
    }
    combined[accelerator_id] = accelerator_tasks.merged_with(
        interference.get(accelerator_id, TaskSet())
    )
    clients: list = [
        ProcessorClient(
            client,
            application[client],
            interference.get(client, TaskSet()),
            rng=random.Random(spec.client_seed(client)),
        )
        for client in application
    ]
    clients.append(
        AcceleratorClient(
            accelerator_id,
            accelerator_tasks.merged_with(
                interference.get(accelerator_id, TaskSet())
            ),
            bandwidth_cap=1.0 / config.n_clients,
            rng=random.Random(spec.client_seed(accelerator_id)),
        )
    )
    tracer = _replay_tracer(ring_capacity, sample_every)
    simulation = SoCSimulation(
        clients,
        build_interconnect(
            interconnect, config.n_clients, combined, config.factory
        ),
        fast_path=config.fast_path,
        observability=tracer,
    )
    result = simulation.run(config.horizon, drain=config.drain)
    return TracedTrial(
        experiment="fig7",
        trial=trial,
        interconnect=interconnect,
        tracer=tracer,
        trace_digest=result.trace_digest,
    )
