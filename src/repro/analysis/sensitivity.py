"""Sensitivity analysis: how much load a configuration can take.

Classic real-time design-space questions the composition can answer
directly, without simulation:

* **breakdown utilization** — scale a workload's execution times up
  until the composition stops being schedulable; the largest surviving
  scale factor measures the configuration's head-room, and the total
  utilization there is the admission ceiling
  (:func:`breakdown_scale`).
* **critical clients** — which client's demand is closest to its
  interface's capacity (:func:`slack_per_client`), i.e. where the next
  task should *not* go.

Every probe of a search shares the caller's one
:class:`~repro.analysis.context.AnalysisContext`, so all compositions
of a breakdown search hit the same memo cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.analysis.context import AnalysisContext
from repro.analysis.composition import (
    CompositionResult,
    compose,
    default_deadline_margin,
    tighten_deadlines,
)
from repro.errors import ConfigurationError
from repro.tasks.taskset import TaskSet
from repro.topology import TreeTopology


def _scaled_tasksets(
    client_tasksets: dict[int, TaskSet], factor: float
) -> dict[int, TaskSet]:
    return {
        client: taskset.scaled(factor)
        for client, taskset in client_tasksets.items()
    }


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of the breakdown search."""

    scale: float
    utilization: float
    #: composition at the breakdown scale (the last schedulable one)
    composition: CompositionResult


def breakdown_scale(
    topology: TreeTopology,
    client_tasksets: dict[int, TaskSet],
    precision: float = 0.01,
    max_scale: float = 16.0,
    *,
    ctx: AnalysisContext | None = None,
) -> BreakdownResult:
    """Largest WCET scale factor that stays schedulable.

    Binary search over the scale (schedulability is effectively
    monotone in demand); ``precision`` bounds the returned factor's
    absolute error.  Raises when even the unscaled workload fails.

    Every probe composes the whole tree, but all probes share the
    context's :class:`~repro.analysis.cache.AnalysisCache`: a subtree
    whose scaled task sets round to parameters already composed at an
    earlier probe reuses those selections instead of re-deriving them
    (and the bracketing re-compose of an already-probed scale is free).
    """
    if precision <= 0:
        raise ConfigurationError(f"precision must be positive, got {precision}")
    if ctx is None:
        ctx = AnalysisContext()
    base = compose(topology, client_tasksets, ctx=ctx)
    if not base.schedulable:
        raise ConfigurationError(
            f"workload is unschedulable before scaling: {base.failure}"
        )
    low, low_result = 1.0, base
    high = max_scale
    # find an unschedulable upper bracket
    while high <= max_scale and compose(
        topology, _scaled_tasksets(client_tasksets, high), ctx=ctx
    ).schedulable:
        low = high
        high *= 2
        if high > max_scale:
            # already schedulable at the cap: report the cap
            scaled = _scaled_tasksets(client_tasksets, low)
            result = compose(topology, scaled, ctx=ctx)
            utilization = sum(
                (ts.utilization for ts in scaled.values()), Fraction(0)
            )
            return BreakdownResult(low, float(utilization), result)
    while high - low > precision:
        mid = (low + high) / 2
        result = compose(
            topology, _scaled_tasksets(client_tasksets, mid), ctx=ctx
        )
        if result.schedulable:
            low, low_result = mid, result
        else:
            high = mid
    scaled = _scaled_tasksets(client_tasksets, low)
    utilization = sum((ts.utilization for ts in scaled.values()), Fraction(0))
    return BreakdownResult(low, float(utilization), low_result)


def slack_per_client(
    composition: CompositionResult,
    client_tasksets: dict[int, TaskSet],
) -> dict[int, float]:
    """Bandwidth slack of each client's leaf interface.

    ``slack = Θ/Π − U_tightened``: how much more (tightened) demand the
    client's selected interface could absorb before its own rate limit.
    Small slack marks the clients to avoid when placing new tasks.
    """
    topology = composition.topology
    margin = default_deadline_margin(topology)
    slack: dict[int, float] = {}
    for client, taskset in client_tasksets.items():
        if len(taskset) == 0:
            continue
        leaf, port = topology.leaf_of_client(client)
        interface = composition.interface_for(leaf, port)
        tightened = tighten_deadlines(taskset, margin)
        slack[client] = float(interface.bandwidth - tightened.utilization)
    return slack
