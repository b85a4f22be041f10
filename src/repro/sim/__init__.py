"""Cycle-level simulation substrate (engine, statistics).

Time is counted in one unit, the transaction slot: an engine cycle is
one slot of the schedulability model.

Two interchangeable execution backends live underneath
(:mod:`repro.sim.backend`): the scalar reference engine
(:class:`Engine`) and the batched structure-of-arrays backend
(:func:`run_many`), which advances many trials sharing a client roster
in lock-step and produces bit-identical results.
"""

from repro.sim.backend import (
    SIM_BACKENDS,
    resolve_sim_backend,
)
from repro.sim.engine import Engine, TickComponent
from repro.sim.stats import (
    LatencyRecorder,
    SummaryStatistics,
    mean,
)
from repro.sim.invariants import (
    InterconnectMonitor,
    SbfComplianceMonitor,
    StructuralMonitor,
    monitor_interconnect,
)

# imported last: repro.sim.batched reaches back through repro.soc into
# the engine names bound above
from repro.sim.batched import (  # noqa: E402
    Ineligible,
    batched_supported,
    run_many,
)

__all__ = [
    "SIM_BACKENDS",
    "resolve_sim_backend",
    "Ineligible",
    "batched_supported",
    "run_many",
    "Engine",
    "TickComponent",
    "LatencyRecorder",
    "SummaryStatistics",
    "mean",
    "InterconnectMonitor",
    "SbfComplianceMonitor",
    "StructuralMonitor",
    "monitor_interconnect",
]
