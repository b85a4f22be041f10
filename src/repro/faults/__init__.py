"""Deterministic fault injection and temporal-isolation verification.

The paper's central promise is that BlueScale keeps clients *temporally
isolated*: one client exceeding its (Π, Θ) contract cannot degrade the
guarantees of the others.  This package turns that promise into a
falsifiable experiment:

* :mod:`repro.faults.plan` — declarative, seed-driven fault plans
  (:class:`FaultPlan` / :class:`FaultEvent`): rogue client bursts,
  request drop/duplicate/delay at injection ports, budget-counter bit
  flips inside a Scale Element, and memory-controller stall windows;
* :mod:`repro.faults.injectors` — the :class:`FaultOrchestrator`, a
  simulation stage that applies a plan through narrow hooks on the
  clients, Scale Elements and controller, with full request-conservation
  accounting and bit-for-bit determinism on both engine paths;
* :mod:`repro.faults.verify` — checks victim clients' observed worst
  responses against the fault-oblivious analytical bounds of
  :mod:`repro.analysis.response_time`.

An empty plan is guaranteed inert: a fault-instrumented simulation with
``FaultPlan.none()`` produces the same trace digest as an
uninstrumented one.
"""

from repro.faults.injectors import FaultOrchestrator, make_orchestrator
from repro.faults.plan import PORT_KINDS, FaultEvent, FaultKind, FaultPlan
from repro.faults.verify import (
    BoundViolation,
    IsolationVerdict,
    verify_isolation,
    victim_miss_from_outcomes,
)

__all__ = [
    "PORT_KINDS",
    "BoundViolation",
    "FaultEvent",
    "FaultKind",
    "FaultOrchestrator",
    "FaultPlan",
    "IsolationVerdict",
    "make_orchestrator",
    "verify_isolation",
    "victim_miss_from_outcomes",
]
