"""Deterministic fault injection and temporal-isolation verification.

The paper's central promise is that BlueScale keeps clients *temporally
isolated*: one client exceeding its (Π, Θ) contract cannot degrade the
guarantees of the others.  This package turns that promise into a
falsifiable experiment:

* :mod:`repro.faults.plan` — declarative fault plans
  (:class:`FaultPlan` / :class:`FaultEvent`) of rogue client bursts:
  a client releasing transactions beyond its contract;
* :mod:`repro.faults.injectors` — the :class:`FaultOrchestrator`, a
  simulation stage that fires a plan's bursts through the clients'
  one fault hook, bit-for-bit deterministic on both engine paths (the
  batched kernels compile the same bursts into their release
  schedule);
* :mod:`repro.faults.verify` — checks victim clients' observed worst
  responses against the fault-oblivious analytical bounds of
  :mod:`repro.analysis.response_time`.

An empty plan is guaranteed inert: a fault-instrumented simulation with
``FaultPlan.none()`` produces the same trace digest as an
uninstrumented one.
"""

from repro.faults.injectors import FaultOrchestrator
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.verify import (
    BoundViolation,
    IsolationVerdict,
    verify_isolation,
    victim_miss_from_outcomes,
)

__all__ = [
    "BoundViolation",
    "FaultEvent",
    "FaultOrchestrator",
    "FaultPlan",
    "IsolationVerdict",
    "verify_isolation",
    "victim_miss_from_outcomes",
]
