"""Batched structure-of-arrays simulator backend.

Advances N trials that share a client roster and controller, of any
mix of designs, in lock-step over numpy arrays; provably bit-identical
to the scalar engine (see ``tests/sim/test_batched_equivalence.py``,
the mixed-group wall in ``tests/sim/test_batched_envelope.py`` and the
property wall in ``tests/sim/test_batched_properties.py``).  Entry point:
:func:`run_many`; the eligibility envelope is documented in
:mod:`repro.sim.batched.extract`.
"""

from repro.sim.batched.api import run_many
from repro.sim.batched.extract import Ineligible, batched_supported

__all__ = ["run_many", "Ineligible", "batched_supported"]
