"""Simulator backend switch: scalar reference engine vs batched SoA.

* ``"scalar"`` — one :class:`~repro.soc.SoCSimulation` at a time on the
  cycle/quiescence engine.  Kept as the reference oracle.
* ``"batched"`` — :func:`repro.sim.batched.run_many` advances many
  trials in lock-step over numpy arrays (structure-of-arrays over the
  trial axis).  Trials the batched kernels cannot represent (tracing,
  scenario plans, exotic controllers/clients) transparently fall back
  to the scalar engine per trial; rogue-burst fault plans compile into
  the batched release schedule.

Both backends produce **bit-identical** :class:`~repro.soc.TrialResult`
contents — trace digests, recorder streams, job outcomes — which the
differential/property suites assert
(``tests/sim/test_batched_equivalence.py`` and neighbours).
Which one runs a trial is a value on its spec
(:attr:`repro.runtime.TrialSpec.sim_backend`, set by ``--sim-backend``
or a campaign cell's ``sim_backend`` axis); ``backend=None`` on a
direct library call such as ``run_many(sims, horizon)`` means
:data:`DEFAULT_SIM_BACKEND`.  Nothing here is mutable.  The analysis
has no such choice: it has one engine, which every trial runs on.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: the recognized simulator backend names
SIM_BACKENDS: tuple[str, ...] = ("scalar", "batched")

#: what ``backend=None`` means on a direct library call
DEFAULT_SIM_BACKEND = "batched"


def resolve_sim_backend(backend: str | None) -> str:
    """Validate a ``backend=`` argument (``None`` → the default)."""
    if backend is None:
        return DEFAULT_SIM_BACKEND
    if backend not in SIM_BACKENDS:
        raise ConfigurationError(
            f"unknown sim backend {backend!r}; expected one of {SIM_BACKENDS}"
        )
    return backend
