"""Simulator backend switch: scalar reference engine vs batched SoA.

Mirrors the analysis backend switch (:mod:`repro.analysis.engine`):

* ``"scalar"`` — one :class:`~repro.soc.SoCSimulation` at a time on the
  cycle/quiescence engine.  Kept as the reference oracle.
* ``"batched"`` — :func:`repro.sim.batched.run_many` advances many
  trials in lock-step over numpy arrays (structure-of-arrays over the
  trial axis).  Trials the batched kernels cannot represent (tracing,
  non-empty fault plans, exotic controllers/clients) transparently fall
  back to the scalar engine per trial.

Both backends produce **bit-identical** :class:`~repro.soc.TrialResult`
contents — trace digests, recorder streams, job outcomes — which the
differential/property suites assert
(``tests/sim/test_batched_equivalence.py`` and neighbours).
``backend=None`` anywhere resolves to the process-wide default set
here (the CLI's ``--sim-backend`` flag lands in
:func:`set_default_sim_backend`, including inside parallel workers via
the executor's ``worker_init`` hook).
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: the recognized simulator backend names
SIM_BACKENDS: tuple[str, ...] = ("scalar", "batched")

_default_sim_backend: str = "batched"


def get_default_sim_backend() -> str:
    """The process-wide simulator backend used when ``backend=None``."""
    return _default_sim_backend


def set_default_sim_backend(backend: str) -> str:
    """Set the process-wide default backend; returns the previous one.

    Picklable by reference, so it doubles as an executor
    ``worker_init`` target: ``partial(set_default_sim_backend, "scalar")``.
    """
    global _default_sim_backend
    previous = _default_sim_backend
    _default_sim_backend = resolve_sim_backend(backend)
    return previous


def resolve_sim_backend(backend: str | None) -> str:
    """Validate a ``backend=`` argument (``None`` → session default)."""
    if backend is None:
        return _default_sim_backend
    if backend not in SIM_BACKENDS:
        raise ConfigurationError(
            f"unknown sim backend {backend!r}; expected one of {SIM_BACKENDS}"
        )
    return backend
