"""Analysis backend switch: scalar reference oracle vs vectorized engine.

Every analysis entry point (:func:`~repro.analysis.schedulability.is_schedulable`,
:func:`~repro.analysis.interface_selection.select_interface`,
:func:`~repro.analysis.composition.compose`, the sensitivity helpers)
accepts ``backend=``:

* ``"scalar"`` — the original pure-Python implementations, kept as the
  reference oracle.  Every candidate ``(Π, Θ)`` is tested by its own
  step-point scan.
* ``"vectorized"`` — numpy-backed batch evaluation
  (:mod:`repro.analysis.vectorized`): dbf is evaluated once over a
  deduplicated step-point grid per task set, and all candidate
  interfaces of a search are checked against that grid at once.

Both backends are exact over integers and produce **identical**
results; the property suite and the analysis benchmark assert it.
Which one a trial's analysis uses is a value on its spec
(:class:`repro.runtime.EngineConfig`, ``spec.engine.analysis_backend``);
``backend=None`` on a direct library call such as ``compose(...)``
means :data:`DEFAULT_BACKEND`.  Nothing here is mutable.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: the recognized backend names
BACKENDS: tuple[str, ...] = ("scalar", "vectorized")

#: what ``backend=None`` means on a direct library call
DEFAULT_BACKEND = "vectorized"


def resolve_backend(backend: str | None) -> str:
    """Validate a ``backend=`` argument (``None`` → the default)."""
    if backend is None:
        return DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown analysis backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend
