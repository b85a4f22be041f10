"""The per-call analysis context: backend + cache + search config.

Before this module existed, every function on the composition path
(:func:`~repro.analysis.composition.compose` →
:func:`~repro.analysis.interface_selection.select_interface` →
:func:`~repro.analysis.interface_selection.minimal_budgets_for_periods`)
re-threaded a ``backend=`` and a ``cache=`` keyword argument through
every call, re-resolving both at every level.  :class:`AnalysisContext`
bundles the three knobs that select *how* an analysis runs — engine
backend, memo cache, selection-search config — into one immutable
object that is resolved **once** at the public entry point and passed
down unchanged.

The public entry points keep their ``backend=`` / ``cache=`` keyword
arguments as compatibility shims: they build a context immediately and
everything below speaks context only.  Long-lived holders
(:class:`~repro.analysis.model.SystemModel`,
:class:`~repro.analysis.session.AdmissionSession`) carry their context
explicitly.

:class:`SelectionConfig` lives here (re-exported from
:mod:`repro.analysis.interface_selection` for compatibility) because it
is part of the context, not of any single search.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cache import AnalysisCache, resolve_cache
from repro.analysis.engine import resolve_backend
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SelectionConfig:
    """Tuning knobs for the interface-selection search.

    ``max_period_candidates`` caps how many periods are examined: when
    the Theorem-2 range is wider, candidates are sampled evenly across
    it (the bandwidth landscape is smooth enough that this finds the
    optimum or a near-optimum; set it to 0 for exhaustive enumeration).
    """

    max_period_candidates: int = 256
    min_period: int = 1

    def __post_init__(self) -> None:
        if self.max_period_candidates < 0:
            raise ConfigurationError("max_period_candidates must be >= 0")
        if self.min_period < 1:
            raise ConfigurationError("min_period must be >= 1")

    def memo_key(self) -> tuple:
        """The config's contribution to a selection cache key."""
        return (self.max_period_candidates, self.min_period)


DEFAULT_CONFIG = SelectionConfig()


@dataclass(frozen=True)
class AnalysisContext:
    """How one analysis runs: engine backend, memo cache, search config.

    Immutable, cheap, and safe to share: the cache it points at is
    thread-safe, the other two fields are frozen value objects.
    Resolve one at the boundary (:meth:`resolve`), then pass it down —
    never re-resolve mid-computation, or a concurrent
    ``set_default_cache`` could split one logical analysis across two
    caches.
    """

    backend: str
    cache: AnalysisCache
    config: SelectionConfig = DEFAULT_CONFIG

    @classmethod
    def resolve(
        cls,
        backend: str | None = None,
        cache: AnalysisCache | None = None,
        config: SelectionConfig | None = None,
    ) -> "AnalysisContext":
        """Build a context from optional knobs (``None`` → defaults).

        ``backend=None`` resolves to
        :data:`~repro.analysis.engine.DEFAULT_BACKEND`, ``cache=None``
        to the process-wide default cache and
        ``config=None`` to :data:`DEFAULT_CONFIG` — exactly the
        defaulting every public analysis entry point documents.
        """
        return cls(
            backend=resolve_backend(backend),
            cache=resolve_cache(cache),
            config=DEFAULT_CONFIG if config is None else config,
        )
