"""How an analysis runs: memo cache + search config.

:class:`AnalysisContext` is the one value that says how an analysis
runs.  Every public analysis function takes it as ``ctx=`` and passes
it down unchanged; ``ctx=None`` means ``AnalysisContext()`` — the
process-wide cache and :data:`DEFAULT_CONFIG`.
Every trial runner, the CLI and the admission daemon analyse on
``AnalysisContext()``; long-lived holders
(:class:`~repro.analysis.model.SystemModel`,
:class:`~repro.analysis.session.AdmissionSession`) own theirs.

The analysis has one engine (:mod:`repro.analysis.vectorized`): dbf is
evaluated once over a deduplicated step-point grid per task set, all
candidate interfaces of a search are checked against that grid at
once, and the response bounds of all tasks and release offsets of one
port are one array fixpoint.  The test suite holds it to an
independent exact oracle written from the definitions
(``tests/analysis/oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cache import AnalysisCache, get_default_cache
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SelectionConfig:
    """Tuning knobs for the interface-selection search.

    ``max_period_candidates`` caps how many periods are examined: when
    the Theorem-2 range is wider, candidates are sampled evenly across
    it (the bandwidth landscape is smooth enough that this finds the
    optimum or a near-optimum; set it to 0 for exhaustive enumeration).
    The period range itself always starts at 1.  An even sample needs
    both ends of the range, so the cap is 0 or at least 2.
    """

    max_period_candidates: int = 256

    def __post_init__(self) -> None:
        if self.max_period_candidates < 0 or self.max_period_candidates == 1:
            raise ConfigurationError("max_period_candidates must be 0 or >= 2")

    def memo_key(self) -> tuple:
        """The config's contribution to a selection cache key."""
        return (self.max_period_candidates,)


DEFAULT_CONFIG = SelectionConfig()


@dataclass(frozen=True)
class AnalysisContext:
    """How one analysis runs: memo cache and search config.

    Immutable, cheap, and safe to share: the cache it points at is
    thread-safe, the config is a frozen value object.  Build one at
    the boundary, then pass it down.
    """

    cache: AnalysisCache = field(default_factory=get_default_cache)
    config: SelectionConfig = DEFAULT_CONFIG
