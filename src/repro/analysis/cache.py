"""Memoization layer for the analysis engine.

Interface selection over a BlueScale tree repeats itself constantly:

* the level-ℓ problems of a quadtree present the *same* (task set,
  sibling-utilization) pair whenever a subtree is unchanged between two
  sweep points (utilization sweeps, breakdown searches, admission
  probes re-derive most of the tree verbatim);
* every schedulability probe of a candidate ``(Π, Θ)`` re-evaluates the
  demand bound function of the same task set over the same step points.

:class:`AnalysisCache` memoizes both: selection results keyed by task
set digests, and the vectorized engine's step-point grids (deduplicated
step points plus dbf values, shared across all candidate interfaces of
that task set).  Keys are exact — a task set is keyed by the sorted
multiset of its ``(T, C)`` pairs, which is precisely the information
dbf/sbf analysis depends on — so a cache hit is bit-identical to the
cold path by construction (and asserted by the property suite).

A third table holds whole-SE resolutions
(:class:`~repro.analysis.composition.NodeResolution`), keyed by the
tuple of the SE's port keys plus the search config.  A warm admission
decision is answered there before any selection or grid lookup: one
hit per SE on the client's path, tens of microseconds a decision at
16 clients, where the port task-set rebuilds and exact ``Fraction``
sums it replaces used to cost a few hundred.  Its counters
(``node_hits``/``node_misses``) stay out of the ``hits``/``misses``
aggregates, which count the selection and grid tables.

The cache is **thread-safe**: every table access and every stats
update happens under one internal lock, so a single shared cache can
serve concurrent admission requests (:mod:`repro.service`) without
corrupting the FIFO eviction order or the hit/miss counters.  The lock
is dropped on pickling and re-created on unpickling, which keeps
cache-carrying objects (e.g. :class:`repro.analysis.model.SystemModel`)
picklable across executor workers.

The read-only process-wide cache (:func:`get_default_cache`) is the
cache of ``AnalysisContext()``; a context holding :data:`DISABLED` (or
``AnalysisCache(enabled=False)``) forces cold-path evaluation, e.g.
when timing the cold engine.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.tasks.taskset import TaskSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.analysis.composition import NodeResolution
    from repro.analysis.interface_selection import SelectionResult

#: exact cache key of a task set: the sorted multiset of (T, C) pairs
TaskSetKey = tuple[tuple[int, int], ...]


def taskset_key(taskset: TaskSet) -> TaskSetKey:
    """The exact analysis identity of a task set.

    dbf, sbf and every quantity derived from them depend only on the
    multiset of ``(period, wcet)`` pairs — names and client assignments
    are reporting metadata — so sorting makes the key canonical.
    """
    return tuple(sorted((task.period, task.wcet) for task in taskset))


def taskset_digest(taskset: TaskSet) -> str:
    """Short hex digest of :func:`taskset_key` for reports and logs."""
    raw = repr(taskset_key(taskset)).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


@dataclass
class CacheStats:
    """Hit/miss counters, split per table.

    Counters are **cumulative over the cache's lifetime**: clearing the
    tables (:meth:`AnalysisCache.clear`) does not zero them, so a
    long-running service's hit-rate metrics survive an operator-issued
    cache flush.  :meth:`AnalysisCache.reset_stats` zeroes them
    explicitly.
    """

    selection_hits: int = 0
    selection_misses: int = 0
    grid_hits: int = 0
    grid_misses: int = 0
    #: whole-SE resolutions; kept out of the aggregates below, which
    #: count the selection and grid tables only
    node_hits: int = 0
    node_misses: int = 0

    @property
    def hits(self) -> int:
        return self.selection_hits + self.grid_hits

    @property
    def misses(self) -> int:
        return self.selection_misses + self.grid_misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the tables (0.0 when idle)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "selection_hits": self.selection_hits,
            "selection_misses": self.selection_misses,
            "grid_hits": self.grid_hits,
            "grid_misses": self.grid_misses,
            "node_hits": self.node_hits,
            "node_misses": self.node_misses,
        }


class AnalysisCache:
    """Bounded, thread-safe memo tables for selections, grids and SEs.

    ``max_selections`` / ``max_grids`` bound memory (``max_selections``
    bounds the SE table too); eviction is FIFO
    (oldest insertion first), which is plenty for sweep workloads whose
    reuse is temporally clustered.  A disabled cache stores nothing and
    returns nothing, making the cold path trivially reachable.

    All lookups, inserts, evictions and stats updates are serialized by
    one internal lock, so any number of threads may share one cache —
    the admission-control daemon does exactly that.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_selections: int = 65_536,
        max_grids: int = 1_024,
    ) -> None:
        self.enabled = enabled
        self.max_selections = max_selections
        self.max_grids = max_grids
        self.stats = CacheStats()
        self._selections: dict[tuple, "SelectionResult"] = {}
        self._grids: dict[TaskSetKey, Any] = {}
        self._nodes: dict[tuple, "NodeResolution"] = {}
        self._lock = threading.Lock()

    # -- selection results ---------------------------------------------------
    def get_selection(self, key: tuple) -> "SelectionResult | None":
        if not self.enabled:
            return None
        with self._lock:
            found = self._selections.get(key)
            if found is None:
                self.stats.selection_misses += 1
            else:
                self.stats.selection_hits += 1
            return found

    def put_selection(self, key: tuple, result: "SelectionResult") -> None:
        if not self.enabled:
            return
        with self._lock:
            if key not in self._selections and (
                len(self._selections) >= self.max_selections
            ):
                self._selections.pop(next(iter(self._selections)))
            self._selections[key] = result

    # -- step-point grids ----------------------------------------------------
    def get_grid(self, key: TaskSetKey) -> Any | None:
        if not self.enabled:
            return None
        with self._lock:
            found = self._grids.get(key)
            if found is None:
                self.stats.grid_misses += 1
            else:
                self.stats.grid_hits += 1
            return found

    def put_grid(self, key: TaskSetKey, grid: Any) -> None:
        if not self.enabled:
            return
        with self._lock:
            if key not in self._grids and len(self._grids) >= self.max_grids:
                self._grids.pop(next(iter(self._grids)))
            self._grids[key] = grid

    # -- whole-SE resolutions ------------------------------------------------
    def get_node(self, key: tuple) -> "NodeResolution | None":
        if not self.enabled:
            return None
        with self._lock:
            found = self._nodes.get(key)
            if found is None:
                self.stats.node_misses += 1
            else:
                self.stats.node_hits += 1
            return found

    def put_node(self, key: tuple, resolution: "NodeResolution") -> None:
        if not self.enabled:
            return
        with self._lock:
            if key not in self._nodes and (
                len(self._nodes) >= self.max_selections
            ):
                self._nodes.pop(next(iter(self._nodes)))
            self._nodes[key] = resolution

    # -- bookkeeping ---------------------------------------------------------
    def clear(self) -> None:
        """Drop every memoized entry; the stats counters keep counting."""
        with self._lock:
            self._selections.clear()
            self._grids.clear()
            self._nodes.clear()

    def reset_stats(self) -> CacheStats:
        """Zero the hit/miss counters; returns the retired ones."""
        with self._lock:
            retired = self.stats
            self.stats = CacheStats()
            return retired

    def stats_snapshot(self) -> CacheStats:
        """A consistent point-in-time copy of the counters."""
        with self._lock:
            return CacheStats(**self.stats.as_dict())

    def __len__(self) -> int:
        with self._lock:
            return len(self._selections) + len(self._grids) + len(self._nodes)

    # -- pickling ------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Snapshot under the lock so a concurrently-used cache pickles
        # a consistent view; the lock itself cannot cross processes.
        with self._lock:
            state = dict(self.__dict__)
            state["_selections"] = dict(self._selections)
            state["_grids"] = dict(self._grids)
            state["_nodes"] = dict(self._nodes)
            state["stats"] = CacheStats(**self.stats.as_dict())
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


#: the always-cold cache: every lookup misses, nothing is stored
DISABLED = AnalysisCache(enabled=False)

_default_cache = AnalysisCache()


def get_default_cache() -> AnalysisCache:
    """The process-wide cache of a default analysis context."""
    return _default_cache
