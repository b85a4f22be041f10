"""The immutable system model: everything admission control reads.

A :class:`SystemModel` is the *pure analysis state* of one deployed
system: the tree topology, the baseline client task sets, the composed
hierarchy with every selected per-subtree ``(Π, Θ)`` interface, and the
:class:`~repro.analysis.context.AnalysisContext` (thread-safe memo
cache + search config) all of that was derived with.  It is built
**once** — composing the whole hierarchy and warming the cache's
selection/grid tables as a side effect — then shared, read-only, by any
number of concurrent :class:`~repro.analysis.session.AdmissionSession`
per-request objects.

Frozen and picklable by design: a model can be shipped to executor
workers or a sharded service tier verbatim (the cache pickles a
consistent snapshot of its memo tables and re-creates its lock on the
other side), and two sessions over equal models answer admission
queries bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from repro.analysis.cache import AnalysisCache
from repro.analysis.context import (
    DEFAULT_CONFIG,
    AnalysisContext,
    SelectionConfig,
)
from repro.analysis.composition import (
    CompositionResult,
    compose,
    default_deadline_margin,
)
from repro.errors import ConfigurationError
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.taskset import TaskSet
from repro.topology import TreeTopology, quadtree

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.analysis.session import AdmissionSession


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Frozen bundle of topology, baseline workload and composed hierarchy.

    Build one with :meth:`build` (explicit workload) or
    :meth:`from_seed` (deterministic drawn workload, used by the
    service CLI and the benchmarks).  All fields are read-only; the
    per-request mutable state lives in
    :class:`~repro.analysis.session.AdmissionSession`.
    """

    topology: TreeTopology
    #: baseline per-client task sets (treat as immutable)
    client_tasksets: Mapping[int, TaskSet]
    #: shared thread-safe cache + selection config
    context: AnalysisContext
    #: the composed hierarchy: every selected per-subtree interface
    baseline: CompositionResult
    #: optional human-readable label (reports, /model endpoint)
    label: str = field(default="")

    # -- construction --------------------------------------------------------
    @classmethod
    def build(
        cls,
        topology: TreeTopology,
        client_tasksets: Mapping[int, TaskSet],
        *,
        config: SelectionConfig | None = None,
        cache: AnalysisCache | None = None,
        label: str = "",
    ) -> "SystemModel":
        """Compose the hierarchy once and freeze the result.

        A model owns its memo tables: ``cache=None`` means a fresh
        ``AnalysisCache()``, never the process-wide one.
        ``config`` defaults like ``AnalysisContext()``'s
        (:data:`~repro.analysis.context.DEFAULT_CONFIG`).  The
        composition itself warms the cache, so the first admission
        probes already reuse every baseline subtree selection.
        """
        ctx = AnalysisContext(
            cache=AnalysisCache() if cache is None else cache,
            config=DEFAULT_CONFIG if config is None else config,
        )
        frozen_sets = {
            client: TaskSet(list(taskset))
            for client, taskset in sorted(client_tasksets.items())
        }
        baseline = compose(topology, frozen_sets, ctx=ctx)
        return cls(
            topology=topology,
            client_tasksets=MappingProxyType(frozen_sets),
            context=ctx,
            baseline=baseline,
            label=label,
        )

    @classmethod
    def from_seed(
        cls,
        n_clients: int,
        *,
        utilization: float = 0.3,
        tasks_per_client: int = 2,
        seed: int | str = 1,
        fanout: int = 4,
        config: SelectionConfig | None = None,
        cache: AnalysisCache | None = None,
    ) -> "SystemModel":
        """A model over a deterministic drawn workload.

        Same generator the experiments use
        (:func:`~repro.tasks.generators.generate_client_tasksets`), so
        ``from_seed(16, utilization=0.3, seed=7)`` names one exact
        system forever — the service CLI, the load benchmark and the
        tests all reference models this way.  ``cache``/``config`` mean
        what they mean for :meth:`build`: the model owns a fresh cache
        unless one is given.
        """
        if n_clients < 1:
            raise ConfigurationError(
                f"need at least one client, got {n_clients}"
            )
        rng = random.Random(f"system-model/{seed}/{n_clients}/{utilization}")
        tasksets = generate_client_tasksets(
            rng, n_clients, tasks_per_client, utilization
        )
        topology = (
            quadtree(n_clients)
            if fanout == 4
            else TreeTopology(n_clients=n_clients, fanout=fanout)
        )
        return cls.build(
            topology,
            tasksets,
            config=config,
            cache=cache,
            label=f"seed={seed} n={n_clients} u={utilization:g}",
        )

    # -- derived views -------------------------------------------------------
    @property
    def cache(self) -> AnalysisCache:
        """The shared, thread-safe memo cache sessions borrow."""
        return self.context.cache

    @property
    def n_clients(self) -> int:
        return self.topology.n_clients

    @property
    def deadline_margin(self) -> int:
        """Analysis deadline margin, derived from the topology."""
        return default_deadline_margin(self.topology)

    @property
    def schedulable(self) -> bool:
        """Whether the baseline workload itself composed schedulably."""
        return self.baseline.schedulable

    @property
    def total_utilization(self) -> Fraction:
        """Exact combined utilization of the baseline task sets."""
        return sum(
            (ts.utilization for ts in self.client_tasksets.values()),
            Fraction(0),
        )

    def session(self) -> "AdmissionSession":
        """A fresh per-request :class:`AdmissionSession` over this model."""
        from repro.analysis.session import AdmissionSession

        return AdmissionSession(self)

    def describe(self) -> dict:
        """JSON-able summary (the service's ``GET /model`` payload)."""
        return {
            "label": self.label,
            "n_clients": self.n_clients,
            "fanout": self.topology.fanout,
            "depth": self.topology.depth,
            "nodes": self.topology.n_nodes(),
            "deadline_margin": self.deadline_margin,
            "baseline_tasks": sum(
                len(ts) for ts in self.client_tasksets.values()
            ),
            "baseline_utilization": float(self.total_utilization),
            "baseline_schedulable": self.schedulable,
            "baseline_root_bandwidth": float(self.baseline.root_bandwidth),
        }

    # -- pickling ------------------------------------------------------------
    def __getstate__(self) -> dict:
        # MappingProxyType cannot pickle; ship the plain dict and
        # re-wrap on the other side.
        state = dict(self.__dict__)
        state["client_tasksets"] = dict(self.client_tasksets)
        return state

    def __setstate__(self, state: dict) -> None:
        state["client_tasksets"] = MappingProxyType(
            dict(state["client_tasksets"])
        )
        self.__dict__.update(state)
