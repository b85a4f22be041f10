"""Per-request admission state over a shared, frozen system model.

An :class:`AdmissionSession` is the cheap, mutable counterpart of
:class:`~repro.analysis.model.SystemModel`: it borrows the model (and
the model's thread-safe :class:`~repro.analysis.cache.AnalysisCache`)
and layers the *per-request* state on top — the currently-admitted task
sets, the current composition, and whatever a probe needs to scratch
on.  Creating one costs two dict copies; the heavy state (composed
hierarchy, memoized step grids, subtree selections) stays in the model
and cache.

The admission primitives mirror the paper's scheduling-scalability
property: :meth:`probe`, :meth:`admit` and :meth:`evict` re-resolve
only the SEs on the touched client's path to the root
(:func:`~repro.analysis.composition.update_client`), so one admission
decision costs O(log n) interface-selection problems.  On a warm cache
each of those SEs is one whole-SE memo hit (no selection, no port task
set, no ``Fraction`` sum), so a decision that changes nothing on its
path costs tens of microseconds at 16 clients; the
:mod:`repro.service` daemon's HTTP hop costs more than that.

Sessions are internally locked: many threads may share one session (the
daemon shares its committed session across its worker pool), with
probes reading a consistent snapshot and commits serialized.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from repro.analysis.cache import CacheStats, taskset_digest
from repro.analysis.context import AnalysisContext
from repro.analysis.composition import CompositionResult, update_client
from repro.analysis.model import SystemModel
from repro.analysis.sensitivity import (
    BreakdownResult,
    breakdown_scale,
    slack_per_client,
)
from repro.errors import ConfigurationError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


@dataclass(frozen=True)
class RejectionWitness:
    """Why an admission request was refused, with the numbers behind it.

    ``reason`` is the composition's failure message (over-utilized SE,
    infeasible selection, or root over-subscription); the rest situates
    it: which client asked, what the submission's exact analysis
    identity was, and how much bandwidth the failed composition's root
    would have demanded.
    """

    reason: str
    client_id: int
    taskset_digest: str
    submitted_utilization: Fraction
    root_bandwidth: Fraction

    def as_dict(self) -> dict:
        """JSON-able view (the service's rejection payload)."""
        return {
            "reason": self.reason,
            "client_id": self.client_id,
            "taskset_digest": self.taskset_digest,
            "submitted_utilization": float(self.submitted_utilization),
            "root_bandwidth": float(self.root_bandwidth),
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission probe or commit.

    Carries the updated composition either way: on admit it holds the
    interfaces the system would (or did) switch to; on reject it is the
    failed composition the :attr:`witness` summarizes.
    """

    admitted: bool
    client_id: int
    #: the submission's exact (T, C)-multiset digest
    taskset_digest: str
    #: composition after the path-local update (applied only on admit)
    composition: CompositionResult
    #: present exactly when ``admitted`` is False
    witness: RejectionWitness | None = None
    #: whether the decision was committed into the session's state
    committed: bool = False

    @property
    def interface(self):
        """The submitting client's selected leaf ``(Π, Θ)`` interface."""
        topology = self.composition.topology
        leaf, port = topology.leaf_of_client(self.client_id)
        return self.composition.interface_for(leaf, port)

    def path_interfaces(self) -> list[tuple[tuple[int, int], int, object]]:
        """``(node, port, interface)`` along the client's path to the root.

        The port at each hop is the child's (or client's) local port
        index — exactly the SEs a commit would reprogram.
        """
        topology = self.composition.topology
        hops: list[tuple[tuple[int, int], int, object]] = []
        port = topology.leaf_of_client(self.client_id)[1]
        for node in topology.path_to_root(self.client_id):
            hops.append(
                (node, port, self.composition.interface_for(node, port))
            )
            port = node[1] % topology.fanout
        return hops


class AdmissionSession:
    """Cheap per-request admission state borrowing one frozen model.

    Every decision runs under the model's own
    :class:`~repro.analysis.context.AnalysisContext` (shared cache,
    selection config).
    """

    def __init__(self, model: SystemModel) -> None:
        self.model = model
        # Committed state: replaced wholesale (copy-on-write), never
        # mutated in place, so concurrent probes always read a
        # consistent (tasksets, composition) pair.
        self._tasksets: dict[int, TaskSet] = dict(model.client_tasksets)
        self._composition: CompositionResult = model.baseline
        self._lock = threading.Lock()
        self._decisions = 0

    # -- read-only views -----------------------------------------------------
    @property
    def context(self) -> AnalysisContext:
        return self.model.context

    @property
    def composition(self) -> CompositionResult:
        """The currently-committed composition."""
        return self._composition

    @property
    def tasksets(self) -> dict[int, TaskSet]:
        """Copy of the currently-committed per-client task sets."""
        return dict(self._tasksets)

    @property
    def decisions(self) -> int:
        """How many probe/admit/evict decisions this session has made."""
        return self._decisions

    @property
    def cache_stats(self) -> CacheStats:
        """Point-in-time snapshot of the borrowed cache's counters."""
        return self.model.cache.stats_snapshot()

    # -- admission primitives ------------------------------------------------
    def _normalize(
        self, client_id: int, tasks: "TaskSet | PeriodicTask"
    ) -> TaskSet:
        if not 0 <= client_id < self.model.n_clients:
            raise ConfigurationError(
                f"client {client_id} out of range "
                f"[0, {self.model.n_clients})"
            )
        if isinstance(tasks, PeriodicTask):
            tasks = TaskSet([tasks])
        if len(tasks) == 0:
            raise ConfigurationError("an admission request needs >= 1 task")
        return TaskSet([task.with_client(client_id) for task in tasks])

    def _decide(
        self,
        client_id: int,
        submission: TaskSet,
        updated: CompositionResult,
    ) -> AdmissionDecision:
        digest = taskset_digest(submission)
        if updated.schedulable:
            return AdmissionDecision(
                admitted=True,
                client_id=client_id,
                taskset_digest=digest,
                composition=updated,
            )
        witness = RejectionWitness(
            reason=updated.failure,
            client_id=client_id,
            taskset_digest=digest,
            submitted_utilization=submission.utilization,
            root_bandwidth=updated.root_bandwidth,
        )
        return AdmissionDecision(
            admitted=False,
            client_id=client_id,
            taskset_digest=digest,
            composition=updated,
            witness=witness,
        )

    def _probe_submission(
        self, client_id: int, submission: TaskSet
    ) -> tuple[dict[int, TaskSet], AdmissionDecision]:
        # Snapshot once: commits replace these refs atomically.
        tasksets, composition = self._tasksets, self._composition
        trial = dict(tasksets)
        trial[client_id] = trial.get(client_id, TaskSet()).merged_with(
            submission
        )
        updated = update_client(
            composition, trial, client_id, ctx=self.model.context
        )
        self._decisions += 1
        return trial, self._decide(client_id, submission, updated)

    def probe(
        self, client_id: int, tasks: "TaskSet | PeriodicTask"
    ) -> AdmissionDecision:
        """Would admitting ``tasks`` on ``client_id`` keep the system
        schedulable?  Read-only: the session's committed state is
        untouched either way."""
        submission = self._normalize(client_id, tasks)
        return self._probe_submission(client_id, submission)[1]

    def admit(
        self, client_id: int, tasks: "TaskSet | PeriodicTask"
    ) -> AdmissionDecision:
        """Probe, and commit the updated state when schedulable.

        Commits are serialized by the session lock; the probe runs
        inside it so two racing admissions cannot both commit against
        the same predecessor state.
        """
        submission = self._normalize(client_id, tasks)
        with self._lock:
            trial, decision = self._probe_submission(client_id, submission)
            if not decision.admitted:
                return decision
            self._tasksets = trial
            self._composition = decision.composition
            return AdmissionDecision(
                admitted=True,
                client_id=client_id,
                taskset_digest=decision.taskset_digest,
                composition=decision.composition,
                witness=None,
                committed=True,
            )

    def retask(
        self, client_id: int, tasks: "TaskSet | PeriodicTask"
    ) -> AdmissionDecision:
        """Atomically *replace* one client's task set (a mode switch).

        Unlike :meth:`admit` (which merges the submission into whatever
        the client already runs), ``retask`` swaps the declared set
        wholesale and re-resolves the client's path against the new
        demand — the analysis half of a ``RATE_CHANGE`` /
        ``MODE_SWITCH`` scenario event.  Commits only when the switched
        system stays schedulable; on rejection the old mode's state is
        kept untouched.
        """
        submission = self._normalize(client_id, tasks)
        with self._lock:
            tasksets = dict(self._tasksets)
            tasksets[client_id] = submission
            updated = update_client(
                self._composition, tasksets, client_id, ctx=self.model.context
            )
            self._decisions += 1
            decision = self._decide(client_id, submission, updated)
            if not decision.admitted:
                return decision
            self._tasksets = tasksets
            self._composition = updated
            return AdmissionDecision(
                admitted=True,
                client_id=client_id,
                taskset_digest=decision.taskset_digest,
                composition=updated,
                committed=True,
            )

    def evict(self, client_id: int) -> AdmissionDecision:
        """Drop every task of one client and re-resolve its path.

        Removing demand can only loosen the hierarchy, so an evict
        always commits; the returned decision carries the relaxed
        composition.
        """
        with self._lock:
            tasksets = dict(self._tasksets)
            removed = tasksets.pop(client_id, TaskSet())
            updated = update_client(
                self._composition, tasksets, client_id, ctx=self.model.context
            )
            self._tasksets = tasksets
            self._composition = updated
            self._decisions += 1
            return AdmissionDecision(
                admitted=True,
                client_id=client_id,
                taskset_digest=taskset_digest(removed),
                composition=updated,
                committed=True,
            )

    def reset(self) -> None:
        """Back to the model's baseline workload and composition."""
        with self._lock:
            self._tasksets = dict(self.model.client_tasksets)
            self._composition = self.model.baseline

    # -- design-space views --------------------------------------------------
    def breakdown(
        self, precision: float = 0.01, max_scale: float = 16.0
    ) -> BreakdownResult:
        """Breakdown search over the session's committed workload."""
        return breakdown_scale(
            self.model.topology,
            self.tasksets,
            precision=precision,
            max_scale=max_scale,
            ctx=self.model.context,
        )

    def slack(self) -> dict[int, float]:
        """Per-client leaf-interface bandwidth slack (committed state)."""
        return slack_per_client(self._composition, self._tasksets)

    @property
    def total_utilization(self) -> Fraction:
        """Exact combined utilization of the committed task sets."""
        return sum(
            (ts.utilization for ts in self._tasksets.values()), Fraction(0)
        )
