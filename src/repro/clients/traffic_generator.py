"""Traffic-generator clients (paper Sec. 6.3).

A traffic generator replays a periodic task set as memory traffic
without processing any data: each job of task ``(T, C)`` releases a
burst of ``C`` transactions (the task's memory demand in transaction
time units) with the job's absolute deadline.  Pending transactions are
issued to the interconnect in EDF order, one per cycle — the per-client
"fixed priority scheduler, with the request priority assigned using
GEDF" of the paper's setup.

Job bookkeeping supports the case study (Fig. 7): a *job* succeeds when
every one of its transactions completes by its deadline, and a trial
succeeds when no monitored task misses any job.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memory.request import MemoryRequest, RequestKind
from repro.tasks.taskset import TaskSet


@dataclass
class JobRecord:
    """Completion tracking for one released job."""

    task_name: str
    release: int
    deadline: int
    outstanding: int
    monitored: bool
    last_completion: int = -1
    dropped: int = 0

    @property
    def finished(self) -> bool:
        return self.outstanding == 0

    @property
    def met_deadline(self) -> bool:
        return self.finished and self.dropped == 0 and self.last_completion <= self.deadline


class TrafficGenerator:
    """A client that converts a periodic task set into memory requests."""

    #: address stride between consecutive requests of one burst
    BURST_STRIDE = 64

    def __init__(
        self,
        client_id: int,
        taskset: TaskSet,
        pending_capacity: int = 256,
        rng: random.Random | None = None,
        write_ratio: float = 0.0,
        monitored_tasks: set[str] | None = None,
    ) -> None:
        if client_id < 0:
            raise ConfigurationError(f"client id must be >= 0, got {client_id}")
        if pending_capacity <= 0:
            raise ConfigurationError("pending capacity must be positive")
        if not 0.0 <= write_ratio <= 1.0:
            raise ConfigurationError(f"write ratio {write_ratio} outside [0, 1]")
        self.client_id = client_id
        self.taskset = taskset
        self.pending_capacity = pending_capacity
        self.rng = rng if rng is not None else random.Random(client_id)
        self.write_ratio = write_ratio
        self.monitored_tasks = monitored_tasks
        # Give each client its own 16 MB window so DRAM banks/rows differ.
        self.address_base = client_id << 24
        # (next_release, task_index, job_index) min-heap; every task
        # releases its first job at cycle 0
        self._release_heap: list[tuple[int, int, int]] = [
            (0, index, 0) for index in range(len(taskset))
        ]
        # pending transactions in EDF order
        self._pending: list[tuple[tuple[int, int], MemoryRequest]] = []
        self.jobs: list[JobRecord] = []
        self._job_of_request: dict[int, JobRecord] = {}
        self.released_jobs = 0
        self.released_requests = 0
        self.dropped_requests = 0
        # Per-task worst observed response and worst blocking, updated
        # on every completion — the isolation harness compares these
        # against the analytical bounds (repro.faults.verify).
        self.max_response_by_task: dict[str, int] = {}
        self.max_blocking = 0

    # -- releases ------------------------------------------------------------
    def _release_due_jobs(self, cycle: int) -> None:
        heap = self._release_heap
        while heap and heap[0][0] <= cycle:
            release, task_index, job_index = heapq.heappop(heap)
            task = self.taskset[task_index]
            heapq.heappush(
                heap, (release + task.period, task_index, job_index + 1)
            )
            deadline = release + task.deadline
            monitored = (
                self.monitored_tasks is None or task.name in self.monitored_tasks
            )
            job = JobRecord(
                task_name=task.name,
                release=release,
                deadline=deadline,
                outstanding=task.wcet,
                monitored=monitored,
            )
            self.jobs.append(job)
            self.released_jobs += 1
            base = self.address_base + (task_index << 16)
            for burst_index in range(task.wcet):
                kind = (
                    RequestKind.WRITE
                    if self.rng.random() < self.write_ratio
                    else RequestKind.READ
                )
                request = MemoryRequest(
                    client_id=self.client_id,
                    release_cycle=release,
                    absolute_deadline=deadline,
                    kind=kind,
                    address=base + burst_index * self.BURST_STRIDE,
                    task_name=task.name,
                )
                self.released_requests += 1
                if len(self._pending) >= self.pending_capacity:
                    # Queue overflow: the transaction can never make
                    # its deadline; count it against the job.
                    self.dropped_requests += 1
                    job.dropped += 1
                    job.outstanding -= 1
                    continue
                heapq.heappush(self._pending, (request.priority_key, request))
                self._job_of_request[request.rid] = job

    # -- issue ----------------------------------------------------------------
    def tick(self, cycle: int, inject) -> None:  # noqa: ANN001 - hook
        """Release due jobs, then offer the head transaction.

        ``inject`` is ``interconnect.try_inject``.  The client has one
        memory port: the head of the EDF pending queue is offered and, if refused, stays at the head
        and is retried next cycle.
        """
        self._release_due_jobs(cycle)
        if self._pending and inject(self._pending[0][1], cycle):
            heapq.heappop(self._pending)

    # -- fault hook ------------------------------------------------------------
    def inject_rogue_burst(
        self,
        cycle: int,
        count: int,
        deadline_slack: int,
        task_name: str = "!rogue",
    ) -> int:
        """Misbehave: release ``count`` contract-violating transactions.

        The fault orchestrator's rogue-client model — transactions
        beyond the declared task set, released straight into the
        pending queue with a tight absolute deadline (``cycle +
        deadline_slack``).  They carry no :class:`JobRecord`, so the
        client's monitored job statistics keep describing its *declared*
        workload; ``released_requests`` does count them (conservation).
        Overflowing transactions are dropped like any other release.
        Returns the number actually queued.
        """
        if count < 1:
            raise ConfigurationError(f"burst count must be >= 1, got {count}")
        if deadline_slack < 1:
            raise ConfigurationError(
                f"deadline slack must be >= 1, got {deadline_slack}"
            )
        injected = 0
        base = self.address_base + (0xF << 20)
        for index in range(count):
            request = MemoryRequest(
                client_id=self.client_id,
                release_cycle=cycle,
                absolute_deadline=cycle + deadline_slack,
                address=base + index * self.BURST_STRIDE,
                task_name=task_name,
            )
            self.released_requests += 1
            if len(self._pending) >= self.pending_capacity:
                self.dropped_requests += 1
                continue
            heapq.heappush(self._pending, (request.priority_key, request))
            injected += 1
        return injected

    # -- scenario hooks ---------------------------------------------------------
    def scenario_join(self, cycle: int, tasks: TaskSet) -> None:
        """Install additional tasks mid-run, first releases phased at ``cycle``.

        The :class:`~repro.scenarios.driver.ScenarioDriver`'s
        ``CLIENT_JOIN`` hook.  Existing tasks, queued transactions and
        job statistics are untouched; the new tasks release strictly
        periodically from the join cycle on.  The declared task set is
        replaced copy-on-write — the caller's TaskSet object must not
        observe the join (it may seed another simulation).
        """
        merged = TaskSet(list(self.taskset))
        for task in tasks:
            index = len(merged)
            merged.add(task)
            heapq.heappush(self._release_heap, (cycle, index, 0))
        self.taskset = merged

    def scenario_leave(self, cycle: int) -> None:
        """Power the client down: no further releases, queued work withdrawn.

        Transactions already inside the fabric complete normally (their
        responses are still accounted), but queued-not-yet-injected ones
        are withdrawn (counted as drops, conservation-wise) and the
        client's unfinished jobs stop being monitored — a departed
        client's deadlines have no observer.
        """
        del cycle  # the leave takes effect immediately
        self._release_heap.clear()
        # Unmonitor before withdrawing: withdrawal drives a job's
        # outstanding count to zero, which would make it look finished
        # (and judged as missed via its drops) instead of abandoned.
        self._abandon_unfinished_jobs()
        self._withdraw_queued()
        self.taskset = TaskSet()

    def scenario_retask(self, cycle: int, taskset: TaskSet) -> None:
        """Replace the declared task set (rate change / mode switch).

        The old mode's queued work is abandoned exactly like a leave —
        a mode switch restarts the client's workload — then the new
        set's releases start phased at ``cycle``.
        """
        self._release_heap.clear()
        self._abandon_unfinished_jobs()
        self._withdraw_queued()
        self.taskset = TaskSet(list(taskset))
        for index, _task in enumerate(self.taskset):
            heapq.heappush(self._release_heap, (cycle, index, 0))

    def _withdraw_queued(self) -> None:
        """Drop every pending-but-uninjected transaction (conservation-safe)."""
        for _key, request in self._pending:
            job = self._job_of_request.pop(request.rid, None)
            if job is not None:
                job.dropped += 1
                job.outstanding -= 1
            self.dropped_requests += 1
        self._pending.clear()

    def _abandon_unfinished_jobs(self) -> None:
        """Stop judging jobs the departing/switching workload abandons."""
        for job in self.jobs:
            if not job.finished:
                job.monitored = False

    # -- completion ------------------------------------------------------------
    def on_response(self, request: MemoryRequest) -> None:
        """Account a completed transaction against its job."""
        response = request.response_time
        if response > self.max_response_by_task.get(request.task_name, -1):
            self.max_response_by_task[request.task_name] = response
        if request.blocking_cycles > self.max_blocking:
            self.max_blocking = request.blocking_cycles
        job = self._job_of_request.pop(request.rid, None)
        if job is None:
            return
        job.outstanding -= 1
        job.last_completion = max(job.last_completion, request.complete_cycle)

    # -- quiescence ------------------------------------------------------------
    def is_quiescent(self) -> bool:
        """True while the client has nothing to offer the interconnect.

        With an empty pending queue a tick only checks the release heap,
        a no-op until the next release — which
        :meth:`next_activity_cycle` declares.  A non-empty queue means
        the client retries injection every cycle (it may be blocked by
        backpressure), so it is never quiescent then.
        """
        return not self._pending

    def next_activity_cycle(self, cycle: int) -> int | None:
        """The next job release.  Declared even when injection is
        blocked: request ids are allocated globally in release order
        (and tie-break EDF), so releases must land on exact cycles."""
        if self._release_heap:
            return self._release_heap[0][0]
        return None

    # -- outcome -------------------------------------------------------------
    def monitored_job_misses(self, horizon: int) -> int:
        """Monitored jobs that missed (or could not finish by) their deadline.

        Only jobs whose deadline falls within the simulated horizon are
        judged, so truncation at the end of a trial does not create
        phantom misses.
        """
        misses = 0
        for job in self.jobs:
            if not job.monitored or job.deadline > horizon:
                continue
            if not job.met_deadline:
                misses += 1
        return misses

    def monitored_jobs_judged(self, horizon: int) -> int:
        return sum(
            1 for job in self.jobs if job.monitored and job.deadline <= horizon
        )

    @property
    def pending_count(self) -> int:
        return len(self._pending)
