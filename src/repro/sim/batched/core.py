"""The lock-step batch driver shared by all interconnect kernels.

`BatchCore` owns everything that is *not* the interconnect fabric, for
every trial of a group whatever its design:

* per-request tables padded to ``(N, Rmax)`` — client ids, accumulated
  blocking cycles, completion cycles,
* the per-(trial, client) pending queues — a hybrid layout with Python
  heaps holding the encoded keys (mutated only at releases and accepted
  injections) mirrored by dense ``head_key`` / ``pending_len`` arrays
  for vectorized injection gating; an injection hands the kernel the
  popped key itself,
* the FCFS fixed-latency memory controller as a ring queue over the
  trial axis, and
* the response path as a modular ring of size ``max latency + 2`` (at
  most one completion per cycle per trial, each trial's latency
  constant, so at most one delivery per cycle per trial).

The fabric is ticked by one kernel per design family.  The trials a
kernel covers are a contiguous run of rows, and the kernel sees the
core through a :class:`CoreRows` window onto those rows, so it indexes
the shared arrays with its own row numbers.

Each cycle replays the scalar engine's stage order exactly: client
releases + injections (rogue-burst releases compiled into the plan
land *before* client releases of the same cycle, like the scalar
faults stage), fabric (one call per kernel; the tree kernels tick all
their levels in one pass that reproduces the scalar root-first order),
controller, response delivery.  Trials only ever stop, so the
``active`` mask changes at trial ends alone and each kernel reads a
fixed view of its rows.  The result assembly mirrors
``SoCSimulation._collect`` bit for bit — same trace-record bytes into
the same sha256, same recorder streams, same job-outcome fold, same
conservation check — and additionally writes the per-client job
ledgers (``client.jobs``, ``max_response_by_task``, ``max_blocking``,
release/drop counters) and the fault orchestrator's rogue counters
back onto the simulation objects, so downstream consumers that read
clients directly (the isolation experiment's
:func:`~repro.faults.verify.verify_isolation`) see the same state a
scalar run would leave behind.  Issue-queue internals
(``client._pending`` / ``_job_of_request``) are *not* reconstructed:
requests still in flight at the end of a trial stay accounted in
``TrialResult.requests_in_flight`` only.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np

from repro.clients.traffic_generator import JobRecord
from repro.errors import SimulationError
from repro.sim.batched.extract import BIG, RID_MASK, TrialPlan
from repro.soc import TrialResult

#: ``head_key`` sentinel for an empty pending queue
EMPTY = np.int64(BIG)


class CoreRows:
    """One kernel's window onto rows ``lo:hi`` of a :class:`BatchCore`.

    The per-request tables are views, so a kernel reads client ids and
    charges blocking with its own row numbers; the provider interface
    shifts them back to core rows.
    """

    def __init__(self, core: "BatchCore", lo: int, hi: int) -> None:
        rows = slice(lo, hi)
        self.lo = lo
        self.hi = hi
        self.n = hi - lo
        self.n_ports = core.n_ports
        self.client_ids = core.client_ids
        self.rmax = core.rmax
        self.rclient = core.rclient[rows]
        self.blocking = core.blocking[rows]
        self._q_len = core.q_len[rows]
        self._qcap = core.qcap
        self._core = core

    def provider_space(self) -> np.ndarray:
        """(n,) bool — can the controller accept a request this cycle?"""
        return self._q_len < self._qcap

    def enqueue_provider(self, trials, rids, keys) -> None:
        """Root forward into the controller queue (at most one/trial)."""
        self._core.enqueue_provider(trials + self.lo, rids, keys)


class BatchCore:
    """State and driver for one group of trials sharing a client roster
    and a controller."""

    def __init__(self, sims, plans: list[TrialPlan]) -> None:
        self.sims = sims
        self.plans = plans
        n = len(sims)
        self.n = n
        clients = sims[0].clients
        self.n_ports = sims[0].interconnect.n_clients
        c = len(clients)
        self.n_clients = c
        self.client_ids = np.asarray(
            [client.client_id for client in clients], dtype=np.int64
        )
        self.intervals = np.asarray(
            [getattr(client, "_inject_interval", 1) for client in clients],
            dtype=np.int64,
        )
        self.pending_caps = [client.pending_capacity for client in clients]
        rmax = max(1, max(plan.n_requests for plan in plans))
        self.rmax = rmax
        # padded request tables (rows beyond a trial's own request count
        # are never addressed: every rid flowing through the arrays was
        # released by its own trial)
        self.rclient = np.zeros((n, rmax), dtype=np.int64)
        for t, plan in enumerate(plans):
            self.rclient[t, : plan.n_requests] = plan.req_client_id
        self.blocking = np.zeros((n, rmax), dtype=np.int64)
        self.complete = np.full((n, rmax), -1, dtype=np.int64)
        self.horizon = np.asarray([plan.horizon for plan in plans], np.int64)
        self.total = np.asarray([plan.total for plan in plans], np.int64)
        self.max_total = int(self.total.max())
        # pending queues, one heap per (trial, client) at ``t * c + pos``
        self.heaps = [[] for _ in range(n * c)]
        self.head_key = np.full((n, c), EMPTY, dtype=np.int64)
        self.pending_len = np.zeros((n, c), dtype=np.int64)
        self.last_inject = np.full((n, c), -1, dtype=np.int64)
        for j, client in enumerate(clients):
            last = getattr(client, "_last_inject", None)
            if last is not None:
                self.last_inject[:, j] = last
        self.live = np.zeros(n, dtype=np.int64)
        self.live_total = 0
        self.total_pending = 0
        self.hmin = int(self.horizon.min())
        self.hmax = int(self.horizon.max())
        self.all_interval1 = bool(
            (self.intervals == 1).all() and (self.last_inject < 0).all()
        )
        self.dropped = np.zeros(n, dtype=np.int64)
        self.delivered = np.zeros(n, dtype=np.int64)
        self.job_dropped = [
            np.zeros(plan.n_jobs, dtype=np.int64) for plan in plans
        ]
        # merged release schedule: all trials' jobs, stably sorted by
        # release cycle (per-trial order is preserved; trials are
        # independent so the cross-trial order is immaterial), consumed
        # by a single advancing pointer
        all_rel = np.concatenate(
            [plan.job_release for plan in plans]
        )
        all_t = np.concatenate(
            [
                np.full(plan.n_jobs, t, dtype=np.int64)
                for t, plan in enumerate(plans)
            ]
        )
        all_pos = np.concatenate(
            [plan.job_client_pos.astype(np.int64) for plan in plans]
        )
        all_job = np.concatenate(
            [np.arange(plan.n_jobs, dtype=np.int64) for plan in plans]
        )
        all_s = np.concatenate([plan.starts[:-1] for plan in plans])
        all_e = np.concatenate([plan.starts[1:] for plan in plans])
        order = np.argsort(all_rel, kind="stable")
        self.ev_rel = all_rel[order].tolist()
        self.ev_t = all_t[order].tolist()
        self.ev_pos = all_pos[order].tolist()
        self.ev_heap = (all_t * c + all_pos)[order].tolist()
        self.ev_job = all_job[order].tolist()
        self.ev_s = all_s[order].tolist()
        self.ev_e = all_e[order].tolist()
        self.ev_ptr = 0
        self.unreleased_events = len(self.ev_rel)
        self.key_lists = [plan.key_list for plan in plans]
        # memory controller (FCFS compact queue, fixed service cost; a
        # parallel key column avoids gathers for the blocking charge)
        mc = sims[0].controller
        self.mc_cost = mc.device.cycles_per_access
        self.qcap = mc.queue_capacity
        self.queue = np.zeros((n, self.qcap), dtype=np.int64)
        self.qkeys = np.full((n, self.qcap), EMPTY, dtype=np.int64)
        self.q_len = np.zeros(n, dtype=np.int64)
        self.total_queued = 0
        self.serving = np.full(n, -1, dtype=np.int64)
        self.serving_key = np.full(n, EMPTY, dtype=np.int64)
        self.serving_count = 0
        self.remaining = np.zeros(n, dtype=np.int64)
        # response ring (the latency is uniform within a trial)
        self.latency = np.asarray(
            [
                sim.interconnect.response_latency(clients[0].client_id)
                for sim in sims
            ],
            dtype=np.int64,
        )
        self.ring_size = int(self.latency.max()) + 2
        self.ring = np.full((n, self.ring_size), -1, dtype=np.int64)
        # per-cycle injection masks, reused
        self.mask = np.zeros((n, c), dtype=bool)
        self.space = np.zeros((n, c), dtype=bool)
        self.kernels = []
        self.space_rows = []

    # -- provider interface for the kernels ---------------------------------

    def rows(self, lo: int, hi: int) -> CoreRows:
        """The window a kernel ticking rows ``lo:hi`` sees."""
        return CoreRows(self, lo, hi)

    def enqueue_provider(self, trials, rids, keys) -> None:
        """Root forward into the controller queue (at most one/trial)."""
        pos = self.q_len[trials]
        self.queue[trials, pos] = rids
        self.qkeys[trials, pos] = keys
        self.q_len[trials] += 1
        self.total_queued += len(trials)

    # -- per-cycle stages ----------------------------------------------------

    def _stage_releases(self, cycle: int) -> None:
        ptr = self.ev_ptr
        ev_rel = self.ev_rel
        if ptr >= len(ev_rel) or ev_rel[ptr] != cycle:
            return
        ev_t, ev_pos, ev_heap = self.ev_t, self.ev_pos, self.ev_heap
        ev_s, ev_e, ev_job = self.ev_s, self.ev_e, self.ev_job
        heaps = self.heaps
        heappush = heapq.heappush
        touched = set()
        while ptr < len(ev_rel) and ev_rel[ptr] == cycle:
            t = ev_t[ptr]
            g = ev_heap[ptr]
            heap = heaps[g]
            keys = self.key_lists[t][ev_s[ptr] : ev_e[ptr]]
            free = self.pending_caps[ev_pos[ptr]] - len(heap)
            if len(keys) > free:
                dropped = len(keys) - max(0, free)
                keys = keys[: len(keys) - dropped]
                self.dropped[t] += dropped
                self.job_dropped[t][ev_job[ptr]] += dropped
            if heap:
                for key in keys:
                    heappush(heap, key)
            else:
                # a job's keys ascend, and a sorted list is a heap
                heap.extend(keys)
            self.total_pending += len(keys)
            touched.add(g)
            ptr += 1
        self.unreleased_events -= ptr - self.ev_ptr
        self.ev_ptr = ptr
        flat = list(touched)
        empty = int(EMPTY)
        self.head_key.reshape(-1)[flat] = [
            heaps[g][0] if heaps[g] else empty for g in flat
        ]
        self.pending_len.reshape(-1)[flat] = [len(heaps[g]) for g in flat]

    def _stage_injections(self, cycle: int) -> None:
        if not self.total_pending or cycle >= self.hmax:
            return
        mask = np.not_equal(self.head_key, EMPTY, out=self.mask)
        if cycle >= self.hmin:
            mask &= (cycle < self.horizon)[:, None]
        if not self.all_interval1:
            mask &= cycle - self.last_inject >= self.intervals
        for kernel, space in zip(self.kernels, self.space_rows):
            kernel.inject_space(cycle, space)
        mask &= self.space
        trials, cols = mask.nonzero()
        if not len(trials):
            return
        heaps = self.heaps
        heappop = heapq.heappop
        empty = int(EMPTY)
        popped = []
        new_heads = []
        for g in (trials * self.n_clients + cols).tolist():
            heap = heaps[g]
            popped.append(heappop(heap))
            new_heads.append(heap[0] if heap else empty)
        keys = np.asarray(popped, dtype=np.int64)
        rids = keys & RID_MASK
        # unique (trial, col) pairs — plain fancy scatters are safe
        self.head_key[trials, cols] = new_heads
        self.pending_len[trials, cols] -= 1
        if not self.all_interval1:
            self.last_inject[trials, cols] = cycle
        self.total_pending -= len(trials)
        self.live_total += len(trials)
        # several clients of one trial may inject in the same cycle —
        # accumulate, don't fancy-assign
        np.add.at(self.live, trials, 1)
        # nonzero() lists trials in row order: one slice per kernel
        cuts = trials.searchsorted(self.bounds).tolist()
        for kernel, a, b in zip(self.kernels, cuts, cuts[1:]):
            if a < b:
                kernel.accept(
                    cycle,
                    trials[a:b] - kernel.core.lo,
                    cols[a:b],
                    rids[a:b],
                    keys[a:b],
                )

    def _stage_controller(self, cycle: int, active: np.ndarray) -> None:
        if not self.total_queued and not self.serving_count:
            return
        # pick: idle controller with a queued request starts service
        if self.total_queued:
            t = (active & (self.serving < 0) & (self.q_len > 0)).nonzero()[0]
            if len(t):
                self.serving[t] = self.queue[t, 0]
                self.serving_key[t] = self.qkeys[t, 0]
                self.queue[t, : self.qcap - 1] = self.queue[t, 1:]
                self.qkeys[t, : self.qcap - 1] = self.qkeys[t, 1:]
                self.qkeys[t, self.qcap - 1] = EMPTY
                self.q_len[t] -= 1
                self.total_queued -= len(t)
                self.remaining[t] = self.mc_cost
                self.serving_count += len(t)
        if not self.serving_count:
            return
        busy = active & (self.serving >= 0)
        # queued requests with a smaller key than the one in service
        # accrue one blocking cycle (the scalar controller's charge);
        # empty queue slots hold the EMPTY sentinel and never charge
        if self.total_queued:
            t = (busy & (self.q_len > 0)).nonzero()[0]
            if len(t):
                charge = self.qkeys[t] < self.serving_key[t][:, None]
                if charge.any():
                    rows = t[charge.nonzero()[0]]
                    self.blocking[rows, self.queue[t][charge]] += 1
        self.remaining[busy] -= 1
        done = busy & (self.remaining == 0)
        if done.any():
            t = done.nonzero()[0]
            slot = (cycle + 1 + self.latency[t]) % self.ring_size
            self.ring[t, slot] = self.serving[t]
            self.serving[t] = -1
            self.serving_key[t] = EMPTY
            self.serving_count -= len(t)

    def _stage_responses(self, cycle: int, active: np.ndarray) -> None:
        if not self.live_total:
            return
        slot = cycle % self.ring_size
        rids = self.ring[:, slot]
        t = (active & (rids >= 0)).nonzero()[0]
        if not len(t):
            return
        self.complete[t, rids[t]] = cycle
        self.ring[t, slot] = -1
        self.live[t] -= 1
        self.live_total -= len(t)
        self.delivered[t] += 1

    # -- driver --------------------------------------------------------------

    def run(self, kernels) -> None:
        """Advance every trial to its end; ``kernels`` tick contiguous
        runs of rows, in row order, and together cover all of them."""
        self.kernels = kernels
        self.bounds = [kernel.core.lo for kernel in kernels] + [self.n]
        self.space_rows = [self.space[k.core.lo : k.core.hi] for k in kernels]
        total = self.total
        # a trial only ever stops, so ``active`` changes at trial ends
        # alone, and each kernel reads a fixed view of its own rows
        active = np.ones(self.n, dtype=bool)
        rows = [active[k.core.lo : k.core.hi] for k in kernels]
        ends = sorted(set(total.tolist()))
        for cycle in range(self.max_total):
            if cycle == ends[0]:
                np.less(cycle, total, out=active)
                ends.pop(0)
            for kernel, view in zip(kernels, rows):
                kernel.begin_cycle(cycle, view)
            self._stage_releases(cycle)
            self._stage_injections(cycle)
            for kernel, view in zip(kernels, rows):
                kernel.tick(cycle, view)
            self._stage_controller(cycle, active)
            self._stage_responses(cycle, active)
            if (
                self.unreleased_events == 0
                and not self.live_total
                and not self.total_pending
            ):
                break

    # -- result assembly -----------------------------------------------------

    def finalize(self, t: int) -> TrialResult:
        sim = self.sims[t]
        plan = self.plans[t]
        r = plan.n_requests
        complete = self.complete[t, :r]
        done = np.nonzero(complete >= 0)[0]
        # delivery order == completion-cycle order (one per cycle)
        order = done[np.argsort(complete[done], kind="stable")]
        complete_cycles = complete[order]
        blocking = self.blocking[t, order]
        release = plan.req_release[order]
        deadline = plan.req_deadline[order]
        client_id = plan.req_client_id[order]
        hasher = hashlib.sha256()
        hasher.update(
            "".join(
                f"{rid},{cid},{rel},{comp},{blk};"
                for rid, cid, rel, comp, blk in zip(
                    order.tolist(),
                    client_id.tolist(),
                    release.tolist(),
                    complete_cycles.tolist(),
                    blocking.tolist(),
                )
            ).encode()
        )
        recorder = sim.recorder
        recorder.response_times.extend((complete_cycles - release).tolist())
        recorder.blocking_times.extend(blocking.tolist())
        recorder.completed += len(order)
        recorder.missed += int((complete_cycles > deadline).sum())
        dropped = int(self.dropped[t])
        for _ in range(dropped):
            recorder.record_drop()
        # conservation (mirrors SoCSimulation._collect)
        released = plan.n_requests
        completed = len(order)
        in_flight = int(self.live[t]) + int(self.pending_len[t].sum())
        if completed + dropped + in_flight != released:
            raise SimulationError(
                "request conservation violated: "
                f"released={released}, completed={completed}, "
                f"dropped={dropped}, in_flight={in_flight}"
            )
        # job outcomes
        jobs = plan.n_jobs
        completed_per_job = np.bincount(
            plan.req_job[order], minlength=jobs
        ).astype(np.int64)
        last_completion = np.full(jobs, -1, dtype=np.int64)
        np.maximum.at(last_completion, plan.req_job[order], complete_cycles)
        outstanding = (
            plan.job_wcet.astype(np.int64)
            - completed_per_job
            - self.job_dropped[t]
        )
        met_job = (
            (outstanding == 0)
            & (self.job_dropped[t] == 0)
            & (last_completion <= plan.job_deadline)
        )
        judged = plan.job_monitored & (plan.job_deadline <= plan.horizon)
        judged_per = np.bincount(
            plan.job_client_pos[judged], minlength=self.n_clients
        )
        missed_per = np.bincount(
            plan.job_client_pos[judged & ~met_job], minlength=self.n_clients
        )
        job_outcomes = {
            client.client_id: (int(judged_per[pos]), int(missed_per[pos]))
            for pos, client in enumerate(sim.clients)
        }
        self._write_back_ledgers(
            sim, plan, t, order, complete_cycles, blocking,
            outstanding, last_completion,
        )
        total = plan.total
        sim.cycles_executed = total
        sim.cycles_skipped = 0
        sim.leaps = 0
        fault_counters = self._fault_counters(sim, plan, t)
        return TrialResult(
            horizon=plan.horizon,
            recorder=recorder,
            job_outcomes=job_outcomes,
            requests_released=released,
            requests_completed=completed,
            requests_dropped=dropped,
            requests_in_flight=in_flight,
            cycles_executed=total,
            cycles_skipped=0,
            trace_digest=hasher.hexdigest(),
            fault_counters=fault_counters,
        )

    def _fault_counters(self, sim, plan: TrialPlan, t: int) -> dict:
        """Rebuild the orchestrator's ledger for compiled rogue plans.

        The orchestrator never executed (its bursts were compiled into
        the release schedule), so its counters would read zero; the
        batch knows exactly what the scalar run would have recorded:
        every firing applied (or ignored for a missing target), and
        every burst transaction released with capacity overflows
        dropped.  The counts are written back onto ``sim.faults`` so
        the object reads like a post-run scalar orchestrator.
        """
        fo = sim.faults
        if fo is None:
            return {}
        rogue = ~plan.job_real
        attempted = int(plan.job_wcet[rogue].sum())
        dropped = int(self.job_dropped[t][rogue].sum())
        fo.rogue_requests = attempted - dropped
        fo.events_applied = plan.rogue_fired
        fo.events_ignored = plan.rogue_ignored
        return fo.counters()

    def _write_back_ledgers(
        self,
        sim,
        plan: TrialPlan,
        t: int,
        order: np.ndarray,
        complete_cycles: np.ndarray,
        blocking: np.ndarray,
        outstanding: np.ndarray,
        last_completion: np.ndarray,
    ) -> None:
        """Leave each client looking like the scalar run finished on it.

        Reconstructs the per-client job ledgers the scalar response
        path and release loop maintain incrementally: ``jobs`` (one
        :class:`JobRecord` per *declared* job, in release order —
        rogue pseudo-jobs carry no record, exactly like
        ``inject_rogue_burst``), the release/drop counters, and the
        worst-case observables ``max_response_by_task`` /
        ``max_blocking`` the isolation harness compares against the
        analytical bounds.  Client rng state and issue-queue internals
        (``_pending`` / ``_job_of_request``) are not touched — neither
        affects any recorded outcome.
        """
        c = self.n_clients
        job_dropped = self.job_dropped[t]
        released = np.zeros(c, dtype=np.int64)
        np.add.at(released, plan.job_client_pos, plan.job_wcet)
        dropped = np.zeros(c, dtype=np.int64)
        np.add.at(dropped, plan.job_client_pos, job_dropped)
        # worst observed response per task / blocking per client, over
        # every completion
        req_job_done = plan.req_job[order]
        task_resp = np.full(len(plan.task_names), -1, dtype=np.int64)
        blk_max = np.zeros(c, dtype=np.int64)
        if len(order):
            responses = complete_cycles - plan.req_release[order]
            np.maximum.at(task_resp, plan.job_task[req_job_done], responses)
            np.maximum.at(
                blk_max, plan.job_client_pos[req_job_done], blocking
            )
        task_pos = np.zeros(len(plan.task_names), dtype=np.int64)
        task_pos[plan.job_task] = plan.job_client_pos
        per_client_jobs: list[list[JobRecord]] = [[] for _ in range(c)]
        jpos = plan.job_client_pos.tolist()
        jtask = plan.job_task.tolist()
        jrel = plan.job_release.tolist()
        jdl = plan.job_deadline.tolist()
        jmon = plan.job_monitored.tolist()
        jout = outstanding.tolist()
        jlast = last_completion.tolist()
        jdrop = job_dropped.tolist()
        names = plan.task_names
        for j in np.nonzero(plan.job_real)[0].tolist():
            per_client_jobs[jpos[j]].append(
                JobRecord(
                    task_name=names[jtask[j]],
                    release=jrel[j],
                    deadline=jdl[j],
                    outstanding=jout[j],
                    monitored=jmon[j],
                    last_completion=jlast[j],
                    dropped=jdrop[j],
                )
            )
        clients = sim.clients
        for pos, client in enumerate(clients):
            client.jobs = per_client_jobs[pos]
            client.released_jobs = len(per_client_jobs[pos])
            client.released_requests = int(released[pos])
            client.dropped_requests = int(dropped[pos])
            client.max_blocking = int(blk_max[pos])
        for k in np.nonzero(task_resp >= 0)[0].tolist():
            # distinct rogue pseudo-tasks of one client share the
            # "!rogue" name; merge via max like the scalar dict update
            table = clients[task_pos[k]].max_response_by_task
            name = names[k]
            if int(task_resp[k]) > table.get(name, -1):
                table[name] = int(task_resp[k])
