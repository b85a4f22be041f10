"""Eligibility checks + per-trial plan extraction for the SoA backend.

The batched backend does not reinterpret arbitrary simulations; it
recognizes exactly the configurations the experiment campaigns build
(EDF traffic generators / processor clients / the accelerator client
over one of the six interconnect designs with a fresh FCFS fixed-latency
memory controller) and compiles each into a :class:`TrialPlan`:

* the full request-release schedule, replayed *non-destructively* from
  each client's release heap (so falling back to the scalar engine
  afterwards is always still possible),
* request ids assigned exactly as the scalar engine would — rids are
  handed out in client-list order within a cycle, in heap-pop order
  within a client, and *before* the pending-capacity check (drops do
  not perturb the numbering),
* encoded priority keys ``deadline * 2**24 + rid`` whose int64 ordering
  matches the scalar tuple ``(absolute_deadline, rid)`` — guarded by
  the ``deadline < 2**24`` / ``rid < 2**24`` eligibility bound.

Fault plans are part of the envelope: a rogue burst is just a
deterministic batch of extra releases, so each firing compiles into a
pseudo-task job ordered exactly where the scalar
:class:`~repro.faults.injectors.FaultOrchestrator` would release it
(the faults stage ticks *before* the clients within a cycle, and
same-cycle firings pop from the action heap in event order).

Anything outside the envelope raises :class:`Ineligible`; callers
(:func:`repro.sim.batched.run_many`) respond by running that trial on
the scalar engine, which is always bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clients.accelerator import AcceleratorClient
from repro.clients.processor import ProcessorClient
from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.core.local_scheduler import LocalScheduler
from repro.core.random_access_buffer import RandomAccessBuffer
from repro.core.scale_element import ScaleElement
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.bluetree import (
    BlueTreeInterconnect,
    BlueTreeSmoothInterconnect,
)
from repro.interconnects.gsmtree import GsmTreeInterconnect
from repro.memory.controller import ArbitrationPolicy, MemoryController
from repro.memory.dram import FixedLatencyDevice

#: bits reserved for the request id in the encoded priority key
SHIFT = 24
KEY_SCALE = 1 << SHIFT
RID_MASK = KEY_SCALE - 1
#: larger than any encodable key; used as the "empty" sentinel
BIG = np.int64(1) << np.int64(62)

#: client types the batched kernels model (exact types, not subclasses
#: we have never seen — a subclass may override tick()/on_response())
_CLIENT_TYPES = (TrafficGenerator, ProcessorClient, AcceleratorClient)

_MUX_TYPES = (
    BlueTreeInterconnect,
    BlueTreeSmoothInterconnect,
    GsmTreeInterconnect,
)


class Ineligible(Exception):
    """This simulation cannot run on the batched backend (fall back)."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise Ineligible(reason)


def _check_controller(sim) -> None:
    mc = sim.controller
    _require(type(mc) is MemoryController, "non-default memory controller")
    _require(mc.policy is ArbitrationPolicy.FCFS, "non-FCFS controller policy")
    _require(
        not mc._queue and mc._in_service is None, "controller not fresh"
    )
    _require(
        type(mc.device) is FixedLatencyDevice, "non-fixed-latency device"
    )
    _require(mc.device.cycles_per_access >= 1, "bad device latency")


def _check_clients(sim) -> None:
    for client in sim.clients:
        _require(type(client) in _CLIENT_TYPES, "unknown client type")
        _require(
            not client._pending
            and not client.jobs
            and not client._job_of_request
            and client.released_requests == 0
            and client.dropped_requests == 0,
            "client not fresh",
        )


def _check_interconnect(sim) -> None:
    ic = sim.interconnect
    _require(ic.controller is sim.controller, "controller not attached")
    _require(not ic._responses, "responses in flight")
    if type(ic) in _MUX_TYPES:
        _require(ic._occupancy == 0, "interconnect not fresh")
        _require(
            all(
                not fifo
                for node in ic.nodes.values()
                for fifo in node.fifos
            ),
            "interconnect not fresh",
        )
        if type(ic) is GsmTreeInterconnect:
            _require(
                all(c == ic.CREDIT_CAP for c in ic._credits)
                and ic._last_credit_cycle == -1,
                "GSM credits not fresh",
            )
    elif type(ic) is AxiIcRtInterconnect:
        _require(
            ic._occupancy == 0
            and not ic._pipeline
            and all(not fifo for fifo in ic._fifos),
            "interconnect not fresh",
        )
        if ic.window is not None:
            _require(
                ic._next_refill == 0 and list(ic._tokens) == list(ic._budgets),
                "AXI regulation not fresh",
            )
    elif type(ic) is BlueScaleInterconnect:
        _require(ic._occupancy == 0, "interconnect not fresh")
        for element in ic.elements.values():
            # exact types, as for clients: the kernel hard-codes the
            # paper's nested EDF over random-access priority buffers,
            # so a substituted scheduler or buffer (the ablations'
            # round-robin / FIFO variants) must take the scalar engine
            _require(
                type(element) is ScaleElement
                and type(element.scheduler) is LocalScheduler
                and all(
                    type(buffer) is RandomAccessBuffer
                    for buffer in element.buffers
                ),
                "non-default scale-element part",
            )
            _require(
                all(buffer.empty for buffer in element.buffers),
                "interconnect not fresh",
            )
            for server in element.scheduler.servers:
                period = server.counters.period
                budget = server.counters.budget
                _require(
                    server.counters.p_counter.value == period
                    and server.counters.b_counter.value == budget
                    and server.deadline == period,
                    "scale-element servers not fresh",
                )
    else:
        raise Ineligible("unknown interconnect type")


def check_supported(sim) -> None:
    """Raise :class:`Ineligible` unless ``sim`` fits the SoA envelope."""
    _require(sim.tracer is None, "observability tracing enabled")
    # Workload churn rewrites the release schedule mid-run (joins,
    # leaves, retasks) and may reprogram SE budgets through its
    # admission gate — none of which the static SoA request schedule
    # can express, so scenario-bearing trials take the scalar engine.
    _require(getattr(sim, "scenario", None) is None, "scenario plan attached")
    if sim.faults is not None:
        # Rogue bursts are pure extra releases and compile into the
        # plan (see extract_plan).
        _require(
            sim.faults.events_applied == 0
            and sim.faults.events_ignored == 0
            and sim.faults.rogue_requests == 0,
            "fault orchestrator not fresh",
        )
    _check_controller(sim)
    _check_clients(sim)
    _check_interconnect(sim)
    # constant response latency across clients (holds for all six
    # designs: tree depth is uniform, AXI uses the pipeline latency)
    latencies = {
        sim.interconnect.response_latency(client.client_id)
        for client in sim.clients
    }
    _require(len(latencies) == 1, "non-uniform response latency")


def batched_supported(sim) -> bool:
    """True when this simulation would run on the SoA kernels (rather
    than transparently falling back to the scalar engine)."""
    try:
        check_supported(sim)
        signature_of(sim)
    except Ineligible:
        return False
    return True


def signature_of(sim):
    """Grouping key: trials with equal signatures advance in lock-step
    through one :class:`~repro.sim.batched.core.BatchCore`.

    A group shares what the core's loop cannot hold per trial: the port
    count, the client roster and the controller.  Trials of every
    design share one core; :func:`kernel_key` then splits a group into
    the fabric kernels that tick its rows.  Everything else — response
    latency, budgets, frames, FIFO capacities, server parameters — is a
    per-trial column."""
    check_supported(sim)
    clients = tuple(
        (
            type(client).__name__,
            client.client_id,
            getattr(client, "_inject_interval", 1),
            client.pending_capacity,
        )
        for client in sim.clients
    )
    mc = sim.controller
    return (
        sim.interconnect.n_clients,
        clients,
        (mc.device.cycles_per_access, mc.queue_capacity),
    )


def kernel_key(sim) -> tuple:
    """Which fabric kernel ticks this trial within its group.

    Every mux-tree design shares one kernel — FIFO capacity, BlueTree
    α, FCFS vs streak arbitration and the GSMTree frame are per-trial
    columns of :class:`~repro.sim.batched.muxtree.MuxTreeKernel`.  AXI
    trials share a kernel per FIFO capacity and regulation window,
    BlueScale trials per fanout and port-buffer depth."""
    ic = sim.interconnect
    if type(ic) in _MUX_TYPES:
        return ("mux",)
    if type(ic) is AxiIcRtInterconnect:
        return ("axi", ic.fifo_capacity, ic.window)
    # BlueScaleInterconnect — _check_interconnect rejected the others
    return (
        "bluescale",
        ic.topology.fanout,
        ic.elements[(0, 0)].buffers[0].capacity,
    )


@dataclass
class TrialPlan:
    """Everything one trial contributes to the batch: its horizon and
    the fully-resolved release schedule (requests, jobs, drop-free rid
    numbering, per-cycle release buckets).

    Rogue-burst firings appear as jobs of appended *pseudo-tasks*
    (``job_real`` False, one pseudo-task per compiled fault event):
    their releases, capacity drops and completions flow through exactly
    the same arrays as declared work, and the finalizer uses
    ``job_real`` / ``rogue_fired`` / ``rogue_ignored`` to rebuild the
    orchestrator's ledger and keep rogue traffic out of the per-client
    job records."""

    horizon: int
    drain: int
    n_requests: int
    n_jobs: int
    # per-request tables, indexed by rid
    req_key: np.ndarray  # int64: deadline * KEY_SCALE + rid
    req_release: np.ndarray  # int64
    req_deadline: np.ndarray  # int64
    req_client_id: np.ndarray  # int32: actual port id (trace records)
    req_job: np.ndarray  # int32: global job index
    # per-job tables, indexed by job — jobs are already sorted in
    # scalar release order (cycle, faults stage before clients, client
    # position, heap-pop order)
    job_client_pos: np.ndarray  # int32: position in sim.clients
    job_release: np.ndarray  # int64
    job_deadline: np.ndarray  # int64
    job_monitored: np.ndarray  # bool
    job_wcet: np.ndarray  # int32
    #: request table offsets per job: job j owns rids starts[j]:starts[j+1]
    starts: np.ndarray  # int64, length n_jobs + 1
    #: req_key as a plain Python list (fast slicing for heap pushes)
    key_list: list
    #: task table: names per global task index (pseudo-tasks included)
    task_names: tuple = ()
    #: per-job global task index into ``task_names``
    job_task: np.ndarray = None  # int32
    #: per-job flag: declared workload (True) vs rogue pseudo-job
    job_real: np.ndarray = None  # bool
    #: rogue firings compiled in / ignored (missing target client)
    rogue_fired: int = 0
    rogue_ignored: int = 0

    @property
    def total(self) -> int:
        return self.horizon + self.drain


def extract_plan(sim, horizon: int, drain: int) -> TrialPlan:
    """Replay the release heaps into a complete request schedule.

    Read-only with respect to ``sim``: heaps are copied before popping,
    and no client rng is consumed (the read/write kind draw, the only
    one a client makes, affects neither arbitration nor the trace).
    """
    # the heap pops entries in (release, task_index, job_index) order and
    # every task advances by a fixed period, so the full pop sequence is
    # the lexsorted union of per-task arithmetic release trains — no heap
    # needed
    rel_parts: list[np.ndarray] = []
    pos_parts: list[np.ndarray] = []
    gti_parts: list[np.ndarray] = []
    ji_parts: list[np.ndarray] = []
    t_deadline: list[int] = []
    t_wcet: list[int] = []
    t_monitored: list[bool] = []
    t_client_id: list[int] = []
    t_name: list[str] = []
    t_real: list[bool] = []
    for pos, client in enumerate(sim.clients):
        taskset = list(client.taskset)
        base = len(t_deadline)
        for task in taskset:
            t_deadline.append(task.deadline)
            t_wcet.append(task.wcet)
            t_monitored.append(
                client.monitored_tasks is None
                or task.name in client.monitored_tasks
            )
            t_client_id.append(client.client_id)
            t_name.append(task.name)
            t_real.append(True)
        for first, task_index, job_index in client._release_heap:
            if first >= horizon:
                continue
            period = taskset[task_index].period
            count = (horizon - 1 - first) // period + 1
            rel_parts.append(
                np.arange(first, horizon, period, dtype=np.int64)
            )
            pos_parts.append(np.full(count, pos, dtype=np.int64))
            gti_parts.append(
                np.full(count, base + task_index, dtype=np.int64)
            )
            ji_parts.append(
                np.arange(job_index, job_index + count, dtype=np.int64)
            )
    # rogue-burst fault events compile into pseudo-tasks: one per event,
    # one job per firing, wcet = burst magnitude, relative deadline =
    # the burst's deadline slack.  Firings targeting a port with no
    # client are counted (the scalar orchestrator's events_ignored) but
    # release nothing.
    rogue_fired = 0
    rogue_ignored = 0
    events = () if sim.faults is None else sim.faults.plan.events
    if events:
        total = horizon + drain
        pos_of_id = {
            client.client_id: pos for pos, client in enumerate(sim.clients)
        }
        for event in events:
            firings = [c for c in event.action_cycles() if c < total]
            if not firings:
                continue
            target = pos_of_id.get(event.client_id)
            if target is None:
                rogue_ignored += len(firings)
                continue
            rogue_fired += len(firings)
            pseudo = len(t_deadline)
            t_deadline.append(event.deadline_slack)
            t_wcet.append(event.magnitude)
            t_monitored.append(False)
            t_client_id.append(event.client_id)
            t_name.append("!rogue")
            t_real.append(False)
            count = len(firings)
            rel_parts.append(np.asarray(firings, dtype=np.int64))
            pos_parts.append(np.full(count, target, dtype=np.int64))
            gti_parts.append(np.full(count, pseudo, dtype=np.int64))
            ji_parts.append(np.arange(count, dtype=np.int64))
    if rel_parts:
        release = np.concatenate(rel_parts)
        pos_arr = np.concatenate(pos_parts)
        gti = np.concatenate(gti_parts)
        ji = np.concatenate(ji_parts)
    else:
        release = pos_arr = gti = ji = np.zeros(0, dtype=np.int64)
    t_real_arr = np.asarray(t_real, dtype=bool) if t_real else np.zeros(0, bool)
    job_real = t_real_arr[gti]
    # global rid order: by cycle, then stage (the fault orchestrator is
    # the first tick stage, so same-cycle rogue releases precede every
    # client release; among rogue firings the action heap pops in event
    # order, which is pseudo-task append order), then client-list
    # position, then the client's own heap-pop order ((task, job)
    # within equal releases; base offsets keep the global task index
    # consistent with the local)
    sort_stage = job_real.astype(np.int64)
    sort_pos = np.where(job_real, pos_arr, 0)
    order = np.lexsort((ji, gti, sort_pos, sort_stage, release))
    release = release[order]
    pos_arr = pos_arr[order]
    gti = gti[order]
    job_real = job_real[order]
    t_deadline_arr = np.asarray(t_deadline, dtype=np.int64)
    t_wcet_arr = np.asarray(t_wcet, dtype=np.int64)
    deadline = release + t_deadline_arr[gti]
    if deadline.size and int(deadline.max()) >= KEY_SCALE:
        raise Ineligible("absolute deadline exceeds key range")
    wcet = t_wcet_arr[gti]
    n_jobs = len(release)
    starts = np.zeros(n_jobs + 1, dtype=np.int64)
    np.cumsum(wcet, out=starts[1:])
    n_requests = int(starts[-1])
    if n_requests >= KEY_SCALE:
        raise Ineligible("request count exceeds key range")
    req_job = np.repeat(np.arange(n_jobs, dtype=np.int64), wcet)
    req_deadline = deadline[req_job]
    req_key = req_deadline * KEY_SCALE + np.arange(
        n_requests, dtype=np.int64
    )
    return TrialPlan(
        horizon=horizon,
        drain=drain,
        n_requests=n_requests,
        n_jobs=n_jobs,
        req_key=req_key,
        req_release=release[req_job],
        req_deadline=req_deadline,
        req_client_id=np.asarray(t_client_id, dtype=np.int32)[gti][req_job],
        req_job=req_job.astype(np.int32),
        job_client_pos=pos_arr.astype(np.int32),
        job_release=release,
        job_deadline=deadline,
        job_monitored=np.asarray(t_monitored, dtype=bool)[gti],
        job_wcet=wcet.astype(np.int32),
        starts=starts,
        key_list=req_key.tolist(),
        task_names=tuple(t_name),
        job_task=gti.astype(np.int32),
        job_real=job_real,
        rogue_fired=rogue_fired,
        rogue_ignored=rogue_ignored,
    )
