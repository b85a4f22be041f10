"""Worst-case response-time (WCRT) estimation on periodic resources.

The dbf<=sbf test answers *whether* deadlines are met; systems work
also needs *how early* — e.g. to size end-to-end latency budgets.  This
module derives demand-based WCRT bounds for EDF on a periodic resource
and composes them along a BlueScale path.

Each port's bound adapts Spuri's EDF response-time analysis to supply
bound functions, with release jitter per task (:func:`_port_wcrts`).
``holistic_response_bounds`` composes it along BlueScale paths: each
task's accumulated upstream response becomes its jitter at the next
tree level (Tindell-style holistic analysis), and the per-level WCRTs
plus the constant pipeline latency bound the end-to-end response.  The
bounds are validated against simulated maxima in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import vectorized
from repro.analysis.composition import CompositionResult, default_deadline_margin
from repro.analysis.context import AnalysisContext
from repro.analysis.prm import ResourceInterface, sbf
from repro.analysis.schedulability import is_schedulable
from repro.errors import ConfigurationError, InfeasibleError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


def supply_inverse(demand: int, interface: ResourceInterface) -> int:
    """Smallest t with ``sbf(t) >= demand`` (the supply delay bound).

    Closed form from the sbf structure: ``demand`` splits into full
    budgets plus a remainder delivered inside one period.
    """
    if demand < 0:
        raise ConfigurationError(f"demand must be non-negative, got {demand}")
    if demand == 0:
        return 0
    if interface.budget == 0:
        raise InfeasibleError("zero-budget interface never supplies demand")
    period, budget = interface.period, interface.budget
    full_periods, remainder = divmod(demand, budget)
    if remainder == 0:
        full_periods -= 1
        remainder = budget
    # t' must reach full_periods*period + (period - budget) + remainder
    t_prime = full_periods * period + (period - budget) + remainder
    t = t_prime + (period - budget)
    assert sbf(t, interface) >= demand
    assert t == 0 or sbf(t - 1, interface) < demand
    return t


_BUSY_PERIOD_CAP = 10_000_000


def busy_period_length(
    taskset: TaskSet,
    interface: ResourceInterface,
    jitters: dict[str, int] | None = None,
) -> int:
    """Length of the longest supply-busy period.

    Smallest ``t > 0`` with ``sbf(t) >= sum_i ceil((t + J_i)/T_i)*C_i``
    — the window in which any job's interference must fall.  ``J_i``
    is task i's release jitter (upstream delay), 0 by default.
    """
    if len(taskset) == 0:
        return 0
    jitters = jitters or {}
    t = supply_inverse(sum(task.wcet for task in taskset), interface)
    while True:
        released = sum(
            -(-(t + jitters.get(task.name, 0)) // task.period) * task.wcet
            for task in taskset
        )
        t_next = supply_inverse(released, interface)
        if t_next <= t:
            return t
        if t_next > _BUSY_PERIOD_CAP:
            raise InfeasibleError(
                f"busy period exceeds {_BUSY_PERIOD_CAP}: bandwidth too "
                "close to the task-set utilization"
            )
        t = t_next


@dataclass(frozen=True)
class PathResponseBound:
    """End-to-end response bound of one client's tasks, per component.

    ``level_wcrt[i][name]`` is the task's WCRT at the i-th tree level on
    its path (leaf first): at each level the request re-queues against
    the whole subtree sharing that level's interface, so the end-to-end
    bound is the sum of per-level WCRTs plus the constant path latency.
    This holistic composition is pessimistic (each level assumes a fresh
    worst case) but holds against simulated maxima across the
    integration suite.
    """

    client_id: int
    #: per-level WCRT, leaf level first
    level_wcrt: list[dict[str, int]]
    #: constant pipeline + response-path latency
    path_latency: int

    def bound_for(self, task_name: str) -> int:
        return (
            sum(level[task_name] for level in self.level_wcrt)
            + self.path_latency
        )


def _qualified(client_id: int, task: PeriodicTask) -> PeriodicTask:
    """Copy of ``task`` with a tree-unique name (clients may reuse names)."""
    return PeriodicTask(
        period=task.period,
        wcet=task.wcet,
        name=f"c{client_id}:{task.name}",
        client_id=client_id,
    )


def _port_wcrts(
    tasks: list[PeriodicTask],
    interface: ResourceInterface,
    jitters: dict[str, int],
    *,
    checked: bool,
    ctx: AnalysisContext,
) -> list[int]:
    """WCRT of each of one port's ``tasks`` against all of them.

    Spuri's EDF response-time analysis adapted to supply bound
    functions: for each release offset ``a`` of task k inside the
    port's busy period, the job with absolute deadline ``d = a + D_k``
    completes by the fixpoint of

        t = supply_inverse( (a//T_k + 1)*C_k + blocking
                            + Σ_{i≠k} min(r_i(t), e_i(d))·C_i )

    where ``r_i(t) = ⌈(t + J_i)/T_i⌉`` counts task i's jobs released
    before ``t`` and ``e_i(d) = max(⌊(d − D_i + J_i)/T_i⌋ + 1, 0)``
    those due no later than ``d``; ``J_i`` is task i's release jitter,
    ``jitters[name]`` (0 when absent).  The offsets are task k's own
    releases plus every offset aligning ``d`` with another task's
    deadline — the local maxima of the response sit at deadline
    coincidences — and the WCRT is the largest ``t − a``.  Every task
    is charged one request of blocking (see
    :func:`holistic_response_bounds`); the busy-period horizon needs
    no extra term, because that work is already part of the set's
    synchronous demand.

    ``checked`` first requires the port to pass the dbf<=sbf test.  The
    busy period and that test run once per port, every (task, offset)
    fixpoint as one array program
    (:func:`repro.analysis.vectorized.port_wcrts`).  Raises
    :class:`InfeasibleError` when the test fails or an iterate
    exceeds ``_BUSY_PERIOD_CAP``.
    """
    taskset = TaskSet(tasks)
    if checked and not is_schedulable(taskset, interface, ctx=ctx).schedulable:
        raise InfeasibleError(
            "WCRT bound requires a schedulable (task set, interface) pair"
        )
    return vectorized.port_wcrts(
        tasks,
        interface,
        [jitters.get(task.name, 0) for task in tasks],
        busy_period_length(taskset, interface, jitters),
        blocking=1,
        cap=_BUSY_PERIOD_CAP,
    )


def holistic_response_bounds(
    client_tasksets: dict[int, TaskSet],
    composition: CompositionResult,
    *,
    ctx: AnalysisContext | None = None,
) -> dict[int, PathResponseBound]:
    """Jitter-aware end-to-end bounds for every client's tasks.

    Level by level from the leaves to the root: each task's accumulated
    upstream response becomes its release *jitter* at the next level
    (Tindell-style holistic analysis), so bursty arrivals caused by
    upstream shaping are accounted for.  At the leaf a task competes
    with its client's other tasks; at each interior port it competes
    with the whole subtree funnelling through that port.

    Every level also charges one request of priority-inversion
    *blocking* (see :func:`_port_wcrts`).  A port's
    random-access buffer serves its contents in EDF order, but it holds
    only a few requests.  When a job is released while its port buffer
    is full of later-deadline requests of the same client (at an
    interior port: of the same child subtree, whose SE forwards only
    into a free slot), the job's first request waits outside.  The SE
    may then forward one buffered request — spending the port's budget
    on the later deadline — before the freed slot admits the
    earlier-deadline request.  A client emits its pending requests
    earliest deadline first, and an SE forwards the earliest-deadline
    request of the port it serves, so once a slot is free the job's
    request enters the buffer and overtakes everything still buffered
    with a later deadline.  One request per level is therefore enough,
    whatever the buffer depth.

    Raises :class:`InfeasibleError` when ``composition`` is not
    schedulable (e.g. its root demands more than the memory controller
    supplies): the per-port bounds assume every interface is actually
    served, so no finite bound holds then.
    """
    if not composition.schedulable:
        raise InfeasibleError(
            f"no response bound on an unschedulable composition: "
            f"{composition.failure}"
        )
    topology = composition.topology
    qualified: dict[int, list[PeriodicTask]] = {
        client: [_qualified(client, task) for task in taskset]
        for client, taskset in client_tasksets.items()
        if len(taskset) > 0
    }
    if ctx is None:
        ctx = AnalysisContext()
    accumulated: dict[str, int] = {}
    levels: dict[int, list[dict[str, int]]] = {c: [] for c in qualified}
    # Leaf level: per-client analysis on the client's own interface.
    for client, tasks in qualified.items():
        leaf, port = topology.leaf_of_client(client)
        interface = composition.interface_for(leaf, port)
        wcrts = _port_wcrts(tasks, interface, {}, checked=True, ctx=ctx)
        record: dict[str, int] = {}
        for original, task, wcrt in zip(client_tasksets[client], tasks, wcrts):
            accumulated[task.name] = wcrt
            record[original.name] = wcrt
        levels[client].append(record)
    # Interior levels, deepest first: ports serve whole subtrees.
    for level in range(topology.depth - 1, -1, -1):
        round_results: dict[str, int] = {}
        for order in range(topology.nodes_at_level(level)):
            node = (level, order)
            if node not in composition.interfaces:
                continue
            for port, child in enumerate(topology.children(node)):
                lo, hi = topology.subtree_client_range(child[0], child[1])
                subtree_clients = [
                    c for c in range(lo, min(hi, topology.n_clients))
                    if c in qualified
                ]
                if not subtree_clients:
                    continue
                interface = composition.interface_for(node, port)
                subtree_tasks = [
                    t for c in subtree_clients for t in qualified[c]
                ]
                jitters = {
                    t.name: accumulated[t.name] for t in subtree_tasks
                }
                # The interface was selected for the child's *server
                # tasks*; the raw subtree union may not pass the plain
                # dbf test, so run unchecked (the busy-period cap
                # guards divergence).
                wcrts = iter(
                    _port_wcrts(
                        subtree_tasks, interface, jitters, checked=False, ctx=ctx
                    )
                )
                for client in subtree_clients:
                    record: dict[str, int] = {}
                    for original, task in zip(
                        client_tasksets[client], qualified[client]
                    ):
                        wcrt = next(wcrts)
                        round_results[task.name] = accumulated[task.name] + wcrt
                        record[original.name] = wcrt
                    levels[client].append(record)
        accumulated.update(round_results)
    path_latency = default_deadline_margin(topology)
    return {
        client: PathResponseBound(
            client_id=client,
            level_wcrt=levels[client],
            path_latency=path_latency,
        )
        for client in qualified
    }


def end_to_end_bound(
    client_id: int,
    client_tasksets: dict[int, TaskSet],
    composition: CompositionResult,
    *,
    ctx: AnalysisContext | None = None,
) -> PathResponseBound:
    """End-to-end bound for one client (see
    :func:`holistic_response_bounds`; computing a single client still
    requires the whole-tree pass, since interior levels need every
    subtree task's upstream jitter)."""
    own_taskset = client_tasksets.get(client_id)
    if own_taskset is None or len(own_taskset) == 0:
        raise ConfigurationError(f"client {client_id} has no tasks to bound")
    bounds = holistic_response_bounds(client_tasksets, composition, ctx=ctx)
    return bounds[client_id]
