"""Hierarchical (iterative) composition over the BlueScale quadtree.

Sec. 5: interface selection problems are resolved level by level, from
the leaf SEs (level L) up to the root (level 0).  At level ℓ, each SE
selects one interface per local client:

* for leaf SEs the local clients are system clients and the task sets
  are the application task sets;
* for internal SEs the local clients are child SEs, and each child
  contributes its (up to four) server tasks as the VE's task set.

After level 0 is resolved, the memory controller must not be
over-utilized by the root's server tasks: ``Σ Θ_X/Π_X <= 1``.

Both :func:`compose` (whole tree) and :func:`update_client` (one
client's root path) resolve each SE through the same
:func:`_resolve_node` step, driven by the caller's one
:class:`~repro.analysis.context.AnalysisContext`.  That step keys the
SE by its ports' exact ``(T, C)`` multisets and looks the whole
resolution up in the context's cache; port task sets are built only
on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.analysis.cache import TaskSetKey
from repro.analysis.context import AnalysisContext
from repro.analysis.interface_selection import select_interface
from repro.analysis.prm import ResourceInterface
from repro.errors import ConfigurationError, InfeasibleError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet
from repro.topology import NodeId, TreeTopology


@dataclass
class CompositionResult:
    """All interfaces selected across the tree, plus the root check.

    ``interfaces[node][port]`` is the interface of the VE serving local
    client ``port`` of SE ``node`` (idle ports get the zero interface).
    """

    topology: TreeTopology
    interfaces: dict[NodeId, list[ResourceInterface]] = field(default_factory=dict)
    schedulable: bool = True
    #: total bandwidth the root's server tasks demand of the memory controller
    root_bandwidth: Fraction = Fraction(0)
    #: human-readable reason when not schedulable
    failure: str = ""

    def interface_for(self, node: NodeId, port: int) -> ResourceInterface:
        return self.interfaces[node][port]

    def node_bandwidth(self, node: NodeId) -> Fraction:
        """Combined bandwidth of one SE's server tasks."""
        return sum(
            (iface.bandwidth for iface in self.interfaces[node]), Fraction(0)
        )

    def server_taskset(self, node: NodeId) -> TaskSet:
        """The SE's non-idle server tasks, as periodic tasks (T=Π, C=Θ)."""
        tasks = TaskSet()
        for port, iface in enumerate(self.interfaces[node]):
            if iface.budget > 0:
                tasks.add(iface.as_server_task(name=f"srv{node}:{port}", client_id=port))
        return tasks


#: fraction of each deadline reserved for cross-level pipeline jitter
RELATIVE_MARGIN = 0.10


def tightened_period(
    task: PeriodicTask, margin: int, relative_margin: float = RELATIVE_MARGIN
) -> int:
    """The period (and deadline) one task presents to its leaf SE.

    The one tightening formula; see :func:`tighten_deadlines`.
    """
    return max(
        task.wcet, task.period - margin - round(relative_margin * task.period)
    )


def tighten_deadlines(
    taskset: TaskSet, margin: int, relative_margin: float = RELATIVE_MARGIN
) -> TaskSet:
    """Shrink task periods/deadlines for analysis purposes.

    The compositional model guarantees that a job's transactions are
    *forwarded through each SE* by its deadline; two effects sit outside
    the per-SE model and are absorbed by margins here:

    * the constant pipeline latency (one cycle per SE on the request
      path, the controller, the response demux chain) — the absolute
      ``margin``;
    * supply blackouts of the *interior* levels' server tasks, which a
      request crosses after leaving its leaf SE — the ``relative_margin``
      fraction of each deadline.

    Shrinking the period (the analysis uses it as both rate and
    deadline) slightly over-states long-run demand, which is
    conservative: compositions tighten, never loosen.
    """
    if margin <= 0 and relative_margin <= 0:
        return taskset
    return TaskSet(
        [
            PeriodicTask(
                period=tightened_period(task, margin, relative_margin),
                wcet=task.wcet,
                name=task.name,
                client_id=task.client_id,
            )
            for task in taskset
        ]
    )


def _port_keys(
    topology: TreeTopology,
    node: NodeId,
    client_tasksets: dict[int, TaskSet],
    result: CompositionResult,
    deadline_margin: int,
) -> tuple[TaskSetKey, ...]:
    """The exact ``(T, C)`` multiset presented at each port of ``node``.

    A leaf port sees its client's tightened tasks, an interior port the
    server tasks ``(Π, Θ)`` of its child's non-idle interfaces; each
    key is what :func:`~repro.analysis.cache.taskset_key` would give
    the port's task set, computed without building it.
    """
    fanout = topology.fanout
    level, order = node
    keys: list[TaskSetKey] = []
    if level == topology.depth:
        first = order * fanout
        for client_id in range(first, first + fanout):
            tasks = ()
            if client_id < topology.n_clients:
                tasks = client_tasksets.get(client_id, ())
            keys.append(
                tuple(
                    sorted(
                        (tightened_period(task, deadline_margin), task.wcet)
                        for task in tasks
                    )
                )
            )
    else:
        for child in topology.children(node):
            keys.append(
                tuple(
                    sorted(
                        (iface.period, iface.budget)
                        for iface in result.interfaces.get(child, ())
                        if iface.budget > 0
                    )
                )
            )
    return tuple(keys)


def default_deadline_margin(topology: TreeTopology) -> int:
    """Constant end-to-end path latency of the deepest client.

    One cycle per SE on the request path, one for the controller, and
    one per demux level plus one on the response path.
    """
    request_hops = topology.depth + 1
    response_hops = topology.depth + 2
    return request_hops + 1 + response_hops


@dataclass(frozen=True)
class NodeResolution:
    """Everything resolving one SE records, independent of where it sits.

    The failure texts omit their ``SE<node>`` prefix (empty when the
    check passed), so SEs presenting identical ports share one record.
    """

    interfaces: tuple[ResourceInterface, ...]
    #: combined bandwidth of the selected server tasks
    bandwidth: Fraction
    #: the SE's ports demand more than the full resource
    over_utilized: str
    #: the first port whose selection was infeasible
    port_failure: str
    #: the selected server bandwidths sum past 1
    overflow: str


def _solve_node(
    port_keys: tuple[TaskSetKey, ...], ctx: AnalysisContext
) -> NodeResolution:
    """Select every port interface of one SE, from its port keys.

    Covers the over-utilization check, per-port selection, the
    full-bandwidth fallback that keeps an infeasible composition
    observable, and the SE-local bandwidth cap.
    """
    port_sets = [
        TaskSet([PeriodicTask(period=t, wcet=c) for t, c in key])
        for key in port_keys
    ]
    total_util = sum((ts.utilization for ts in port_sets), Fraction(0))
    over_utilized = port_failure = overflow = ""
    if total_util > 1:
        over_utilized = (
            f" is over-utilized: local demand {float(total_util):.3f} > 1"
        )
    interfaces: list[ResourceInterface] = []
    for port, taskset in enumerate(port_sets):
        if len(taskset) == 0:
            interfaces.append(ResourceInterface(1, 0))
            continue
        sibling_util = total_util - taskset.utilization
        try:
            selection = select_interface(taskset, sibling_util, ctx=ctx)
            interfaces.append(selection.interface)
        except InfeasibleError as exc:
            if not port_failure:
                port_failure = f" port {port}: {exc}"
            # Fall back to a full-bandwidth interface so the
            # composition can continue and report root pressure.
            fallback_period = max(taskset.min_period // 2, 1)
            interfaces.append(
                ResourceInterface(fallback_period, fallback_period)
            )
    selected_bw = sum((iface.bandwidth for iface in interfaces), Fraction(0))
    if selected_bw > 1:
        # The SE forwards at most one transaction per slot; four
        # servers jointly demanding more cannot all be honored.
        overflow = (
            f": selected server bandwidths sum to {float(selected_bw):.3f} > 1"
        )
    return NodeResolution(
        tuple(interfaces), selected_bw, over_utilized, port_failure, overflow
    )


def _resolution(
    port_keys: tuple[TaskSetKey, ...], ctx: AnalysisContext
) -> NodeResolution:
    """:func:`_solve_node`, memoized in ``ctx``'s cache."""
    key = (port_keys, ctx.config.memo_key())
    found = ctx.cache.get_node(key)
    if found is None:
        found = _solve_node(port_keys, ctx)
        ctx.cache.put_node(key, found)
    return found


def _resolve_node(
    topology: TreeTopology,
    node: NodeId,
    client_tasksets: dict[int, TaskSet],
    result: CompositionResult,
    deadline_margin: int,
    ctx: AnalysisContext,
) -> NodeResolution:
    """Resolve one SE, record the outcome on ``result`` and return it.

    Shared by :func:`compose` and :func:`update_client` so the two can
    never disagree on what resolving an SE means.  The SE's port keys
    are computed first; only a cache miss builds port task sets.  The
    outcome is applied in one fixed order: an over-utilized SE
    overwrites ``failure``, a port failure sets it only when still
    empty, and the bandwidth cap applies only while ``result`` is
    still schedulable.
    """
    keys = _port_keys(topology, node, client_tasksets, result, deadline_margin)
    found = _resolution(keys, ctx)
    if found.over_utilized:
        result.schedulable = False
        result.failure = f"SE{node}{found.over_utilized}"
    if found.port_failure:
        result.schedulable = False
        if not result.failure:
            result.failure = f"SE{node}{found.port_failure}"
    result.interfaces[node] = list(found.interfaces)
    if found.overflow and result.schedulable:
        result.schedulable = False
        result.failure = f"SE{node}{found.overflow}"
    return found


def _check_root(result: CompositionResult, root: NodeResolution) -> None:
    """Apply the memory-controller utilization check to the root."""
    result.root_bandwidth = root.bandwidth
    if result.root_bandwidth > 1:
        result.schedulable = False
        if not result.failure:
            result.failure = (
                f"memory controller over-utilized: root bandwidth "
                f"{float(result.root_bandwidth):.3f} > 1"
            )


def compose(
    topology: TreeTopology,
    client_tasksets: dict[int, TaskSet],
    deadline_margin: int | None = None,
    *,
    ctx: AnalysisContext | None = None,
) -> CompositionResult:
    """Resolve all interface-selection problems from level L down to 0.

    Never raises on infeasibility: the returned result carries
    ``schedulable=False`` and a ``failure`` message, because experiments
    (Fig. 7's utilization sweep) need to observe infeasible points, not
    crash on them.

    ``ctx`` selects and memoizes the per-VE searches (see
    :func:`~repro.analysis.interface_selection.select_interface`) and
    whole SEs: sweeps that re-compose mostly-unchanged trees reuse
    every unchanged SE from the context's cache.
    """
    for client_id in client_tasksets:
        if not 0 <= client_id < topology.n_clients:
            raise ConfigurationError(
                f"task set given for client {client_id}, but topology has "
                f"{topology.n_clients} clients"
            )
    if ctx is None:
        ctx = AnalysisContext()
    if deadline_margin is None:
        deadline_margin = default_deadline_margin(topology)
    result = CompositionResult(topology=topology)
    for level in range(topology.depth, -1, -1):
        for order in range(topology.nodes_at_level(level)):
            node = (level, order)
            if topology.subtree_client_range(level, order)[0] >= topology.n_clients:
                continue  # pruned empty subtree
            resolved = _resolve_node(
                topology, node, client_tasksets, result, deadline_margin, ctx
            )
    _check_root(result, resolved)  # the root is resolved last
    return result


def update_client(
    result: CompositionResult,
    client_tasksets: dict[int, TaskSet],
    client_id: int,
    deadline_margin: int | None = None,
    *,
    ctx: AnalysisContext | None = None,
) -> CompositionResult:
    """Re-resolve only the SEs on one client's memory-request path.

    This mirrors the paper's scheduling-scalability property: when a
    task joins or leaves a client, only the server tasks along that
    client's path to the root are refreshed; all other interfaces are
    reused verbatim.
    """
    topology = result.topology
    if ctx is None:
        ctx = AnalysisContext()
    if deadline_margin is None:
        deadline_margin = default_deadline_margin(topology)
    fresh = CompositionResult(topology=topology)
    fresh.interfaces = dict(result.interfaces)
    fresh.schedulable = True
    for node in topology.path_to_root(client_id):
        # leaf first, root last — same order as compose()
        resolved = _resolve_node(
            topology, node, client_tasksets, fresh, deadline_margin, ctx
        )
    _check_root(fresh, resolved)
    return fresh


def changed_ports(
    old: CompositionResult | None, new: CompositionResult
) -> list[tuple[NodeId, int]]:
    """``(node, port)`` pairs whose interface differs between compositions.

    After a path-local :func:`update_client` only the touched client's
    path can appear here — the count is the reprogramming work of the
    transition.  Against no composition (``old=None``) every port of
    ``new`` has changed.
    """
    changed: list[tuple[NodeId, int]] = []
    for node, interfaces in new.interfaces.items():
        before = None if old is None else old.interfaces.get(node)
        if before is None:
            changed.extend((node, port) for port in range(len(interfaces)))
            continue
        for port, interface in enumerate(interfaces):
            if before[port] != interface:
                changed.append((node, port))
    return changed
