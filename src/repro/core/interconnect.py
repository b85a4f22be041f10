"""The BlueScale interconnect: a quadtree of Scale Elements (Sec. 3).

Clients sit at the leaves, the memory subsystem at the root.  Requests
climb the tree one SE per cycle (staged pipeline); each SE arbitrates
locally with its compositional scheduler.  Responses descend through
demultiplexers, modelled as one cycle per level.

Configuration: :func:`~repro.analysis.composition.compose` selects
every SE's server tasks level by level from the leaves to the root, and
:meth:`BlueScaleInterconnect.apply_composition` programs them through
the parameter path.  :meth:`~BlueScaleInterconnect.configure`,
:meth:`~BlueScaleInterconnect.configure_from_model` and
:meth:`~BlueScaleInterconnect.reprogram_client` all end there, so a
composition is the one way a fabric gets its interfaces.
"""

from __future__ import annotations

from repro.analysis.composition import (
    CompositionResult,
    changed_ports,
    compose,
    update_client,
)
from repro.analysis.context import AnalysisContext
from repro.core.scale_element import PORT_BUFFER_DEPTH, ScaleElement
from repro.errors import ConfigurationError
from repro.interconnects.base import Interconnect
from repro.memory.request import MemoryRequest
from repro.tasks.taskset import TaskSet
from repro.topology import NodeId, TreeTopology


class BlueScaleInterconnect(Interconnect):
    """Hierarchically distributed interconnect built from identical SEs."""

    name = "BlueScale"

    def __init__(
        self,
        n_clients: int,
        buffer_capacity: int = PORT_BUFFER_DEPTH,
        fanout: int = 4,
    ) -> None:
        super().__init__(n_clients)
        self.topology = TreeTopology(n_clients=n_clients, fanout=fanout)
        self.elements: dict[NodeId, ScaleElement] = {}
        for node in self.topology.all_nodes():
            self.elements[node] = ScaleElement(
                node, buffer_capacity=buffer_capacity, fanout=fanout
            )
        self._wire_tree()
        # Root-first tick order gives one-cycle-per-hop pipelining.
        self._tick_order = [self.elements[n] for n in self.topology.all_nodes()]
        self.composition: CompositionResult | None = None
        # O(1) fabric occupancy (enters at a leaf, leaves at the root)
        # plus the last ticked cycle, so the quiescence veto check can
        # lazily reconcile stale SE counters before reading them.
        self._occupancy = 0
        self._cycle = -1
        # (cycle token, earliest element activity) computed by the last
        # successful quiescence scan, so next_activity_cycle right after
        # it does not walk the elements a second time.
        self._scan_cache: tuple[int, int | None] | None = None
        self._client_ingress = {
            client: (self.elements[leaf], port)
            for client in range(n_clients)
            for leaf, port in (self.topology.leaf_of_client(client),)
        }

    # -- wiring ----------------------------------------------------------------
    def _wire_tree(self) -> None:
        for node, element in self.elements.items():
            parent = self.topology.parent(node)
            if parent is None:
                element.forward_to_provider = self._root_forward
            else:
                port = node[1] % self.topology.fanout
                parent_element = self.elements[parent]
                element.forward_to_provider = self._make_hop(parent_element, port)

    @staticmethod
    def _make_hop(parent: ScaleElement, port: int):
        def hop(request: MemoryRequest, cycle: int) -> bool:
            return parent.try_accept(port, request, cycle)

        return hop

    def _root_forward(self, request: MemoryRequest, cycle: int) -> bool:
        if not self._provider_can_accept():
            return False
        self._forward_to_provider(request, cycle)
        self._occupancy -= 1
        return True

    # -- configuration -----------------------------------------------------------
    def configure(
        self,
        client_tasksets: dict[int, TaskSet],
        *,
        ctx: AnalysisContext | None = None,
    ) -> CompositionResult:
        """Run the interface-selection composition and program all SEs.

        ``ctx`` is :func:`~repro.analysis.composition.compose`'s.
        """
        result = compose(self.topology, client_tasksets, ctx=ctx)
        self.apply_composition(result)
        return result

    def configure_from_model(self, model) -> CompositionResult:
        """Program every SE from a prebuilt
        :class:`~repro.analysis.model.SystemModel`'s baseline.

        The model must describe this fabric exactly (same client count
        and fan-out); its already-composed hierarchy is applied without
        re-running any selection, so bringing up a simulated SoC from a
        shared model costs no analysis time.
        """
        if model.topology.fanout != self.topology.fanout:
            raise ConfigurationError(
                f"model was built for fanout {model.topology.fanout}, "
                f"fabric has fanout {self.topology.fanout}"
            )
        self.apply_composition(model.baseline)
        return model.baseline

    def apply_composition(
        self, result: CompositionResult, cycle: int = 0
    ) -> int:
        """Program the SE ports whose interface differs from the
        fabric's current composition — every port on first
        configuration — at ``cycle``, budgets restarting fresh there.

        The one way a composition reaches the fabric: configuration
        applies at cycle 0, a runtime reconfiguration at its event
        cycle.  Returns how many ports were programmed.
        """
        if result.topology.n_clients != self.n_clients:
            raise ConfigurationError(
                "composition was computed for a different client count"
            )
        changed = changed_ports(self.composition, result)
        for node, port in changed:
            self.elements[node].program_port(
                port, result.interface_for(node, port), now=cycle
            )
        self.composition = result
        return len(changed)

    def reprogram_client(
        self,
        client_tasksets: dict[int, TaskSet],
        client_id: int,
        cycle: int,
        *,
        ctx: AnalysisContext | None = None,
    ) -> CompositionResult:
        """Runtime parameter-path update after a task joins/leaves.

        The paper's scheduling-scalability property in action: only the
        SEs on ``client_id``'s memory-request path re-resolve their
        interface-selection problems and are reprogrammed (at ``cycle``,
        budgets restarting fresh); every other SE keeps running with
        untouched parameters.  Traffic already in flight is unaffected.
        """
        if self.composition is None:
            raise ConfigurationError(
                "reprogram_client needs an initial configure() first"
            )
        updated = update_client(
            self.composition, client_tasksets, client_id, ctx=ctx
        )
        self.apply_composition(updated, cycle)
        return updated

    # -- Interconnect contract -----------------------------------------------
    def try_inject(self, request: MemoryRequest, cycle: int) -> bool:
        element, port = self._client_ingress[request.client_id]
        accepted = element.try_accept(port, request, cycle)
        if accepted:
            self._occupancy += 1
            if request.inject_cycle < 0:
                request.inject_cycle = cycle
        return accepted

    def tick_request_path(self, cycle: int) -> None:
        self._cycle = cycle
        if self.fast_tick:
            # Empty SEs tick to pure counter ops (replayed lazily by
            # ScaleElement.sync_to), and budget-gated SEs are quiescent
            # until their cached wake cycle — the fast path elides both
            # calls.  The reference path ticks every SE every cycle.
            if not self._occupancy:
                return
            for element in self._tick_order:
                if element._occupancy and cycle >= element._wake:
                    element.tick(cycle)
            return
        for element in self._tick_order:
            element.tick(cycle)

    def response_latency(self, client_id: int) -> int:
        # One demux stage per SE level, plus the controller-to-root hop.
        return self.topology.hops_to_memory(client_id) + 1

    def requests_in_flight(self) -> int:
        return self._occupancy

    # -- quiescence --------------------------------------------------------------
    def is_quiescent(self) -> bool:
        if not self._occupancy:
            return True
        # An occupied SE whose cached wake is still ahead is provably
        # budget-gated; otherwise reconcile its counters (it may have
        # just received a hop while being skipped) and ask it.  The
        # element activities fall out of the same scan, so they are
        # cached for the next_activity_cycle call that follows a
        # successful check (the engine always pairs them).
        horizon = self._cycle + 1
        earliest: int | None = None
        for element in self._tick_order:
            if not element._occupancy:
                continue
            if horizon < element._wake:
                activity: int | None = element._wake
            else:
                activity = element.activity_if_quiescent(horizon)
                if activity is None:
                    return False
            if earliest is None or activity < earliest:
                earliest = activity
        self._scan_cache = (self._cycle, earliest)
        return True

    def next_activity_cycle(self, cycle: int) -> int | None:
        """Earliest of: a buffered response, or an SE budget replenishment
        that could release budget-gated traffic."""
        earliest = super().next_activity_cycle(cycle)
        if self._occupancy:
            cache = self._scan_cache
            if (
                cache is not None
                and cache[0] == self._cycle
                and cycle == self._cycle + 1
            ):
                activity = cache[1]
                if activity is not None and (
                    earliest is None or activity < earliest
                ):
                    earliest = activity
                return earliest
            for element in self._tick_order:
                if not element._occupancy:
                    continue
                if cycle < element._wake:
                    # The cached wake IS the SE's next activity.
                    activity = element._wake
                else:
                    activity = element.next_activity_cycle(cycle)
                if activity is not None and (
                    earliest is None or activity < earliest
                ):
                    earliest = activity
        return earliest

    def on_cycles_skipped(self, start: int, cycles: int) -> None:
        """No eager work: each SE replays its own counters lazily on the
        next cycle that touches it (:meth:`ScaleElement.sync_to`)."""

    def injection_blocked_until(self, client_id: int, cycle: int) -> int | None:
        """A full leaf port buffer refuses injections with no side
        effects; space only opens when the leaf SE forwards."""
        element, port = self._client_ingress[client_id]
        if element.buffers[port].full:
            return -1
        return None

    # -- introspection -----------------------------------------------------------
    def element(self, level: int, order: int) -> ScaleElement:
        return self.elements[(level, order)]

    @property
    def n_elements(self) -> int:
        return len(self.elements)
