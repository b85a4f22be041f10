"""Runtime verification: invariant monitors for BlueScale simulations.

Simulation bugs in scheduling hardware are notoriously quiet — a
budget leak or a buffer overrun shows up as slightly-wrong latencies,
not crashes.  These monitors watch a live :class:`ScaleElement` (or a
whole :class:`BlueScaleInterconnect`) every cycle and raise
:class:`~repro.errors.SimulationError` the moment a hardware invariant
breaks:

* **StructuralMonitor** — buffer occupancy within capacity, budgets
  within [0, Θ], period counters within [0, Π], at most one forward
  per SE per cycle.
* **SbfComplianceMonitor** — the periodic-resource *contract*: during
  any interval in which a port stays backlogged (and the provider
  accepts), the service it received must be at least ``sbf`` of the
  interval length.  This is the property the whole analysis stands on,
  checked against the actual counters.

Attach with :func:`monitor_interconnect` and call ``check(cycle)``
once per cycle (after ``tick_request_path``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.prm import sbf
from repro.core.interconnect import BlueScaleInterconnect
from repro.core.scale_element import ScaleElement
from repro.errors import SimulationError


class StructuralMonitor:
    """Checks per-cycle structural invariants of one Scale Element."""

    def __init__(self, element: ScaleElement) -> None:
        self.element = element
        self._last_forwarded = element.forwarded
        self.checks = 0

    def check(self, cycle: int) -> None:
        element = self.element
        for port, buffer in enumerate(element.buffers):
            if len(buffer) > buffer.capacity:
                raise SimulationError(
                    f"SE{element.node} port {port}: occupancy {len(buffer)} "
                    f"exceeds capacity {buffer.capacity} at cycle {cycle}"
                )
        for port, server in enumerate(element.scheduler.servers):
            budget = server.counters.remaining_budget
            if not 0 <= budget <= max(server.interface.budget, 0):
                raise SimulationError(
                    f"SE{element.node} port {port}: budget {budget} outside "
                    f"[0, {server.interface.budget}] at cycle {cycle}"
                )
            period_left = server.counters.cycles_to_replenish
            if not 0 <= period_left <= max(server.interface.period, 1):
                raise SimulationError(
                    f"SE{element.node} port {port}: period counter "
                    f"{period_left} out of range at cycle {cycle}"
                )
        forwarded = element.forwarded
        if forwarded - self._last_forwarded > 1:
            raise SimulationError(
                f"SE{element.node}: {forwarded - self._last_forwarded} "
                f"forwards in one cycle at {cycle}"
            )
        self._last_forwarded = forwarded
        self.checks += 1


@dataclass
class _PortServiceState:
    """Tracking for one port's backlogged-interval service."""

    backlog_start: int | None = None
    service_in_interval: int = 0
    stall_in_interval: int = 0
    last_forward_count: int = 0


class SbfComplianceMonitor:
    """Verifies a port's received service against its sbf contract.

    For every maximal interval during which the port stays backlogged
    (non-empty buffer) and the SE is never output-stalled (downstream
    accepted every attempted forward), the number of requests the port
    forwarded must be at least ``sbf(interval_length, interface)``.
    Output stalls void the interval: the contract presumes the provider
    is available, so a backpressured SE cannot be held to it.
    """

    def __init__(self, element: ScaleElement) -> None:
        self.element = element
        self._states = [_PortServiceState() for _ in element.buffers]
        self._port_forwards = [0] * len(element.buffers)
        self._last_stalls = element.stalled_cycles
        self.intervals_checked = 0

    def check(self, cycle: int) -> None:
        element = self.element
        stalled_now = element.stalled_cycles > self._last_stalls
        self._last_stalls = element.stalled_cycles
        for port, buffer in enumerate(element.buffers):
            state = self._states[port]
            loaded_total = buffer.total_loaded
            occupancy = len(buffer)
            forwarded_total = loaded_total - occupancy
            forwarded_this_cycle = forwarded_total - self._port_forwards[port]
            self._port_forwards[port] = forwarded_total
            backlogged = occupancy > 0 or forwarded_this_cycle > 0
            interface = element.scheduler.servers[port].interface
            if backlogged and interface.budget > 0:
                if state.backlog_start is None:
                    state.backlog_start = cycle
                    state.service_in_interval = 0
                    state.stall_in_interval = 0
                state.service_in_interval += forwarded_this_cycle
                if stalled_now:
                    state.stall_in_interval += 1
            else:
                self._close_interval(port, state, cycle, interface)

    def _close_interval(self, port, state, cycle, interface):  # noqa: ANN001
        if state.backlog_start is None:
            return
        length = cycle - state.backlog_start
        if length > 0 and state.stall_in_interval == 0:
            guaranteed = sbf(length, interface)
            if state.service_in_interval < guaranteed:
                raise SimulationError(
                    f"SE{self.element.node} port {port}: received "
                    f"{state.service_in_interval} < sbf({length}) = "
                    f"{guaranteed} over backlogged interval ending at "
                    f"{cycle}"
                )
            self.intervals_checked += 1
        state.backlog_start = None
        state.service_in_interval = 0
        state.stall_in_interval = 0

    def finalize(self, cycle: int) -> None:
        """Close any open intervals at the end of a run."""
        for port, state in enumerate(self._states):
            interface = self.element.scheduler.servers[port].interface
            self._close_interval(port, state, cycle, interface)


class InterconnectMonitor:
    """Bundles monitors over every SE of a BlueScale interconnect."""

    def __init__(
        self,
        interconnect: BlueScaleInterconnect,
        check_sbf: bool = True,
    ) -> None:
        self.structural = [
            StructuralMonitor(element)
            for element in interconnect.elements.values()
        ]
        self.sbf_monitors = (
            [
                SbfComplianceMonitor(element)
                for element in interconnect.elements.values()
            ]
            if check_sbf
            else []
        )

    def check(self, cycle: int) -> None:
        for monitor in self.structural:
            monitor.check(cycle)
        for monitor in self.sbf_monitors:
            monitor.check(cycle)

    def finalize(self, cycle: int) -> None:
        for monitor in self.sbf_monitors:
            monitor.finalize(cycle)

    @property
    def intervals_checked(self) -> int:
        return sum(m.intervals_checked for m in self.sbf_monitors)


def monitor_interconnect(
    interconnect: BlueScaleInterconnect, check_sbf: bool = True
) -> InterconnectMonitor:
    """Attach invariant monitors to a BlueScale interconnect."""
    return InterconnectMonitor(interconnect, check_sbf=check_sbf)
