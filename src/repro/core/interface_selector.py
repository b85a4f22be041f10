"""The SE interface selector (paper Sec. 4.3, Fig. 4).

Each Scale Element carries a small computation engine — a task
parameter table (register chain), a scratchpad, an ALU and an FSM —
that resolves the SE's interface-selection problem locally and passes
the resulting server-task parameters up the parameter path to the next
SE.  This module models that component faithfully enough to reproduce
its *behaviour* (bounded table, field widths, local-information-only
computation); the numerical algorithm itself is shared with
:mod:`repro.analysis.interface_selection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.analysis.context import AnalysisContext
from repro.analysis.interface_selection import select_interface
from repro.analysis.prm import ResourceInterface
from repro.errors import CapacityError, ConfigurationError, InfeasibleError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


@dataclass(frozen=True)
class TableEntry:
    """One 74-bit row of the task parameter table.

    Field widths follow Fig. 4: client id (2 bits), task id (8 bits),
    period (32 bits), execution time (32 bits).
    """

    client_id: int  # 2 bits: local port index 0..3
    task_id: int  # 8 bits
    period: int  # 32 bits
    wcet: int  # 32 bits

    def __post_init__(self) -> None:
        if not 0 <= self.client_id < 4:
            raise ConfigurationError(
                f"client id {self.client_id} does not fit the 2-bit field"
            )
        if not 0 <= self.task_id < 256:
            raise ConfigurationError(
                f"task id {self.task_id} does not fit the 8-bit field"
            )
        for label, value in (("period", self.period), ("wcet", self.wcet)):
            if not 0 < value < (1 << 32):
                raise ConfigurationError(
                    f"{label} {value} does not fit the 32-bit field"
                )

    def as_task(self) -> PeriodicTask:
        return PeriodicTask(
            period=self.period,
            wcet=self.wcet,
            name=f"tbl{self.client_id}.{self.task_id}",
            client_id=self.client_id,
        )


class TaskParameterTable:
    """Bounded register-chain table of local-task parameters.

    The paper configures depth 16 for SEs whose local clients are other
    SEs (4 ports x up to 4 server tasks); leaf SEs use whatever depth the
    application needs.
    """

    def __init__(self, depth: int = 16) -> None:
        if depth <= 0:
            raise ConfigurationError(f"table depth must be positive, got {depth}")
        self.depth = depth
        self._entries: list[TableEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.depth

    def load(self, entry: TableEntry) -> None:
        if self.full:
            raise CapacityError(
                f"task parameter table full (depth {self.depth})"
            )
        self._entries.append(entry)

    def clear(self) -> None:
        self._entries.clear()

    def clear_port(self, port: int) -> None:
        """Drop all entries of one local client (task join/leave update)."""
        self._entries = [e for e in self._entries if e.client_id != port]

    def entries_for_port(self, port: int) -> list[TableEntry]:
        return [e for e in self._entries if e.client_id == port]

    def taskset_for_port(self, port: int) -> TaskSet:
        return TaskSet([e.as_task() for e in self.entries_for_port(port)])


@dataclass(frozen=True)
class SelectedServer:
    """Parameter-path output: one port's server-task parameters."""

    port: int
    interface: ResourceInterface
    schedulable: bool


class InterfaceSelector:
    """The per-SE selection engine.

    Feed local task parameters with :meth:`load_task`, then call
    :meth:`run_selection` to compute all four ports' interfaces using
    only this SE's local information.  The outputs are simultaneously
    (a) the parameters programmed into this SE's local scheduler and
    (b) the "local task" parameters announced to the parent SE.
    ``ctx`` is the analysis its searches run under (``None`` means
    ``AnalysisContext()``).
    """

    def __init__(
        self,
        n_ports: int = 4,
        table_depth: int = 16,
        *,
        ctx: AnalysisContext | None = None,
    ) -> None:
        if n_ports <= 0:
            raise ConfigurationError(f"need at least one port, got {n_ports}")
        self.n_ports = n_ports
        self.table = TaskParameterTable(depth=table_depth)
        self.ctx = ctx
        self._next_task_id = [0] * n_ports

    def load_task(self, port: int, period: int, wcet: int) -> TableEntry:
        """Append one local task's parameters for ``port``."""
        if not 0 <= port < self.n_ports:
            raise ConfigurationError(f"port {port} out of range")
        entry = TableEntry(
            client_id=port,
            task_id=self._next_task_id[port] % 256,
            period=period,
            wcet=wcet,
        )
        self._next_task_id[port] += 1
        self.table.load(entry)
        return entry

    def load_taskset(self, port: int, taskset: TaskSet) -> None:
        for task in taskset:
            self.load_task(port, task.period, task.wcet)

    def clear_port(self, port: int) -> None:
        self.table.clear_port(port)
        self._next_task_id[port] = 0

    def run_selection(self) -> list[SelectedServer]:
        """Resolve this SE's interface selection problem (all ports).

        Ports with no tasks get the idle interface; ports whose task set
        admits no schedulable interface are flagged and given a
        half-period full-budget fallback, mirroring
        :func:`repro.analysis.composition.compose`.
        """
        port_sets = [self.table.taskset_for_port(p) for p in range(self.n_ports)]
        total_util = sum((ts.utilization for ts in port_sets), Fraction(0))
        outputs: list[SelectedServer] = []
        for port, taskset in enumerate(port_sets):
            if len(taskset) == 0:
                outputs.append(
                    SelectedServer(port, ResourceInterface(1, 0), True)
                )
                continue
            sibling_util = total_util - taskset.utilization
            try:
                result = select_interface(taskset, sibling_util, ctx=self.ctx)
                outputs.append(SelectedServer(port, result.interface, True))
            except InfeasibleError:
                fallback_period = max(taskset.min_period // 2, 1)
                outputs.append(
                    SelectedServer(
                        port,
                        ResourceInterface(fallback_period, fallback_period),
                        False,
                    )
                )
        return outputs
