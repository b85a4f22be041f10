"""A small deterministic cycle-driven simulation kernel.

Every component is a **tick component**: an object whose
``tick(cycle)`` method the engine invokes on every executed cycle, in
registration order.  Pipelined hardware (interconnect stages, the
memory controller) and clients are all expressed this way, so a
simulation is a pure function of its inputs and seeds.

Quiescence fast path
--------------------

Ticking every component on every cycle is exact but wasteful when the
whole system is idle (a low-utilization trial spends most of its
cycles with nothing in flight).  Every component therefore implements
the *quiescence contract*, and :meth:`Engine.register` rejects one that
does not:

* ``is_quiescent() -> bool`` — True when, absent external input,
  ticking the component is observably a no-op (or reconcilable, see
  below) for every cycle strictly before its next declared activity.
* ``next_activity_cycle(cycle) -> int | None`` — the earliest absolute
  cycle at which the component must be ticked again (None = never on
  its own accord).  ``cycle`` is the next cycle the engine would
  execute.
* ``on_cycles_skipped(start, count)`` — optional reconciliation hook:
  after the engine leaps over ``count`` cycles starting at ``start``,
  the component updates any cycle-counted internal state (e.g. P/B
  replenishment counters) to exactly what ``count`` idle ticks would
  have produced.  Components without the hook must guarantee idle
  ticks are pure no-ops.

When **every** registered component is quiescent, :meth:`Engine.run`
leaps ``now`` directly to the earliest of the components' next
declared activities and the run horizon.  ``fast_path=False`` keeps
the literal cycle-by-cycle loop, the oracle the fast path is tested
against.

Determinism is preserved because a leap only spans cycles on which (a)
every tick would be a no-op or is reconciled analytically, and (b) no
component declared activity — i.e. cycles whose execution the slow
path could not distinguish from skipping.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.errors import ConfigurationError, SimulationError


class TickComponent(Protocol):
    """Anything the engine advances once per cycle."""

    def tick(self, cycle: int) -> None:  # pragma: no cover - protocol
        ...

    def is_quiescent(self) -> bool:  # pragma: no cover - protocol
        ...

    def next_activity_cycle(
        self, cycle: int
    ) -> int | None:  # pragma: no cover - protocol
        ...


#: methods :meth:`Engine.register` requires of every component
_CONTRACT = ("tick", "is_quiescent", "next_activity_cycle")


class Engine:
    """Deterministic cycle-driven simulation engine."""

    def __init__(self, fast_path: bool = True) -> None:
        #: the next cycle to execute
        self.now = 0
        self.fast_path = fast_path
        self._tick_components: list[TickComponent] = []
        # Reconciliation hooks, collected at registration so a leap
        # does not re-discover them with getattr each time.
        self._skip_hooks: list[Callable[[int, int], None]] = []
        #: cycles actually executed (components ticked)
        self.cycles_executed = 0
        #: cycles the fast path leapt over
        self.cycles_skipped = 0
        #: number of quiescence leaps taken
        self.leaps = 0
        # adaptive check order: index of the component that most
        # recently vetoed a leap (checked first next time)
        self._last_veto: int | None = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, component: TickComponent) -> None:
        """Register a component ticked every cycle, in registration order."""
        missing = [name for name in _CONTRACT if not hasattr(component, name)]
        if missing:
            raise ConfigurationError(
                f"{component!r} lacks {', '.join(missing)}; every component "
                "implements tick() and the quiescence contract"
            )
        self._tick_components.append(component)
        hook = getattr(component, "on_cycles_skipped", None)
        if hook is not None:
            self._skip_hooks.append(hook)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _leap_target(self, now: int, until_cycle: int) -> int:
        """Earliest cycle that must still be executed, given quiescence."""
        target = until_cycle
        for component in self._tick_components:
            activity = component.next_activity_cycle(now)
            if activity is not None and activity < target:
                target = activity
        return target

    def _try_leap(self, until_cycle: int) -> None:
        """Skip ahead when every component is quiescent."""
        components = self._tick_components
        last_veto = self._last_veto
        if last_veto is not None and not components[last_veto].is_quiescent():
            return
        for index, component in enumerate(components):
            if index == last_veto:
                continue
            if not component.is_quiescent():
                self._last_veto = index
                return
        now = self.now
        target = self._leap_target(now, until_cycle)
        if target <= now:
            return
        skipped = target - now
        for hook in self._skip_hooks:
            hook(now, skipped)
        self.now = target
        self.cycles_skipped += skipped
        self.leaps += 1

    def run(self, until_cycle: int) -> int:
        """Run until ``until_cycle`` (exclusive); returns the final cycle."""
        if until_cycle < self.now:
            raise SimulationError(
                f"until_cycle {until_cycle} precedes current cycle {self.now}"
            )
        components = self._tick_components
        fast = self.fast_path
        while self.now < until_cycle:
            cycle = self.now
            for component in components:
                component.tick(cycle)
            self.now += 1
            self.cycles_executed += 1
            if fast and self.now < until_cycle:
                self._try_leap(until_cycle)
        return self.now

    @property
    def skip_ratio(self) -> float:
        """Fraction of simulated cycles the fast path leapt over."""
        total = self.cycles_executed + self.cycles_skipped
        if total == 0:
            return 0.0
        return self.cycles_skipped / total
