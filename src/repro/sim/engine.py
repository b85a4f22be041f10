"""A small deterministic discrete-event simulation kernel.

The kernel supports two styles of components:

* **Event processes** — callbacks scheduled at absolute cycles via
  :meth:`Engine.schedule` / :meth:`Engine.schedule_in`.  Used for sparse
  activity such as periodic job releases.
* **Tick components** — objects with a ``tick(cycle)`` method invoked on
  every simulated cycle, in registration order.  Used for pipelined
  hardware (interconnect stages, the memory controller) whose behaviour
  is easiest to express cycle-by-cycle.

Determinism: events scheduled for the same cycle fire in insertion
order (a monotonically increasing sequence number breaks ties), and
tick components run in registration order, so a simulation is a pure
function of its inputs and seeds.

Quiescence fast path
--------------------

Ticking every component on every cycle is exact but wasteful when the
whole system is idle (a low-utilization trial spends most of its
cycles with nothing in flight).  Tick components may therefore opt in
to the *quiescence contract*:

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
leaps the clock directly to the earliest of: the next scheduled event,
the components' next declared activities, and the run horizon.  A
single component lacking ``is_quiescent`` disables the fast path for
the whole run, so legacy components stay bit-for-bit correct.

Determinism is preserved because a leap only spans cycles on which (a)
no event fires, (b) every tick would be a no-op or is reconciled
analytically, and (c) no component declared activity — i.e. cycles
whose execution the slow path could not distinguish from skipping.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from repro.errors import ConfigurationError, SimulationError
from repro.sim.clock import Clock

EventCallback = Callable[[int], None]


class TickComponent(Protocol):
    """Anything advanced once per cycle by the engine."""

    def tick(self, cycle: int) -> None:  # pragma: no cover - protocol
        ...


class QuiescentComponent(TickComponent, Protocol):
    """A tick component that participates in the quiescence fast path."""

    def is_quiescent(self) -> bool:  # pragma: no cover - protocol
        ...

    def next_activity_cycle(
        self, cycle: int
    ) -> int | None:  # pragma: no cover - protocol
        ...


class Engine:
    """Deterministic cycle/event hybrid simulation engine."""

    def __init__(
        self, clock: Clock | None = None, fast_path: bool = True
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.fast_path = fast_path
        self._event_queue: list[tuple[int, int, EventCallback]] = []
        self._sequence = 0
        self._tick_components: list[TickComponent] = []
        # Reconciliation hooks, collected at registration so a leap
        # does not re-discover them with getattr each time.
        self._skip_hooks: list[Callable[[int, int], None]] = []
        self._stopped = False
        #: cycles actually executed (events fired + components ticked)
        self.cycles_executed = 0
        #: cycles the fast path leapt over
        self.cycles_skipped = 0
        #: number of quiescence leaps taken
        self.leaps = 0
        # adaptive check order: index of the component that most
        # recently vetoed a leap (checked first next time)
        self._last_veto: int | None = None

    # ------------------------------------------------------------------
    # registration / scheduling
    # ------------------------------------------------------------------
    def register(self, component: TickComponent) -> None:
        """Register a component ticked every cycle, in registration order."""
        if not hasattr(component, "tick"):
            raise ConfigurationError(
                f"{component!r} has no tick() method; cannot register"
            )
        self._tick_components.append(component)
        hook = getattr(component, "on_cycles_skipped", None)
        if hook is not None:
            self._skip_hooks.append(hook)

    def schedule(self, cycle: int, callback: EventCallback) -> None:
        """Schedule ``callback(cycle)`` at an absolute cycle."""
        if cycle < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at cycle {cycle}, now is {self.clock.now}"
            )
        heapq.heappush(self._event_queue, (cycle, self._sequence, callback))
        self._sequence += 1

    def schedule_in(self, delay: int, callback: EventCallback) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule(self.clock.now + delay, callback)

    def stop(self) -> None:
        """Request the run loop to halt at the end of the current cycle."""
        self._stopped = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _fire_due_events(self, cycle: int) -> None:
        queue = self._event_queue
        while queue and queue[0][0] <= cycle:
            _, _, callback = heapq.heappop(queue)
            callback(cycle)

    def _leap_target(self, now: int, until_cycle: int) -> int:
        """Earliest cycle that must still be executed, given quiescence."""
        target = until_cycle
        if self._event_queue:
            head = self._event_queue[0][0]
            if head < target:
                target = head
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
        now = self.clock.now
        target = self._leap_target(now, until_cycle)
        if target <= now:
            return
        skipped = target - now
        for hook in self._skip_hooks:
            hook(now, skipped)
        self.clock.now = target
        self.cycles_skipped += skipped
        self.leaps += 1

    def run(self, until_cycle: int) -> int:
        """Run until ``until_cycle`` (exclusive) or :meth:`stop` is called.

        Returns the cycle at which the run stopped.
        """
        if until_cycle < self.clock.now:
            raise SimulationError(
                f"until_cycle {until_cycle} precedes current cycle {self.clock.now}"
            )
        self._stopped = False
        components = self._tick_components
        # The fast path needs every component to speak the quiescence
        # contract; one legacy component pins the whole run to the
        # cycle-by-cycle slow path.
        fast = (
            self.fast_path
            and bool(components)
            and all(hasattr(c, "is_quiescent") for c in components)
        )
        while self.clock.now < until_cycle and not self._stopped:
            cycle = self.clock.now
            self._fire_due_events(cycle)
            for component in components:
                component.tick(cycle)
            self.clock.tick()
            self.cycles_executed += 1
            if fast and not self._stopped and self.clock.now < until_cycle:
                self._try_leap(until_cycle)
        return self.clock.now

    @property
    def pending_events(self) -> int:
        """Number of events not yet fired."""
        return len(self._event_queue)

    @property
    def skip_ratio(self) -> float:
        """Fraction of simulated cycles the fast path leapt over."""
        total = self.cycles_executed + self.cycles_skipped
        if total == 0:
            return 0.0
        return self.cycles_skipped / total
