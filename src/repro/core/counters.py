"""P-counters and B-counters (paper Sec. 4.2, Fig. 3(b)).

Each server task in a Scale Element's local scheduler is realized by a
pair of countdown counters: the Period counter (P-counter) reloads
itself every Π cycles, and its zero-crossing resets the Budget counter
(B-counter) to Θ.  The B-counter decrements once per cycle in which the
server actually forwards a request; a non-zero B-counter means the
server still has capacity this period.

This module mirrors the register-level behaviour (program / reset /
enable ports) so tests can check the hardware semantics directly; the
higher-level :class:`~repro.core.local_scheduler.ServerTaskState` drives
the pair the way the scheduling circuits do.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class CountdownCounter:
    """A 32-bit countdown counter with program/reset/enable ports.

    * ``program(value)`` — load a new reset value (the interface
      selector's parameter path writes Π or Θ here).
    * ``reset()`` — copy the reset value into the current value.
    * ``enable()`` — decrement by one on a clock edge (saturating at 0).
    * ``value`` — the V (value) output port.
    """

    WIDTH_BITS = 32

    def __init__(self, reset_value: int = 0) -> None:
        self._check_value(reset_value)
        self.reset_value = reset_value
        self.value = reset_value

    def _check_value(self, value: int) -> None:
        if not 0 <= value < (1 << self.WIDTH_BITS):
            raise ConfigurationError(
                f"counter value {value} outside 32-bit range"
            )

    def program(self, reset_value: int) -> None:
        """Update the reset value (takes effect at the next reset)."""
        self._check_value(reset_value)
        self.reset_value = reset_value

    def reset(self) -> None:
        self.value = self.reset_value

    def enable(self) -> int:
        """Enabled clock edge: decrement (saturating) and return the value."""
        if self.value > 0:
            self.value -= 1
        return self.value

    @property
    def expired(self) -> bool:
        return self.value == 0


class ServerCounterPair:
    """A P-counter chained to a B-counter, as wired in Fig. 3(b).

    The P-counter's value output is connected to its own reset port and
    the B-counter's reset port: when the P-counter hits zero, both
    reload.  ``tick()`` models one clock edge of the period logic;
    ``consume()`` models the B-counter enable when the server forwards a
    request.
    """

    def __init__(self, period: int, budget: int) -> None:
        if period <= 0:
            raise ConfigurationError(f"Π must be positive, got {period}")
        if budget < 0 or budget > period:
            raise ConfigurationError(
                f"Θ={budget} must be within [0, Π={period}]"
            )
        self.p_counter = CountdownCounter(period)
        self.b_counter = CountdownCounter(budget)
        self.p_counter.reset()
        self.b_counter.reset()

    @property
    def period(self) -> int:
        return self.p_counter.reset_value

    @property
    def budget(self) -> int:
        return self.b_counter.reset_value

    @property
    def remaining_budget(self) -> int:
        return self.b_counter.value

    @property
    def cycles_to_replenish(self) -> int:
        return self.p_counter.value

    def reprogram(self, period: int, budget: int) -> None:
        """Parameter-path update of (Π, Θ); applied immediately."""
        if period <= 0:
            raise ConfigurationError(f"Π must be positive, got {period}")
        if budget < 0 or budget > period:
            raise ConfigurationError(f"Θ={budget} must be within [0, Π={period}]")
        self.p_counter.program(period)
        self.b_counter.program(budget)
        self.p_counter.reset()
        self.b_counter.reset()

    def tick(self) -> bool:
        """One clock edge of the period chain.

        Returns True when this edge replenished the budget (period
        boundary crossed).
        """
        self.p_counter.enable()
        if self.p_counter.expired:
            self.p_counter.reset()
            self.b_counter.reset()
            return True
        return False

    def consume(self) -> None:
        """B-counter enable: one unit of budget spent forwarding."""
        if self.b_counter.expired:
            raise ConfigurationError(
                "consume() with zero budget: scheduling circuit must gate this"
            )
        self.b_counter.enable()

    def skip_idle(self, cycles: int) -> int | None:
        """Fast-forward ``cycles`` idle ticks (no consume() in between).

        Produces exactly the state ``cycles`` calls to :meth:`tick`
        would leave behind.  Returns the 0-based offset (within the
        skipped window) of the *last* tick that replenished the budget,
        or None when no period boundary was crossed — the caller needs
        it to recompute the server's absolute EDF deadline.
        """
        if cycles <= 0:
            return None
        value = self.p_counter.value
        period = self.p_counter.reset_value
        if cycles < value:
            self.p_counter.value = value - cycles
            return None
        # First boundary after `value` ticks (offset value - 1), then
        # one every `period` ticks; the reset also reloads the B-counter.
        extra = cycles - value
        self.p_counter.value = period - (extra % period)
        self.b_counter.reset()
        return value - 1 + (extra // period) * period

    @property
    def has_budget(self) -> bool:
        """The XOR-gate check of Sec. 4.2: Θ remaining > 0."""
        return not self.b_counter.expired
