"""Deterministic fault plans: which client goes rogue, and when.

A :class:`FaultPlan` is a frozen, picklable schedule of
:class:`FaultEvent`\\ s.  It is *data only* — nothing in this module
touches a simulation.  The :class:`~repro.faults.injectors.FaultOrchestrator`
interprets the plan against a running :class:`~repro.soc.SoCSimulation`,
and because the plan is a pure value, a faulted trial is exactly as
replayable as a fault-free one: the same plan against the same spec
produces bit-for-bit the same trace on any executor backend.

The one misbehaviour modelled is the one the BlueScale isolation claim
is about: a *rogue burst*, where a client bursts past its declared
(Π, Θ) server contract — extra contract-violating transactions with
tight deadlines are released straight into its pending queue,
repeatedly over a window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FaultEvent:
    """One rogue burst window.

    ``client_id`` is the aggressor; ``magnitude`` transactions are
    injected at ``cycle`` and every ``period`` cycles after it (0 =
    once) while the ``duration``-cycle window is open; each carries an
    absolute deadline ``deadline_slack`` cycles out.
    """

    cycle: int
    duration: int = 1
    client_id: int | None = None
    magnitude: int = 1
    period: int = 0
    deadline_slack: int = 64

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ConfigurationError(f"fault cycle must be >= 0, got {self.cycle}")
        if self.client_id is None or self.client_id < 0:
            raise ConfigurationError("rogue-burst fault needs a target client id")
        if self.duration < 1:
            raise ConfigurationError(
                f"fault duration must be >= 1, got {self.duration}"
            )
        if self.magnitude < 1:
            raise ConfigurationError(
                f"fault magnitude must be >= 1, got {self.magnitude}"
            )
        if self.period < 0:
            raise ConfigurationError(f"fault period must be >= 0, got {self.period}")
        if self.deadline_slack < 1:
            raise ConfigurationError(
                f"deadline slack must be >= 1, got {self.deadline_slack}"
            )

    @property
    def end(self) -> int:
        """First cycle after the fault window."""
        return self.cycle + self.duration

    def action_cycles(self) -> list[int]:
        """Cycles at which a burst fires.

        The orchestrator declares them as engine activity so the
        quiescence fast path can never leap over one.
        """
        if self.period == 0:
            return [self.cycle]
        return list(range(self.cycle, self.end, self.period))


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events (possibly empty).

    The empty plan is a valid, useful value: a fault-instrumented run
    under ``FaultPlan.none()`` is bit-for-bit identical to an
    uninstrumented run (the differential tests assert it), which pins
    the instrumentation itself as observation-free.
    """

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # sorted() is stable: events of one cycle keep their given order
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.cycle))
        )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (inject nothing, perturb nothing)."""
        return cls(())

    @property
    def empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def rogue_client(
        cls,
        client_id: int,
        start: int,
        end: int,
        burst_size: int = 16,
        burst_every: int = 50,
        deadline_slack: int = 16,
    ) -> "FaultPlan":
        """The isolation experiment's aggressor: periodic contract-
        violating bursts with tight deadlines over ``[start, end)``."""
        if end <= start:
            raise ConfigurationError(
                f"rogue window [{start}, {end}) is empty"
            )
        return cls(
            (
                FaultEvent(
                    cycle=start,
                    duration=end - start,
                    client_id=client_id,
                    magnitude=burst_size,
                    period=burst_every,
                    deadline_slack=deadline_slack,
                ),
            )
        )
