"""Deterministic scenario plans: workload churn as a pure value.

A :class:`ScenarioPlan` is a frozen, picklable timeline of
:class:`ScenarioEvent`\\ s — clients joining, leaving, changing rate or
switching operating mode mid-simulation.  Like
:class:`~repro.faults.plan.FaultPlan` it is *data only*: nothing here
touches a simulation.  The :class:`~repro.scenarios.driver.ScenarioDriver`
interprets a plan against a running :class:`~repro.soc.SoCSimulation`,
and :func:`~repro.scenarios.replay.replay_plan` interprets the same plan
against an :class:`~repro.analysis.session.AdmissionSession`.  Both
consumers derive the post-event task sets through the *same* pure
functions in this module (:func:`rate_scaled`, :func:`proposed_tasksets`),
so the analytical view of the workload and the traffic the simulator
actually generates can never drift apart.

Event taxonomy (the churn modes the BlueScale re-selection claim must
survive):

* ``CLIENT_JOIN`` — a client starts (or extends) a workload: ``tasks``
  are added to its declared set, first releases phased at the event
  cycle.
* ``CLIENT_LEAVE`` — a client powers down: its declared set empties,
  queued-but-unissued work is withdrawn and its unfinished jobs stop
  being judged (nobody observes a departed client's deadlines).
* ``RATE_CHANGE`` — every period in the client's current set is scaled
  by ``factor`` (``factor < 1`` means shorter periods, i.e. *more*
  demand); WCETs are unchanged.
* ``MODE_SWITCH`` — the client's declared set is *replaced* by
  ``tasks`` (an operating-mode change).  The old mode's queued work is
  abandoned, mirroring a software workload restart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError
from repro.runtime.seeding import seed_stream
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


class ScenarioKind(enum.Enum):
    """What kind of workload transition a :class:`ScenarioEvent` applies."""

    CLIENT_JOIN = "client-join"
    CLIENT_LEAVE = "client-leave"
    RATE_CHANGE = "rate-change"
    MODE_SWITCH = "mode-switch"


#: kinds whose event must carry a non-empty ``tasks`` payload
_PAYLOAD_KINDS = frozenset({ScenarioKind.CLIENT_JOIN, ScenarioKind.MODE_SWITCH})


def rate_scaled(taskset: TaskSet, factor: float) -> TaskSet:
    """Rescale every period in ``taskset`` by ``factor`` (WCETs kept).

    The new period is ``round(period * factor)`` clamped below by the
    task's WCET (a :class:`~repro.tasks.task.PeriodicTask` requires
    ``wcet <= period``), so even aggressive rate increases yield a valid
    task.  Shared by the simulator driver and the analysis replay so a
    ``RATE_CHANGE`` means the same workload on both sides.
    """
    if factor <= 0:
        raise ConfigurationError(f"rate factor must be > 0, got {factor}")
    scaled = []
    for task in taskset:
        period = max(task.wcet, round(task.period * factor), 1)
        scaled.append(
            PeriodicTask(
                period=period,
                wcet=task.wcet,
                name=task.name,
                client_id=task.client_id,
            )
        )
    return TaskSet(scaled)


@dataclass(frozen=True)
class ScenarioEvent:
    """One workload transition at one cycle.

    ``tasks`` is the joined/new-mode payload (``CLIENT_JOIN`` /
    ``MODE_SWITCH``); ``factor`` is the period multiplier
    (``RATE_CHANGE``).  Events are pure values: the driver stamps the
    ``client_id`` onto payload tasks when applying them.
    """

    kind: ScenarioKind
    cycle: int
    client_id: int
    tasks: tuple[PeriodicTask, ...] = field(default=())
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ConfigurationError(f"event cycle must be >= 0, got {self.cycle}")
        if self.client_id < 0:
            raise ConfigurationError(
                f"client_id must be >= 0, got {self.client_id}"
            )
        if self.kind in _PAYLOAD_KINDS and not self.tasks:
            raise ConfigurationError(f"{self.kind.value} event needs tasks")
        if self.kind not in _PAYLOAD_KINDS and self.tasks:
            raise ConfigurationError(
                f"{self.kind.value} event must not carry tasks"
            )
        if self.kind is ScenarioKind.RATE_CHANGE:
            if self.factor <= 0:
                raise ConfigurationError(
                    f"rate factor must be > 0, got {self.factor}"
                )
        elif self.factor != 1.0:
            raise ConfigurationError(
                "factor is only meaningful for rate-change events"
            )

    def assigned_tasks(self) -> TaskSet:
        """Payload tasks stamped with this event's ``client_id``."""
        return TaskSet([task.with_client(self.client_id) for task in self.tasks])

    def proposed(self, current: TaskSet) -> TaskSet:
        """The client's declared task set after this event applies."""
        if self.kind is ScenarioKind.CLIENT_JOIN:
            return current.merged_with(self.assigned_tasks())
        if self.kind is ScenarioKind.CLIENT_LEAVE:
            return TaskSet()
        if self.kind is ScenarioKind.RATE_CHANGE:
            return rate_scaled(current, self.factor)
        return self.assigned_tasks()


def proposed_tasksets(
    current: Mapping[int, TaskSet], event: ScenarioEvent
) -> dict[int, TaskSet]:
    """System-wide task sets after ``event`` applies to ``current``.

    Pure: ``current`` is not mutated.  Only ``event.client_id``'s entry
    changes; a leave keeps the (now empty) entry so the client's port
    stays accounted for.
    """
    result = dict(current)
    before = current.get(event.client_id, TaskSet())
    result[event.client_id] = event.proposed(before)
    return result


@dataclass(frozen=True)
class ScenarioPlan:
    """A frozen schedule of workload transitions, sorted by cycle.

    Mirrors :class:`~repro.faults.plan.FaultPlan`: pure data and an
    explicit ``none()`` for the empty plan; a seeded :meth:`generate`
    derives reproducible churn campaigns.
    """

    events: tuple[ScenarioEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.events,
                key=lambda e: (e.cycle, e.kind.value, e.client_id),
            )
        )
        object.__setattr__(self, "events", ordered)

    @staticmethod
    def none() -> "ScenarioPlan":
        """The empty plan — attaching it must be bit-for-bit inert."""
        return ScenarioPlan(())

    @property
    def empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: ScenarioKind) -> tuple[ScenarioEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)

    def clients(self) -> frozenset[int]:
        """Every client touched by some event (the non-victims)."""
        return frozenset(e.client_id for e in self.events)

    @staticmethod
    def generate(
        seed: int,
        horizon: int,
        n_clients: int,
        *,
        joins: int = 1,
        leaves: int = 1,
        rate_changes: int = 1,
        mode_switches: int = 1,
        tasks_per_event: int = 2,
        period_min: int = 100,
        period_max: int = 2_000,
    ) -> "ScenarioPlan":
        """Derive a reproducible churn plan from an explicit seed.

        Event cycles land in ``[horizon // 8, 4 * horizon // 5)`` so
        there is always a pre-churn warm phase and a post-churn tail to
        observe transients in.  Same arguments → same plan, on any
        executor backend.
        """
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be > 0, got {horizon}")
        if n_clients <= 0:
            raise ConfigurationError(
                f"need at least one client, got {n_clients}"
            )
        rng = seed_stream(f"scenarios/{seed}/{horizon}/{n_clients}")

        def draw_cycle() -> int:
            return rng.randrange(horizon // 8, max(horizon // 8 + 1, 4 * horizon // 5))

        def draw_tasks() -> tuple[PeriodicTask, ...]:
            tasks = []
            for index in range(tasks_per_event):
                period = rng.randrange(period_min, period_max + 1)
                wcet = rng.randrange(1, max(2, min(8, period)))
                tasks.append(
                    PeriodicTask(period=period, wcet=wcet, name=f"gen{index}")
                )
            return tuple(tasks)

        events: list[ScenarioEvent] = []
        for _ in range(joins):
            events.append(
                ScenarioEvent(
                    kind=ScenarioKind.CLIENT_JOIN,
                    cycle=draw_cycle(),
                    client_id=rng.randrange(n_clients),
                    tasks=draw_tasks(),
                )
            )
        for _ in range(leaves):
            events.append(
                ScenarioEvent(
                    kind=ScenarioKind.CLIENT_LEAVE,
                    cycle=draw_cycle(),
                    client_id=rng.randrange(n_clients),
                )
            )
        for _ in range(rate_changes):
            events.append(
                ScenarioEvent(
                    kind=ScenarioKind.RATE_CHANGE,
                    cycle=draw_cycle(),
                    client_id=rng.randrange(n_clients),
                    factor=rng.choice((0.5, 0.8, 1.25, 2.0)),
                )
            )
        for _ in range(mode_switches):
            events.append(
                ScenarioEvent(
                    kind=ScenarioKind.MODE_SWITCH,
                    cycle=draw_cycle(),
                    client_id=rng.randrange(n_clients),
                    tasks=draw_tasks(),
                )
            )
        return ScenarioPlan(tuple(events))
