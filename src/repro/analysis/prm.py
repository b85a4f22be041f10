"""Periodic resource model (Shin & Lee, RTSS 2003) — sbf and dbf.

A Virtual Element (VE) in BlueScale is characterized by an interface
``(Π, Θ)``: at least ``Θ`` time units of transaction capacity are
guaranteed every ``Π`` time units.  The *supply bound function*
``sbf(t)`` lower-bounds the capacity delivered in any window of length
``t``; the *demand bound function* ``dbf(t)`` upper-bounds the work an
EDF-scheduled task set can require by its deadlines within ``t``.

The formulas implemented here are exactly the ones quoted in Sec. 5 of
the BlueScale paper:

    sbf(t, X) = 0                                  if t' < 0
              = floor(t'/Π)·Θ + ε                  if t' >= 0
      where t' = t − (Π − Θ)
            ε  = max(t' − Π·floor(t'/Π) − (Π − Θ), 0)

    dbf(t, τi) = floor(t / T_i) · C_i
    dbf(t, T)  = Σ_{τi ∈ T} dbf(t, τi)

All quantities are integers (discrete time).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.errors import ConfigurationError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


@dataclass(frozen=True, order=True)
class ResourceInterface:
    """A periodic resource interface ``(Π, Θ)``.

    Ordering compares ``(period, budget)`` lexicographically, which is
    occasionally convenient for deterministic tie-breaking; use
    :attr:`bandwidth` for the meaningful comparison.
    """

    period: int  # Π
    budget: int  # Θ

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError(f"Π must be positive, got {self.period}")
        if self.budget < 0:
            raise ConfigurationError(f"Θ must be non-negative, got {self.budget}")
        if self.budget > self.period:
            raise ConfigurationError(
                f"Θ={self.budget} exceeds Π={self.period}: a VE cannot supply "
                "more than the full resource"
            )

    @property
    def bandwidth(self) -> Fraction:
        """Θ/Π as an exact fraction."""
        return Fraction(self.budget, self.period)

    @property
    def bandwidth_float(self) -> float:
        return self.budget / self.period

    def as_server_task(self, name: str = "", client_id: int | None = None) -> PeriodicTask:
        """The server task realizing this interface: T=Π, C=Θ.

        Only valid for non-empty budgets (a zero-budget interface
        corresponds to an idle VE with no server task).
        """
        if self.budget == 0:
            raise ConfigurationError("a zero-budget interface has no server task")
        return PeriodicTask(
            period=self.period, wcet=self.budget, name=name, client_id=client_id
        )


def sbf(t: int, interface: ResourceInterface) -> int:
    """Supply bound function of a periodic resource at time ``t``."""
    if t < 0:
        raise ConfigurationError(f"sbf is undefined for negative t={t}")
    period, budget = interface.period, interface.budget
    t_prime = t - (period - budget)
    if t_prime < 0:
        return 0
    full_periods = t_prime // period
    epsilon = max(t_prime - period * full_periods - (period - budget), 0)
    return full_periods * budget + epsilon


def sbf_linear_lower_bound(t: int, interface: ResourceInterface) -> Fraction:
    """The linear lower bound (Θ/Π)·(t − 2(Π − Θ)) used in Theorem 1's proof.

    Clamped at zero; exact arithmetic so proofs can be checked in tests.
    """
    period, budget = interface.period, interface.budget
    bound = Fraction(budget, period) * (t - 2 * (period - budget))
    return max(bound, Fraction(0))


def dbf_task(t: int, task: PeriodicTask) -> int:
    """Demand bound function of one implicit-deadline task under EDF."""
    if t < 0:
        raise ConfigurationError(f"dbf is undefined for negative t={t}")
    return (t // task.period) * task.wcet


def dbf(t: int, taskset: TaskSet) -> int:
    """Demand bound function of a task set: sum of per-task dbfs."""
    total = 0
    for task in taskset:
        total += (t // task.period) * task.wcet
    return total

