"""EDF schedulability of a task set on a periodic resource.

Sec. 5 of the paper: task set ``T_X`` is schedulable on VE ``X`` iff
``dbf(t, T_X) <= sbf(t, X)`` for all ``t``.  Theorem 1 bounds the range
of ``t`` that must be checked:

    β = 2·(Θ/Π)·(Π − Θ) / (Θ/Π − U_X)

provided the bandwidth strictly exceeds the task-set utilization
(``Θ/Π > U_X``), which is a necessary condition anyway.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from repro.analysis.context import AnalysisContext
from repro.analysis import vectorized
from repro.analysis.prm import ResourceInterface, dbf, sbf
from repro.errors import ConfigurationError
from repro.tasks.taskset import TaskSet


@dataclass(frozen=True)
class SchedulabilityResult:
    """Outcome of one dbf<=sbf test, with the witness when it fails."""

    schedulable: bool
    #: first t at which demand exceeded supply (None when schedulable)
    violation_time: int | None = None
    #: demand and supply at the violation (0 when schedulable)
    demand_at_violation: int = 0
    supply_at_violation: int = 0
    #: the Theorem-1 bound actually used (0 when the utilization test fails)
    test_bound: int = 0


def theorem1_bound(interface: ResourceInterface, utilization: Fraction) -> int:
    """The finite test horizon β of Theorem 1 (rounded up to an integer).

    Requires ``Θ/Π > U`` strictly; raises otherwise since β would be
    infinite or negative.
    """
    bandwidth = interface.bandwidth
    if bandwidth <= utilization:
        raise ConfigurationError(
            f"Theorem 1 needs bandwidth Θ/Π={bandwidth} > U={utilization}"
        )
    slack = interface.period - interface.budget
    beta = 2 * bandwidth * slack / (bandwidth - utilization)
    # β is exact (Fraction); tests must cover all integer t in (0, β],
    # including β itself when it is integral (a demand step can land
    # exactly on the bound).
    ceiling = -(-beta.numerator // beta.denominator)  # ceil for Fractions
    return int(ceiling)


def is_schedulable(
    taskset: TaskSet,
    interface: ResourceInterface,
    *,
    ctx: AnalysisContext | None = None,
) -> SchedulabilityResult:
    """Exact EDF-on-periodic-resource schedulability test.

    Checks ``dbf(t) <= sbf(t)`` at every demand step point in the
    closed Theorem-1 range ``(0, β]``.  (Between step points demand is
    constant while supply is non-decreasing, so step points suffice;
    β itself can be a step point when it is integral, so the scan must
    include it.)

    Demand is evaluated once over the task set's step grid (memoized
    in ``ctx``'s cache) and supply in one integer-exact array pass
    (:func:`repro.analysis.vectorized.first_violation`).
    """
    if len(taskset) == 0:
        return SchedulabilityResult(schedulable=True)
    utilization = taskset.utilization
    if interface.budget == 0:
        # No supply at all but there is demand.
        first_deadline = taskset.min_period
        return SchedulabilityResult(
            schedulable=False,
            violation_time=first_deadline,
            demand_at_violation=dbf(first_deadline, taskset),
            supply_at_violation=0,
        )
    if interface.bandwidth <= utilization:
        # Necessary bandwidth condition fails — except in the degenerate
        # dedicated-resource case Θ == Π with U exactly 1, where
        # dbf(t) <= U·t = t = sbf(t) for every t: genuinely schedulable.
        if interface.budget == interface.period and utilization == 1:
            return SchedulabilityResult(schedulable=True)
        # Demand outpaces supply in the long run; report the first step
        # point where it shows.  With slack Π−Θ > 0 a violation is
        # guaranteed at the hyperperiod or earlier (sbf(t) <= Θ/Π·(t −
        # (Π−Θ)) while dbf(H) = U·H >= Θ/Π·H), so the scan terminates —
        # the iteration cap only guards pathological hyperperiods.
        witness = _bandwidth_failure_witness(taskset, interface)
        if witness is not None:
            time, demand, supply = witness
            return SchedulabilityResult(
                schedulable=False,
                violation_time=time,
                demand_at_violation=demand,
                supply_at_violation=supply,
                test_bound=0,
            )
        return SchedulabilityResult(
            schedulable=False,
            violation_time=None,
            test_bound=0,
        )
    beta = theorem1_bound(interface, utilization)
    memo = (ctx or AnalysisContext()).cache
    witness = vectorized.first_violation(taskset, interface, beta, memo)
    if witness is not None:
        time, demand, supply = witness
        return SchedulabilityResult(
            schedulable=False,
            violation_time=time,
            demand_at_violation=demand,
            supply_at_violation=supply,
            test_bound=beta,
        )
    return SchedulabilityResult(schedulable=True, test_bound=beta)


def _bandwidth_failure_witness(
    taskset: TaskSet, interface: ResourceInterface, max_points: int = 200_000
) -> tuple[int, int, int] | None:
    """First demand step point with ``dbf > sbf`` (lazy ascending scan).

    Used when the necessary bandwidth condition already failed: only
    step points can witness the violation (demand is constant between
    them while supply never decreases).  Candidate points — multiples
    of each task's period — are merged lazily through a heap, so the
    scan costs O(found · log n) instead of materializing a horizon.
    Returns ``(t, demand, supply)``, or None if no violation surfaced
    within ``max_points`` step points (incommensurate-period task sets
    whose first violation sits beyond any practical hyperperiod).
    """
    heap = [(task.period, task.period) for task in taskset]
    heapq.heapify(heap)
    examined = 0
    previous = 0
    while heap and examined < max_points:
        time, period = heapq.heappop(heap)
        heapq.heappush(heap, (time + period, period))
        if time == previous:
            continue  # several tasks stepping at the same instant
        previous = time
        examined += 1
        demand = dbf(time, taskset)
        supply = sbf(time, interface)
        if demand > supply:
            return time, demand, supply
    return None

