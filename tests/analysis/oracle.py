"""An exact analysis oracle, written from the definitions.

The library has one analysis engine (numpy-backed, see
:mod:`repro.analysis.vectorized`).  This module is the reference the
tests hold it to: a second, deliberately plain implementation in
Python integers and :class:`~fractions.Fraction` that shares no code
with the engine.  From :mod:`repro.analysis` its analysis uses only
the definitions — :func:`~repro.analysis.prm.dbf`,
:func:`~repro.analysis.prm.sbf` and
:class:`~repro.analysis.prm.ResourceInterface` — and re-derives
everything else:

* :func:`schedulability` — Shin & Lee's dbf <= sbf test, scanning the
  demand steps in (0, β] with its own exact Theorem-1 β;
* :func:`minimal_budget` — the per-period binary search on Θ;
* :func:`select` — the candidate-period policy and minimum-bandwidth
  tie-break documented on
  :func:`~repro.analysis.interface_selection.select_interface`;
* :func:`port_wcrts` — Spuri's EDF response-time fixpoint on a
  periodic resource, per task and per release offset, with its own
  busy period and supply delay;
* :func:`exhaustive` and :func:`brute_force` — the checks that
  validate the oracle itself: every integer t, every ``(Π, Θ)``.

:func:`installed` swaps the oracle in for the pipeline's two engine
seams — ``repro.analysis.composition.select_interface`` and
``repro.analysis.response_time._port_wcrts`` — so ``compose``,
``update_client``, admission sessions and the holistic bounds run
end to end on it.  Only those two names are replaced (two engine
kernels are wrapped to count calls); every other caller of the
pipeline keeps its bindings.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from itertools import islice, takewhile
from typing import Iterator, NamedTuple
from unittest import mock

from repro.analysis.prm import ResourceInterface, dbf, sbf
from repro.errors import ConfigurationError, InfeasibleError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

#: how many demand steps the witness search of an under-provisioned
#: interface (Θ/Π <= U) examines before it reports no witness
WITNESS_STEPS = 200_000

#: period-candidate budget of ``SelectionConfig()``
DEFAULT_CANDIDATES = 256

#: fixpoint iterates above this raise :class:`InfeasibleError`
DEFAULT_CAP = 10_000_000


class Verdict(NamedTuple):
    """A dbf <= sbf verdict, field for field a ``SchedulabilityResult``."""

    schedulable: bool
    violation_time: int | None = None
    demand_at_violation: int = 0
    supply_at_violation: int = 0
    test_bound: int = 0


class Selection(NamedTuple):
    """A selected interface, field for field a ``SelectionResult``."""

    interface: ResourceInterface
    periods_examined: int
    period_bound: int


# -- dbf <= sbf ---------------------------------------------------------------


def _utilization(taskset: TaskSet) -> Fraction:
    return sum(
        (Fraction(task.wcet, task.period) for task in taskset), Fraction(0)
    )


def _ascending_steps(taskset: TaskSet) -> Iterator[int]:
    """Every instant where dbf can change, ascending, without end."""
    upcoming = {task.period: task.period for task in taskset}
    while True:
        now = min(upcoming.values())
        yield now
        for period, due in upcoming.items():
            if due == now:
                upcoming[period] = due + period


def _steps_upto(taskset: TaskSet, horizon: int) -> Iterator[int]:
    return takewhile(lambda t: t <= horizon, _ascending_steps(taskset))


def step_points(taskset: TaskSet, horizon: int) -> list[int]:
    """The demand steps (period multiples) in (0, horizon]."""
    return list(_steps_upto(taskset, horizon)) if len(taskset) else []


def beta(interface: ResourceInterface, utilization: Fraction) -> Fraction:
    """Theorem 1's exact horizon ``2·(Θ/Π)·(Π−Θ) / (Θ/Π − U)``.

    Past β the linear supply bound ``(Θ/Π)·(t − 2(Π−Θ))`` already
    covers ``U·t >= dbf(t)``, so no violation can sit there.
    """
    bandwidth = Fraction(interface.budget, interface.period)
    slack = interface.period - interface.budget
    return 2 * bandwidth * slack / (bandwidth - utilization)


def _first_violation(taskset, interface, steps) -> Verdict | None:
    for t in steps:
        demand, supply = dbf(t, taskset), sbf(t, interface)
        if demand > supply:
            return Verdict(False, t, demand, supply)
    return None


def schedulability(taskset: TaskSet, interface: ResourceInterface) -> Verdict:
    """Exact EDF schedulability of ``taskset`` on ``interface``.

    With Θ/Π > U, scan the demand steps in (0, β]; the reported test
    bound is ⌈β⌉.  With Θ/Π <= U the bound does not exist: the set is
    schedulable only on a dedicated resource at U = 1, and otherwise
    the witness is the first violating step among the first
    :data:`WITNESS_STEPS` (``violation_time`` None when none shows).
    """
    if len(taskset) == 0:
        return Verdict(True)
    utilization = _utilization(taskset)
    if interface.budget == 0:
        first = min(task.period for task in taskset)
        return Verdict(False, first, dbf(first, taskset), 0)
    if Fraction(interface.budget, interface.period) <= utilization:
        if interface.budget == interface.period and utilization == 1:
            return Verdict(True)
        steps = islice(_ascending_steps(taskset), WITNESS_STEPS)
        return _first_violation(taskset, interface, steps) or Verdict(False)
    bound = math.ceil(beta(interface, utilization))
    witness = _first_violation(taskset, interface, _steps_upto(taskset, bound))
    if witness is not None:
        return witness._replace(test_bound=bound)
    return Verdict(True, test_bound=bound)


def exhaustive(
    taskset: TaskSet, interface: ResourceInterface, horizon: int
) -> bool:
    """dbf <= sbf at every integer t in (0, horizon] — no theorem used."""
    return all(
        dbf(t, taskset) <= sbf(t, interface) for t in range(1, horizon + 1)
    )


# -- interface selection ------------------------------------------------------


def minimal_budget(taskset: TaskSet, period: int) -> int | None:
    """The least Θ with Θ/Π > U that schedules ``taskset`` at Π.

    Schedulability is monotone in Θ, so a binary search over
    (⌊U·Π⌋, Π] finds it; None when even Θ = Π fails.
    """
    if period <= 0:
        raise ConfigurationError(f"period must be positive, got {period}")
    if len(taskset) == 0:
        return 0
    utilization = _utilization(taskset)
    low, high = math.floor(utilization * period) + 1, period
    if low > high:
        return None

    def fits(budget):
        return schedulability(taskset, ResourceInterface(period, budget))[0]

    if not fits(high):
        return None
    while low < high:
        middle = (low + high) // 2
        if fits(middle):
            high = middle
        else:
            low = middle + 1
    return low


def period_bound(taskset: TaskSet, sibling_utilization: Fraction) -> int:
    """Theorem 2: ``Π <= min T / (2·U_siblings)``, never above ``min T``."""
    shortest = min(task.period for task in taskset)
    if sibling_utilization <= 0:
        return shortest
    return min(shortest, math.floor(shortest / (2 * sibling_utilization)))


def candidate_periods(upper: int, max_candidates: int) -> list[int]:
    """Periods 1..upper, or ``max_candidates`` of them spread evenly.

    The sample rounds ``1 + i·(upper − 1)/(max_candidates − 1)`` half to
    even, and always includes ``upper``.  A sample needs both ends, so
    ``max_candidates`` is 0 or at least 2.
    """
    if max_candidates < 0 or max_candidates == 1:
        raise ConfigurationError("max_period_candidates must be 0 or >= 2")
    if upper < 1:
        return []
    if max_candidates == 0 or upper <= max_candidates:
        return list(range(1, upper + 1))
    spacing = Fraction(upper - 1, max_candidates - 1)
    return sorted(
        {1 + round(i * spacing) for i in range(max_candidates)} | {upper}
    )


def select(
    taskset: TaskSet,
    sibling_utilization: Fraction = Fraction(0),
    max_candidates: int = DEFAULT_CANDIDATES,
) -> Selection:
    """The minimum-bandwidth interface over the candidate periods.

    Ties in bandwidth go to the larger period.  Raises
    :class:`InfeasibleError` when no candidate has a budget.
    """
    if len(taskset) == 0:
        return Selection(ResourceInterface(1, 0), 0, 0)
    upper = period_bound(taskset, sibling_utilization)
    periods = candidate_periods(upper, max_candidates)
    best = None
    for period in periods:
        budget = minimal_budget(taskset, period)
        if budget is None:
            continue
        key = (Fraction(budget, period), -period)
        if best is None or key < best[0]:
            best = (key, ResourceInterface(period, budget))
    if best is None:
        raise InfeasibleError(
            f"no schedulable interface for task set with U="
            f"{float(_utilization(taskset)):.3f} within period bound {upper}"
        )
    return Selection(best[1], len(periods), upper)


def brute_force(
    taskset: TaskSet, max_period: int
) -> ResourceInterface | None:
    """The minimum-bandwidth ``(Π, Θ)`` over every Π <= max_period and
    every Θ, tested by :func:`schedulability` alone."""
    best = None
    for period in range(1, max_period + 1):
        for budget in range(1, period + 1):
            interface = ResourceInterface(period, budget)
            if schedulability(taskset, interface).schedulable:
                if best is None or interface.bandwidth < best.bandwidth:
                    best = interface
                break
    return best


# -- response times -----------------------------------------------------------


def supply_delay(demand: int, interface: ResourceInterface) -> int:
    """The least t with ``sbf(t) >= demand``.

    The worst-case supply pattern is a blackout of 2(Π−Θ) followed by
    Θ units every Π: ``demand`` takes ⌈demand/Θ⌉ − 1 whole periods and
    the rest of one budget.  Both sides of the minimum are re-checked
    against ``sbf``.
    """
    if demand < 0:
        raise ConfigurationError(f"demand must be non-negative, got {demand}")
    if demand == 0:
        return 0
    if interface.budget == 0:
        raise InfeasibleError("a zero-budget interface supplies nothing")
    period, budget = interface.period, interface.budget
    whole = -(-demand // budget) - 1
    t = 2 * (period - budget) + whole * period + (demand - whole * budget)
    assert sbf(t, interface) >= demand > sbf(t - 1, interface)
    return t


def busy_period(
    tasks: list[PeriodicTask],
    interface: ResourceInterface,
    jitters: dict[str, int],
    cap: int = DEFAULT_CAP,
) -> int:
    """The least fixpoint ``t = supply_delay(Σ ⌈(t + J_i)/T_i⌉·C_i)``,
    iterated up from the delay of one job per task; a growing iterate
    past ``cap`` raises."""
    t = supply_delay(sum(task.wcet for task in tasks), interface)
    while True:
        work = sum(
            -(-(t + jitters.get(task.name, 0)) // task.period) * task.wcet
            for task in tasks
        )
        grown = supply_delay(work, interface)
        if grown <= t:
            return t
        if grown > cap:
            raise InfeasibleError(f"busy period exceeds {cap}")
        t = grown


def _release_offsets(task, others, jitters, horizon) -> set[int]:
    """Spuri's candidate offsets of ``task``'s job in [0, horizon): its
    own releases, and every offset putting its deadline on another
    task's deadline."""
    offsets = set(range(0, max(horizon, 1), task.period))
    for other in others:
        first = other.deadline - jitters.get(other.name, 0) - task.deadline
        offsets.update(
            a for a in range(first, horizon, other.period) if a > 0
        )
    return offsets


def wcrt(
    task: PeriodicTask,
    tasks: list[PeriodicTask],
    interface: ResourceInterface,
    jitters: dict[str, int],
    horizon: int,
    *,
    blocking: int,
    cap: int = DEFAULT_CAP,
) -> int:
    """Worst response of ``task`` among ``tasks`` over the release
    offsets of a busy period of length ``horizon``.

    The job released at offset ``a`` is due at ``d = a + D``; it is
    done once supply covers its own work (the jobs of ``task`` up to
    it, plus ``blocking``) and every other job released before that
    instant with a deadline no later than ``d``.
    """
    others = [other for other in tasks if other is not task]
    worst = 0
    for offset in _release_offsets(task, others, jitters, horizon):
        due = offset + task.deadline
        own = (offset // task.period + 1) * task.wcet + blocking
        t = supply_delay(own, interface)
        while True:
            work = own
            for other in others:
                jitter = jitters.get(other.name, 0)
                released = -(-(t + jitter) // other.period)
                due_in_time = (due - other.deadline + jitter) // other.period + 1
                work += min(released, max(due_in_time, 0)) * other.wcet
            finish = supply_delay(work, interface)
            if finish == t:
                break
            if finish > cap:
                raise InfeasibleError("response fixpoint exceeds the cap")
            t = finish
        worst = max(worst, t - offset)
    return worst


def port_wcrts(
    tasks: list[PeriodicTask],
    interface: ResourceInterface,
    jitters: dict[str, int],
    *,
    checked: bool,
    blocking: int = 1,
    cap: int = DEFAULT_CAP,
) -> list[int]:
    """The WCRT of each of one port's ``tasks`` against all of them.

    ``checked`` first requires the port to pass :func:`schedulability`.
    """
    if checked and not schedulability(TaskSet(tasks), interface).schedulable:
        raise InfeasibleError("the port fails dbf <= sbf")
    horizon = busy_period(tasks, interface, jitters, cap)
    return [
        wcrt(task, tasks, interface, jitters, horizon, blocking=blocking, cap=cap)
        for task in tasks
    ]


# -- the pipeline seams -------------------------------------------------------


@contextmanager
def installed() -> Iterator[Counter]:
    """Run the analysis pipeline on the oracle inside the block.

    Patches ``composition.select_interface`` (every SE port's selection,
    honouring ``ctx.config``) and ``response_time._port_wcrts`` (every
    port's response bounds, under the module's current divergence cap).
    Neither reads the context's cache.  The whole-SE memo is bypassed
    too (``composition._resolution`` becomes ``_solve_node``), so an
    engine-filled cache cannot answer inside the block and the block's
    oracle answers never reach the engine after it.  Yields a counter
    of oracle calls per seam, so a test can tell the oracle really
    ran.  The engine's lock-step verdicts and port fixpoint are counted
    too, as ``engine.<name>``: a block that ran either fails on exit,
    because a seam leaked.
    """
    from repro.analysis import composition, response_time, vectorized

    calls: Counter = Counter()

    def select_interface(taskset, sibling_utilization=Fraction(0), *, ctx=None):
        calls["select_interface"] += 1
        candidates = (
            DEFAULT_CANDIDATES
            if ctx is None
            else ctx.config.max_period_candidates
        )
        return select(taskset, sibling_utilization, candidates)

    def _port_wcrts(tasks, interface, jitters, *, checked, ctx):
        calls["port_wcrts"] += 1
        return port_wcrts(
            tasks,
            interface,
            jitters,
            checked=checked,
            cap=response_time._BUSY_PERIOD_CAP,
        )

    def counted(name):
        engine = getattr(vectorized, name)

        def run(*args, **kwargs):
            calls[f"engine.{name}"] += 1
            return engine(*args, **kwargs)

        return run

    patches = [
        # every SE solved afresh: no whole-SE memo read or written
        (composition, "_resolution", composition._solve_node),
        (composition, "select_interface", select_interface),
        (response_time, "_port_wcrts", _port_wcrts),
        (vectorized, "grid_verdicts", counted("grid_verdicts")),
        (vectorized, "port_wcrts", counted("port_wcrts")),
    ]
    with ExitStack() as stack:
        for module, name, replacement in patches:
            stack.enter_context(mock.patch.object(module, name, replacement))
        yield calls
    leaked = {key: n for key, n in calls.items() if key.startswith("engine.")}
    assert not leaked, f"the engine ran under the oracle: {leaked}"
