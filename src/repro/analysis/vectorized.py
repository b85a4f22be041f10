"""Numpy-backed batch evaluation of dbf/sbf over step-point grids.

This is the analysis engine.  Tested one candidate ``(Π, Θ)`` at a
time, dbf <= sbf re-scans every demand step point per candidate and
recomputes ``dbf`` from scratch each time — O(candidates × points ×
tasks) Python bytecode.  This module turns the hot loops into array
programs:

* a :class:`StepGrid` materializes the *deduplicated* demand step
  points of a task set once (they only depend on the task set, not the
  candidate interface) together with the dbf value at each point, so
  every candidate of a search shares one demand evaluation;
* :func:`sbf_values` evaluates the supply bound function of one
  candidate over the whole grid in a handful of vector ops, and
  :func:`grid_verdicts` folds that into per-candidate verdicts for a
  whole batch of interfaces at once, each checked up to a float64
  over-approximation of its Theorem-1 horizon
  (:func:`theorem1_horizons`);
* :func:`port_wcrts` bounds the response time of every task of one
  port at once: one fixpoint iteration advances every (task, release
  offset) pair of Spuri's analysis, with :func:`supply_inverse_values`
  as the array form of the supply delay.

Every compared dbf and sbf value stays in int64 — the formulas are
integer-exact, and a horizon past β cannot change a verdict — so the
verdicts are *identical* to the exact per-point scan's (the property
suite checks them against an independent oracle).  Grids whose Theorem-1
horizon would not fit the configured point budget are scanned in
ascending windows of that budget instead: the same semantics with
bounded memory.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.analysis.cache import AnalysisCache, TaskSetKey, taskset_key
from repro.analysis.prm import ResourceInterface
from repro.errors import ConfigurationError, InfeasibleError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

#: largest step-point grid the vectorized path will materialize; beyond
#: this the (equally exact) windowed scan takes over
MAX_GRID_POINTS = 2_000_000

#: cells-per-chunk budget of the batched (candidates × points) supply
#: evaluation and of the (release offsets × tasks) response fixpoint —
#: bounds transient memory at ~8 int64 arrays of this size
MAX_BATCH_CELLS = 2_000_000


def sbf_values(ts: np.ndarray, period, budget) -> np.ndarray:
    """``sbf(t, (Π, Θ))`` for every t in ``ts`` (int64 array in/out).

    Same formula as :func:`repro.analysis.prm.sbf`, vectorized.
    ``period`` and ``budget`` are ints, or int64 arrays that broadcast
    against ``ts`` (one row of candidates per column of points).
    """
    t_prime = ts - (period - budget)
    full_periods = t_prime // period
    epsilon = t_prime - period * full_periods - (period - budget)
    values = full_periods * budget + np.maximum(epsilon, 0)
    return np.where(t_prime < 0, 0, values)


def dbf_values(ts: np.ndarray, taskset: TaskSet) -> np.ndarray:
    """``dbf(t, taskset)`` for every t in ``ts`` (int64 array in/out)."""
    demands = np.zeros_like(ts)
    for task in taskset:
        demands += (ts // task.period) * task.wcet
    return demands


def _step_points(
    periods: np.ndarray, wcets: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct demand step points in (lo, hi], with dbf values.

    ``np.sort`` plus a neighbour mask rather than ``np.unique``: the
    multiples are already int64 and sorting them is far cheaper than
    ``np.unique``'s hashing on millions of points.
    """
    ts = np.sort(
        np.concatenate(
            [
                np.arange((lo // p + 1) * p, hi + 1, p, dtype=np.int64)
                for p in periods
            ]
        )
    )
    distinct = np.ones(len(ts), dtype=bool)
    distinct[1:] = ts[1:] != ts[:-1]
    ts = ts[distinct]
    demands = np.zeros_like(ts)
    for p, c in zip(periods, wcets):
        demands += (ts // p) * c
    return ts, demands


class StepGrid:
    """Deduplicated demand step points of one task set, with dbf values.

    Grown on demand to whatever horizon a Theorem-1 bound requires and
    shared — via :class:`~repro.analysis.cache.AnalysisCache` — by every
    candidate interface ever tested against this task set.
    """

    def __init__(self, taskset: TaskSet) -> None:
        by_period: dict[int, int] = {}
        for task in taskset:
            by_period[task.period] = by_period.get(task.period, 0) + task.wcet
        self.periods = np.array(sorted(by_period), dtype=np.int64)
        self.wcets = np.array(
            [by_period[p] for p in sorted(by_period)], dtype=np.int64
        )
        self.horizon = 0
        self.ts = np.empty(0, dtype=np.int64)
        self.demands = np.empty(0, dtype=np.int64)
        # Conservative materialization ceiling: points_within(H) <=
        # H·Σ 1/Pᵢ, so horizons up to `cap` always fit the point budget.
        inverse_sum = float(np.sum(1.0 / self.periods)) if len(self.periods) else 0.0
        self.cap = (
            int(MAX_GRID_POINTS / inverse_sum) if inverse_sum else MAX_GRID_POINTS
        )

    def points_within(self, horizon: int) -> int:
        """Upper bound on the number of step points in (0, horizon]."""
        return int(sum(horizon // int(p) for p in self.periods))

    def ensure(self, horizon: int) -> None:
        """Materialize step points and demands up to ``horizon``."""
        if horizon <= self.horizon:
            return
        ts, demands = _step_points(self.periods, self.wcets, 0, horizon)
        # Publication order matters for concurrent readers (the shared
        # AnalysisCache hands one grid to many admission threads): the
        # arrays must be in place before the horizon that advertises
        # them.  Growth only ever *extends* the sorted point array, so
        # a reader pairing a newer array with an older horizon still
        # slices a correct prefix.
        self.ts = ts
        self.demands = demands
        self.horizon = horizon

    def upto(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (step points, demands) within (0, horizon]."""
        self.ensure(horizon)
        # Snapshot both refs once so a concurrent ensure() cannot pair
        # points from one materialization with demands from another.
        ts, demands = self.ts, self.demands
        end = int(np.searchsorted(ts, horizon, side="right"))
        return ts[:end], demands[:end]


def grid_for(taskset: TaskSet, memo: AnalysisCache) -> StepGrid:
    """The (possibly memoized) step grid of a task set."""
    key: TaskSetKey = taskset_key(taskset)
    grid = memo.get_grid(key)
    if grid is None:
        grid = StepGrid(taskset)
        memo.put_grid(key, grid)
    return grid


def theorem1_betas(
    utilization: Fraction, interfaces: list[tuple[int, int]]
) -> list[int]:
    """Exact ``ceil(β)`` per candidate, in integer arithmetic.

    Same quantity as :func:`repro.analysis.schedulability.theorem1_bound`
    — ``β = 2Θ(Π−Θ) / (Θ − UΠ)`` — computed with Python ints so huge
    utilization denominators cannot overflow.  Every candidate must
    satisfy ``Θ/Π > U`` strictly.
    """
    return [
        _ceil_beta(utilization, period, budget) for period, budget in interfaces
    ]


def _beta_numerators(periods, budgets):
    """β's numerator ``2Θ(Π−Θ)``, for ints or int arrays alike.

    A blocking term B (``dbf(t) + B <= sbf(t)``) would add ``B·Π`` here
    and nowhere else.
    """
    return 2 * budgets * (periods - budgets)


def _ceil_beta(utilization: Fraction, period: int, budget: int) -> int:
    """Exact ``ceil(β)`` of one candidate, in Python ints."""
    p, q = utilization.numerator, utilization.denominator
    denominator = budget * q - p * period
    if denominator <= 0:
        raise ConfigurationError(
            f"Theorem 1 needs bandwidth {budget}/{period} > U={utilization}"
        )
    return -(-(_beta_numerators(period, budget) * q) // denominator)


#: marks a horizon whose exact value does not fit int64
HORIZON_OVERFLOW = int(np.iinfo(np.int64).max)

#: largest period the float64 horizon bound takes: below it Π, Θ and
#: 2Θ(Π−Θ) are exact int64 values and float64 holds Π and Θ exactly
_FLOAT_PERIOD_LIMIT = 2**31


def theorem1_horizons(
    utilization: Fraction, periods: np.ndarray, budgets: np.ndarray
) -> np.ndarray:
    """An int64 horizon ``H >= ceil(β)`` per candidate ``(Π, Θ)``.

    Any ``H >= β`` decides Theorem 1's test exactly like β itself: for
    ``t >= β``, ``dbf(t) <= U·t <= lsbf(t) <= sbf(t)``, so no point past
    β can hold a violation.  ``H`` is therefore computed in float64 and
    only ever rounded *up*: with ``u = float(U)`` (correctly rounded),
    the computed ``Θ − u·Π`` is within ``2⁻⁵¹·(Θ + UΠ)`` of the exact
    ``Θ − UΠ``; ``margin`` is 64 times that, subtracted from the
    denominator, and the quotient is scaled up by ``1 + 2⁻⁴⁰``, which
    covers its four remaining roundings.  A candidate whose denominator
    is within ``2¹⁰·margin`` of zero (ill-conditioned: the bound would
    be loose), or whose bound reaches 2⁶², gets the exact
    :func:`theorem1_betas` value instead — :data:`HORIZON_OVERFLOW`
    when even that does not fit int64.  Every candidate must satisfy
    ``Θ/Π > U`` strictly (checked exactly on the fallback path, and
    implied by a positive ``denominator − margin`` on the float one).
    """
    horizons = np.full(len(periods), HORIZON_OVERFLOW, dtype=np.int64)
    if len(periods) and int(periods.max()) < _FLOAT_PERIOD_LIMIT:
        numerators = _beta_numerators(periods, budgets)
        u = float(utilization)
        supply = budgets.astype(np.float64)
        demand = u * periods.astype(np.float64)
        denominator = supply - demand
        margin = (supply + demand) * 2.0**-45
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.ceil(
                numerators / (denominator - margin) * (1.0 + 2.0**-40)
            )
        fast = (denominator > 1024.0 * margin) & (bound < 2.0**62)
        horizons[fast] = bound[fast]
        exact = np.flatnonzero(~fast)
    else:
        exact = np.arange(len(periods))
    for i in exact:
        beta = _ceil_beta(utilization, int(periods[i]), int(budgets[i]))
        horizons[i] = min(beta, HORIZON_OVERFLOW)
    return horizons


def _window_violation(
    grid: StepGrid, period: int, budget: int, horizon: int
) -> tuple[int, int, int] | None:
    """First ``(t, demand, supply)`` with dbf > sbf in (0, horizon].

    For horizons whose grid would not fit the point budget: the scan
    walks ascending windows of ``grid.cap`` cycles (about
    :data:`MAX_GRID_POINTS` step points each, plus at most one per
    period), so memory stays bounded and the first violating window
    holds the first violating point.
    """
    width = max(1, grid.cap)
    lo = 0
    while lo < horizon:
        hi = min(horizon, lo + width)
        ts, demands = _step_points(grid.periods, grid.wcets, lo, hi)
        supplies = sbf_values(ts, period, budget)
        violations = demands > supplies
        if violations.any():
            index = int(np.argmax(violations))
            return int(ts[index]), int(demands[index]), int(supplies[index])
        lo = hi
    return None


def first_violation(
    taskset: TaskSet,
    interface: ResourceInterface,
    beta: int,
    memo: AnalysisCache,
) -> tuple[int, int, int] | None:
    """First ``(t, demand, supply)`` with dbf > sbf in (0, β], or None.

    The Theorem-1 scan of one candidate: demands come from the shared
    :class:`StepGrid`, supplies from one :func:`sbf_values` pass.
    """
    grid = grid_for(taskset, memo)
    if grid.points_within(beta) > MAX_GRID_POINTS:
        return _window_violation(grid, interface.period, interface.budget, beta)
    ts, demands = grid.upto(beta)
    if len(ts) == 0:
        return None
    supplies = sbf_values(ts, interface.period, interface.budget)
    violations = demands > supplies
    index = int(np.argmax(violations))
    if not violations[index]:
        return None
    return int(ts[index]), int(demands[index]), int(supplies[index])


def grid_verdicts(
    grid: StepGrid,
    utilization: Fraction,
    periods: np.ndarray,
    budgets: np.ndarray,
) -> np.ndarray:
    """Theorem-1 verdicts of candidates ``(periods[i], budgets[i])``.

    ``grid`` is the step grid of a task set of utilization
    ``utilization``; every candidate's bandwidth must exceed it.  One
    shared demand grid serves the whole batch, and supplies are one
    (candidates × points) array program — chunked to
    :data:`MAX_BATCH_CELLS` — in ascending-horizon order, so each chunk
    slices the grid at its *own* largest horizon.  A row is checked at
    every grid point up to its chunk's horizon, which may lie past the
    row's own β: no violation can sit there
    (:func:`theorem1_horizons`), so the verdict is exactly the
    per-candidate scan's.  Candidates whose horizon would not fit the
    point budget take the windowed scan.
    """
    horizons = theorem1_horizons(utilization, periods, budgets)
    verdicts = np.ones(len(periods), dtype=bool)
    batched = np.ones(len(periods), dtype=bool)
    for i in np.flatnonzero(horizons > grid.cap):
        horizon = int(horizons[i])
        if grid.points_within(horizon) > MAX_GRID_POINTS:
            verdicts[i] = (
                _window_violation(grid, int(periods[i]), int(budgets[i]), horizon)
                is None
            )
            batched[i] = False
    rows = np.flatnonzero(batched)
    if not rows.size:
        return verdicts
    rows = rows[np.argsort(horizons[rows], kind="stable")]
    ts, demands = grid.upto(int(horizons[rows[-1]]))
    ends = np.searchsorted(ts, horizons[rows], side="right")
    start = 0
    while start < len(rows):
        # the longest run from `start` whose cells stay in budget (at
        # least one row); ends ascend, so the cell counts do too
        cells = ends[start:] * np.arange(1, len(rows) - start + 1)
        stop = start + max(
            1, int(np.searchsorted(cells, MAX_BATCH_CELLS, side="right"))
        )
        end = int(ends[stop - 1])
        if end:
            chunk = rows[start:stop]
            supplies = sbf_values(
                ts[None, :end], periods[chunk, None], budgets[chunk, None]
            )
            verdicts[chunk] = (demands[None, :end] <= supplies).all(axis=1)
        start = stop
    return verdicts


def supply_inverse_values(
    demands: np.ndarray, period: int, budget: int
) -> np.ndarray:
    """Smallest ``t`` with ``sbf(t) >= d`` for every ``d`` in ``demands``.

    :func:`repro.analysis.response_time.supply_inverse` over an int64
    array: the same closed form, the same errors, and its two
    postconditions asserted over the whole array.
    """
    if demands.size and int(demands.min()) < 0:
        raise ConfigurationError(
            f"demand must be non-negative, got {int(demands.min())}"
        )
    positive = demands > 0
    if budget == 0:
        if positive.any():
            raise InfeasibleError("zero-budget interface never supplies demand")
        return np.zeros_like(demands)
    full_periods, remainder = np.divmod(demands, budget)
    # A remainder of 0 is a whole last budget: one period fewer.
    boundary = remainder == 0
    ts = (
        (full_periods - boundary) * period
        + 2 * (period - budget)
        + np.where(boundary, budget, remainder)
    )
    ts = np.where(positive, ts, 0)
    assert np.all(sbf_values(ts, period, budget) >= demands)
    assert np.all((ts == 0) | (sbf_values(ts - 1, period, budget) < demands))
    return ts


def _release_offsets(
    tasks: list[PeriodicTask], jitters: list[int], horizon: int
) -> list[np.ndarray]:
    """Spuri's candidate release offsets of each task, sorted, unique.

    Task k's own releases in ``[0, horizon)``, plus every offset in
    ``(0, horizon)`` aligning its absolute deadline with a deadline of
    another task (see :func:`repro.analysis.response_time._port_wcrts`).
    """
    offsets = []
    for k, task in enumerate(tasks):
        parts = [np.arange(0, max(horizon, 1), task.period, dtype=np.int64)]
        for i, (other, jitter) in enumerate(zip(tasks, jitters)):
            if i == k:
                continue
            base = other.deadline - jitter - task.deadline
            if base <= 0:
                base += (-base // other.period + 1) * other.period
            parts.append(np.arange(base, horizon, other.period, dtype=np.int64))
        offsets.append(np.unique(np.concatenate(parts)))
    return offsets


def port_wcrts(
    tasks: list[PeriodicTask],
    interface: ResourceInterface,
    jitters: list[int],
    horizon: int,
    *,
    blocking: int,
    cap: int,
) -> list[int]:
    """WCRT bound of every task of one port, each against all the others.

    The array form of Spuri's per-task analysis documented on
    :func:`repro.analysis.response_time._port_wcrts` (unchecked, with
    ``jitters[i]`` the release jitter of ``tasks[i]``): each row is one
    (task, release offset ``a``) pair, and one iteration advances every
    unconverged row of

        t = supply_inverse(own(a) + Σ_i min(⌈(t+J_i)/T_i⌉, by_deadline_i(a))·C_i)

    where the ``by_deadline`` matrix is fixed per row and zero on the
    row's own task.  ``horizon`` is the port's busy-period length.  A
    row's iterates are exactly its own fixpoint's, so the bounds are
    integer-exact; a row that steps past ``cap`` raises
    :class:`InfeasibleError`.
    """
    periods = np.array([task.period for task in tasks], dtype=np.int64)
    wcets = np.array([task.wcet for task in tasks], dtype=np.int64)
    deadlines = np.array([task.deadline for task in tasks], dtype=np.int64)
    jitter = np.array(jitters, dtype=np.int64)
    offsets = _release_offsets(tasks, jitters, horizon)
    all_offsets = np.concatenate(offsets)
    owners = np.repeat(
        np.arange(len(tasks)), [len(block) for block in offsets]
    )
    wcrt = np.zeros(len(tasks), dtype=np.int64)
    rows = max(1, MAX_BATCH_CELLS // len(tasks))
    for start in range(0, len(all_offsets), rows):
        offset = all_offsets[start : start + rows]
        owner = owners[start : start + rows]
        deadline = offset + deadlines[owner]
        own = (offset // periods[owner] + 1) * wcets[owner] + blocking
        by_deadline = np.maximum(
            (deadline[:, None] - deadlines + jitter) // periods + 1, 0
        )
        by_deadline[np.arange(len(offset)), owner] = 0
        t = supply_inverse_values(own, interface.period, interface.budget)
        finish = np.empty_like(offset)
        active = np.arange(len(offset))
        while active.size:
            arrivals = -(-(t[:, None] + jitter) // periods)
            interference = np.minimum(arrivals, by_deadline) @ wcets
            t_next = supply_inverse_values(
                own + interference, interface.period, interface.budget
            )
            done = t_next == t
            if np.any(t_next[~done] > cap):
                raise InfeasibleError(
                    "WCRT fixpoint diverged: demand outpaces the supply"
                )
            finish[active[done]] = t[done]
            going = ~done
            active, t, own = active[going], t_next[going], own[going]
            by_deadline = by_deadline[going]
        np.maximum.at(wcrt, owner, finish - offset)
    return [int(value) for value in wcrt]
