"""Interface selection: the minimum-bandwidth ``(Π, Θ)`` per VE (Sec. 5).

The level-ℓ interface selection problem: given the tasks (or lower-level
server tasks) belonging to each VE at level ℓ+1, choose each VE's
interface ``(Π_X, Θ_X)`` minimizing the bandwidth ``Θ_X/Π_X`` subject to
EDF schedulability of the VE's task set on the resulting periodic
resource.

The search follows the paper exactly:

* Theorem 2 bounds the feasible periods:
  ``Π_X <= min_{τi∈T_X} T_i / (2·(U_{ℓ+2} − U_X))``
  where ``U_{ℓ+2}`` is the total utilization of all tasks competing at
  this SE (the VE's own tasks plus its siblings').  When the VE has no
  competing siblings the bound degenerates; we then cap enumeration at
  ``min T_i`` (a longer period can never reduce the minimum bandwidth,
  because sbf's blackout interval 2(Π−Θ) must stay under min T_i).
* For each candidate ``Π``, schedulability is monotone in ``Θ``, so a
  binary search finds the minimal schedulable budget.
* Among all candidates the pair with minimum bandwidth wins; ties break
  toward the larger period (fewer server replenishments per unit time,
  i.e. less scheduling activity in the SE hardware).

How to run the search — memo cache and search config — is one
:class:`~repro.analysis.context.AnalysisContext`, the ``ctx=`` of every
function here (``None`` means ``AnalysisContext()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from repro.analysis import vectorized
from repro.analysis.cache import AnalysisCache, taskset_key
from repro.analysis.context import AnalysisContext, SelectionConfig
from repro.analysis.prm import ResourceInterface
from repro.errors import ConfigurationError, InfeasibleError
from repro.tasks.taskset import TaskSet

__all__ = [
    "SelectionResult",
    "minimal_budgets_for_periods",
    "select_interface",
    "theorem2_period_bound",
]


def theorem2_period_bound(
    taskset: TaskSet, sibling_utilization: Fraction
) -> int:
    """Theorem 2's necessary upper bound on Π_X.

    ``sibling_utilization`` is ``U_{ℓ+2} − U_X``: the combined
    utilization of tasks belonging to the *other* VEs sharing this SE.
    Returns ``min T_i`` when the bound degenerates (no siblings).
    """
    if len(taskset) == 0:
        raise ConfigurationError("period bound of an empty task set is undefined")
    min_period = taskset.min_period
    if sibling_utilization <= 0:
        return min_period
    bound = Fraction(min_period) / (2 * sibling_utilization)
    return int(min(bound, Fraction(min_period)))


def minimal_budgets_for_periods(
    taskset: TaskSet,
    periods: list[int],
    *,
    ctx: AnalysisContext | None = None,
) -> list[int | None]:
    """Minimal schedulable Θ for *every* candidate Π at once.

    Each entry is the least Θ with Θ/Π > U that schedules the task set
    at that Π, or None when even Θ = Π does not.  The per-period binary
    searches advance in lock-step (:func:`_lockstep_budgets`), so the
    task set's demand grid is evaluated once and shared by the whole
    candidate front; schedulability is monotone in Θ at fixed Π, so
    each converges to its period's own minimum.  Unlike
    :func:`select_interface`'s search, no period is pruned.  Only
    ``ctx``'s cache is read.
    """
    for period in periods:
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
    memo = (ctx or AnalysisContext()).cache
    if len(taskset) == 0:
        return [0 for _ in periods]
    return _lockstep_budgets(taskset, periods, memo, prune=False)


def _lockstep_budgets(
    taskset: TaskSet, periods: list[int], memo: AnalysisCache, *, prune: bool
) -> list[int | None]:
    """Binary-search every period's minimal budget as one array program.

    Returns each period's minimal schedulable Θ, or None where even
    Θ = Π is unschedulable (or the period was pruned).  ``lows`` and
    ``highs`` stay int64 arrays across rounds, each round is one
    :func:`~repro.analysis.vectorized.grid_verdicts` call on the one
    grid this search looks up, and each period's range moves with
    ``np.where``.

    With ``prune``, a still-open period leaves the search once its
    budget floor is *strictly* dearer than some feasible ``(Π, Θ)``
    already found: ``lows[i]/Π_i > Θ_k/Π_k``.  Its final bandwidth
    could only be higher still, so it can neither be the minimum nor
    tie it, and it gets None.  A period whose floor merely ties the
    incumbent stays open, since the larger period wins a tie.
    """
    utilization = taskset.utilization
    p, q = utilization.numerator, utilization.denominator
    grid = vectorized.grid_for(taskset, memo)
    period = np.array(periods, dtype=np.int64)
    # Θ/Π must strictly exceed U, so each search starts above the
    # utilization floor; every probed (Π, Θ) therefore satisfies the
    # Theorem-1 bandwidth precondition by construction.
    lows = np.array([(p * each) // q + 1 for each in periods], dtype=np.int64)
    highs = period.copy()
    # lows <= Π means U < 1, so Θ = Π has β = 0: nothing to check.
    feasible = lows <= period
    settled = feasible.copy()
    candidates = np.flatnonzero(feasible)
    # incumbent bandwidths are compared as int64 cross products
    prune = prune and candidates.size > 0 and int(period.max()) < 2**31
    active = np.flatnonzero(feasible & (lows < highs))
    while active.size:
        at = period[active]
        low, high = lows[active], highs[active]
        mid = (low + high) // 2
        ok = vectorized.grid_verdicts(grid, utilization, at, mid)
        high = np.where(ok, mid, high)
        low = np.where(ok, low, mid + 1)
        lows[active], highs[active] = low, high
        going = low < high
        if prune:
            best = candidates[
                np.argmin(highs[candidates] / period[candidates])
            ]
            dominated = low * period[best] > highs[best] * at
            settled[active[going & dominated]] = False
            going &= ~dominated
        active = active[going]
    return [
        budget if ok else None
        for budget, ok in zip(lows.tolist(), settled.tolist())
    ]


def _candidate_periods(upper: int, config: SelectionConfig) -> list[int]:
    """Periods to examine: exhaustive when small, evenly sampled otherwise."""
    lower = 1
    if upper < lower:
        return []
    count = upper - lower + 1
    if config.max_period_candidates == 0 or count <= config.max_period_candidates:
        return list(range(lower, upper + 1))
    # Evenly sample, always including both endpoints.
    step = (upper - lower) / (config.max_period_candidates - 1)
    sampled = {lower + round(i * step) for i in range(config.max_period_candidates)}
    sampled.add(upper)
    return sorted(sampled)


@dataclass(frozen=True)
class SelectionResult:
    """A chosen interface and the search telemetry that produced it."""

    interface: ResourceInterface
    periods_examined: int
    period_bound: int

    @property
    def bandwidth(self) -> Fraction:
        return self.interface.bandwidth


def select_interface(
    taskset: TaskSet,
    sibling_utilization: Fraction = Fraction(0),
    *,
    ctx: AnalysisContext | None = None,
) -> SelectionResult:
    """Find the minimum-bandwidth schedulable interface for one VE.

    Raises :class:`InfeasibleError` when no ``(Π, Θ)`` within the
    Theorem-2 period range schedules the task set.
    An empty task set yields the idle interface ``(1, 0)``.

    The candidate periods are 1..bound, or — when the bound exceeds
    ``k = ctx.config.max_period_candidates > 0`` — the periods
    ``1 + round(i·(bound − 1)/(k − 1))`` for ``i < k``, plus the bound.
    Every candidate period's minimal-budget search runs in lock-step
    against one shared demand grid, and a period drops out as soon as
    it can no longer win (:func:`_lockstep_budgets`).  Results are
    memoized in the context's cache keyed by the task set's exact
    ``(T, C)`` multiset, the sibling utilization and the search
    config, so level-by-level composition reuses unchanged subtree
    selections across sweep points.
    """
    if len(taskset) == 0:
        return SelectionResult(
            interface=ResourceInterface(1, 0), periods_examined=0, period_bound=0
        )
    if ctx is None:
        ctx = AnalysisContext()
    memo = ctx.cache
    memo_key = (
        taskset_key(taskset),
        sibling_utilization.numerator,
        sibling_utilization.denominator,
        ctx.config.memo_key(),
    )
    cached = memo.get_selection(memo_key)
    if cached is not None:
        return cached
    period_bound = theorem2_period_bound(taskset, sibling_utilization)
    candidates = _candidate_periods(period_bound, ctx.config)
    budgets = _lockstep_budgets(taskset, candidates, memo, prune=True)
    best = _minimum_bandwidth(candidates, budgets)
    if best is None:
        raise InfeasibleError(
            f"no schedulable interface for task set with U="
            f"{taskset.utilization_float:.3f} within period bound {period_bound}"
        )
    result = SelectionResult(
        interface=ResourceInterface(*best),
        periods_examined=len(candidates),
        period_bound=period_bound,
    )
    memo.put_selection(memo_key, result)
    return result


def _minimum_bandwidth(
    periods: list[int], budgets: list[int | None]
) -> tuple[int, int] | None:
    """The minimum-bandwidth ``(Π, Θ)``; ties go to the larger Π.

    Periods with budget None are skipped.  Bandwidths ``Θa/Πa`` and
    ``Θb/Πb`` compare as the integers ``Θa·Πb`` and ``Θb·Πa``.
    """
    best: tuple[int, int] | None = None
    for period, budget in zip(periods, budgets):
        if budget is None:
            continue
        if best is None:
            best = (period, budget)
            continue
        mine, theirs = budget * best[0], best[1] * period
        if mine < theirs or (mine == theirs and period > best[0]):
            best = (period, budget)
    return best

