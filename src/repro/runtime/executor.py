"""Trial executors: the serial/parallel seam of the runtime.

An :class:`Executor` maps a per-trial runner over a batch of
:class:`~repro.runtime.spec.TrialSpec`\\ s and returns
:class:`TrialOutcome`\\ s *in spec order*.  Because runners are pure
functions of their spec (the determinism contract in
:mod:`repro.runtime`), the two provided backends are interchangeable:

* :class:`SerialExecutor` — an in-process loop;
* :class:`ParallelExecutor` — a ``ProcessPoolExecutor`` fan-out with
  chunking.  ``map`` preserves submission order when collecting, so the
  reduced results are bit-for-bit identical to a serial run.

Runners must be module-level functions (picklable by reference) for the
parallel backend; per-trial wall-clock is measured inside the worker
and shipped back with the metrics.

An executor built with ``sim_backend=`` stamps that simulator backend
onto every spec before dispatch, so the choice reaches a worker
process inside the pickled spec — under any start method, with nothing
to initialize in the worker.  ``sim_backend=None`` leaves each spec's
own backend untouched.

Both executors dispatch chunks of specs through one function,
:func:`_execute_batch`.  A runner may carry a ``batch`` attribute — a
callable taking a list of specs and returning one :class:`MetricSet`
per spec — which then gets each whole chunk at once (any other runner
runs the chunk one spec at a time); that is how the batched simulator
backend (:mod:`repro.sim.batched`) gets same-shaped trials to advance
in lock-step.  Outcomes, hook sequencing and failure capture are
identical either way: a raising batch falls back to per-spec execution
inside the same process, so one bad trial still fails alone.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigurationError
from repro.runtime.metrics import MetricSet, failure_metric_set
from repro.runtime.spec import TrialSpec

#: a per-trial runner: pure function of the spec
TrialRunner = Callable[[TrialSpec], MetricSet]


@dataclass(frozen=True)
class TrialOutcome:
    """One executed trial: its spec, metrics, and worker wall-clock.

    A trial whose runner raised still yields an outcome — ``error``
    carries ``"ExcType: message"`` and ``metrics`` is the structured
    failure record from :func:`repro.runtime.metrics.failure_metric_set`
    — so a crashing trial occupies its slot in the (spec-ordered) result
    list instead of aborting the whole campaign.
    """

    spec: TrialSpec
    metrics: MetricSet
    seconds: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


class ExecutionHooks:
    """Observability callbacks; subclass and override what you need.

    Hooks always fire in the submitting process (never in workers) and,
    for trial completions, in spec order — so they see the same
    sequence under every backend.
    """

    def on_batch_start(self, specs: Sequence[TrialSpec]) -> None:
        """Called once before the first trial runs."""

    def on_trial_done(
        self, outcome: TrialOutcome, done: int, total: int
    ) -> None:
        """Called per collected trial; ``done`` counts from 1."""

    def on_batch_done(self, outcomes: Sequence[TrialOutcome]) -> None:
        """Called once after every trial was collected."""


class KeepOutcomes(ExecutionHooks):
    """Keeps the last batch's outcomes, in spec order, for callers that
    need more than a reduced result (a campaign cell's trace digests,
    a golden's per-trial inputs)."""

    def __init__(self) -> None:
        self.outcomes: list[TrialOutcome] = []

    def on_batch_done(self, outcomes: Sequence[TrialOutcome]) -> None:
        self.outcomes = list(outcomes)


class ProgressPrinter(ExecutionHooks):
    """Minimal progress/timing hook: one status line per batch."""

    def __init__(self, stream=None) -> None:
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self._started = 0.0

    def on_batch_start(self, specs: Sequence[TrialSpec]) -> None:
        self._started = time.perf_counter()
        if specs:
            print(
                f"[{specs[0].experiment}] running {len(specs)} trials...",
                file=self.stream,
            )

    def on_trial_done(
        self, outcome: TrialOutcome, done: int, total: int
    ) -> None:
        if outcome.failed:
            print(
                f"[{outcome.spec.experiment}] trial {outcome.spec.index} "
                f"FAILED: {outcome.error}",
                file=self.stream,
            )
        # ~10 lines per batch, never more than one line per 5 trials —
        # without the clamp a small batch (total < 20) degenerates to a
        # divisor of 1 and prints on every single trial
        step = max(5, total // 10)
        if done == total or done % step == 0:
            elapsed = time.perf_counter() - self._started
            print(
                f"[{outcome.spec.experiment}] {done}/{total} trials "
                f"({elapsed:.1f}s)",
                file=self.stream,
            )


@runtime_checkable
class Executor(Protocol):
    """Anything that can map a trial runner over specs, in order."""

    #: stamped onto every mapped spec; ``None`` keeps the specs' own
    sim_backend: str | None

    @property
    def workers(self) -> int: ...

    def map(
        self,
        runner: TrialRunner,
        specs: Sequence[TrialSpec],
        hooks: ExecutionHooks | None = None,
    ) -> list[TrialOutcome]: ...


def _execute_one(runner: TrialRunner, spec: TrialSpec) -> TrialOutcome:
    """Run one trial and time it; module-level so workers can pickle it.

    A raising runner is captured *inside the worker* — the exception is
    folded into a failure outcome rather than propagated, so one bad
    trial cannot poison a parallel batch (and serial and parallel
    executors degrade identically).  A runner returning the wrong type
    is a programming error, not a trial failure, and still raises.
    """
    started = time.perf_counter()
    try:
        metrics = runner(spec)
    except Exception as exc:  # noqa: BLE001 - the capture is the feature
        return TrialOutcome(
            spec=spec,
            metrics=failure_metric_set(spec, exc),
            seconds=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
        )
    if not isinstance(metrics, MetricSet):
        raise ConfigurationError(
            f"trial runner for {spec.experiment!r} returned "
            f"{type(metrics).__name__}, expected MetricSet"
        )
    return TrialOutcome(
        spec=spec, metrics=metrics, seconds=time.perf_counter() - started
    )


#: serial chunk size for batch-capable runners — bounds how many specs'
#: simulations are alive at once while still feeding the batched
#: backend groups large enough to amortize its per-cycle costs
SERIAL_BATCH = 256


def _execute_batch(
    runner: TrialRunner, specs: Sequence[TrialSpec]
) -> list[TrialOutcome]:
    """Run one chunk of specs through the runner's batch entry point.

    Module-level so workers can pickle it (the ``batch`` attribute is
    re-resolved from the runner after unpickling by reference).  Any
    exception out of the batch falls back to per-spec execution: the
    chunk is re-run one trial at a time, so the failing trial is blamed
    in its own outcome exactly as under :func:`_execute_one` and the
    healthy trials still succeed.  Per-trial wall-clock is the batch
    elapsed time split evenly (lock-step trials have no individual
    timings).
    """
    batch = getattr(runner, "batch", None)
    if batch is None:
        return [_execute_one(runner, spec) for spec in specs]
    if not specs:
        return []
    started = time.perf_counter()
    try:
        metric_sets = batch(list(specs))
    except Exception:  # noqa: BLE001 - refine blame per trial
        return [_execute_one(runner, spec) for spec in specs]
    elapsed = time.perf_counter() - started
    if len(metric_sets) != len(specs) or not all(
        isinstance(metrics, MetricSet) for metrics in metric_sets
    ):
        raise ConfigurationError(
            f"batch runner for {specs[0].experiment!r} must return one "
            f"MetricSet per spec (got {len(metric_sets)} for "
            f"{len(specs)} specs)"
        )
    seconds = elapsed / len(specs)
    return [
        TrialOutcome(spec=spec, metrics=metrics, seconds=seconds)
        for spec, metrics in zip(specs, metric_sets)
    ]


def _stamp(
    specs: Sequence[TrialSpec], sim_backend: str | None
) -> Sequence[TrialSpec]:
    """The specs as dispatched: carrying the executor's simulator
    backend, if any."""
    if sim_backend is None:
        return specs
    return [replace(spec, sim_backend=sim_backend) for spec in specs]


def _chunks(specs: Sequence[TrialSpec], size: int) -> list[list[TrialSpec]]:
    return [list(specs[lo : lo + size]) for lo in range(0, len(specs), size)]


def _collect(
    groups: Iterable[list[TrialOutcome]],
    specs: Sequence[TrialSpec],
    hooks: ExecutionHooks,
) -> list[TrialOutcome]:
    """Drain chunk results in order, firing the per-trial hooks."""
    outcomes: list[TrialOutcome] = []
    for group in groups:
        for outcome in group:
            outcomes.append(outcome)
            hooks.on_trial_done(outcome, len(outcomes), len(specs))
    hooks.on_batch_done(outcomes)
    return outcomes


class SerialExecutor:
    """Run every trial in the calling process, in spec order."""

    workers = 1

    def __init__(self, sim_backend: str | None = None) -> None:
        self.sim_backend = sim_backend

    def map(
        self,
        runner: TrialRunner,
        specs: Sequence[TrialSpec],
        hooks: ExecutionHooks | None = None,
    ) -> list[TrialOutcome]:
        specs = _stamp(specs, self.sim_backend)
        hooks = hooks or ExecutionHooks()
        hooks.on_batch_start(specs)
        # a runner without ``batch`` gets chunks of one, so its hooks
        # (e.g. a campaign's per-cell checkpoint) fire after every trial
        chunk = SERIAL_BATCH if getattr(runner, "batch", None) else 1
        groups = _chunks(specs, chunk)
        return _collect(
            map(partial(_execute_batch, runner), groups), specs, hooks
        )


class ParallelExecutor:
    """Fan trials out over a process pool; results stay in spec order.

    ``chunk_size`` batches specs per worker task to amortize pickling;
    by default it targets ~4 chunks per worker.  Ordered collection is
    what makes parallel ≡ serial: ``ProcessPoolExecutor.map`` yields
    results in submission order regardless of completion order.
    """

    def __init__(
        self,
        workers: int,
        chunk_size: int | None = None,
        sim_backend: str | None = None,
    ) -> None:
        if workers < 2:
            raise ConfigurationError(
                f"ParallelExecutor needs >= 2 workers, got {workers}; "
                "use SerialExecutor (or make_executor) for 1"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"invalid chunk size {chunk_size}")
        self._workers = workers
        self.chunk_size = chunk_size
        self.sim_backend = sim_backend

    @property
    def workers(self) -> int:
        return self._workers

    def _chunk(self, n_specs: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, n_specs // (self._workers * 4))

    def map(
        self,
        runner: TrialRunner,
        specs: Sequence[TrialSpec],
        hooks: ExecutionHooks | None = None,
    ) -> list[TrialOutcome]:
        specs = _stamp(specs, self.sim_backend)
        hooks = hooks or ExecutionHooks()
        hooks.on_batch_start(specs)
        if not specs:
            return _collect([], specs, hooks)
        # ship whole chunks so a batch runner can advance each worker's
        # specs in lock-step; ordered collection over the chunk list
        # keeps outcomes in spec order
        groups = _chunks(specs, self._chunk(len(specs)))
        with ProcessPoolExecutor(max_workers=self._workers) as pool:
            return _collect(
                pool.map(partial(_execute_batch, runner), groups), specs, hooks
            )


def make_executor(
    workers: int | None, sim_backend: str | None = None
) -> Executor:
    """The executor for a ``--workers N`` request (None/0/1 → serial),
    stamping ``sim_backend`` (if given) onto every spec it maps."""
    if workers is None or workers <= 1:
        return SerialExecutor(sim_backend)
    return ParallelExecutor(workers, sim_backend=sim_backend)
