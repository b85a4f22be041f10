"""In-memory span recorder for the traced benchmark run.

The traced run measures layers *from outside*: :func:`install_seams`
rebinds a fixed list of public callables — in the module that consumes
them, because most are imported by name — to wrappers that open a span
around each call.  Nothing in ``src/`` knows it is being traced, and
the untraced run installs no wrapper at all.

Spans stay in memory (name, start, end, parent, thread, a few integer
attributes) and are written out once, when the run ends.  A span's
*self time* is its duration minus the part of that interval its child
spans cover; children are always spans opened on the same thread while
the parent was the innermost open span, so on one thread the self
times add up to the duration of that thread's top-level spans exactly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterable


class Span:
    """One timed call into a layer."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(
        self, id: int, name: str, start: float, parent: int | None, thread: int
    ) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, run_id: str) -> dict[str, Any]:
        return {
            "run": run_id,
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class SpanRecorder:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans, so parents never
    cross threads.  ``list.append`` and ``next(count)`` are atomic under
    the interpreter lock, which is all the sharing there is.
    """

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        #: wrapped callables record only inside :meth:`timed`
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            self.clock(),
            stack[-1].id if stack else None,
            threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def timed(self):
        """The workload's timed region: the root span, recording on."""
        self.recording = True
        try:
            with self.span("harness.timed") as root:
                yield root
        finally:
            self.recording = False

    def wrap(
        self,
        name: str,
        fn: Callable,
        note: Callable[[Span, tuple, dict, Any], None] | None = None,
        skip: Callable[[tuple, dict], bool] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``note`` copies integers the call exposes (batch sizes, cycle
        counts) onto the span after a successful return; ``skip`` lets a
        call that is known to do none of the layer's work pass through
        without a span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording or (
                skip is not None and skip(args, kwargs)
            ):
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(span, args, kwargs, result)
                return result
            finally:
                self.close(span)

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.as_dict(self.run_id)) + "\n")


class NoTrace:
    """What the untraced run passes where a recorder is expected."""

    def span(self, name: str):
        return nullcontext()

    def timed(self):
        return nullcontext()


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus what its children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


class SpanTable:
    """Per-name sums over a finished trace (what the metrics read)."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self._self = self_times(self.spans)
        self._by_id = {span.id: span for span in self.spans}
        self._by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            self._by_name.setdefault(span.name, []).append(span)

    def named(self, name: str) -> list[Span]:
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total_s(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def self_of(self, span: Span) -> float:
        return self._self[span.id]

    def self_s(self, name: str) -> float:
        return sum(self._self[span.id] for span in self.named(name))

    def attr(self, name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in self.named(name))

    def parent_name(self, span: Span) -> str | None:
        parent = self._by_id.get(span.parent)
        return parent.name if parent is not None else None

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self._by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self._by_id.get(parent.parent)
        return False

    def self_sum(self, thread: int) -> float:
        return sum(
            self._self[span.id] for span in self.spans if span.thread == thread
        )

    def self_by_name(self) -> dict[str, float]:
        return {name: self.self_s(name) for name in self._by_name}


def span_cost_s(samples: int = 20_000) -> float:
    """Host seconds one wrapped call adds, measured on a no-op."""
    recorder = SpanRecorder("calibration")
    recorder.recording = True
    traced = recorder.wrap("noop", lambda: None)
    bare = lambda: None  # noqa: E731 - mirrors the wrapped callable
    start = time.perf_counter()
    for _ in range(samples):
        traced()
    wrapped_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        bare()
    return max(0.0, wrapped_s - (time.perf_counter() - start)) / samples


# -- the seams ----------------------------------------------------------------
#
# (module, attribute path, span name).  The module is the one whose
# global the *caller* reads: ``repro.campaigns.executor`` imported
# ``run_cell`` by name, so that is where the name is rebound.  Methods
# are rebound on their class.  Every seam is called at most ~10^4 times
# in a run; per-cycle kernel ticks are never wrapped.

SEAMS: tuple[tuple[str, str, str], ...] = (
    ("repro.campaigns.executor", "expand_campaign", "campaigns.expand"),
    ("repro.campaigns.executor", "run_cell", "campaigns.run_cell"),
    ("repro.runtime.executor", "SerialExecutor.map", "runtime.map"),
    ("repro.experiments.fig6", "run_fig6_trial.batch", "experiments.runner"),
    ("repro.experiments.fig7", "run_fig7_trial.batch", "experiments.runner"),
    (
        "repro.experiments.isolation",
        "run_isolation_trial.batch",
        "experiments.runner",
    ),
    ("repro.experiments.churn", "run_churn_trial", "experiments.runner"),
    ("repro.experiments.fig6", "build_interconnect", "experiments.build_interconnect"),
    ("repro.experiments.fig7", "build_interconnect", "experiments.build_interconnect"),
    (
        "repro.experiments.isolation",
        "build_interconnect",
        "experiments.build_interconnect",
    ),
    ("repro.experiments.churn", "build_interconnect", "experiments.build_interconnect"),
    ("repro.experiments.fig6", "reduce_fig6", "experiments.reduce"),
    ("repro.experiments.fig7", "reduce_fig7", "experiments.reduce"),
    ("repro.experiments.isolation", "reduce_isolation", "experiments.reduce"),
    ("repro.experiments.churn", "reduce_churn", "experiments.reduce"),
    ("repro.core.interconnect", "compose", "analysis.compose"),
    ("repro.analysis.model", "compose", "analysis.compose"),
    ("repro.analysis.composition", "select_interface", "analysis.select_interface"),
    ("repro.analysis.session", "update_client", "analysis.update_client"),
    ("repro.core.interconnect", "update_client", "analysis.update_client"),
    (
        "repro.scenarios.transient",
        "holistic_response_bounds",
        "analysis.holistic_bounds",
    ),
    ("repro.faults.verify", "holistic_response_bounds", "analysis.holistic_bounds"),
    ("repro.scenarios.replay", "compute_transient_bound", "scenarios.transient_bound"),
    (
        "repro.experiments.churn",
        "compute_transient_bound",
        "scenarios.transient_bound",
    ),
    ("repro.sim.batched", "run_many", "sim.batched.run_many"),
    ("repro.sim.batched.api", "signature_of", "sim.batched.signature"),
    ("repro.sim.batched.api", "extract_plan", "sim.batched.extract_plan"),
    ("repro.sim.batched.core", "BatchCore.run", "sim.batched.kernel"),
    ("repro.sim.batched.core", "BatchCore.finalize", "sim.batched.finalize"),
    ("repro.soc", "SoCSimulation.run", "soc.run"),
    ("repro.service.daemon", "parse_admission_request", "service.parse"),
    ("repro.service.daemon", "parse_evict_request", "service.parse"),
    ("repro.service.daemon", "decision_payload", "service.serialize"),
)


def _note_map(span: Span, args, kwargs, result) -> None:
    span.attrs["n"] = len(args[2] if len(args) > 2 else kwargs["specs"])


def _note_run_many(span: Span, args, kwargs, result) -> None:
    span.attrs["n"] = len(result)


def _skip_scalar_run_many(args, kwargs) -> bool:
    # Under the scalar backend run_many is a plain loop over sim.run;
    # no batched-layer work happens, so no batched-layer span opens.
    from repro.sim.backend import resolve_sim_backend

    return resolve_sim_backend(kwargs.get("backend")) == "scalar"


def _note_kernel(span: Span, args, kwargs, result) -> None:
    core = args[0]
    span.attrs["n"] = core.n
    span.attrs["cycles"] = sum(plan.total for plan in core.plans)
    span.attrs["requests"] = sum(plan.n_requests for plan in core.plans)


def _note_soc_run(span: Span, args, kwargs, result) -> None:
    span.attrs["executed"] = result.cycles_executed
    span.attrs["skipped"] = result.cycles_skipped
    span.attrs["completed"] = result.requests_completed


_NOTES = {
    "runtime.map": _note_map,
    "sim.batched.run_many": _note_run_many,
    "sim.batched.kernel": _note_kernel,
    "soc.run": _note_soc_run,
}
_SKIPS = {"sim.batched.run_many": _skip_scalar_run_many}


def install_seams(
    recorder: SpanRecorder, leave_out: Iterable[str] = ()
) -> list[str]:
    """Rebind every seam to a traced wrapper; returns the ones not found.

    A seam that a refactor moved or renamed is reported, never fatal:
    its layer's metrics read 0 and ``trace.unbound_seams`` counts it.
    ``leave_out`` names spans a workload would open too often to afford.
    """
    unbound: list[str] = []
    for module_name, path, span_name in SEAMS:
        if span_name in leave_out:
            continue
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, leaf = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            target = getattr(owner, leaf)
        except (ImportError, AttributeError):
            unbound.append(f"{module_name}:{path}")
            continue
        setattr(
            owner,
            leaf,
            recorder.wrap(
                span_name,
                target,
                note=_NOTES.get(span_name),
                skip=_SKIPS.get(span_name),
            ),
        )
    return unbound
