"""The opt-in tracing switch: trace contexts, span fan-in, metric feed.

Architecture: the hot simulation modules (interconnects, controller,
SoC stages) never import this package.  They duck-type through the
``trace_ctx`` slot on :class:`~repro.memory.request.MemoryRequest` —

.. code-block:: python

    ctx = request.trace_ctx
    if ctx is not None:
        ctx.emit("mc", "service_start", cycle)

— which is a single attribute load plus an always-false ``is not
None`` check when tracing is off (``trace_ctx`` defaults to ``None``
and nothing ever sets it).  That is the whole disabled-path cost, and
it sits only at per-request event points, never inside per-cycle scan
loops, so the quiescence fast path and the perf ledger's numbers
are untouched.

When tracing is on, :meth:`Tracer.wrap_inject` shims the
``interconnect.try_inject`` bound method that ``SoCSimulation`` hands
to the client stage: each sampled request gets a :class:`TraceContext`
on first injection attempt, an ``inject`` span on acceptance, and every
downstream component's emissions flow through the context into the
bounded ring recorder and the metrics registry.  All emission points
fire on *executed* cycles in both engine paths (leaps only skip
provably event-free cycles), so a traced fast-path run records the
same span stream as a traced slow-path run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.memory.request import MemoryRequest
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import Span, TraceRecorder

#: signature of Interconnect.try_inject
InjectFn = Callable[[MemoryRequest, int], bool]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs for one traced trial."""

    #: ring bound on retained spans (oldest evicted beyond it)
    ring_capacity: int = 65_536
    #: trace every Nth request (1 = all); sampling is by request id,
    #: which is assigned in issue order and reset per run, so fast and
    #: slow runs sample the identical request population
    sample_every: int = 1
    #: feed the counter/histogram registry alongside the span ring
    collect_metrics: bool = True

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )


class TraceContext:
    """Per-request emission handle carried in ``request.trace_ctx``.

    Components hold the request, not the tracer; the context carries the
    request's identity plus the route back to the recorder, and tracks
    the open enqueue per site so queue-waiting time can be attributed
    hop by hop.
    """

    __slots__ = ("rid", "client_id", "_tracer", "_open_enqueue")

    def __init__(self, rid: int, client_id: int, tracer: "Tracer") -> None:
        self.rid = rid
        self.client_id = client_id
        self._tracer = tracer
        #: site -> cycle of the not-yet-granted enqueue at that site
        self._open_enqueue: dict[str, int] = {}

    def emit(
        self,
        site: str,
        kind: str,
        cycle: int,
        attrs: Mapping[str, object] | None = None,
    ) -> None:
        """Record one lifecycle event of this request at ``site``."""
        self._tracer._record(self, site, kind, cycle, attrs)


class Tracer:
    """Owns one trial's span ring and metrics registry."""

    def __init__(self, config: ObservabilityConfig | None = None) -> None:
        self.config = config if config is not None else ObservabilityConfig()
        self.recorder = TraceRecorder(capacity=self.config.ring_capacity)
        self.registry = MetricsRegistry()

    # -- attach ------------------------------------------------------------
    def attach(self, request: MemoryRequest) -> TraceContext | None:
        """Give ``request`` a trace context if it falls in the sample.

        Sampling is a pure function of the request id — assigned in
        issue order and reset at the start of every run — so it is
        stateless across injection retries and identical across engine
        paths: differential runs trace the same request population.
        """
        if request.trace_ctx is not None:
            return request.trace_ctx
        if request.rid % self.config.sample_every != 0:
            return None
        ctx = TraceContext(request.rid, request.client_id, self)
        request.trace_ctx = ctx
        return ctx

    def wrap_inject(self, inject: InjectFn) -> InjectFn:
        """Shim ``try_inject`` so sampled requests enter traced.

        The context attaches on the *first* offer (refused offers keep
        it for the retry); the ``inject`` span lands on the cycle the
        fabric actually accepts the request.
        """

        def traced_inject(request: MemoryRequest, cycle: int) -> bool:
            ctx = self.attach(request)
            accepted = inject(request, cycle)
            if accepted and ctx is not None:
                ctx.emit(
                    f"client:{request.client_id}",
                    "inject",
                    cycle,
                    {"release": request.release_cycle},
                )
            return accepted

        return traced_inject

    # -- fan-in ------------------------------------------------------------
    def _record(
        self,
        ctx: TraceContext,
        site: str,
        kind: str,
        cycle: int,
        attrs: Mapping[str, object] | None,
    ) -> None:
        self.recorder.record(
            Span(
                rid=ctx.rid,
                client_id=ctx.client_id,
                site=site,
                kind=kind,
                cycle=cycle,
                attrs=dict(attrs) if attrs else None,
            )
        )
        if not self.config.collect_metrics:
            return
        registry = self.registry
        if kind == "enqueue":
            ctx._open_enqueue[site] = cycle
            if attrs is not None:
                occupancy = attrs.get("occupancy")
                if occupancy is not None:
                    registry.histogram(f"site/{site}/occupancy").observe(
                        float(occupancy)  # type: ignore[arg-type]
                    )
        elif kind in ("arbitration_win", "service_start"):
            entered = ctx._open_enqueue.pop(site, None)
            if entered is not None:
                registry.histogram(f"site/{site}/wait").observe(
                    float(cycle - entered)
                )

    def on_completion(self, request: MemoryRequest, cycle: int) -> None:
        """Called by the response stage for every delivered request."""
        ctx = request.trace_ctx
        if ctx is None:
            return
        ctx.emit(
            f"client:{request.client_id}",
            "deliver",
            cycle,
            {"blocking": request.blocking_cycles},
        )
        if not self.config.collect_metrics:
            return
        registry = self.registry
        registry.counter("requests/traced").increment()
        client = request.client_id
        registry.histogram(f"client/{client}/latency").observe(
            float(request.response_time)
        )
        registry.histogram(f"client/{client}/blocking").observe(
            float(request.blocking_cycles)
        )

    # -- trial-end collection ----------------------------------------------
    def record_controller_stats(self, controller: object) -> None:
        """Fold provider-side counters (FR-FCFS reorders) in at trial end."""
        reorders = getattr(controller, "reorder_count", None)
        if reorders is not None:
            self.registry.counter("controller/reorder_total").increment(
                int(reorders)
            )

    def summary_scalars(self, prefix: str = "") -> dict[str, float]:
        """Flat float view for the runtime metric pipeline."""
        scalars = self.registry.summary_scalars(prefix)
        scalars[f"{prefix}spans_emitted"] = float(self.recorder.emitted)
        scalars[f"{prefix}spans_dropped"] = float(self.recorder.dropped)
        return scalars


def make_tracer(
    observability: "bool | ObservabilityConfig | Tracer | None",
) -> Tracer | None:
    """Normalise the ``SoCSimulation(observability=...)`` argument.

    ``None``/``False`` → tracing off (no tracer, zero cost).  ``True``
    → a tracer with default config.  A config → a tracer built from it.
    A tracer → used as-is (lets callers keep the recorder handle).
    """
    if observability is None or observability is False:
        return None
    if observability is True:
        return Tracer()
    if isinstance(observability, ObservabilityConfig):
        return Tracer(observability)
    if isinstance(observability, Tracer):
        return observability
    raise ConfigurationError(
        f"observability must be bool, ObservabilityConfig or Tracer, "
        f"got {observability!r}"
    )
