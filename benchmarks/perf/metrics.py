"""Metric names, units and the per-layer arithmetic.

``BENCHMARK.json`` at the repository root is the one list of workloads
and of metric names, units and directions; this module reads it.  What
that file cannot carry stays here: which rate ``work_per_s`` stands for
on each workload, and the ledger's per-workload metrics with their
bounds.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:
    from tracing import SpanTable

_DECLARED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)

#: workload name -> the one-line reason it exists
WORKLOADS: dict[str, str] = {
    workload["name"]: workload["why"] for workload in _DECLARED["workloads"]
}

#: end-to-end metrics every workload reports with tracing off:
#: name -> (unit, better, bound).  The bound is the share of the parent's
#: median by which the metric may get worse before a change is refused.
END_TO_END: dict[str, tuple[str, str, float]] = {
    metric["name"]: (metric["unit"], metric["better"], metric["bound"])
    for metric in _DECLARED["end_to_end"]
}

#: per-layer metrics of the traced run: name -> (unit, better).
#: ``_s`` is self time unless the README says total.
PER_LAYER: dict[str, tuple[str, str]] = {
    metric["name"]: (metric["unit"], metric["better"])
    for metric in _DECLARED["per_layer"]
}

#: what ``work_per_s`` counts on each workload (the ledger also prints
#: it under this workload-specific name)
WORK_RATE: dict[str, str] = {
    "campaign-batched": "sim_cycles_per_s",
    "campaign-scalar": "sim_cycles_per_s",
    "analysis-churn": "decisions_per_s",
    "service-mixed": "admission_qps",
}

#: end-to-end metrics that exist on some workloads only; measured with
#: tracing off, printed and compared by the ledger, and repeated in the
#: traced run so the per-layer list carries them too (which is where
#: their units come from): name -> (bound, workloads).  A bound of None
#: means the ledger reports the metric and ``--compare`` shows its
#: difference but does not gate on it.
WORKLOAD_END_TO_END: dict[str, tuple[float | None, tuple[str, ...]]] = {
    "sim_cycles_per_s": (0.25, ("campaign-batched", "campaign-scalar")),
    # two ledgers of one commit, minutes apart, differed by 35 % with a
    # 13 % spread inside each: the numpy-heavy cold path follows the
    # host's memory contention, which 3 repeats cannot average out
    "cold_compose_ms_p50": (None, ("analysis-churn",)),
    "decisions_per_s": (0.25, ("analysis-churn",)),
    "transient_bound_ms_p50": (0.25, ("analysis-churn",)),
    "admission_qps": (0.25, ("service-mixed",)),
    "admission_ms_p50": (0.25, ("service-mixed",)),
    "admission_ms_p95": (0.25, ("service-mixed",)),
    "peak_rss_mb": (0.10, tuple(WORKLOADS)),
}


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    table: "SpanTable",
    wall_s: float,
    workload_metrics: Mapping[str, float],
    facts: Mapping[str, Any],
    span_cost_s: float,
    unbound_seams: int,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced run.

    ``facts`` carries what no span can: cache counters, decision
    tallies and the service's own ``/metrics`` scrape.  A layer the
    workload never enters reads 0.  ``trace.overhead_ratio`` needs an
    untraced run of the same inputs, so the supervisor fills it in.
    """
    main = threading.main_thread().ident
    cell_maps = [
        span
        for span in table.named("runtime.map")
        if table.parent_name(span) == "campaigns.run"
    ]
    trial_maps = [
        span for span in table.named("runtime.map") if span not in cell_maps
    ]
    selfs = table.self_of
    fallback = [
        span
        for span in table.named("soc.run")
        if table.has_ancestor(span, "sim.batched.run_many")
    ]
    batched_trials = table.attr("sim.batched.kernel", "n")
    groups = table.calls("sim.batched.kernel")
    soc_cycles = table.attr("soc.run", "executed") + table.attr(
        "soc.run", "skipped"
    )
    decisions = [
        span.duration * 1000.0
        for span in table.named("analysis.update_client")
        if table.has_ancestor(span, "scenarios.replay_warm")
    ]
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({name: workload_metrics.get(name, 0.0) for name in WORKLOAD_END_TO_END})
    out.update(
        {
            "campaigns.parse_expand_s": table.self_s("campaigns.parse")
            + table.self_s("campaigns.expand"),
            "campaigns.run_cell_s": table.total_s("campaigns.run_cell"),
            "campaigns.checkpoint_s": table.self_s("campaigns.run")
            + sum(selfs(span) for span in cell_maps),
            "campaigns.summarize_s": table.self_s("campaigns.summarize"),
            "campaigns.cells": table.calls("campaigns.run_cell"),
            "runtime.map_self_s": sum(selfs(span) for span in trial_maps),
            "runtime.trials": sum(span.attrs.get("n", 0) for span in trial_maps),
            "experiments.runner_self_s": table.self_s("experiments.runner"),
            "experiments.build_interconnect_s": table.total_s(
                "experiments.build_interconnect"
            ),
            "experiments.sims_built": batched_trials + table.calls("soc.run"),
            "experiments.reduce_s": table.total_s("experiments.reduce"),
            "analysis.compose_s": table.total_s("analysis.compose"),
            "analysis.compose_calls": table.calls("analysis.compose"),
            "analysis.cache_hit_ratio": _ratio(
                facts.get("cache_hits", 0), facts.get("cache_lookups", 0)
            ),
            "analysis.model_build_s": table.total_s("analysis.model_build"),
            "analysis.select_interface_s": table.total_s(
                "analysis.select_interface"
            ),
            "analysis.select_interface_calls": table.calls(
                "analysis.select_interface"
            ),
            "analysis.update_client_s": table.total_s("analysis.update_client"),
            "analysis.decision_ms_p50": percentile(decisions, 50),
            "analysis.decision_ms_p99": percentile(decisions, 99),
            "analysis.holistic_bounds_s": table.total_s(
                "analysis.holistic_bounds"
            ),
            "analysis.holistic_share_of_phase_c": _ratio(
                sum(
                    span.duration
                    for span in table.named("analysis.holistic_bounds")
                    if table.has_ancestor(span, "scenarios.replay_transient")
                ),
                table.total_s("scenarios.replay_transient"),
            ),
            "sim.batched.run_many_s": table.total_s("sim.batched.run_many"),
            "sim.batched.signature_s": table.self_s("sim.batched.signature"),
            "sim.batched.extract_plan_s": table.self_s(
                "sim.batched.extract_plan"
            ),
            "sim.batched.kernel_s": table.self_s("sim.batched.kernel"),
            "sim.batched.finalize_s": table.self_s("sim.batched.finalize"),
            "sim.batched.groups": groups,
            "sim.batched.group_size_mean": _ratio(batched_trials, groups),
            "sim.batched.batched_trials": batched_trials,
            "sim.batched.fallback_trials": len(fallback),
            "sim.batched.fallback_ratio": _ratio(
                len(fallback), len(fallback) + batched_trials
            ),
            "sim.batched.kernel_cycles_per_s": _ratio(
                table.attr("sim.batched.kernel", "cycles"),
                table.self_s("sim.batched.kernel"),
            ),
            "sim.batched.requests": table.attr("sim.batched.kernel", "requests"),
            "soc.run_s": table.self_s("soc.run"),
            "soc.run_calls": table.calls("soc.run"),
            "soc.cycles_per_s": _ratio(soc_cycles, table.self_s("soc.run")),
            "soc.skip_ratio": _ratio(table.attr("soc.run", "skipped"), soc_cycles),
            "soc.requests_completed": table.attr("soc.run", "completed"),
            "scenarios.replay_s": table.self_s("scenarios.replay_warm")
            + table.self_s("scenarios.replay_transient"),
            "scenarios.transient_bound_s": table.self_s(
                "scenarios.transient_bound"
            ),
            "scenarios.events": facts.get("scenario_events", 0),
            "scenarios.applied_ratio": _ratio(
                facts.get("scenario_applied", 0), facts.get("scenario_events", 0)
            ),
            "service.parse_s": table.self_s("service.parse"),
            "service.serialize_s": table.self_s("service.serialize"),
            "harness.self_s": sum(
                selfs(span)
                for span in table.spans
                if span.name.startswith("harness.")
            ),
            "trace.wall_s": wall_s,
            "trace.spans": len(table.spans),
            "trace.span_cost_ratio": 1.0
            + _ratio(len(table.spans) * span_cost_s, wall_s),
            "trace.self_sum_ratio": _ratio(table.self_sum(main), wall_s),
            "trace.unbound_seams": unbound_seams,
        }
    )
    out.update(
        {
            name: float(value)
            for name, value in facts.items()
            if name.startswith("service.")
        }
    )
    undeclared = sorted(set(out) - set(PER_LAYER))
    if undeclared:
        raise KeyError(f"not in BENCHMARK.json's per_layer: {undeclared}")
    return {name: float(value) for name, value in out.items()}
