"""Smoke test of the benchmark harness itself.

Run with ``python -m pytest benchmarks/perf -q`` (tier-1 ``testpaths`` is
``tests`` and stays that way).  Checks the declaration in
``BENCHMARK.json`` against the issue's names, the span recorder's
self-time arithmetic on a synthetic trace, and one ``--smoke`` ledger
end to end.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
from tracing import SpanRecorder, SpanTable, self_times  # noqa: E402

ISSUE_WORKLOADS = {
    "campaign-batched",
    "campaign-scalar",
    "analysis-churn",
    "service-mixed",
}
ISSUE_END_TO_END = {
    "setup_s",
    "wall_s",
    "sim_cycles_per_s",
    "cold_compose_ms_p50",
    "decisions_per_s",
    "transient_bound_ms_p50",
    "admission_qps",
    "admission_ms_p50",
    "admission_ms_p95",
    "failed_ratio",
    "peak_rss_mb",
}


def test_declaration_has_the_contract_keys_and_the_issue_names():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["run_seconds"] == run.UNIT_SECONDS
    assert set(metrics.WORKLOADS) == set(metrics.WORK_RATE) == ISSUE_WORKLOADS
    # every end-to-end name of the issue is declared: gated on all
    # workloads, or per-layer because it exists on some only
    assert ISSUE_END_TO_END - {"failed_ratio"} <= set(metrics.END_TO_END) | set(
        metrics.PER_LAYER
    )
    assert set(metrics.WORKLOAD_END_TO_END) <= set(metrics.PER_LAYER)


def test_self_time_is_duration_minus_children_exactly():
    ticks = iter(range(100))
    recorder = SpanRecorder("synthetic", clock=lambda: float(next(ticks)))
    with recorder.span("root"):  # 0 .. 9
        with recorder.span("a"):  # 1 .. 6
            with recorder.span("a1"):  # 2 .. 3
                pass
            with recorder.span("a2"):  # 4 .. 5
                pass
        with recorder.span("b"):  # 7 .. 8
            pass
    by_name = {span.name: span for span in recorder.spans}
    selfs = self_times(recorder.spans)
    assert {name: selfs[span.id] for name, span in by_name.items()} == {
        "root": 9.0 - 5.0 - 1.0,
        "a": 5.0 - 1.0 - 1.0,
        "a1": 1.0,
        "a2": 1.0,
        "b": 1.0,
    }
    assert by_name["a1"].parent == by_name["a"].id
    assert by_name["root"].parent is None
    table = SpanTable(recorder.spans)
    thread = by_name["root"].thread
    assert table.self_sum(thread) == by_name["root"].duration
    assert table.total_s("a") == 5.0 and table.self_s("a") == 3.0


def test_wrapped_callables_record_only_inside_the_timed_region():
    recorder = SpanRecorder("synthetic")
    double = recorder.wrap(
        "layer.double",
        lambda x: 2 * x,
        note=lambda span, args, kwargs, result: span.attrs.update(n=result),
    )
    assert double(2) == 4 and recorder.spans == []
    with recorder.timed():
        assert double(3) == 6
    names = [span.name for span in recorder.spans]
    assert names == ["layer.double", "harness.timed"]
    assert recorder.spans[0].attrs == {"n": 6}
    assert recorder.spans[0].parent == recorder.spans[1].id


def test_smoke_ledger_end_to_end(tmp_path):
    ledger_path = tmp_path / "ledger.json"
    command = [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "11"]
    done = subprocess.run(
        [*command, "--out", str(ledger_path)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    ledger = json.loads(ledger_path.read_text())
    assert ledger["provenance"]["mode"] == "smoke"
    assert ledger["provenance"]["seed"] == 11
    assert ledger["problems"] == []
    assert set(ledger["workloads"]) == ISSUE_WORKLOADS
    seen = set()
    for name, entry in ledger["workloads"].items():
        assert entry["input_digest"] and entry["output_digest"]
        assert set(entry["per_layer"]) == set(metrics.PER_LAYER)
        assert entry["per_layer"]["trace.overhead_ratio"] > 0
        assert entry["end_to_end"]["failed_ratio"]["median"] == 0
        assert entry["per_layer"]["trace.unbound_seams"] == 0
        assert abs(entry["per_layer"]["trace.self_sum_ratio"] - 1) < 0.02
        seen |= set(entry["end_to_end"])
    assert seen == ISSUE_END_TO_END
    scalar = ledger["workloads"]["campaign-scalar"]["per_layer"]
    assert all(
        value == 0 for name, value in scalar.items() if name.startswith("sim.batched.")
    )
    assert ledger["workloads"]["campaign-batched"]["per_layer"][
        "sim.batched.fallback_trials"
    ] == 0

    refused = subprocess.run(
        [*command, "--out", str(tmp_path / "BENCHMARK.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert refused.returncode != 0
    assert not (tmp_path / "BENCHMARK.json").exists()

    same = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare",
         str(ledger_path), str(ledger_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "regression" not in same.stdout


def test_driver_line_has_exactly_the_declared_metrics():
    for trace, names in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "analysis-churn",
             "--seed", "5", "--seconds", "10", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(names)
        assert all(
            set(value) == {"value", "unit"} for value in result["metrics"].values()
        )


def test_a_hung_run_is_a_named_failure_not_a_hang():
    record = run.run_once("analysis-churn", 5, 10.0, 0, smoke=True, timeout_s=0.05)
    assert "timed out" in record["error"]
