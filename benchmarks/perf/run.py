"""The repository's performance benchmark: one command, four workloads.

Three ways in (``README.md`` next to this file has the tables)::

    # one run of one workload — what BENCHMARK.json's driver calls
    python3 benchmarks/perf/run.py --workload campaign-batched \\
        --seed 7 --seconds 10 --trace 0

    # the ledger: every workload, each repeat in a fresh subprocess with
    # tracing off, then one traced run each for the per-layer numbers
    python3 benchmarks/perf/run.py [--seed 2022] [--repeats 3] [--out F]

    # two ledgers against the recorded bounds, one row per pair
    python3 benchmarks/perf/run.py --compare A.json B.json

Every run executes in a worker subprocess under a hard timeout, so a
hung workload is a counted failure with a name, never a hung command.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORK_RATE,
    WORKLOAD_END_TO_END,
    WORKLOADS,
    per_layer_metrics,
)

#: seconds of measured work one pass over a workload is sized for;
#: ``--seconds`` buys ``round(seconds / UNIT_SECONDS)`` passes
UNIT_SECONDS = 10
#: set-ups behind one driver-line ``setup_s``: the measured worker's plus
#: set-up-only workers (the ledger has its repeats for that instead)
SETUP_SAMPLES = 5
DEFAULT_TIMEOUT_S = 120.0


# -- worker: one workload, in this process -------------------------------------


def worker_main(args: argparse.Namespace) -> int:
    """Prepare, run and check one workload; print one JSON line."""
    sys.path.insert(0, str(REPO / "src"))
    from tracing import NoTrace, SpanRecorder, SpanTable, install_seams, span_cost_s
    from workloads import make_workload

    workload = make_workload(args.workload)
    scratch = Path(args.scratch)
    recorder: Any = NoTrace()
    unbound: list[str] = []
    if args.trace:
        recorder = SpanRecorder(f"{args.workload}/{args.seed}")
        unbound = install_seams(
            recorder, getattr(workload, "untraced_spans", ())
        )
    try:
        workload.prepare(args.seed, args.smoke, scratch)
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"metrics": {"setup_s": setup_s}}))
            return 0
        passes = 1 if args.trace else max(1, round(args.seconds / UNIT_SECONDS))
        outcomes = [workload.run(recorder) for _ in range(passes)]
    finally:
        workload.close()

    first = outcomes[0]
    problems = [p for outcome in outcomes for p in outcome.problems]
    if any(outcome.digest != first.digest for outcome in outcomes):
        problems.append("output digest changed between passes")
    wall_s = median(outcome.wall_s for outcome in outcomes)
    metrics = {
        name: median(outcome.metrics[name] for outcome in outcomes)
        for name in first.metrics
    }
    metrics.update(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_wall_s": [outcome.wall_s for outcome in outcomes],
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "problems": problems,
        "digest": first.digest,
        "input_digest": workload.input_digest,
        "metrics": metrics,
    }
    if args.trace:
        table = SpanTable(recorder.spans)
        record["per_layer"] = per_layer_metrics(
            table, wall_s, metrics, first.facts, span_cost_s(), len(unbound)
        )
        record["self_s_by_span"] = table.self_by_name()
        record["unbound_seams"] = unbound
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        recorder.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(REPO))
    print(json.dumps(record))
    return 0


# -- supervisor: workers under a timeout ---------------------------------------


def _spawn(argv: list[str], timeout_s: float) -> dict[str, Any]:
    """Run one worker; its last stdout line, or why there is none."""
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--worker",
        "--scratch",
        str(scratch),
        "--spawned-at",
        repr(time.time()),
        *argv,
    ]
    try:
        # run() kills the child and waits for it when the timeout hits
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout_s:g} s"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {done.returncode}: {tail[0]}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"error": f"unreadable worker output: {lines[-1][:120]}"}


def run_once(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool = False,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    setup_only: bool = False,
) -> dict[str, Any]:
    """One run of ``workload`` in a fresh subprocess.

    A run that crashed or timed out comes back as ``{"error": ...}``.
    """
    argv = [
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        str(trace),
        *(["--smoke"] if smoke else []),
        *(["--setup-only"] if setup_only else []),
    ]
    return _spawn(argv, timeout_s)


def end_to_end_of(record: dict[str, Any]) -> dict[str, float]:
    """The metrics every workload reports, from one untraced record."""
    metrics = record["metrics"]
    return {
        "setup_s": metrics["setup_s"],
        "wall_s": metrics["wall_s"],
        "work_per_s": metrics[WORK_RATE[record["workload"]]],
    }


def driver_main(args: argparse.Namespace) -> int:
    """One run, one JSON result line (the BENCHMARK.json contract).

    The line has to stand on its own, so it brings what the ledger gets
    from its repeats: a traced run is followed by one untraced pass of
    the same inputs for ``trace.overhead_ratio``, and an untraced run by
    set-up-only workers so that ``setup_s`` is a median of
    ``SETUP_SAMPLES`` set-ups (the contract asks for several per run).
    """
    def once(seconds: float, trace: int, **how: Any) -> dict[str, Any]:
        return run_once(
            args.workload, args.seed, seconds, trace, args.smoke, **how
        )

    record = once(args.seconds, args.trace)
    if "error" in record:
        print(f"{args.workload}: {record['error']}", file=sys.stderr)
        return 1
    if args.trace:
        untraced = once(float(UNIT_SECONDS), 0)  # one pass, as traced
        if "error" in untraced:
            print(f"{args.workload} untraced: {untraced['error']}", file=sys.stderr)
            return 1
        if untraced["digest"] != record["digest"]:
            record["problems"].append("tracing changed the output digest")
        record["per_layer"]["trace.overhead_ratio"] = (
            record["metrics"]["wall_s"] / untraced["metrics"]["wall_s"]
        )
        values, units = record["per_layer"], PER_LAYER
    else:
        setups = [record["metrics"]["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            extra = once(args.seconds, 0, setup_only=True)
            if "error" in extra:  # the measured run stands on fewer set-ups
                print(f"{args.workload} set-up only: {extra['error']}", file=sys.stderr)
            else:
                setups.append(extra["metrics"]["setup_s"])
        record["metrics"]["setup_s"] = median(setups)
        values, units = end_to_end_of(record), END_TO_END
    for problem in record["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not record["problems"] and record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": units[name][0]}
                    for name in units
                },
            }
        )
    )
    return 0


# -- ledger: every workload, repeats + one traced run --------------------------


def provenance(seed: int, repeats: int, mode: str) -> dict[str, Any]:
    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(REPO), *argv],
                capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "mode": mode,
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def ledger_metrics(workload: str) -> dict[str, tuple[str, str, float | None]]:
    """name -> (unit, better, bound) of ``workload``'s end-to-end rows."""
    rows = {
        name: spec for name, spec in END_TO_END.items() if name != "work_per_s"
    }
    rows.update(
        {
            name: (*PER_LAYER[name], bound)
            for name, (bound, where) in WORKLOAD_END_TO_END.items()
            if workload in where
        }
    )
    return rows


def ledger_main(args: argparse.Namespace) -> int:
    mode = "smoke" if args.smoke else "full"
    repeats = 1 if args.smoke else args.repeats
    out_path = Path(args.out) if args.out else OUT / f"ledger-{mode}.json"
    if out_path.name == "BENCHMARK.json":
        print(
            "refusing to write a ledger over BENCHMARK.json: that file is "
            "the benchmark's fixed-key declaration, not a results file",
            file=sys.stderr,
        )
        return 2
    envelope = provenance(args.seed, repeats, mode)
    print("provenance: " + json.dumps(envelope))
    seconds = float(UNIT_SECONDS)
    ledger: dict[str, Any] = {"provenance": envelope, "workloads": {}}
    broken: list[str] = []
    # Repeats go round-robin over the workloads: this box slows by up to a
    # third for half a minute at a time, and back-to-back repeats of one
    # workload would all sit inside one such stretch.
    untraced: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for _ in range(repeats):
        for workload in WORKLOADS:
            untraced[workload].append(
                run_once(workload, args.seed, seconds, 0, args.smoke)
            )
    for workload in WORKLOADS:
        runs = untraced[workload]
        traced = run_once(workload, args.seed, seconds, 1, args.smoke)
        good = [run for run in runs if "error" not in run]
        attempted = sum(run["attempted"] for run in good) + len(runs) - len(good)
        failed = sum(run["failed"] for run in good) + len(runs) - len(good)
        for index, run in enumerate([*runs, traced]):
            label = f"{workload} run {index}" + (" (traced)" if run is traced else "")
            if "error" in run:
                broken.append(f"{label}: {run['error']}")
            else:
                broken.extend(f"{label}: {p}" for p in run["problems"])
        digests = {run["digest"] for run in [*good, traced] if "error" not in run}
        if len(digests) > 1:
            broken.append(f"{workload}: output digest differs between runs")
        entry: dict[str, Any] = {
            "why": WORKLOADS[workload],
            "input_digest": good[0]["input_digest"] if good else None,
            "output_digest": sorted(digests)[0] if len(digests) == 1 else None,
            "end_to_end": {},
            "per_layer": traced.get("per_layer", {}),
            "self_s_by_span": traced.get("self_s_by_span", {}),
            "trace_file": traced.get("trace_file"),
        }
        for name, (unit, better, bound) in ledger_metrics(workload).items():
            if not good:
                break
            samples = [run["metrics"][name] for run in good]
            entry["end_to_end"][name] = {
                "unit": unit,
                "better": better,
                "bound": bound,
                "median": median(samples),
                "samples": samples,
            }
        entry["end_to_end"]["failed_ratio"] = {
            "unit": "fraction",
            "better": "lower",
            "bound": 0.0,
            "median": failed / attempted if attempted else 1.0,
            "samples": [failed, attempted],
        }
        if good and "per_layer" in traced:
            entry["per_layer"]["trace.overhead_ratio"] = (
                traced["metrics"]["wall_s"]
                / entry["end_to_end"]["wall_s"]["median"]
            )
        ledger["workloads"][workload] = entry
        print_workload(workload, entry)
    ledger["problems"] = broken
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"ledger written to {out_path}")
    for line in broken:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if broken else 0


def print_workload(workload: str, entry: dict[str, Any]) -> None:
    print(f"\n== {workload}  (input {str(entry['input_digest'])[:12]}, "
          f"output {str(entry['output_digest'])[:12]})")
    for name, row in entry["end_to_end"].items():
        print(
            f"  {name:<26} {row['median']:>14.6g} {row['unit']:<9}"
            f" n={len(row['samples'])}  samples={row['samples']}"
        )
    for name, value in entry["per_layer"].items():
        if value:
            print(f"    {name:<34} {value:>14.6g} {PER_LAYER[name][0]}  n=1 (traced)")


# -- compare: two ledgers against the recorded bounds --------------------------


def _spread(samples: list[float]) -> float:
    """Run-to-run spread as a share of the median."""
    middle = median(samples)
    if len(samples) < 2 or not middle:
        return 0.0
    if len(samples) >= 4:
        low, _, high = statistics.quantiles(samples, n=4)
    else:
        low, high = min(samples), max(samples)
    return (high - low) / abs(middle)


def compare_ledgers(before: dict, after: dict) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both."""
    rows = []
    for workload, old in before["workloads"].items():
        new = after["workloads"].get(workload)
        if new is None:
            continue
        for name, a in old["end_to_end"].items():
            b = new["end_to_end"].get(name)
            if b is None:
                continue
            bound = a["bound"]
            if name == "failed_ratio":
                # 0 when healthy, so compared absolutely; its "samples"
                # are the failed and attempted counts, not repeats
                worse, spread, clear_win = b["median"] - a["median"], 0.0, True
            else:
                sign = 1.0 if a["better"] == "lower" else -1.0
                worse = sign * (b["median"] - a["median"]) / abs(a["median"])
                spread = max(_spread(a["samples"]), _spread(b["samples"]))
                # every run of the change better than every run of the parent
                clear_win = max(sign * x for x in b["samples"]) < min(
                    sign * x for x in a["samples"]
                )
            if bound is None:
                status = "not gated"
            elif worse > bound:
                status = "regression"
            elif spread > bound and not clear_win:
                status = "unresolved"
            else:
                status = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "before": a["median"],
                    "after": b["median"],
                    "worse_by": worse,
                    "spread": spread,
                    "bound": bound,
                    "status": status,
                }
            )
    return rows


def compare_main(args: argparse.Namespace) -> int:
    before, after = (
        json.loads(Path(path).read_text(encoding="utf-8"))
        for path in args.compare
    )
    rows = compare_ledgers(before, after)
    print(
        f"{'workload':<18}{'metric':<26}{'before':>13}{'after':>13}"
        f"{'worse by':>10}{'spread':>9}{'bound':>7}  status"
    )
    for row in rows:
        print(
            f"{row['workload']:<18}{row['metric']:<26}{row['before']:>13.6g}"
            f"{row['after']:>13.6g}{row['worse_by']:>+10.1%}"
            f"{row['spread']:>9.1%}"
            f"{'-' if row['bound'] is None else format(row['bound'], '.0%'):>7}"
            f"  {row['status']}"
        )
    regressions = [row for row in rows if row["status"] == "regression"]
    return 1 if regressions or not rows else 0


# -- entry ---------------------------------------------------------------------


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--seconds", type=float, default=float(UNIT_SECONDS),
        help=f"measured work per run; one pass per {UNIT_SECONDS} s",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", help="ledger path (default: out/ledger-MODE.json)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker_main(args)
    if args.compare:
        return compare_main(args)
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload:
        return driver_main(args)
    return ledger_main(args)


if __name__ == "__main__":
    sys.exit(main())
