"""Command-line interface: ``python -m repro <experiment> [options]``.

Runs any of the paper's experiments (or the extensions) from the shell,
prints the same rows/series the paper reports, and optionally saves the
structured result as JSON.

Every simulation-driven experiment accepts ``--workers N`` to fan its
trials out over ``N`` processes through the trial-execution runtime
(:mod:`repro.runtime`); results are bit-identical to a serial run.

Examples::

    python -m repro table1
    python -m repro fig5 --output results/fig5.json
    python -m repro fig6 --clients 16 --trials 5 --workers 4
    python -m repro fig7 --processors 16 --trials 4 --seed 7
    python -m repro ablation
    python -m repro dram
    python -m repro update-latency
    python -m repro trace --figure fig6 --trial 2 --export spans.jsonl
    python -m repro faults --trials 5 --workers 2
    python -m repro churn --trials 3 --verify
    python -m repro serve --clients 16 --port 8787
    python -m repro campaign run campaigns/ci.json --out results/ci
    python -m repro campaign report results/ci
    python -m repro campaign diff tests/fixtures/golden_campaign.json \\
        results/ci

``--seed S`` is accepted by every subcommand (the analytical ones
ignore it) and pins the base seed of simulation-backed experiments.
"""

from __future__ import annotations

import argparse
from typing import Sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BlueScale (DAC 2022) reproduction experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output",
        metavar="PATH",
        help="also save the structured result as JSON",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan trials out over N processes (default: 1, serial); "
        "results are identical to a serial run",
    )
    common.add_argument(
        "--progress",
        action="store_true",
        help="print trial progress/timing to stderr",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="override the experiment's base seed (simulation-backed "
        "subcommands; ignored by the purely analytical ones)",
    )
    common.add_argument(
        "--sim-backend",
        choices=("scalar", "batched"),
        default=None,
        help="simulator backend for this run (default: the built-in "
        "default, batched lock-step over numpy arrays); results are "
        "bit-identical under either backend",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    sub.add_parser(
        "table1",
        help="Table 1: hardware overhead (16 clients)",
        parents=[common],
    )

    fig5 = sub.add_parser(
        "fig5", help="Fig. 5: hardware scalability", parents=[common]
    )
    fig5.add_argument("--eta-max", type=int, default=7)

    fig6 = sub.add_parser(
        "fig6", help="Fig. 6: real-time performance", parents=[common]
    )
    fig6.add_argument("--clients", type=int, default=16, choices=(16, 64))
    fig6.add_argument("--trials", type=int, default=5)
    fig6.add_argument("--horizon", type=int, default=20_000)

    fig7 = sub.add_parser(
        "fig7", help="Fig. 7: automotive case study", parents=[common]
    )
    fig7.add_argument("--processors", type=int, default=16, choices=(16, 64))
    fig7.add_argument("--trials", type=int, default=4)
    fig7.add_argument("--horizon", type=int, default=15_000)
    fig7.add_argument(
        "--with-analysis",
        action="store_true",
        help="also run the compositional analysis per trial and report "
        "the analytically-schedulable ratio next to the simulated one",
    )

    faults = sub.add_parser(
        "faults",
        help="fault-injection campaign: temporal isolation under a "
        "rogue client, checked against the analytical bounds",
        parents=[common],
    )
    faults.add_argument("--clients", type=int, default=8)
    faults.add_argument("--trials", type=int, default=5)
    faults.add_argument("--horizon", type=int, default=4_000)
    faults.add_argument(
        "--aggressor",
        type=int,
        default=0,
        metavar="ID",
        help="client turned rogue (default: 0)",
    )
    faults.add_argument(
        "--burst-size",
        type=int,
        default=24,
        help="rogue transactions per burst (default: 24)",
    )
    faults.add_argument(
        "--burst-every",
        type=int,
        default=60,
        help="cycles between rogue bursts (default: 60)",
    )

    churn = sub.add_parser(
        "churn",
        help="online-churn campaign: BlueScale path-local re-selection "
        "vs static/dynamic AXI regulation under joins, rate changes, "
        "mode switches and leaves",
        parents=[common],
    )
    churn.add_argument("--clients", type=int, default=8)
    churn.add_argument("--trials", type=int, default=3)
    churn.add_argument("--horizon", type=int, default=6_000)
    churn.add_argument(
        "--joiners",
        type=int,
        default=2,
        metavar="N",
        help="clients that start idle and join mid-run (default: 2)",
    )
    churn.add_argument(
        "--verify",
        action="store_true",
        help="exit 1 if any monitored deadline was missed inside a "
        "reconfiguration transient window",
    )

    ablation = sub.add_parser(
        "ablation",
        help="BlueScale design-choice ablations",
        parents=[common],
    )
    ablation.add_argument(
        "--quick", action="store_true", help="single-seed short run"
    )
    dram = sub.add_parser(
        "dram",
        help="provider-model sensitivity extension",
        parents=[common],
    )
    dram.add_argument(
        "--quick", action="store_true", help="single-seed short run"
    )
    update = sub.add_parser(
        "update-latency",
        help="task-join update locality extension",
        parents=[common],
    )
    update.add_argument(
        "--quick", action="store_true", help="16/64 clients only"
    )
    sweep = sub.add_parser(
        "scalability",
        help="miss/response vs client count extension",
        parents=[common],
    )
    sweep.add_argument(
        "--max-clients", type=int, default=64, choices=(16, 64, 256)
    )
    fairness = sub.add_parser(
        "fairness",
        help="per-client fairness extension",
        parents=[common],
    )
    fairness.add_argument(
        "--quick", action="store_true", help="single-seed short run"
    )
    campaign = sub.add_parser(
        "campaign",
        help="declarative campaigns: run a sweep spec with resumable "
        "checkpointing, render reports, diff against a golden baseline",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)
    campaign_run = campaign_sub.add_parser(
        "run",
        help="execute (or resume) a campaign spec into a results "
        "directory; exits 1 if any cell failed",
        parents=[common],
    )
    campaign_run.add_argument(
        "spec",
        metavar="SPEC",
        help="campaign spec file (.json; .toml where tomllib exists)",
    )
    campaign_run.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="results directory (default: results/campaigns/<name>)",
    )
    campaign_run.add_argument(
        "--no-resume",
        action="store_true",
        help="discard any checkpoint in the results directory and "
        "start clean (default: finished cells are skipped)",
    )
    campaign_report = campaign_sub.add_parser(
        "report",
        help="render report.md + series.jsonl for a completed campaign "
        "directory or a golden baseline file",
    )
    campaign_report.add_argument(
        "source",
        metavar="PATH",
        help="campaign results directory or golden baseline JSON",
    )
    campaign_report.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="where to write the report (default: next to the source)",
    )
    campaign_diff = campaign_sub.add_parser(
        "diff",
        help="regression-gate a campaign against a baseline: exits 1 "
        "on any violation of the spec's tolerance rules",
    )
    campaign_diff.add_argument(
        "baseline",
        metavar="BASELINE",
        help="golden baseline file or campaign results directory",
    )
    campaign_diff.add_argument(
        "current",
        metavar="CURRENT",
        help="campaign results directory (or baseline file) to check",
    )

    serve = sub.add_parser(
        "serve",
        help="run the admission-control daemon over a seeded system model",
        parents=[common],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="listening port (default: 8787; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=16,
        help="clients in the served model (default: 16)",
    )
    serve.add_argument(
        "--utilization",
        type=float,
        default=0.3,
        help="baseline system utilization of the model (default: 0.3)",
    )
    serve.add_argument(
        "--tasks-per-client",
        type=int,
        default=2,
        help="baseline tasks per client (default: 2)",
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=4,
        help="analysis thread-pool size (default: 4)",
    )

    trace = sub.add_parser(
        "trace",
        help="replay one fig6/fig7 trial with tracing and reconstruct "
        "a request's per-hop timeline",
        parents=[common],
    )
    trace.add_argument(
        "--figure",
        choices=("fig6", "fig7"),
        default="fig6",
        help="which experiment's trial to replay (default: fig6)",
    )
    trace.add_argument(
        "--interconnect",
        default="BlueScale",
        metavar="NAME",
        help="design to trace (default: BlueScale)",
    )
    trace.add_argument(
        "--trial", type=int, default=0, help="trial index (default: 0)"
    )
    trace.add_argument(
        "--rid",
        type=int,
        default=None,
        help="request id to reconstruct (default: worst recorded blocking)",
    )
    trace.add_argument("--clients", type=int, default=16, choices=(16, 64))
    trace.add_argument(
        "--utilization",
        type=float,
        default=0.7,
        help="fig7 target utilization point (default: 0.7)",
    )
    trace.add_argument("--horizon", type=int, default=5_000)
    trace.add_argument(
        "--export",
        metavar="PATH",
        help="also export the full span stream as JSONL (schema-validated)",
    )
    return parser


def _seeded(args: argparse.Namespace, **kwargs):
    """Config kwargs, plus ``seed`` when ``--seed`` was given."""
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return kwargs


def _seeds_kwargs(args: argparse.Namespace, quick_horizon: int) -> dict:
    """``seeds``/``horizon`` kwargs of the multi-seed extension sweeps:
    ``--seed`` pins the one seed, ``--quick`` a single short run."""
    if args.quick:
        return {
            "seeds": (args.seed if args.seed is not None else 1,),
            "horizon": quick_horizon,
        }
    return {"seeds": (args.seed,)} if args.seed is not None else {}


def _sized(args: argparse.Namespace, **kwargs):
    """Config kwargs plus ``--trials``/``--horizon`` (and ``--seed``)."""
    return _seeded(args, trials=args.trials, horizon=args.horizon, **kwargs)


#: each registered experiment's config keyword arguments, from the
#: flags of its subcommand (the record's ``command``)
_CONFIG_FLAGS = {
    "fig6": lambda args: _sized(args, n_clients=args.clients),
    "fig7": lambda args: _sized(
        args, n_processors=args.processors, analysis=args.with_analysis
    ),
    "isolation": lambda args: _sized(
        args,
        n_clients=args.clients,
        aggressor=args.aggressor,
        burst_size=args.burst_size,
        burst_every=args.burst_every,
    ),
    "churn": lambda args: _sized(
        args, n_clients=args.clients, joiners=args.joiners
    ),
    "ablation": lambda args: _seeds_kwargs(args, 5_000),
    "dram_sensitivity": lambda args: _seeds_kwargs(args, 5_000),
    "fairness": lambda args: _seeds_kwargs(args, 8_000),
    "scalability_sweep": lambda args: {
        "client_counts": tuple(
            c for c in (4, 16, 64, 256) if c <= args.max_clients
        ),
        "seeds": (args.seed if args.seed is not None else 1,),
    },
}

#: results that make their subcommand exit 1: an analytical-bound
#: violation under the rogue client, a miss inside a reconfiguration
#: transient (``churn --verify``)
_FAILS = {
    "isolation": lambda args, result: result.total_bound_violations > 0,
    "churn": lambda args, result: (
        args.verify and result.total_transient_violations > 0
    ),
}


def _campaign_main(args: argparse.Namespace) -> int:
    """The ``repro campaign <run|report|diff>`` group."""
    if args.campaign_command == "report":
        from repro.campaigns import summarize_campaign

        report_path, series_path = summarize_campaign(
            args.source, out_dir=args.out
        )
        print(f"report written to {report_path}")
        print(f"series written to {series_path}")
        return 0
    if args.campaign_command == "diff":
        from repro.campaigns import (
            diff_campaigns,
            format_gate_report,
            load_artifacts,
        )

        baseline = load_artifacts(args.baseline)
        current = load_artifacts(args.current)
        violations = diff_campaigns(baseline, current)
        print(format_gate_report(violations, str(args.baseline)))
        return 1 if violations else 0

    assert args.campaign_command == "run", args.campaign_command
    from repro.campaigns import load_campaign_spec, run_campaign
    from repro.runtime import ProgressPrinter

    spec = load_campaign_spec(args.spec)
    out_dir = (
        args.out
        if args.out is not None
        else f"results/campaigns/{spec.name}"
    )
    run = run_campaign(
        spec,
        out_dir,
        workers=args.workers,
        resume=not args.no_resume,
        hooks=ProgressPrinter() if args.progress else None,
        sim_backend=args.sim_backend,
    )
    print(
        f"campaign '{spec.name}': {len(run.records)} cell(s) "
        f"({run.resumed_cells} resumed, {run.executed_cells} executed, "
        f"{len(run.failed_cells)} failed) -> {run.directory}"
    )
    print(f"cells digest: {run.manifest['cells_digest']}")
    for record in run.failed_cells:
        print(f"  FAILED {record.cell_id}: {record.error}")
    if args.output:
        from repro.experiments.persistence import save_json

        path = save_json(run.manifest, args.output, label=spec.name)
        print(f"\nmanifest saved to {path}")
    return 1 if run.failed_cells else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "campaign":
        return _campaign_main(args)
    # Imports are deferred so `--help` stays instant.
    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.runtime import ProgressPrinter, make_executor

    failed = False
    by_command = {record.command: record for record in EXPERIMENTS.values()}
    if args.experiment in by_command:
        experiment = by_command[args.experiment]
        config = experiment.resolve("config")(
            **_CONFIG_FLAGS[experiment.name](args)
        )
        result = run_experiment(
            experiment.name,
            config,
            executor=make_executor(args.workers, args.sim_backend),
            hooks=ProgressPrinter() if args.progress else None,
        )
        print(experiment.resolve("formatter")(result))
        if experiment.name in _FAILS:
            failed = _FAILS[experiment.name](args, result)
    elif args.experiment == "table1":
        from repro.experiments.table1 import format_table1, run_table1

        result = run_table1()
        print(format_table1(result))
    elif args.experiment == "fig5":
        from repro.experiments.fig5 import format_fig5, run_fig5

        result = run_fig5(1, args.eta_max)
        print(format_fig5(result))
    elif args.experiment == "update-latency":
        from repro.experiments.update_latency import (
            format_update_latency,
            run_update_latency,
        )

        sizes = {"client_counts": (16, 64)} if args.quick else {}
        result = run_update_latency(**sizes)
        print(format_update_latency(result))
    elif args.experiment == "serve":
        from repro.analysis.model import SystemModel
        from repro.service.daemon import AdmissionService

        model = SystemModel.from_seed(
            args.clients,
            utilization=args.utilization,
            tasks_per_client=args.tasks_per_client,
            seed=args.seed if args.seed is not None else 1,
        )
        print(f"model composed: {model.describe()}")
        AdmissionService(model, max_workers=args.max_workers).run(
            host=args.host, port=args.port
        )
        return 0
    elif args.experiment == "trace":
        from repro.observability import (
            build_timeline,
            format_timeline,
            validate_spans_jsonl,
            worst_blocking_rid,
        )

        # Seeds for N trials are a prefix of those for M > N trials, so
        # a config sized `trial + 1` re-derives the exact same spec the
        # full experiment would run at that index.
        if args.figure == "fig6":
            from repro.experiments.fig6 import Fig6Config as Config
            from repro.experiments.trace_replay import (
                trace_fig6_trial as replay,
            )

            sizes = {"n_clients": args.clients}
        else:
            from repro.experiments.fig7 import Fig7Config as Config
            from repro.experiments.trace_replay import (
                trace_fig7_trial as replay,
            )

            sizes = {
                "n_processors": args.clients,
                "utilizations": (args.utilization,),
            }
        kwargs = _seeded(
            args, trials=args.trial + 1, horizon=args.horizon, **sizes
        )
        traced = replay(
            Config(**kwargs), trial=args.trial, interconnect=args.interconnect
        )
        recorder = traced.tracer.recorder
        spans = list(recorder.spans())
        rid = args.rid if args.rid is not None else worst_blocking_rid(spans)
        if rid is None:
            print(
                f"no delivered requests traced in {traced.experiment} trial "
                f"{traced.trial} on {traced.interconnect}"
            )
            return 1
        timeline = build_timeline(spans, rid)
        print(
            f"{traced.experiment} trial {traced.trial} on "
            f"{traced.interconnect} — {len(spans)} spans recorded "
            f"({recorder.dropped} evicted), digest {traced.trace_digest}"
        )
        print(format_timeline(timeline))
        if args.export:
            count = recorder.export_jsonl(args.export)
            validate_spans_jsonl(args.export)
            print(f"\n{count} spans exported to {args.export} (validated)")
        result = {
            "experiment": traced.experiment,
            "trial": traced.trial,
            "interconnect": traced.interconnect,
            "rid": rid,
            "spans_recorded": len(spans),
            "spans_evicted": recorder.dropped,
            "trace_digest": traced.trace_digest,
            "latency": timeline.latency,
        }
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.experiment)

    if args.output:
        from repro.experiments.persistence import save_json

        path = save_json(result, args.output, label=args.experiment)
        print(f"\nresult saved to {path}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
