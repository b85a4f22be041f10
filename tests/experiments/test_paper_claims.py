"""The paper's findings (Obs 1–5 behind Table 1 and Figs. 5–7), checked.

Table 1, Fig. 5 and the update-latency extension are analytic or take
about two seconds, so they run live.  The simulation-backed claims —
Figs. 6 and 7, the design-choice ablations, the DRAM sensitivity study
and the scalability sweep — read their per-trial, per-design inputs from
``tests/fixtures/golden_paper.json`` and rebuild the typed results with
the experiments' own reducers.  Every claim is an inequality over
deterministic simulation output, so none needs a tolerance.

:func:`collect_paper` writes that fixture by running each experiment
with the arguments in :data:`RUNS`, which the fixture records beside its
data.  When a *deliberate* behavioural change moves a number,
regenerate it with::

    PYTHONPATH=src python scripts/regen_golden.py paper

``scripts/regen_golden.py all --check`` (run in CI) proves the fixture
is what the current code produces.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.composition import compose
from repro.experiments import update_latency
from repro.experiments.ablation import VARIANTS
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import format_fig6
from repro.experiments.fig7 import format_fig7
from repro.experiments.registry import get_experiment, run_experiment
from repro.experiments.table1 import run_table1
from repro.runtime import KeepOutcomes, MetricSet, TrialOutcome

REPO = Path(__file__).resolve().parent.parent.parent
GOLDEN_PAPER_PATH = REPO / "tests" / "fixtures" / "golden_paper.json"
EXPERIMENTS_MD = REPO / "EXPERIMENTS.md"

REGEN_HINT = (
    "paper golden mismatch — if the behaviour change is intentional, "
    "regenerate with: PYTHONPATH=src python scripts/regen_golden.py paper"
)

#: every simulation-backed run, keyed ``experiment`` or
#: ``experiment/size`` (a registry name), as the keyword arguments of
#: its experiment's config; each runs its experiment's whole roster
RUNS: dict[str, dict] = {
    "fig6/16": dict(n_clients=16, trials=5, horizon=20_000),
    "fig6/64": dict(n_clients=64, trials=3, horizon=10_000),
    "fig7/16": dict(
        n_processors=16,
        trials=4,
        horizon=15_000,
        utilizations=(0.3, 0.5, 0.7, 0.9),
    ),
    "fig7/64": dict(
        n_processors=64,
        trials=3,
        horizon=10_000,
        drain=4_000,
        utilizations=(0.3, 0.6, 0.9),
    ),
    "ablation": dict(
        n_clients=16, utilization=0.85, seeds=(1, 2, 3), horizon=12_000
    ),
    "dram_sensitivity": dict(
        n_clients=16, utilization=0.7, seeds=(1, 2), horizon=10_000
    ),
    "scalability_sweep": dict(
        client_counts=(4, 16, 64), utilization=0.45, seeds=(1,)
    ),
}


def _name(key: str) -> str:
    return key.split("/")[0]


def _config(key: str):
    """The config one entry of :data:`RUNS` runs at."""
    return get_experiment(_name(key)).resolve("config")(**RUNS[key])


def _jsonable(value):
    return json.loads(json.dumps(value))


def collect_paper() -> dict[str, dict]:
    """Run every entry of :data:`RUNS` and keep its reducer inputs.

    Each entry stores its arguments and one scalar map per trial, in
    spec order — never derived statistics, so the fixture's bytes do not
    depend on how an interpreter rounds a standard deviation.  The
    scalability sweep also stores its analytic admission ceilings.
    """
    runs: dict[str, dict] = {}
    for key in RUNS:
        hooks = KeepOutcomes()
        result = run_experiment(_name(key), _config(key), hooks=hooks)
        entry = {
            "args": _jsonable(RUNS[key]),
            "trials": [dict(o.metrics.scalars) for o in hooks.outcomes],
        }
        if _name(key) == "scalability_sweep":
            entry["admission_ceiling"] = {
                str(n): u for n, u in result.admission_ceiling.items()
            }
        runs[key] = entry
    return runs


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    assert GOLDEN_PAPER_PATH.exists(), (
        f"missing fixture {GOLDEN_PAPER_PATH}; {REGEN_HINT}"
    )
    return json.loads(GOLDEN_PAPER_PATH.read_text())["runs"]


def _reduce(golden: dict[str, dict], key: str, config=None):
    """The typed result of ``key``, rebuilt from its recorded trials by
    its experiment's own spec builder and reducer."""
    entry = golden[key]
    assert entry["args"] == _jsonable(RUNS[key]), REGEN_HINT
    experiment = get_experiment(_name(key))
    config = config or _config(key)
    roster = experiment.resolve("roster")
    specs = experiment.resolve("specs")(config, roster)
    assert len(specs) == len(entry["trials"]), REGEN_HINT
    outcomes = [
        TrialOutcome(spec=spec, metrics=MetricSet(scalars=scalars), seconds=0.0)
        for spec, scalars in zip(specs, entry["trials"])
    ]
    return experiment.resolve("reducer")(config, roster, outcomes)


def _fig6(golden, size: int):
    return _reduce(golden, f"fig6/{size}")


def _fig7(golden, size: int):
    return _reduce(golden, f"fig7/{size}")


def test_golden_covers_every_run(golden):
    assert set(golden) == set(RUNS), REGEN_HINT


# --- Table 1 (Obs 1) -------------------------------------------------------


def test_table1_hardware_overhead():
    rows = run_table1(16)

    report = {row.design: row.report for row in rows}
    # Obs 1 — who is bigger than whom.
    assert report["BlueScale"].luts > report["BlueTree"].luts
    assert report["BlueScale"].luts > report["GSMTree"].luts
    assert report["BlueScale"].luts < report["AXI-IC^RT"].luts
    assert report["BlueScale"].luts < report["MicroBlaze"].luts
    assert report["BlueScale"].luts < report["RISC-V"].luts
    assert report["BlueScale"].dsps == 0
    # every measured cell is within 8% of the paper's Table 1
    for row in rows:
        assert row.report.luts == pytest.approx(row.paper[0], rel=0.08)
        assert row.report.registers == pytest.approx(row.paper[1], rel=0.08)
        assert row.report.power_mw == pytest.approx(row.paper[4], rel=0.08)


# --- Fig. 5 (Obs 2, Obs 3) -------------------------------------------------


def test_fig5_hardware_scalability():
    result = run_fig5(1, 7)

    # Fig 5(a): monotone growth; BlueScale < AXI-IC^RT from 8 clients on.
    for series in result.area.values():
        assert series == sorted(series)
    assert all(
        blue < axi
        for blue, axi in zip(
            result.area["BlueScale"][2:], result.area["AXI-IC^RT"][2:]
        )
    )
    # Obs 2: added area is a small margin through 64 clients (< 5 pp).
    for eta_index in range(6):  # η = 1..6
        margin = (
            result.area["Legacy+BlueScale"][eta_index]
            - result.area["Legacy"][eta_index]
        )
        assert margin < 0.05

    # Fig 5(b): power grows ~linearly; BlueScale slightly above AXI at scale.
    assert result.power_w["BlueScale"][-1] > result.power_w["AXI-IC^RT"][-1]

    # Fig 5(c) / Obs 3: the crossover happens past 32 clients (η = 6),
    # and BlueScale never limits the system.
    assert result.crossover_eta() == 6
    assert all(
        blue > legacy
        for blue, legacy in zip(
            result.fmax_mhz["BlueScale"], result.fmax_mhz["Legacy"]
        )
    )


# --- Fig. 6 (Obs 4) --------------------------------------------------------


def test_fig6_16_traffic_generators(golden):
    result = _fig6(golden, 16)

    metrics = result.metrics
    # Obs 4 (i): best miss ratio; blocking below every distributed
    # baseline and statistically tied with AXI-IC^RT (both are
    # deadline-aware; the paper's strict ordering re-emerges at 64
    # clients — see the companion test and EXPERIMENTS.md).  GSMTree-TDM
    # is the strict xfail below.
    assert result.best_miss_ratio() == "BlueScale"
    blue_blocking = metrics["BlueScale"].mean_blocking
    for name in ("BlueTree", "BlueTree-Smooth", "GSMTree-FBSP"):
        assert blue_blocking < metrics[name].mean_blocking, name
    assert blue_blocking < 1.5 * metrics["AXI-IC^RT"].mean_blocking
    # Obs 4 (ii): least variance in the miss ratio.
    blue_std = metrics["BlueScale"].miss_ratio_std
    for name, m in metrics.items():
        if name != "BlueScale":
            assert blue_std <= m.miss_ratio_std + 1e-9, name
    # heuristic arbitration (BlueTree) blocks more than deadline-aware designs
    assert metrics["BlueTree"].mean_blocking > metrics["BlueScale"].mean_blocking


@pytest.mark.xfail(
    strict=True,
    reason=(
        "seed-sensitive tie: BlueScale's mean blocking is 0.5546 against "
        "GSMTree-TDM's 0.5285; the claim held (0.43 vs 0.51) until commit "
        "2a974bd replaced the trial seed stream"
    ),
)
def test_fig6_16_blocking_below_gsmtree_tdm(golden):
    metrics = _fig6(golden, 16).metrics
    blue_blocking = metrics["BlueScale"].mean_blocking
    assert blue_blocking < metrics["GSMTree-TDM"].mean_blocking


def test_fig6_64_traffic_generators(golden):
    result = _fig6(golden, 64)

    metrics = result.metrics
    assert result.best_miss_ratio() == "BlueScale"
    assert result.best_blocking() == "BlueScale"
    # the 16 -> 64 scaling hurts every baseline more than BlueScale
    blue = metrics["BlueScale"].mean_miss_ratio
    for name in ("BlueTree", "BlueTree-Smooth", "GSMTree-TDM"):
        assert metrics[name].mean_miss_ratio > blue, name


# --- Fig. 7 (Obs 5) --------------------------------------------------------


def test_fig7_16_core_case_study(golden):
    result = _fig7(golden, 16)
    utilizations = RUNS["fig7/16"]["utilizations"]

    # Obs 5: BlueScale dominates every distributed baseline pointwise.
    for name in ("BlueTree", "BlueTree-Smooth", "GSMTree-TDM", "GSMTree-FBSP"):
        assert result.dominated_by_bluescale(name), name
    # ... and matches or beats AXI-IC^RT on most points.
    blue = result.success_ratio["BlueScale"]
    axi = result.success_ratio["AXI-IC^RT"]
    wins = sum(b >= a for b, a in zip(blue, axi))
    assert wins >= len(utilizations) - 1
    # everything is perfect at the lightest load
    assert blue[0] == 1.0
    # the demand-blind TDM reservation collapses at high utilization
    assert result.success_ratio["GSMTree-TDM"][-1] < blue[-1]


def test_fig7_64_core_case_study(golden):
    result = _fig7(golden, 64)

    for name in ("BlueTree", "BlueTree-Smooth", "GSMTree-TDM"):
        assert result.dominated_by_bluescale(name), name
    blue = result.success_ratio["BlueScale"]
    assert blue[0] == 1.0


@pytest.mark.parametrize(
    "key", ["fig6/16", "fig6/64", "fig7/16", "fig7/64"]
)
def test_experiments_md_embeds_rendering(golden, key):
    """EXPERIMENTS.md quotes each figure exactly as the golden renders."""
    family, size = key.split("/")
    if family == "fig6":
        rendering = format_fig6(_fig6(golden, int(size)))
    else:
        rendering = format_fig7(_fig7(golden, int(size)))
    assert rendering in EXPERIMENTS_MD.read_text(encoding="utf-8"), (
        f"EXPERIMENTS.md does not quote the {key} table:\n{rendering}"
    )


# --- design-choice ablations -----------------------------------------------


def test_design_choice_ablations(golden):
    results = _reduce(golden, "ablation")

    assert set(results) == set(VARIANTS)
    paper = results["paper"]
    # Demand-blind equal-share servers are catastrophic: the interface
    # selection algorithm is the dominant mechanism.
    assert results["naive_interfaces"].mean_miss_ratio > 10 * max(
        paper.mean_miss_ratio, 1e-4
    )
    # Removing the lower-level priority queue costs deadline misses.
    assert results["fifo_buffers"].mean_miss_ratio >= paper.mean_miss_ratio
    # Round-robin server selection roughly doubles priority inversion.
    assert results["round_robin"].mean_blocking > 1.5 * paper.mean_blocking
    # Binary fan-out doubles the tree depth: hardware cost (more SEs),
    # and the composition loses schedulability head-room; the quadtree
    # keeps the same workload analytically schedulable.
    binary = results["binary_fanout"]
    assert binary.mean_miss_ratio >= 0.0  # it still functions


# --- extensions: update latency, DRAM sensitivity, scalability -------------


@pytest.fixture(scope="module")
def update_costs():
    """The update-latency sweep, plus the selection misses each full
    recomposition recorded on the cache it ran with."""
    misses: list[int] = []

    def counting_compose(topology, tasksets, *, ctx):
        before = ctx.cache.stats_snapshot().selection_misses
        result = compose(topology, tasksets, ctx=ctx)
        misses.append(ctx.cache.stats_snapshot().selection_misses - before)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(update_latency, "compose", counting_compose)
        costs = update_latency.run_update_latency((16, 64, 256))
    return costs, misses


def test_update_latency_locality(update_costs):
    costs, _ = update_costs

    for cost in costs:
        # path-local result identical to a full recomposition
        assert cost.results_identical
        # O(log n) SEs touched vs O(n) centralized budgets
        assert cost.path_ses < cost.centralized_budgets
        assert cost.path_update_seconds < cost.full_recompose_seconds
    # locality improves with scale: 2/5 -> 3/21 -> 4/85
    localities = [cost.locality for cost in costs]
    assert localities == sorted(localities, reverse=True)


def test_full_recompose_runs_cold(update_costs):
    """The timed recomposition selects every port of every SE afresh;
    on the probe's warm cache it would time a cache replay instead."""
    costs, misses = update_costs
    assert misses == [4 * cost.total_ses for cost in costs] == [20, 84, 340]


def test_dram_provider_sensitivity(golden):
    outcomes = _reduce(golden, "dram_sensitivity")

    by_key = {(o.interconnect, o.configuration): o for o in outcomes}
    # the slot abstraction is safe under worst-case provisioning
    assert by_key[("BlueScale", "dram/worst-case")].miss_ratio <= 0.01
    # average-cost provisioning is unsafe for every design
    for name in ("BlueScale", "BlueTree", "AXI-IC^RT"):
        assert (
            by_key[(name, "dram/average")].miss_ratio
            > by_key[(name, "dram/worst-case")].miss_ratio
        )
    # BlueScale's EDF shaping interleaves clients and destroys row
    # locality — an honest cost of predictability-first scheduling
    assert (
        by_key[("BlueScale", "dram/worst-case")].row_hit_ratio
        < by_key[("AXI-IC^RT", "dram/worst-case")].row_hit_ratio
    )


def test_scalability_sweep(golden):
    # the ceilings are recorded too: read them back, not re-searched
    config = replace(
        _config("scalability_sweep"), with_admission_ceiling=False
    )
    result = _reduce(golden, "scalability_sweep", config)
    result.admission_ceiling = {
        int(n): u
        for n, u in golden["scalability_sweep"]["admission_ceiling"].items()
    }

    miss = result.series("miss_ratio")
    sizes = result.sizes()
    # BlueScale keeps (near-)zero misses at every size
    assert all(value <= 0.001 for value in miss["BlueScale"])
    # the heuristic tree degrades monotonically with scale
    assert miss["BlueTree"] == sorted(miss["BlueTree"])
    assert miss["BlueTree"][-1] > miss["BlueScale"][-1]
    # predictability costs latency: BlueScale's shaping shows in the mean
    response = result.series("mean_response")
    assert response["BlueScale"][-1] > response["BlueTree"][-1]
    # composition overhead: the admission ceiling declines with depth
    ceilings = [result.admission_ceiling[n] for n in sizes]
    assert ceilings[0] > ceilings[-1]
    assert all(c > result.utilization for c in ceilings)
