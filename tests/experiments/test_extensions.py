"""Tests for the extension experiments (ablation, DRAM sensitivity,
update latency) and result persistence."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.ablation import (
    VARIANTS,
    AblationConfig,
    FifoPortBuffer,
    RoundRobinLocalScheduler,
    build_variant,
)
from repro.experiments.dram_sensitivity import (
    DeviceOutcome,
    DramConfig,
    format_dram_sensitivity,
)
from repro.experiments.persistence import (
    load_json,
    save_csv,
    save_json,
    series_rows,
)
from repro.experiments.update_latency import (
    format_update_latency,
    measure_update_cost,
)
from repro.analysis.prm import ResourceInterface
from repro.tasks.generators import generate_client_tasksets

from tests.conftest import make_request


class TestAblationVariants:
    def test_unknown_variant_rejected(self, rng):
        tasksets = generate_client_tasksets(rng, 16, 2, 0.5)
        with pytest.raises(ConfigurationError):
            build_variant("no-such-variant", 16, tasksets)

    def test_binary_variant_has_more_elements(self, rng):
        tasksets = generate_client_tasksets(rng, 16, 2, 0.5)
        quad = build_variant("paper", 16, tasksets)
        binary = build_variant("binary_fanout", 16, tasksets)
        assert binary.n_elements > quad.n_elements

    def test_round_robin_scheduler_installed(self, rng):
        tasksets = generate_client_tasksets(rng, 16, 2, 0.5)
        variant = build_variant("round_robin", 16, tasksets)
        for element in variant.elements.values():
            assert isinstance(element.scheduler, RoundRobinLocalScheduler)

    def test_fifo_buffers_installed(self, rng):
        tasksets = generate_client_tasksets(rng, 16, 2, 0.5)
        variant = build_variant("fifo_buffers", 16, tasksets)
        for element in variant.elements.values():
            assert all(isinstance(b, FifoPortBuffer) for b in element.buffers)

    def test_naive_interfaces_are_equal_share(self, rng):
        tasksets = generate_client_tasksets(rng, 16, 2, 0.5)
        variant = build_variant("naive_interfaces", 16, tasksets)
        for element in variant.elements.values():
            assert element.interfaces() == [ResourceInterface(4, 1)] * 4

    def test_round_robin_rotates(self):
        from repro.core.random_access_buffer import RandomAccessBuffer

        scheduler = RoundRobinLocalScheduler(
            [ResourceInterface(10, 5)] * 4
        )
        buffers = [RandomAccessBuffer() for _ in range(4)]
        for buffer in buffers:
            buffer.load(make_request())
        order = [scheduler.select_port(buffers) for _ in range(4)]
        assert order == [0, 1, 2, 3]

    def test_fifo_buffer_is_arrival_ordered(self):
        buffer = FifoPortBuffer(capacity=4)
        late = make_request(deadline=500)
        early = make_request(deadline=100)
        buffer.load(late)
        buffer.load(early)
        assert buffer.fetch_highest_priority() is late

    def test_evaluate_variant_returns_metrics(self):
        point = run_experiment(
            "ablation",
            AblationConfig(seeds=(1,), horizon=4_000),
            roster=("paper",),
        )["paper"]
        assert point.variant == "paper"
        assert 0 <= point.mean_miss_ratio <= 1
        assert point.mean_response > 0

    def test_variant_list_stable(self):
        assert VARIANTS[0] == "paper"
        assert len(VARIANTS) == 5


class TestBlueTreeAlphaSweep:
    def test_sweep_covers_requested_alphas(self):
        from repro.experiments.ablation import run_bluetree_alpha_sweep

        points = run_bluetree_alpha_sweep(
            alphas=(1, 4), seeds=(1,), horizon=5_000
        )
        assert [p.alpha for p in points] == [1, 4]
        for point in points:
            assert 0.0 <= point.mean_miss_ratio <= 1.0
            assert point.mean_blocking >= 0.0

    def test_no_alpha_reaches_bluescale_quality(self):
        """The paper's point: the static heuristic cannot match the
        demand-aware scheduler at any setting."""
        from repro.experiments.ablation import run_bluetree_alpha_sweep

        points = run_bluetree_alpha_sweep(
            alphas=(1, 2, 8), seeds=(1, 2), horizon=8_000
        )
        bluescale = run_experiment(
            "ablation",
            AblationConfig(seeds=(1, 2), horizon=8_000),
            roster=("paper",),
        )["paper"]
        best_tree = min(p.mean_miss_ratio for p in points)
        assert bluescale.mean_miss_ratio <= best_tree


class TestDramSensitivity:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return run_experiment(
            "dram_sensitivity",
            DramConfig(seeds=(1,), horizon=6_000),
            roster=("BlueScale", "AXI-IC^RT"),
        )

    def test_three_configurations_per_interconnect(self, outcomes):
        configurations = {o.configuration for o in outcomes}
        assert configurations == {"unit-slot", "dram/worst-case", "dram/average"}
        assert len(outcomes) == 6

    def test_unit_slot_has_full_hit_ratio(self, outcomes):
        for o in outcomes:
            if o.configuration == "unit-slot":
                assert o.row_hit_ratio == 1.0

    def test_worst_case_provisioning_keeps_bluescale_safe(self, outcomes):
        worst_case = {
            o.interconnect: o
            for o in outcomes
            if o.configuration == "dram/worst-case"
        }
        assert worst_case["BlueScale"].miss_ratio <= 0.01

    def test_average_provisioning_degrades(self, outcomes):
        by_config = {
            (o.interconnect, o.configuration): o.miss_ratio for o in outcomes
        }
        assert (
            by_config[("BlueScale", "dram/average")]
            > by_config[("BlueScale", "dram/worst-case")]
        )

    def test_formatting(self, outcomes):
        text = format_dram_sensitivity(outcomes)
        assert "dram/worst-case" in text


class TestUpdateLatency:
    @pytest.fixture(scope="class")
    def cost16(self):
        return measure_update_cost(16)

    def test_path_is_logarithmic(self, cost16):
        assert cost16.path_ses == 2  # leaf + root on a 16-client quadtree
        assert cost16.total_ses == 5

    def test_path_update_equals_full_recompose(self, cost16):
        assert cost16.results_identical

    def test_centralized_touches_every_client(self, cost16):
        assert cost16.centralized_budgets == 16

    def test_locality_improves_with_scale(self):
        small = measure_update_cost(16)
        large = measure_update_cost(64)
        assert large.locality < small.locality

    def test_formatting(self, cost16):
        text = format_update_latency([cost16])
        assert "16" in text and "yes" in text


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        outcome = DeviceOutcome("BlueScale", "unit-slot", 0.01, 42.0, 1.0)
        path = save_json([outcome], tmp_path / "out.json", label="dram")
        payload = load_json(path)
        assert payload["label"] == "dram"
        assert payload["result"][0]["interconnect"] == "BlueScale"

    def test_json_handles_fractions_and_nesting(self, tmp_path):
        from fractions import Fraction

        data = {"bw": Fraction(1, 3), "inner": [Fraction(1, 2), {"x": 1}]}
        path = save_json(data, tmp_path / "f.json")
        payload = load_json(path)
        assert payload["result"]["bw"] == pytest.approx(1 / 3)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            load_json(path)

    def test_csv_rows(self, tmp_path):
        rows = series_rows("x", [1, 2], {"a": [10, 20], "b": [30, 40]})
        path = save_csv(rows, tmp_path / "out.csv")
        content = path.read_text().splitlines()
        assert content[0] == "x,a,b"
        assert content[1] == "1,10,30"

    def test_csv_rejects_mismatched_rows(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_csv([{"a": 1}, {"b": 2}], tmp_path / "bad.csv")

    def test_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_csv([], tmp_path / "empty.csv")


class TestCli:
    def test_table1_runs_and_saves(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t1.json"
        assert main(["table1", "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "BlueScale" in captured
        assert out.exists()

    def test_fig5_custom_eta(self, capsys):
        from repro.cli import main

        assert main(["fig5", "--eta-max", "3"]) == 0
        assert "Fig 5(a)" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["warp-drive"])

    def test_analysis_backend_flag_is_gone(self, capsys):
        """The analysis has one engine; no flag picks another."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--analysis-backend", "scalar"])
        assert excinfo.value.code == 2
        assert "--analysis-backend" in capsys.readouterr().err

    def test_update_latency_quick(self, capsys):
        from repro.cli import main

        assert main(["update-latency", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "path update" in out and "yes" in out

    def test_ablation_quick(self, capsys):
        from repro.cli import main

        assert main(["ablation", "--quick"]) == 0
        assert "naive_interfaces" in capsys.readouterr().out

    def test_dram_quick_saves_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "dram.json"
        assert main(["dram", "--quick", "--output", str(out)]) == 0
        assert out.exists()
        assert "dram/worst-case" in capsys.readouterr().out

    def test_fig6_with_small_args(self, capsys):
        # one trial per design is far below the lock-step break-even:
        # the fig6/fig7 CLI tests here are about flags, seeds and
        # workers, so they pick the scalar engine, by value (the
        # default path is tests/faults/test_isolation.py::TestCli's)
        from repro.cli import main

        assert (
            main(
                ["fig6", "--trials", "1", "--horizon", "3000",
                 "--sim-backend", "scalar"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "16 traffic generators" in out
        assert "BlueScale" in out

    def test_fig6_seed_changes_results(self, capsys):
        from repro.cli import main

        argv = ["fig6", "--trials", "1", "--horizon", "3000",
                "--sim-backend", "scalar"]
        assert main(argv + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--seed", "1"]) == 0
        repeat = capsys.readouterr().out
        assert main(argv + ["--seed", "2"]) == 0
        other = capsys.readouterr().out
        assert first == repeat
        assert first != other

    def test_fig6_workers_flag_matches_serial(self, capsys):
        from repro.cli import main

        argv = ["fig6", "--trials", "2", "--horizon", "3000",
                "--sim-backend", "scalar"]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_fig7_seed_flag_accepted(self, capsys):
        from repro.cli import main

        assert main(
            ["fig7", "--trials", "1", "--horizon", "2000", "--seed", "3",
             "--sim-backend", "scalar"]
        ) == 0
        assert "success ratio" in capsys.readouterr().out

    def test_fairness_quick(self, capsys):
        from repro.cli import main

        assert main(["fairness", "--quick"]) == 0
        assert "Jain" in capsys.readouterr().out
