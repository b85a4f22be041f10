"""Smoke and shape tests for the Fig. 6 / Fig. 7 experiment harnesses.

These run miniature configurations (few trials, short horizons, a
subset of interconnects) so the whole suite stays fast; the benchmark
harness runs the fuller versions.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.fig6 import Fig6Config, format_fig6
from repro.experiments.fig7 import (
    Fig7Config,
    build_fig7_specs,
    fig7_build,
    format_fig7,
)
from repro.runtime import SerialExecutor

#: these tests are about the harnesses (shapes, ordering, formatting),
#: not the batch seam, and their batches are far below the group size
#: at which the lock-step kernels pay off — so they say so, by value
SCALAR = SerialExecutor("scalar")


MICRO_FIG6 = Fig6Config(n_clients=16, trials=2, horizon=6_000, drain=2_000)


class TestFig6Harness:
    def test_micro_run_produces_metrics(self):
        result = run_experiment(
            "fig6",
            MICRO_FIG6,
            roster=("BlueScale", "BlueTree"),
            executor=SCALAR,
        )
        assert set(result.metrics) == {"BlueScale", "BlueTree"}
        for metrics in result.metrics.values():
            assert len(metrics.miss_ratios) == 2
            assert len(metrics.blocking_means) == 2
            assert all(0 <= m <= 1 for m in metrics.miss_ratios)
            assert all(b >= 0 for b in metrics.blocking_means)

    def test_bluescale_beats_bluetree_on_misses(self):
        result = run_experiment(
            "fig6",
            MICRO_FIG6,
            roster=("BlueScale", "BlueTree"),
            executor=SCALAR,
        )
        blue = result.metrics["BlueScale"].mean_miss_ratio
        tree = result.metrics["BlueTree"].mean_miss_ratio
        assert blue <= tree

    def test_best_selectors(self):
        result = run_experiment(
            "fig6",
            MICRO_FIG6,
            roster=("BlueScale", "BlueTree"),
            executor=SCALAR,
        )
        assert result.best_miss_ratio() in ("BlueScale", "BlueTree")

    def test_deterministic(self):
        a = run_experiment(
            "fig6", MICRO_FIG6, roster=("BlueTree",), executor=SCALAR
        )
        b = run_experiment(
            "fig6", MICRO_FIG6, roster=("BlueTree",), executor=SCALAR
        )
        assert a.metrics["BlueTree"].miss_ratios == b.metrics["BlueTree"].miss_ratios

    def test_formatting(self):
        result = run_experiment(
            "fig6", MICRO_FIG6, roster=("BlueTree",), executor=SCALAR
        )
        text = format_fig6(result)
        assert "BlueTree" in text
        assert "16 traffic generators" in text

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Fig6Config(utilization_low=0.9, utilization_high=0.7)
        with pytest.raises(ConfigurationError):
            Fig6Config(trials=0)

    def test_paper_scale_preset(self):
        config = Fig6Config.paper_scale(64)
        assert config.n_clients == 64
        assert config.trials == 200
        assert config.horizon >= 100_000


MICRO_FIG7 = Fig7Config(
    n_processors=16,
    trials=2,
    horizon=6_000,
    drain=3_000,
    utilizations=(0.4, 0.9),
)


class TestFig7Harness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            "fig7",
            MICRO_FIG7,
            roster=("BlueScale", "GSMTree-TDM"),
            executor=SCALAR,
        )

    def test_success_ratios_in_range(self, result):
        for series in result.success_ratio.values():
            assert len(series) == 2
            assert all(0.0 <= value <= 1.0 for value in series)

    def test_bluescale_dominates_tdm(self, result):
        assert result.dominated_by_bluescale("GSMTree-TDM")

    def test_bluescale_succeeds_at_low_utilization(self, result):
        assert result.success_ratio["BlueScale"][0] == 1.0

    def test_formatting(self, result):
        text = format_fig7(result)
        assert "success ratio" in text
        assert "BlueScale" in text

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Fig7Config(n_processors=0)
        with pytest.raises(ConfigurationError):
            Fig7Config(utilizations=(0.5, 1.4))

    def test_n_clients_includes_accelerator(self):
        assert Fig7Config(n_processors=16).n_clients == 17

    def test_paper_scale_preset(self):
        config = Fig7Config.paper_scale()
        assert config.trials == 200
        assert len(config.utilizations) == 17
        assert config.utilizations[0] == 0.10
        assert config.utilizations[-1] == 0.90


class TestFig7WithAnalysis:
    CONFIG = Fig7Config(
        n_processors=16,
        trials=2,
        horizon=4_000,
        drain=2_000,
        utilizations=(0.3, 0.9),
        analysis=True,
    )

    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            "fig7", self.CONFIG, roster=("BlueScale",), executor=SCALAR
        )

    def test_analysis_ratio_per_utilization_point(self, result):
        assert len(result.analysis_ratio) == 2
        assert all(0.0 <= r <= 1.0 for r in result.analysis_ratio)
        # low utilization composes, way-over-ceiling cannot
        assert result.analysis_ratio[0] == 1.0
        assert result.analysis_ratio[-1] == 0.0

    def test_analysis_is_sound_wrt_simulation(self, result):
        """Analytical admission is conservative: wherever the analysis
        says schedulable, simulation agrees (the reverse need not
        hold)."""
        for ratio, simulated in zip(
            result.analysis_ratio, result.success_ratio["BlueScale"]
        ):
            if ratio == 1.0:
                assert simulated == 1.0

    def test_metric_set_and_formatting_carry_analysis(self, result):
        assert "analysis/schedulable_mean" in result.metric_set().scalars
        assert "analysis (BlueScale)" in format_fig7(result)

    def test_verdict_describes_the_simulated_interfaces(self):
        """The analysis composes exactly what the simulated BlueScale
        is programmed with: same search width, so the same interfaces
        and the same root bandwidth in every trial."""
        config = Fig7Config(
            n_processors=16,
            trials=3,
            utilizations=(0.3, 0.6, 0.9),
            analysis=True,
        )
        for spec in build_fig7_specs(config, ("BlueScale",)):
            (pairs, scalars), _, _, _ = fig7_build(spec)
            ((_, simulation),) = pairs
            composition = simulation.interconnect.composition
            assert scalars["analysis/root_bandwidth"] == float(
                composition.root_bandwidth
            ), spec.param("utilization")

    def test_backend_override_identical(
        self, result, analysis_oracle, monkeypatch
    ):
        """The test oracle, swapped in under the trial runner for both
        the ``--with-analysis`` model and the simulated BlueScale's
        composition, agrees verdict for verdict."""
        from repro.analysis.model import SystemModel

        build = SystemModel.build.__func__
        seen = []

        def counting_build(cls, *args, **kwargs):
            seen.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(SystemModel, "build", classmethod(counting_build))
        scalar = run_experiment(
            "fig7", self.CONFIG, roster=("BlueScale",), executor=SCALAR
        )
        # one model per (trial, utilization), all composed on the oracle
        assert len(seen) == 4
        assert analysis_oracle["select_interface"] > 0
        assert scalar.analysis_ratio == result.analysis_ratio
        assert scalar.success_ratio == result.success_ratio
