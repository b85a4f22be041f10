"""Tests for the scalability-sweep extension experiment."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.scalability_sweep import (
    ScalabilityConfig,
    format_scalability,
)
from repro.runtime import SerialExecutor

#: a handful of one-trial groups is far below the lock-step break-even
SCALAR = SerialExecutor("scalar")


class TestScalabilitySweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            "scalability_sweep",
            ScalabilityConfig(
                client_counts=(4, 16),
                utilization=0.4,
                seeds=(1,),
                with_admission_ceiling=False,
            ),
            roster=("BlueScale", "BlueTree"),
            executor=SCALAR,
        )

    def test_point_per_size_and_design(self, result):
        assert len(result.points) == 4
        assert result.sizes() == [4, 16]

    def test_series_extraction(self, result):
        miss = result.series("miss_ratio")
        assert set(miss) == {"BlueScale", "BlueTree"}
        assert all(len(values) == 2 for values in miss.values())

    def test_metrics_well_formed(self, result):
        for point in result.points:
            assert 0.0 <= point.miss_ratio <= 1.0
            assert point.mean_response > 0

    def test_formatting_without_ceiling(self, result):
        text = format_scalability(result)
        assert "miss ratio" in text
        assert "admission ceiling" not in text

    def test_admission_ceiling_recorded_when_requested(self):
        result = run_experiment(
            "scalability_sweep",
            ScalabilityConfig(
                client_counts=(4,),
                utilization=0.3,
                seeds=(1,),
                with_admission_ceiling=True,
            ),
            roster=("BlueScale",),
            executor=SCALAR,
        )
        assert 4 in result.admission_ceiling
        assert result.admission_ceiling[4] > 0.3
        assert "admission ceiling" in format_scalability(result)

    def test_ceiling_searches_like_the_simulated_bluescale(
        self, monkeypatch
    ):
        """The in-process ceiling search runs on the one analysis
        engine (no ``backend=``) with the simulated BlueScale's search
        width, on either sim backend.  One BlueTree trial: no analysis
        of its own to record."""
        from repro.experiments import scalability_sweep

        seen = []
        build = scalability_sweep.SystemModel.build

        def recording(*args, config=None, **kwargs):
            assert config is scalability_sweep.BLUESCALE_SEARCH
            seen.append(kwargs.get("backend"))
            return build(*args, config=config, **kwargs)

        monkeypatch.setattr(scalability_sweep.SystemModel, "build", recording)
        for sim_backend in (None, "scalar"):
            run_experiment(
                "scalability_sweep",
                ScalabilityConfig(client_counts=(4,), seeds=(1,)),
                roster=("BlueTree",),
                executor=SerialExecutor(sim_backend),
            )
        assert seen == [None, None]

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            ScalabilityConfig(client_counts=())

    def test_zero_trial_sweep_rejected(self):
        """A sweep with no seeds or no designs runs no trial; both are
        rejected up front."""
        with pytest.raises(ConfigurationError, match="seed"):
            ScalabilityConfig(client_counts=(4,), seeds=())
        with pytest.raises(ConfigurationError, match="roster"):
            run_experiment(
                "scalability_sweep",
                ScalabilityConfig(client_counts=(4,)),
                roster=(),
                executor=SCALAR,
            )
