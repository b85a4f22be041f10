"""Tests for the per-client fairness extension experiment."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.fairness import (
    FairnessConfig,
    FairnessOutcome,
    format_fairness,
    jain_index,
)


class TestJainIndex:
    def test_perfectly_even(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog(self):
        # one active of n: index -> 1/n
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_bounded(self):
        values = [1.0, 2.0, 3.0, 10.0]
        index = jain_index(values)
        assert 1 / len(values) <= index <= 1.0

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_index([])

    def test_scale_invariant(self):
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(
            jain_index([10.0, 20.0, 30.0])
        )


class TestFairnessExperiment:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return run_experiment(
            "fairness",
            FairnessConfig(seeds=(1,), horizon=8_000),
            roster=("BlueScale", "BlueTree", "GSMTree-TDM"),
        )

    def test_one_outcome_per_design(self, outcomes):
        assert [o.interconnect for o in outcomes] == [
            "BlueScale",
            "BlueTree",
            "GSMTree-TDM",
        ]

    def test_metrics_in_range(self, outcomes):
        for o in outcomes:
            assert 0.0 < o.jain_response <= 1.0
            assert o.worst_best_ratio >= 1.0
            assert 0.0 <= o.miss_concentration <= 1.0

    def test_bluescale_misses_nothing_despite_shaped_responses(self, outcomes):
        """BlueScale shapes responses proportionally to demand (low Jain
        on means) but concentrates misses on nobody — the fairness that
        matters for deadlines."""
        blue = next(o for o in outcomes if o.interconnect == "BlueScale")
        assert blue.miss_concentration == 0.0

    def test_tdm_starves_heavy_clients(self, outcomes):
        """Equal-share TDM gives wildly uneven response ratios under a
        heterogeneous workload."""
        tdm = next(o for o in outcomes if o.interconnect == "GSMTree-TDM")
        others = [o for o in outcomes if o.interconnect != "GSMTree-TDM"]
        assert tdm.worst_best_ratio > max(o.worst_best_ratio for o in others)

    def test_formatting(self, outcomes):
        text = format_fairness(outcomes)
        assert "Jain" in text and "BlueScale" in text

    def test_outcome_is_frozen(self):
        outcome = FairnessOutcome("X", 1.0, 1.0, 0.0)
        with pytest.raises(AttributeError):
            outcome.jain_response = 0.5
