"""Unit tests for the runtime's spec, seeding, and metrics layers."""

import pickle
import random

import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    MetricSet,
    TrialSpec,
    derive_seeds,
)


class TestTrialSpec:
    def test_make_sorts_params(self):
        spec = TrialSpec.make("e", 0, 1, zeta=1, alpha=2)
        assert [name for name, _ in spec.params] == ["alpha", "zeta"]

    def test_param_lookup(self):
        spec = TrialSpec.make("e", 0, 1, x=42)
        assert spec.param("x") == 42
        with pytest.raises(ConfigurationError):
            spec.param("missing")

    def test_specs_are_picklable(self):
        from repro.experiments.fig6 import Fig6Config

        spec = TrialSpec.make("fig6", 3, 99, config=Fig6Config(), names=("a",))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.param("config") == Fig6Config()

    def test_client_seed_distinct_per_client(self):
        spec = TrialSpec.make("e", 0, 7)
        assert spec.client_seed(0) != spec.client_seed(1)
        assert random.Random(spec.client_seed(0)).random() != random.Random(
            spec.client_seed(1)
        ).random()

    def test_sim_backend_default_is_the_library_default(self):
        """The literal on the dataclass and the default of a
        ``backend=None`` library call are one choice, kept in step."""
        from repro.sim.backend import resolve_sim_backend

        spec = TrialSpec.make("e", 0, 1)
        assert spec.sim_backend == resolve_sim_backend(None) == "batched"

    def test_unknown_sim_backend_rejected_at_construction(self):
        import dataclasses

        with pytest.raises(ConfigurationError, match="sim backend"):
            TrialSpec("e", 0, 1, sim_backend="simd")
        with pytest.raises(ConfigurationError, match="sim backend"):
            dataclasses.replace(TrialSpec.make("e", 0, 1), sim_backend="simd")

    def test_frozen_and_hashable(self):
        import dataclasses

        spec = TrialSpec.make("e", 0, 1, x=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sim_backend = "scalar"
        assert len({spec, TrialSpec.make("e", 0, 1, x=1)}) == 1


class TestSeeding:
    def test_streams_deterministic(self):
        assert derive_seeds("s", 5) == derive_seeds("s", 5)
        assert derive_seeds("a", 5) != derive_seeds("b", 5)

    def test_prefix_property(self):
        assert derive_seeds("s", 8)[:3] == derive_seeds("s", 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_seeds("s", -1)


class TestMetricSet:
    def test_lookup_and_contains(self):
        ms = MetricSet(scalars={"a/x": 1.0})
        assert ms["a/x"] == 1.0
        assert "a/x" in ms and "a/y" not in ms
        with pytest.raises(ConfigurationError):
            ms["a/y"]

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricSet(scalars={"a": "high"})
        with pytest.raises(ConfigurationError):
            MetricSet(scalars={"a": True})

    def test_merge_disjoint(self):
        merged = MetricSet(scalars={"a": 1.0}).merged_with(
            MetricSet(scalars={"b": 2.0})
        )
        assert merged.as_dict() == {"a": 1.0, "b": 2.0}

    def test_merge_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricSet(scalars={"a": 1.0}).merged_with(
                MetricSet(scalars={"a": 2.0})
            )

    def test_experiment_results_expose_metric_sets(self):
        from repro.experiments import run_experiment
        from repro.experiments.fig6 import Fig6Config

        result = run_experiment(
            "fig6",
            Fig6Config(trials=1, horizon=3_000, drain=1_000),
            roster=("BlueTree",),
        )
        ms = result.metric_set()
        assert "BlueTree/miss" in ms and "BlueTree/blocking" in ms
