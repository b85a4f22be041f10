"""The trial's analysis backend reaches the holistic response bound.

A trial's :class:`~repro.runtime.EngineConfig` names its analysis
backend, and the trial's one analysis context carries it to every
analysis the trial runs — the composition that programs BlueScale *and*
the holistic bounds the isolation verdict and the churn transients are
checked against.  Under ``analysis_backend="scalar"`` the vectorized
engine must therefore never run; a spy on its Theorem-1 scan
(:func:`repro.analysis.vectorized.first_violation`) counts the calls.

The holistic bound itself has one path per backend: per-task
:func:`~repro.analysis.response_time.wcrt_on_interface` fixpoints under
``"scalar"``, one :func:`~repro.analysis.vectorized.port_wcrts` array
fixpoint per port under ``"vectorized"``.  Exact call counters on both
check that neither backend ever takes the other's path.
"""

from dataclasses import replace

import pytest

import repro.analysis.response_time as response_time
import repro.analysis.vectorized as vectorized
from repro.analysis import SystemModel
from repro.experiments.isolation import (
    IsolationConfig,
    build_isolation_specs,
    run_isolation_trial,
)
from repro.runtime import EngineConfig
from repro.scenarios import ScenarioEvent, ScenarioKind, ScenarioPlan, replay_plan
from repro.tasks import PeriodicTask


def _spy(monkeypatch, module, name):
    """Record every call of ``module.name`` (still calling through)."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture
def vectorized_scans(monkeypatch):
    """Every call of the vectorized engine's Theorem-1 scan, recorded."""
    return _spy(monkeypatch, vectorized, "first_violation")


@pytest.fixture
def bound_paths(monkeypatch):
    """Calls of each backend's holistic-bound kernel, by backend."""
    return {
        "scalar": _spy(monkeypatch, response_time, "wcrt_on_interface"),
        "vectorized": _spy(monkeypatch, vectorized, "port_wcrts"),
    }


def _assert_one_path(bound_paths, backend):
    """Only ``backend``'s kernel ran — and it did run."""
    other = "vectorized" if backend == "scalar" else "scalar"
    assert len(bound_paths[other]) == 0
    assert bound_paths[backend]


def _isolation_spec(analysis_backend: str):
    config = IsolationConfig(trials=1, horizon=1_500, drain=600)
    (spec,) = build_isolation_specs(config, interconnects=("BlueScale",))
    engine = EngineConfig(sim_backend="scalar", analysis_backend=analysis_backend)
    return replace(spec, engine=engine)


def _join_plan() -> ScenarioPlan:
    return ScenarioPlan(
        (
            ScenarioEvent(
                kind=ScenarioKind.CLIENT_JOIN,
                cycle=100,
                client_id=3,
                tasks=(PeriodicTask(period=1000, wcet=1, name="small"),),
            ),
        )
    )


class TestIsolationTrial:
    def test_scalar_trial_never_runs_the_vectorized_engine(
        self, vectorized_scans, bound_paths
    ):
        metrics = run_isolation_trial(_isolation_spec("scalar"))
        assert metrics.scalars["BlueScale/bounds_checked"] == 1.0
        assert vectorized_scans == []
        _assert_one_path(bound_paths, "scalar")

    def test_vectorized_trial_runs_it(self, vectorized_scans, bound_paths):
        """The spy sees the path at all (guards the test above)."""
        run_isolation_trial(_isolation_spec("vectorized"))
        assert vectorized_scans
        _assert_one_path(bound_paths, "vectorized")

    def test_verdict_is_backend_independent(self):
        scalar = run_isolation_trial(_isolation_spec("scalar"))
        fast = run_isolation_trial(_isolation_spec("vectorized"))
        assert scalar.scalars == fast.scalars
        assert scalar.tags == fast.tags


class TestReplayTransients:
    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_transient_bound_runs_on_the_sessions_backend(
        self, backend, vectorized_scans, bound_paths
    ):
        model = SystemModel.from_seed(8, utilization=0.3, seed=7, backend=backend)
        (replayed,) = replay_plan(model.session(), _join_plan())
        assert replayed.transient is not None
        assert replayed.transient.analytic
        assert bool(vectorized_scans) == (backend == "vectorized")
        _assert_one_path(bound_paths, backend)
