"""The scalar analysis oracle agrees with the one engine on real trials.

Every trial runner analyses on ``AnalysisContext()``, the vectorized
engine.  The scalar engine is kept only as the tests' oracle: these
tests build an isolation trial once with the runner's own builder, run
its simulations, and redo its analysis — the composition that programs
BlueScale *and* the holistic bounds the isolation verdict is checked
against — under ``AnalysisContext(backend="scalar")``.

Exact call counters check that each context takes only its own path:
the vectorized Theorem-1 scan
(:func:`repro.analysis.vectorized.first_violation`) and the per-port
array fixpoint (:func:`~repro.analysis.vectorized.port_wcrts`) never
run under the scalar context, and the per-task scalar fixpoint
(:func:`~repro.analysis.response_time.wcrt_on_interface`) never runs
under the default one — neither in a whole isolation trial nor in a
transient replay.
"""

import pytest

import repro.analysis.response_time as response_time
import repro.analysis.vectorized as vectorized
from repro.analysis import SystemModel
from repro.analysis.cache import AnalysisCache
from repro.analysis.composition import compose
from repro.analysis.context import AnalysisContext
from repro.experiments.factory import bluescale_context
from repro.experiments.isolation import (
    IsolationConfig,
    _isolation_build,
    build_isolation_specs,
    run_isolation_trial,
)
from repro.faults.verify import verify_isolation
from repro.runtime import TrialSpec
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


def _isolation_spec() -> TrialSpec:
    config = IsolationConfig(trials=1, horizon=1_500, drain=600)
    (spec,) = build_isolation_specs(config, interconnects=("BlueScale",))
    return spec


@pytest.fixture(scope="module")
def isolation_trial():
    """One BlueScale isolation trial, built once by the runner's own
    builder and simulated on the scalar engine: ``(config, tasksets,
    faulted simulation)``."""
    spec = _isolation_spec()
    (tasksets, _, entries), sims, horizon, drain = _isolation_build(spec)
    for sim in sims:
        sim.run(horizon, drain=drain)
    ((_, _, fault_sim),) = entries
    return spec.param("config"), tasksets, fault_sim


def _analyse(trial, backend: str):
    """The trial's composition and isolation verdict, redone on a
    fresh cache under ``backend``."""
    config, tasksets, fault_sim = trial
    ctx = AnalysisContext(backend=backend, cache=AnalysisCache())
    composition = compose(
        fault_sim.interconnect.topology, tasksets, ctx=bluescale_context(ctx)
    )
    verdict = verify_isolation(
        fault_sim.clients,
        tasksets,
        composition,
        end_cycle=config.horizon,
        victims=set(range(config.n_clients)) - {config.aggressor},
        ctx=ctx,
    )
    return composition, verdict


class TestIsolationTrial:
    def test_scalar_trial_never_runs_the_vectorized_engine(
        self, isolation_trial, vectorized_scans, bound_paths
    ):
        _, verdict = _analyse(isolation_trial, "scalar")
        assert verdict.bounds_checked
        assert vectorized_scans == []
        _assert_one_path(bound_paths, "scalar")

    def test_vectorized_trial_runs_it(self, vectorized_scans, bound_paths):
        """A whole isolation trial runs the one engine only — zero
        per-task scalar fixpoints (and the spies see the path at all,
        which guards the test above)."""
        spec = _isolation_spec()
        metrics = run_isolation_trial(spec)
        assert metrics.scalars["BlueScale/bounds_checked"] == 1.0
        assert vectorized_scans
        _assert_one_path(bound_paths, "vectorized")

    def test_verdict_is_backend_independent(self, isolation_trial):
        """Composition and verdict under the scalar oracle equal the
        default engine's, and both equal what the trial programmed."""
        scalar_composition, scalar_verdict = _analyse(isolation_trial, "scalar")
        composition, verdict = _analyse(isolation_trial, "vectorized")
        programmed = isolation_trial[2].interconnect.composition
        for other in (composition, programmed):
            assert scalar_composition.interfaces == other.interfaces
            assert scalar_composition.schedulable == other.schedulable
            assert scalar_composition.root_bandwidth == other.root_bandwidth
        assert scalar_verdict.bounds_checked
        assert scalar_verdict == verdict


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
