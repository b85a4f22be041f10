"""The test oracle agrees with the one analysis engine on real trials.

Every trial runner analyses on ``AnalysisContext()``, the engine.  These
tests build an isolation trial once with the runner's own builder, run
its simulations, and redo its analysis — the composition that programs
BlueScale *and* the holistic bounds the isolation verdict is checked
against — on the exact test oracle (:mod:`tests.analysis.oracle`,
installed over the pipeline's two engine seams).

Exact call counters check that each side takes only its own path: the
engine's Theorem-1 scan (:func:`repro.analysis.vectorized.first_violation`),
lock-step verdicts (:func:`~repro.analysis.vectorized.grid_verdicts`)
and per-port array fixpoint (:func:`~repro.analysis.vectorized.port_wcrts`)
never run under the oracle, and the oracle's selection and port bounds
never run on the default path — neither in a whole isolation trial nor
in a transient replay.
"""

from contextlib import nullcontext

import pytest

import repro.analysis.vectorized as vectorized
from repro.analysis import SystemModel
from repro.analysis.cache import DISABLED, AnalysisCache
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

from ..analysis import oracle


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
def paths(monkeypatch):
    """Every call of the engine's kernels and of the oracle's, by side."""
    return {
        "engine": {
            name: _spy(monkeypatch, vectorized, name)
            for name in ("first_violation", "grid_verdicts", "port_wcrts")
        },
        "oracle": {
            name: _spy(monkeypatch, oracle, name)
            for name in ("select", "port_wcrts")
        },
    }


def _assert_one_path(paths, side):
    """Only ``side``'s kernels ran — and its port bounds did run."""
    other = "engine" if side == "oracle" else "oracle"
    assert all(calls == [] for calls in paths[other].values())
    assert paths[side]["port_wcrts"]


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


def _analyse(trial, side: str):
    """The trial's composition and isolation verdict, redone on the
    engine (with a fresh cache) or on the oracle (with none)."""
    config, tasksets, fault_sim = trial
    on_oracle = side == "oracle"
    ctx = AnalysisContext(cache=DISABLED if on_oracle else AnalysisCache())
    with oracle.installed() if on_oracle else nullcontext():
        composition = compose(
            fault_sim.interconnect.topology,
            tasksets,
            ctx=bluescale_context(ctx),
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
        self, isolation_trial, paths
    ):
        _, verdict = _analyse(isolation_trial, "oracle")
        assert verdict.bounds_checked
        assert paths["oracle"]["select"]
        _assert_one_path(paths, "oracle")

    def test_vectorized_trial_runs_it(self, paths):
        """A whole isolation trial runs the one engine only — zero
        oracle calls (and the spies see the path at all, which guards
        the test above)."""
        spec = _isolation_spec()
        metrics = run_isolation_trial(spec)
        assert metrics.scalars["BlueScale/bounds_checked"] == 1.0
        assert paths["engine"]["first_violation"]
        _assert_one_path(paths, "engine")

    def test_verdict_is_backend_independent(self, isolation_trial):
        """Composition and verdict on the test oracle equal the
        engine's, and both equal what the trial programmed."""
        scalar_composition, scalar_verdict = _analyse(isolation_trial, "oracle")
        composition, verdict = _analyse(isolation_trial, "engine")
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
    @pytest.mark.parametrize("side", ["oracle", "engine"])
    def test_transient_bound_runs_on_the_sessions_backend(self, side, paths):
        """A model built and replayed under the oracle bounds its
        transients on the oracle; one built on the engine, on it."""
        on_oracle = side == "oracle"
        with oracle.installed() if on_oracle else nullcontext():
            model = SystemModel.from_seed(
                8,
                utilization=0.3,
                seed=7,
                cache=DISABLED if on_oracle else None,
            )
            (replayed,) = replay_plan(model.session(), _join_plan())
        assert replayed.transient is not None
        assert replayed.transient.analytic
        assert bool(paths["engine"]["first_violation"]) == (side == "engine")
        _assert_one_path(paths, side)
