"""Churn experiment: spec determinism, trial smoke, reducer, rendering."""

import pickle

import pytest

from repro.analysis.cache import DISABLED
from repro.analysis.model import SystemModel
from repro.core.interconnect import BlueScaleInterconnect
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import churn, run_experiment
from repro.experiments.churn import (
    CHURN_POLICIES,
    ChurnConfig,
    ChurnResult,
    PolicyChurn,
    build_churn_specs,
    format_churn,
    reduce_churn,
    run_churn_trial,
)
from repro.experiments.factory import BLUESCALE_SEARCH, traffic_generators
from repro.runtime.executor import TrialOutcome
from repro.runtime.metrics import MetricSet
from repro.scenarios import ScenarioDriver, replay_plan
from repro.soc import SoCSimulation
from repro.tasks.taskset import TaskSet

from ..analysis import oracle

SMOKE = ChurnConfig(n_clients=8, trials=1, horizon=3_000, drain=1_500)


@pytest.fixture(scope="module")
def smoke_metrics():
    (spec,) = build_churn_specs(SMOKE)
    return run_churn_trial(spec)


class TestConfigAndSpecs:
    def test_specs_are_deterministic_and_picklable(self):
        a = build_churn_specs(SMOKE)
        b = build_churn_specs(SMOKE)
        assert [s.seed for s in a] == [s.seed for s in b]
        assert pickle.loads(pickle.dumps(a[0])).seed == a[0].seed
        assert a[0].param("config") == SMOKE

    def test_seed_changes_specs(self):
        a = build_churn_specs(SMOKE)
        b = build_churn_specs(
            ChurnConfig(
                n_clients=8, trials=1, horizon=3_000, drain=1_500, seed=1
            )
        )
        assert a[0].seed != b[0].seed

    def test_joiner_ids_are_the_top_clients(self):
        assert SMOKE.joiner_ids == (6, 7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(joiners=0)
        with pytest.raises(ConfigurationError):
            ChurnConfig(n_clients=4, joiners=3)
        with pytest.raises(ConfigurationError):
            ChurnConfig(utilization_low=0.5, utilization_high=0.4)


class TestTrial:
    def test_all_policies_report_and_transients_hold(self, smoke_metrics):
        for policy in CHURN_POLICIES:
            assert f"{policy}/victim_miss" in smoke_metrics
            assert f"{policy}/reconfig_work" in smoke_metrics
            trace = smoke_metrics.tags[f"{policy}/trace"]
            assert len(trace) == 64 and int(trace, 16) >= 0
        assert smoke_metrics["BlueScale/transient_violations"] == 0.0
        assert smoke_metrics["BlueScale/events_applied"] >= 1

    def test_bluescale_work_is_path_local(self, smoke_metrics):
        """Per applied event BlueScale reprograms O(log n) ports while
        the dynamic-regulation baseline recomputes all n budgets."""
        applied = smoke_metrics["BlueScale/events_applied"]
        if applied:
            bluescale = smoke_metrics["BlueScale/reconfig_work"] / applied
            assert bluescale < SMOKE.n_clients
        dyn_applied = smoke_metrics["AXI-dynamic/events_applied"]
        if dyn_applied:
            dynamic = smoke_metrics["AXI-dynamic/reconfig_work"] / dyn_applied
            assert dynamic == SMOKE.n_clients
        assert smoke_metrics["AXI-static/reconfig_work"] == 0.0

    def test_simulated_gate_decides_like_the_replay(self):
        """The simulated BlueScale gate and the analysis-only replay are
        one event → decision path: on trial 0's plan they commit the
        same events, with the same transient windows, and the fabric
        reprograms exactly the ports each replayed transition counts."""
        (spec,) = build_churn_specs(SMOKE)
        base, plan = churn._churn_workload(spec)
        interconnect = BlueScaleInterconnect(SMOKE.n_clients)
        model = SystemModel.build(
            interconnect.topology, base, config=BLUESCALE_SEARCH
        )
        interconnect.configure_from_model(model)
        programmed = []
        apply = interconnect.apply_composition

        def recording(result, cycle=0):
            programmed.append(apply(result, cycle))
            return programmed[-1]

        interconnect.apply_composition = recording
        gate = churn._BlueScaleGate(model.session(), interconnect)
        ports = {c: base.get(c, TaskSet()) for c in range(SMOKE.n_clients)}
        SoCSimulation(
            traffic_generators(spec, ports),
            interconnect,
            scenario=ScenarioDriver(plan, admission=gate),
        ).run(SMOKE.horizon, drain=SMOKE.drain)

        replayed = [
            event
            for event in replay_plan(model.session(), plan)
            if event.applied
        ]
        assert replayed
        assert gate.transients == [event.transient for event in replayed]
        assert programmed == [
            event.transient.reprogrammed_ports for event in replayed
        ]
        assert gate.ports_reprogrammed == sum(programmed)

    def test_replay_matches_the_scalar_oracle(self):
        """Trial 0 of ``repro churn --trials 2 --horizon 4000 --verify``
        replays to the same decisions and transient windows on a model
        built and replayed on the test oracle as on the one engine."""
        spec = build_churn_specs(ChurnConfig(trials=2, horizon=4_000))[0]
        base, plan = churn._churn_workload(spec)
        topology = BlueScaleInterconnect(spec.param("config").n_clients).topology

        def replay(cache):
            model = SystemModel.build(
                topology, base, config=BLUESCALE_SEARCH, cache=cache
            )
            return [
                (
                    event.decision.admitted,
                    event.decision.committed,
                    event.decision.composition.interfaces,
                    event.decision.witness,
                    event.transient,
                )
                for event in replay_plan(model.session(), plan)
            ]

        with oracle.installed() as calls:
            expected = replay(DISABLED)
        assert calls["select_interface"] > 0 and calls["port_wcrts"] > 0
        assert sum(transient is not None for *_, transient in expected) >= 2
        assert replay(None) == expected

    def test_trial_is_deterministic(self, smoke_metrics):
        (spec,) = build_churn_specs(SMOKE)
        again = run_churn_trial(spec)
        assert again.scalars == smoke_metrics.scalars
        assert again.tags == smoke_metrics.tags


def _outcome(metrics, error=None):
    (spec,) = build_churn_specs(SMOKE)
    return TrialOutcome(spec=spec, metrics=metrics, seconds=0.0, error=error)


class TestReduceAndRender:
    def test_reduce_folds_and_digests(self, smoke_metrics):
        result = reduce_churn(
            SMOKE,
            CHURN_POLICIES,
            [_outcome(smoke_metrics), _outcome(smoke_metrics)],
        )
        bluescale = result.metrics["BlueScale"]
        assert len(bluescale.victim_miss) == 2
        assert len(result.campaign_digest) == 64
        # same outcomes -> same campaign digest (the CI diff anchor)
        again = reduce_churn(
            SMOKE,
            CHURN_POLICIES,
            [_outcome(smoke_metrics), _outcome(smoke_metrics)],
        )
        assert again.campaign_digest == result.campaign_digest

    def test_digest_tracks_traces(self, smoke_metrics):
        tweaked = MetricSet(
            scalars=dict(smoke_metrics.scalars),
            tags={**smoke_metrics.tags, "BlueScale/trace": "0" * 64},
        )
        a = reduce_churn(SMOKE, CHURN_POLICIES, [_outcome(smoke_metrics)])
        b = reduce_churn(SMOKE, CHURN_POLICIES, [_outcome(tweaked)])
        assert a.campaign_digest != b.campaign_digest

    def test_failed_trial_fails_the_run(self, monkeypatch):
        """A raising trial raises with its own error before the reducer
        could fold the others."""

        def boom(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(churn, "run_churn_trial", boom)
        with pytest.raises(
            SimulationError, match="1 of 1 trial.*RuntimeError: boom"
        ):
            run_experiment("churn", SMOKE)

    def test_metric_set_and_format(self, smoke_metrics):
        result = reduce_churn(SMOKE, CHURN_POLICIES, [_outcome(smoke_metrics)])
        folded = result.metric_set()
        assert folded["transient_violations"] == 0.0
        assert folded.tags["campaign_digest"] == result.campaign_digest
        rendered = format_churn(result)
        assert "campaign digest" in rendered
        assert "transient-safe" in rendered
        for policy in CHURN_POLICIES:
            assert policy in rendered

    def test_cli_verify_exit_code(self, smoke_metrics, monkeypatch):
        """`repro churn --verify` exits 1 exactly when a monitored
        deadline was missed inside a reconfiguration transient."""
        from repro.cli import main
        from repro.experiments import registry

        clean = reduce_churn(SMOKE, CHURN_POLICIES, [_outcome(smoke_metrics)])

        def fake_run(name, config, **kwargs):
            assert name == "churn"
            return clean

        monkeypatch.setattr(registry, "run_experiment", fake_run)
        assert main(["churn", "--verify"]) == 0
        clean.metrics["BlueScale"].transient_violations = 1
        assert main(["churn", "--verify"]) == 1
        assert main(["churn"]) == 0

    def test_format_flags_violations(self):
        metrics = {name: PolicyChurn(name) for name in CHURN_POLICIES}
        metrics["BlueScale"].transient_violations = 2
        result = ChurnResult(
            config=SMOKE, metrics=metrics, campaign_digest="ab" * 32
        )
        assert result.total_transient_violations == 2
        assert "FAIL" in format_churn(result)
