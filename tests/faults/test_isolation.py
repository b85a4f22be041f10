"""Isolation experiment acceptance: the ISSUE's headline claims.

* BlueScale victims' deadline-miss ratio stays at its fault-free level
  while at least one baseline interconnect measurably degrades under
  the same rogue client;
* every BlueScale victim response in the faulted runs stays within the
  fault-oblivious analytical bounds (zero violations across trials);
* the campaign replays identically on serial and parallel executors;
* a raising trial fails the whole run with its own error, and the
  report flags bound violations as a failure.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments import isolation, run_experiment
from repro.experiments.isolation import (
    ISOLATION_INTERCONNECTS,
    DesignIsolation,
    IsolationConfig,
    IsolationResult,
    build_isolation_specs,
    format_isolation,
    run_isolation_trial,
)
from repro.runtime import ParallelExecutor, SerialExecutor

CONFIG = IsolationConfig(trials=3)

#: for the tests that are about the isolation claim, the executors or
#: the reducer rather than the batch seam (TestBackends is the seam's)
SCALAR = "scalar"


@pytest.fixture(scope="module")
def campaign():
    return run_experiment(
        "isolation", CONFIG, executor=SerialExecutor(SCALAR)
    )


class TestIsolationClaim:
    def test_bluescale_victims_unmoved_by_the_aggressor(self, campaign):
        bluescale = campaign.metrics["BlueScale"]
        assert bluescale.miss_fault == bluescale.miss_base  # exact, per trial
        assert not bluescale.degraded
        assert bluescale.mean_isolation == 1.0

    def test_some_baseline_degrades(self, campaign):
        baselines = [
            campaign.metrics[name]
            for name in ISOLATION_INTERCONNECTS
            if name != "BlueScale"
        ]
        assert any(m.degraded for m in baselines)
        # the mux-tree's FIFO arbitration is the known victim
        assert campaign.metrics["BlueTree"].degraded

    def test_bluescale_bounds_hold_in_every_trial(self, campaign):
        bluescale = campaign.metrics["BlueScale"]
        assert bluescale.bounds_checked_trials == CONFIG.trials
        assert bluescale.bound_violations == 0
        assert campaign.total_bound_violations == 0
        # only BlueScale carries analytical bounds
        for name in ISOLATION_INTERCONNECTS:
            if name != "BlueScale":
                assert campaign.metrics[name].bounds_checked_trials == 0

    def test_bluescale_bounds_hold_on_a_single_se(self):
        """Four clients share one SE, so no deeper level's pessimism
        hides the port buffer's priority inversion: a job released
        behind two later-deadline requests in its 2-slot buffer waits
        for one of them (observed 80 against a bound of 78 without the
        blocking term)."""
        result = run_experiment(
            "isolation",
            IsolationConfig(n_clients=4, trials=1),
            roster=("BlueScale",),
            executor=SerialExecutor(SCALAR),
        )
        bluescale = result.metrics["BlueScale"]
        assert bluescale.bounds_checked_trials == 1
        assert bluescale.bound_violations == 0

    def test_report_reads_clean(self, campaign):
        report = format_isolation(campaign)
        assert "BlueScale" in report
        assert "within fault-oblivious analytical bounds" in report
        assert "FAIL" not in report


class TestReplay:
    def test_parallel_matches_serial_exactly(self):
        config = IsolationConfig(trials=2)
        specs = build_isolation_specs(config)
        serial = SerialExecutor(SCALAR).map(run_isolation_trial, specs)
        parallel = ParallelExecutor(
            workers=2, chunk_size=1, sim_backend=SCALAR
        ).map(run_isolation_trial, specs)
        assert len(serial) == len(parallel) == 2
        for s, p in zip(serial, parallel):
            assert s.spec == p.spec
            assert s.metrics.scalars == p.metrics.scalars
            assert s.metrics.tags == p.metrics.tags


class TestBackends:
    """The campaign is backend-independent, bit for bit.

    ``run_isolation_trial`` carries a ``batch`` attribute, so the
    executors ship whole chunks through ``run_many`` — under the
    batched backend the rogue-burst fault plans compile into the SoA
    request schedule.  Every scalar (miss ratios, isolation scores,
    rogue counters, analytical-bound verdicts) and every tag
    (including the per-design base/fault trace digests the fold
    records) must be identical to a trial-by-trial scalar run.
    """

    def test_batched_campaign_identical_to_scalar(self, kernel_groups):
        config = IsolationConfig(trials=2, horizon=2_000, drain=800)
        specs = build_isolation_specs(config)
        scalar = [run_isolation_trial(spec) for spec in specs]
        assert not kernel_groups, "the scalar reference ran on the kernels"
        batched = SerialExecutor("batched").map(
            run_isolation_trial, specs
        )
        # 4 designs x (baseline + faulted) x 2 trials, all on the kernels
        assert sum(kernel_groups) == 16
        for reference, outcome in zip(scalar, batched):
            assert not outcome.failed
            assert outcome.metrics.scalars == reference.scalars
            assert outcome.metrics.tags == reference.tags

    def test_fold_records_trace_digests(self):
        spec = build_isolation_specs(IsolationConfig(trials=1))[0]
        metrics = run_isolation_trial(spec)
        for name in ISOLATION_INTERCONNECTS:
            assert metrics.tags[f"{name}/trace_base"]
            assert metrics.tags[f"{name}/trace_fault"]
            # the aggressor changes the completion trace everywhere
            assert (
                metrics.tags[f"{name}/trace_base"]
                != metrics.tags[f"{name}/trace_fault"]
            )


class TestRobustness:
    def test_failed_trial_fails_the_run(self, monkeypatch):
        """One raising trial of two: the run raises with that trial's
        error instead of folding the healthy one alone."""

        def second_fails(spec):
            if spec.index == 1:
                raise ValueError("boom")
            return run_isolation_trial(spec)

        monkeypatch.setattr(isolation, "run_isolation_trial", second_fails)
        with pytest.raises(
            SimulationError, match="1 of 2 trial.*ValueError: boom"
        ):
            run_experiment(
                "isolation",
                IsolationConfig(trials=2, horizon=2_000, drain=800),
                roster=("BlueScale",),
                executor=SerialExecutor(SCALAR),
            )

    def test_violations_flagged_as_failure(self):
        config = IsolationConfig(trials=1)
        metrics = {"BlueScale": DesignIsolation("BlueScale")}
        metrics["BlueScale"].bound_violations = 2
        metrics["BlueScale"].bounds_checked_trials = 1
        result = IsolationResult(config=config, metrics=metrics)
        assert result.total_bound_violations == 2
        report = format_isolation(result)
        assert "FAIL: 2 analytical-bound violation(s)" in report

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            IsolationConfig(aggressor=9, n_clients=8)
        with pytest.raises(ConfigurationError):
            IsolationConfig(horizon=IsolationConfig.rogue_start)
        with pytest.raises(ConfigurationError):
            IsolationConfig(utilization_low=0.9, utilization_high=0.5)


class TestCli:
    def test_faults_subcommand_smoke(self, capsys, kernel_groups):
        """Also the CLI's default-path smoke: no backend flag means the
        lock-step kernels, whatever ran in this process before."""
        from repro.cli import main

        code = main(
            ["faults", "--trials", "1", "--clients", "6", "--seed", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert sum(kernel_groups) == 8  # 4 designs x (baseline + faulted)
        assert len(kernel_groups) == 1  # one shared client roster
        assert "Isolation" in out
        assert "BlueScale" in out
