"""Executor contract tests: ordering, hooks, and the determinism
guarantee that a parallel run is bit-for-bit identical to a serial one
(the acceptance criterion of the trial-execution runtime)."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    FAILURE_METRIC,
    ExecutionHooks,
    MetricSet,
    ParallelExecutor,
    SerialExecutor,
    TrialSpec,
    make_executor,
)


def square_runner(spec: TrialSpec) -> MetricSet:
    """Module-level so the process pool can pickle it by reference."""
    return MetricSet(scalars={"value": float(spec.seed) ** 2})


def flaky_runner(spec: TrialSpec) -> MetricSet:
    """Raises on odd trial indices (module-level for pickling)."""
    if spec.index % 2 == 1:
        raise ValueError(f"trial {spec.index} exploded")
    return square_runner(spec)


def engine_probe_runner(spec: TrialSpec) -> MetricSet:
    """Reports the sim backend the executing process found on its spec."""
    return MetricSet(scalars={}, tags={"sim": spec.sim_backend})


#: not the default, so a worker that fell back to any default (its own
#: or the submitting process's) cannot report it
SCALAR = "scalar"


def make_specs(n):
    return [TrialSpec.make("toy", i, i) for i in range(n)]


class RecordingHooks(ExecutionHooks):
    def __init__(self):
        self.started = 0
        self.trials = []
        self.finished = 0

    def on_batch_start(self, specs):
        self.started += 1

    def on_trial_done(self, outcome, done, total):
        self.trials.append((outcome.spec.index, done, total))

    def on_batch_done(self, outcomes):
        self.finished += 1


class TestSerialExecutor:
    def test_results_in_spec_order(self):
        outcomes = SerialExecutor().map(square_runner, make_specs(5))
        assert [o.metrics["value"] for o in outcomes] == [0, 1, 4, 9, 16]
        assert [o.spec.index for o in outcomes] == list(range(5))

    def test_hooks_fire_in_order(self):
        hooks = RecordingHooks()
        SerialExecutor().map(square_runner, make_specs(3), hooks)
        assert hooks.started == 1 and hooks.finished == 1
        assert hooks.trials == [(0, 1, 3), (1, 2, 3), (2, 3, 3)]

    def test_plain_runner_hooks_fire_before_the_next_trial(self):
        """A runner without ``batch`` runs one spec per chunk, so a
        campaign's per-cell checkpoint is durable before the next cell
        starts (a kill mid-run loses at most the running cell)."""
        events = []

        def runner(spec):
            events.append(("run", spec.index))
            return square_runner(spec)

        class Hooks(ExecutionHooks):
            def on_trial_done(self, outcome, done, total):
                events.append(("done", outcome.spec.index))

        SerialExecutor().map(runner, make_specs(3), Hooks())
        assert events == [
            ("run", 0), ("done", 0), ("run", 1), ("done", 1),
            ("run", 2), ("done", 2),
        ]

    def test_trial_seconds_measured(self):
        outcomes = SerialExecutor().map(square_runner, make_specs(1))
        assert outcomes[0].seconds >= 0

    def test_runner_must_return_metric_set(self):
        with pytest.raises(ConfigurationError):
            SerialExecutor().map(lambda spec: {"raw": 1}, make_specs(1))

    def test_engine_stamped_or_left_alone(self):
        """``sim_backend=`` overwrites every spec's backend; ``None``
        keeps whatever each spec already carries; an unknown one is
        refused before any trial runs."""
        import dataclasses

        specs = make_specs(2)
        specs[1] = dataclasses.replace(specs[1], sim_backend=SCALAR)
        kept = SerialExecutor().map(engine_probe_runner, specs)
        assert [o.metrics.tags["sim"] for o in kept] == ["batched", "scalar"]
        stamped = SerialExecutor(SCALAR).map(engine_probe_runner, specs)
        assert [o.spec.sim_backend for o in stamped] == [SCALAR] * 2
        with pytest.raises(ConfigurationError, match="sim backend"):
            SerialExecutor("simd").map(engine_probe_runner, specs)


class TestFailureCapture:
    """A raising trial must not abort the batch (serial or parallel)."""

    def test_failure_becomes_structured_outcome(self):
        outcomes = SerialExecutor().map(flaky_runner, make_specs(4))
        assert len(outcomes) == 4
        assert [o.failed for o in outcomes] == [False, True, False, True]
        bad = outcomes[1]
        assert bad.error == "ValueError: trial 1 exploded"
        assert bad.metrics[FAILURE_METRIC] == 1.0
        assert bad.metrics.tags["error_type"] == "ValueError"
        assert bad.metrics.tags["trial"] == "1"
        # healthy trials are untouched
        assert outcomes[2].metrics["value"] == 4.0
        assert outcomes[2].error is None

    def test_ordering_preserved_with_failures(self):
        outcomes = SerialExecutor().map(flaky_runner, make_specs(6))
        assert [o.spec.index for o in outcomes] == list(range(6))

    def test_parallel_matches_serial_with_failures(self):
        serial = SerialExecutor().map(flaky_runner, make_specs(8))
        parallel = ParallelExecutor(2, chunk_size=2).map(
            flaky_runner, make_specs(8)
        )
        assert [o.failed for o in parallel] == [o.failed for o in serial]
        assert [o.error for o in parallel] == [o.error for o in serial]
        for left, right in zip(serial, parallel):
            assert left.metrics.scalars == right.metrics.scalars

    def test_hooks_still_fire_for_failed_trials(self):
        hooks = RecordingHooks()
        SerialExecutor().map(flaky_runner, make_specs(3), hooks)
        assert hooks.trials == [(0, 1, 3), (1, 2, 3), (2, 3, 3)]


class TestParallelExecutor:
    def test_too_few_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(1)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(2, chunk_size=0)

    def test_matches_serial_on_toy_runner(self):
        serial = SerialExecutor().map(square_runner, make_specs(9))
        parallel = ParallelExecutor(3, chunk_size=2).map(
            square_runner, make_specs(9)
        )
        assert [o.metrics for o in parallel] == [o.metrics for o in serial]
        assert [o.spec for o in parallel] == [o.spec for o in serial]

    def test_hooks_fire_in_submitting_process(self):
        hooks = RecordingHooks()
        ParallelExecutor(2).map(square_runner, make_specs(4), hooks)
        assert hooks.started == 1 and hooks.finished == 1
        assert [t[0] for t in hooks.trials] == [0, 1, 2, 3]

    def test_empty_batch(self):
        assert ParallelExecutor(2).map(square_runner, []) == []

    def test_engine_reaches_every_worker_inside_the_spec(self):
        """The executor's sim backend crosses the process boundary in
        the pickled spec — nothing is initialized in the worker, so this
        holds under fork, spawn and forkserver alike."""
        outcomes = ParallelExecutor(2, chunk_size=1, sim_backend=SCALAR).map(
            engine_probe_runner, make_specs(4)
        )
        assert [o.metrics.tags for o in outcomes] == [{"sim": "scalar"}] * 4
        assert [o.spec.sim_backend for o in outcomes] == [SCALAR] * 4

    def test_engine_survives_a_pickle_round_trip(self):
        import dataclasses
        import pickle

        spec = dataclasses.replace(make_specs(1)[0], sim_backend=SCALAR)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.sim_backend == SCALAR
        assert engine_probe_runner(clone).tags["sim"] == "scalar"


class TestMakeExecutor:
    def test_serial_for_one_or_none(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_above_one(self):
        executor = make_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3

    def test_engine_forwarded(self):
        for workers in (1, 2):
            assert make_executor(workers, SCALAR).sim_backend == SCALAR
            assert make_executor(workers).sim_backend is None


class TestParallelEqualsSerial:
    """Parallel ≡ serial, exact equality, on the real experiments."""

    def test_fig6_identical(self):
        from repro.experiments import run_experiment
        from repro.experiments.fig6 import Fig6Config

        config = Fig6Config(trials=3, horizon=4_000, drain=1_500)
        interconnects = ("BlueScale", "BlueTree")
        serial = run_experiment(
            "fig6",
            config,
            roster=interconnects,
            executor=SerialExecutor(SCALAR),
        )
        parallel = run_experiment(
            "fig6",
            config,
            roster=interconnects,
            executor=ParallelExecutor(2, sim_backend=SCALAR),
        )
        for name in interconnects:
            assert (
                parallel.metrics[name].miss_ratios
                == serial.metrics[name].miss_ratios
            )
            assert (
                parallel.metrics[name].blocking_means
                == serial.metrics[name].blocking_means
            )

    def test_fig7_identical(self):
        from repro.experiments import run_experiment
        from repro.experiments.fig7 import Fig7Config

        config = Fig7Config(
            trials=2, horizon=4_000, drain=1_500, utilizations=(0.4, 0.8)
        )
        interconnects = ("BlueScale", "GSMTree-TDM")
        serial = run_experiment(
            "fig7",
            config,
            roster=interconnects,
            executor=SerialExecutor(SCALAR),
        )
        parallel = run_experiment(
            "fig7",
            config,
            roster=interconnects,
            executor=ParallelExecutor(2, sim_backend=SCALAR),
        )
        assert parallel.success_ratio == serial.success_ratio


def batch_capable_runner(spec: TrialSpec) -> MetricSet:
    """Module-level batch-capable runner (picklable by reference)."""
    return square_runner(spec)


def _short_batch(specs) -> list[MetricSet]:
    # drops the last spec's metrics: a broken batch implementation
    return [square_runner(spec) for spec in specs[:-1]]


batch_capable_runner.batch = _short_batch


class TestBatchSeam:
    """The runner ``.batch`` attribute contract at the executor level."""

    def test_wrong_length_batch_return_is_a_loud_error(self):
        """A batch returning the wrong number of MetricSets is a
        programming error in the batch implementation — it must raise
        with the counts spelled out, never silently misalign specs and
        metrics."""
        with pytest.raises(ConfigurationError, match="got 2 for 3 specs"):
            SerialExecutor().map(batch_capable_runner, make_specs(3))


class TestProgressPrinter:
    """One status line per ~10% of the batch, never one per trial."""

    def run_batch(self, n: int) -> list[str]:
        import io

        from repro.runtime import ProgressPrinter

        stream = io.StringIO()
        SerialExecutor().map(
            square_runner, make_specs(n), ProgressPrinter(stream=stream)
        )
        return stream.getvalue().splitlines()

    def test_small_batch_does_not_print_every_trial(self):
        """Regression: ``total // 10 == 0`` for small batches made the
        cadence divisor 1, printing a line for every single trial."""
        lines = self.run_batch(8)
        progress = [line for line in lines if "/8 trials" in line]
        # the clamp to one-per-5-trials leaves 5/8 and the final 8/8
        assert len(progress) == 2
        assert progress[-1].startswith("[toy] 8/8 trials")

    def test_large_batch_prints_about_ten_lines(self):
        lines = self.run_batch(200)
        progress = [line for line in lines if "/200 trials" in line]
        assert len(progress) == 10
        assert progress[-1].startswith("[toy] 200/200 trials")

    def test_failures_always_reported(self):
        import io

        from repro.runtime import ProgressPrinter

        stream = io.StringIO()
        SerialExecutor().map(
            flaky_runner, make_specs(6), ProgressPrinter(stream=stream)
        )
        failures = [
            line for line in stream.getvalue().splitlines() if "FAILED" in line
        ]
        assert len(failures) == 3  # odd indices 1, 3, 5
