"""One registry of the simulation-backed experiments, one way to run them.

Each such experiment has the paper's evaluation shape — draw a workload
per trial, simulate a *roster* (interconnect designs, ablation variants
or admission policies) on it, fold per-design metrics — spelled by four
functions of ``repro.experiments.<name>`` with one signature each::

    build_<exp>_specs(config, roster)       -> [TrialSpec]
    run_<exp>_trial(spec)                   -> MetricSet
    reduce_<exp>(config, roster, outcomes)  -> result
    format_<exp>(result)                    -> str

An :class:`Experiment` record names them, the config type and the
default roster as module attributes, not function objects: the module
is imported only when its experiment runs, and each piece is looked up
at call time, so rebinding a module attribute (a profiler's seam, a
test's monkeypatch) reaches every call.  :func:`run_experiment` is the
one place that wires the pieces; ``repro <command>`` and every campaign
cell (:mod:`repro.campaigns.families`) run through it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.runtime import ExecutionHooks, Executor, SerialExecutor


@dataclass(frozen=True)
class Experiment:
    """Registry key (= module name), ``repro`` subcommand, and the module
    attributes: config type, default roster, spec builder, trial
    runner, reducer and formatter."""

    name: str
    command: str
    config: str
    roster: str
    specs: str
    runner: str
    reducer: str
    formatter: str

    def resolve(self, role: str) -> Any:
        """The module attribute named by field ``role``, looked up now."""
        module = importlib.import_module(f"repro.experiments.{self.name}")
        return getattr(module, getattr(self, role))


EXPERIMENTS: dict[str, Experiment] = {
    record.name: record
    for record in (
        Experiment(
            "fig6", "fig6", "Fig6Config", "INTERCONNECT_NAMES",
            "build_fig6_specs", "run_fig6_trial", "reduce_fig6", "format_fig6",
        ),
        Experiment(
            "fig7", "fig7", "Fig7Config", "INTERCONNECT_NAMES",
            "build_fig7_specs", "run_fig7_trial", "reduce_fig7", "format_fig7",
        ),
        Experiment(
            "isolation", "faults", "IsolationConfig",
            "ISOLATION_INTERCONNECTS", "build_isolation_specs",
            "run_isolation_trial", "reduce_isolation", "format_isolation",
        ),
        Experiment(
            "churn", "churn", "ChurnConfig", "CHURN_POLICIES",
            "build_churn_specs", "run_churn_trial", "reduce_churn",
            "format_churn",
        ),
        Experiment(
            "ablation", "ablation", "AblationConfig", "VARIANTS",
            "build_ablation_specs", "run_ablation_trial", "reduce_ablation",
            "format_ablation",
        ),
        Experiment(
            "dram_sensitivity", "dram", "DramConfig", "DRAM_INTERCONNECTS",
            "build_dram_specs", "run_dram_trial", "reduce_dram_sensitivity",
            "format_dram_sensitivity",
        ),
        Experiment(
            "fairness", "fairness", "FairnessConfig", "INTERCONNECT_NAMES",
            "build_fairness_specs", "run_fairness_trial", "reduce_fairness",
            "format_fairness",
        ),
        Experiment(
            "scalability_sweep", "scalability", "ScalabilityConfig",
            "SWEEP_INTERCONNECTS", "build_scalability_specs",
            "run_scalability_trial", "reduce_scalability",
            "format_scalability",
        ),
    )
}


def get_experiment(name: str) -> Experiment:
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; expected one of "
            f"{sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name]


def run_experiment(
    name: str,
    config: Any,
    *,
    roster: Sequence[str] | None = None,
    executor: Executor | None = None,
    hooks: ExecutionHooks | None = None,
) -> Any:
    """Run experiment ``name`` at ``config`` and return its typed result.

    ``roster`` narrows (or reorders) what each trial simulates; by
    default the experiment's whole roster runs; an empty roster is
    rejected, so every run has at least one trial.  Trials go through
    ``executor`` (serial by default), observed by ``hooks``.  One
    failed trial fails the run: :class:`SimulationError` carries the
    first trial's error, and no reducer averages over a missing trial.
    """
    experiment = get_experiment(name)
    roster = tuple(experiment.resolve("roster") if roster is None else roster)
    if not roster:
        raise ConfigurationError(f"{name}: need at least one roster entry")
    specs = experiment.resolve("specs")(config, roster)
    outcomes = (executor or SerialExecutor()).map(
        experiment.resolve("runner"), specs, hooks
    )
    failures = [outcome for outcome in outcomes if outcome.failed]
    if failures:
        raise SimulationError(
            f"{name}: {len(failures)} of {len(outcomes)} trial(s) failed "
            f"— first error: {failures[0].error}"
        )
    return experiment.resolve("reducer")(config, roster, outcomes)
