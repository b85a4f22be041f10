"""The experiment registry: one record per simulation-backed experiment,
one ``run_experiment`` behind the CLI, and one failed-trial policy."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import fig6
from repro.experiments.ablation import AblationConfig
from repro.experiments.churn import ChurnConfig
from repro.experiments.dram_sensitivity import DramConfig
from repro.experiments.fairness import FairnessConfig
from repro.experiments.fig7 import Fig7Config
from repro.experiments.isolation import IsolationConfig
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    run_experiment,
)
from repro.experiments.scalability_sweep import ScalabilityConfig
from repro.runtime import SerialExecutor

#: tiny runs on the scalar engine: far below the lock-step break-even
SCALAR = "scalar"

#: per registered experiment: its subcommand's flags at the smallest
#: size they reach, and the config those flags must produce
CLI_CASES = {
    "fig6": (
        ["--trials", "1", "--horizon", "300"],
        fig6.Fig6Config(trials=1, horizon=300),
    ),
    "fig7": (
        ["--trials", "1", "--horizon", "300"],
        Fig7Config(trials=1, horizon=300),
    ),
    "isolation": (
        ["--trials", "1", "--clients", "4", "--horizon", "1000"],
        IsolationConfig(n_clients=4, trials=1, horizon=1_000),
    ),
    "churn": (
        ["--trials", "1", "--clients", "4", "--horizon", "1000", "--verify"],
        ChurnConfig(n_clients=4, trials=1, horizon=1_000),
    ),
    "ablation": (["--quick"], AblationConfig(seeds=(1,), horizon=5_000)),
    "dram_sensitivity": (
        ["--quick"],
        DramConfig(seeds=(1,), horizon=5_000),
    ),
    "fairness": (["--quick"], FairnessConfig(seeds=(1,), horizon=8_000)),
    "scalability_sweep": (
        ["--max-clients", "16"],
        ScalabilityConfig(client_counts=(4, 16), seeds=(1,)),
    ),
}


def _exit_code(name: str, result) -> int:
    """What ``repro`` owes ``result``: 1 on an analytical-bound
    violation under the rogue client, or (``churn --verify``) on a
    miss inside a reconfiguration transient."""
    if name == "isolation":
        return int(result.total_bound_violations > 0)
    if name == "churn":
        return int(result.total_transient_violations > 0)
    return 0


def _subcommands() -> set[str]:
    (action,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return set(action.choices)


def test_every_record_has_exactly_one_subcommand():
    commands = [record.command for record in EXPERIMENTS.values()]
    assert len(set(commands)) == len(commands)
    assert set(commands) <= _subcommands()
    assert {
        record.command: name
        for name, record in EXPERIMENTS.items()
        if record.command != name
    } == {
        "faults": "isolation",
        "dram": "dram_sensitivity",
        "scalability": "scalability_sweep",
    }
    assert set(CLI_CASES) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_cli_prints_the_formatted_run(name, capsys):
    """``repro <command>`` is ``run_experiment`` + the formatter, with
    the config its flags describe, and nothing else."""
    flags, config = CLI_CASES[name]
    record = EXPERIMENTS[name]
    code = main([record.command, *flags, "--sim-backend", "scalar"])
    printed = capsys.readouterr().out
    result = run_experiment(name, config, executor=SerialExecutor(SCALAR))
    assert printed == record.resolve("formatter")(result) + "\n"
    assert code == _exit_code(name, result)


def test_failed_trial_raises_its_own_error(monkeypatch):
    """A raising trial surfaces as one SimulationError carrying the
    trial's exception, before any reducer reads its missing metrics."""
    build = fig6.fig6_build

    def second_trial_fails(spec):
        if spec.index == 1:
            raise RuntimeError("injected build failure")
        return build(spec)

    monkeypatch.setattr(fig6, "fig6_build", second_trial_fails)
    with pytest.raises(SimulationError) as excinfo:
        run_experiment(
            "fig6",
            fig6.Fig6Config(trials=2, horizon=300, drain=100),
            roster=("BlueScale",),
            executor=SerialExecutor(SCALAR),
        )
    message = str(excinfo.value)
    assert "1 of 2 trial(s) failed" in message
    assert "RuntimeError: injected build failure" in message


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError, match="unknown experiment"):
        get_experiment("fig9")
