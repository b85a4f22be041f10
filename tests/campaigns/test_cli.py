"""``repro campaign run / report / diff`` exit codes and artifacts.

The acceptance criterion lives here: ``repro campaign diff`` exits 1
on an injected metric regression and 0 against its own golden payload.
One tiny campaign executes for real (module-cached); everything else
derives from its artifacts.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.campaigns import golden_payload, load_artifacts
from repro.campaigns.spec import canonical_json
from repro.cli import main

from tests.campaigns.conftest import TINY_RAW


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A completed real run of the tiny spec, via the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "tiny.json"
    spec_path.write_text(json.dumps(TINY_RAW), encoding="utf-8")
    out = root / "results"
    assert main(["campaign", "run", str(spec_path), "--out", str(out)]) == 0
    return spec_path, out


class TestRun:
    def test_rerun_resumes_to_exit_zero(self, tiny_run, capsys):
        spec_path, out = tiny_run
        assert (
            main(["campaign", "run", str(spec_path), "--out", str(out)])
            == 0
        )
        captured = capsys.readouterr().out
        assert "4 resumed, 0 executed" in captured

    def test_failed_cell_exits_one(self, tmp_path, capsys):
        raw = copy.deepcopy(TINY_RAW)
        raw["sweeps"][0]["design"] = ["NoSuchDesign"]
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(raw), encoding="utf-8")
        code = main(
            ["campaign", "run", str(spec_path), "--out",
             str(tmp_path / "out")]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_workers_and_backend_flags_accepted(self, tiny_run, tmp_path):
        spec_path, out = tiny_run
        other = tmp_path / "parallel"
        assert (
            main(
                ["campaign", "run", str(spec_path), "--out", str(other),
                 "--workers", "2", "--sim-backend", "scalar"]
            )
            == 0
        )
        assert (
            (other / "cells.jsonl").read_bytes()
            == (out / "cells.jsonl").read_bytes()
        )


    def test_sim_backend_flag_does_not_outlive_its_run(
        self, tiny_run, tmp_path, kernel_groups
    ):
        """``--sim-backend scalar`` is a value on that run's trial
        specs: it reaches every cell (no lock-step kernel runs), and an
        in-process run right after it, with no flag and no backend
        axis, is back on the kernels."""
        spec_path, out = tiny_run
        scalar, default = tmp_path / "scalar", tmp_path / "default"
        assert (
            main(
                ["campaign", "run", str(spec_path), "--out", str(scalar),
                 "--sim-backend", "scalar"]
            )
            == 0
        )
        assert kernel_groups == []
        assert (
            main(["campaign", "run", str(spec_path), "--out", str(default)])
            == 0
        )
        assert len(kernel_groups) == 4  # one group per single-trial cell
        assert (
            (scalar / "cells.jsonl").read_bytes()
            == (default / "cells.jsonl").read_bytes()
            == (out / "cells.jsonl").read_bytes()
        )


class TestReport:
    def test_report_writes_artifacts(self, tiny_run, tmp_path):
        _, out = tiny_run
        report_dir = tmp_path / "report"
        assert (
            main(
                ["campaign", "report", str(out), "--out", str(report_dir)]
            )
            == 0
        )
        assert (report_dir / "report.md").exists()
        assert (report_dir / "series.jsonl").exists()


class TestDiff:
    def golden_path(self, out, tmp_path, mutate=None):
        payload = golden_payload(load_artifacts(out), comment="test")
        if mutate is not None:
            mutate(payload)
        path = tmp_path / "golden.json"
        path.write_text(canonical_json(payload) + "\n", encoding="utf-8")
        return path

    def test_clean_baseline_exits_zero(self, tiny_run, tmp_path, capsys):
        _, out = tiny_run
        golden = self.golden_path(out, tmp_path)
        assert main(["campaign", "diff", str(golden), str(out)]) == 0
        assert "gate PASS" in capsys.readouterr().out

    def test_injected_regression_exits_one(
        self, tiny_run, tmp_path, capsys
    ):
        _, out = tiny_run

        def worsen(payload):
            scalars = payload["cells"][0]["scalars"]
            key = next(k for k in scalars if k.endswith("/blocking"))
            scalars[key] += 0.5

        golden = self.golden_path(out, tmp_path, mutate=worsen)
        assert main(["campaign", "diff", str(golden), str(out)]) == 1
        captured = capsys.readouterr().out
        assert "gate FAIL" in captured and "[metric]" in captured

    def test_injected_trace_flip_exits_one(
        self, tiny_run, tmp_path, capsys
    ):
        _, out = tiny_run

        def flip(payload):
            tags = payload["cells"][0]["tags"]
            key = next(k for k in tags if k.endswith("/trace"))
            tags[key] = "0" * 64

        golden = self.golden_path(out, tmp_path, mutate=flip)
        assert main(["campaign", "diff", str(golden), str(out)]) == 1
        assert "[tag]" in capsys.readouterr().out

    def test_committed_golden_baseline_passes(self, tmp_path):
        """The acceptance check CI runs: a fresh run of the committed
        spec gates cleanly against the committed golden baseline."""
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent.parent
        spec = repo / "campaigns" / "ci.json"
        golden = repo / "tests" / "fixtures" / "golden_campaign.json"
        out = tmp_path / "ci"
        assert (
            main(["campaign", "run", str(spec), "--out", str(out)]) == 0
        )
        assert main(["campaign", "diff", str(golden), str(out)]) == 0
