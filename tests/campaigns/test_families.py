"""Campaign families: cells map onto registered experiment runs."""

from __future__ import annotations

import pytest

from repro.campaigns import expand_campaign, parse_campaign_spec
from repro.campaigns.families import (
    FAMILIES,
    cell_trial_specs,
    family_axes,
    parse_fault_axis,
    run_cell,
)
from repro.campaigns.spec import AXIS_ORDER
from repro.errors import ConfigurationError, SimulationError


def one_cell(sweep):
    spec = parse_campaign_spec(
        {"name": "f", "seed": 5, "sweeps": [sweep]}
    )
    cells = expand_campaign(spec)
    assert len(cells) == 1
    return cells[0]


class TestRegistry:
    def test_every_family_axis_is_a_known_axis(self):
        for family in FAMILIES.values():
            assert set(family.axes) <= set(AXIS_ORDER), family.name

    def test_family_axes_includes_extra_settings(self):
        assert "observability" in family_axes("fig6")
        assert "analysis" in family_axes("fig7")
        assert "fault" in family_axes("isolation")
        assert "scenario" in family_axes("churn")

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            family_axes("fig9")


class TestFaultAxis:
    def test_parses_size_x_every(self):
        assert parse_fault_axis("24x60") == (24, 60)

    @pytest.mark.parametrize("bad", ["24", "x", "ax b", "0x60", "24x0"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_fault_axis(bad)


class TestCellValidation:
    def test_unknown_design_fails_at_run_time(self):
        cell = one_cell(
            {"family": "fig6", "design": ["Nope"], "trials": 1,
             "horizon": 300}
        )
        with pytest.raises(ConfigurationError, match="unknown design"):
            run_cell(cell)

    def test_out_of_range_utilization_rejected(self):
        cell = one_cell(
            {"family": "fig6", "design": ["BlueScale"],
             "utilization": [1.5], "trials": 1, "horizon": 300}
        )
        with pytest.raises(ConfigurationError, match="utilization"):
            run_cell(cell)


class TestRunCell:
    def test_fig6_cell_metrics_and_trace_tags(self):
        cell = one_cell(
            {"family": "fig6", "design": ["BlueScale"], "n": 5,
             "utilization": [0.5], "trials": 2, "horizon": 400,
             "drain": 200}
        )
        metrics = run_cell(cell)
        assert metrics.scalars["cell/trials"] == 2.0
        assert "BlueScale/miss" in metrics.scalars
        assert metrics.tags["cell_id"] == cell.cell_id
        # combined digest: sha256 hex over the per-trial trace digests
        assert len(metrics.tags["BlueScale/trace"]) == 64

    def test_trial_count_matches_spec(self):
        cell = one_cell(
            {"family": "fig6", "design": ["BlueScale"], "n": 5,
             "utilization": [0.5], "trials": 3, "horizon": 300}
        )
        assert len(cell_trial_specs(cell)) == 3

    def test_engine_precedence_cell_axis_run_level_default(self, monkeypatch):
        """Cell axis beats the run-level sim backend beats the default
        — read off the backend ``run_cell`` hands its executor and the
        one its trial specs carry."""
        from repro.campaigns import families
        from repro.runtime import SerialExecutor

        seen = []

        class Recording(SerialExecutor):
            def map(self, runner, specs, hooks=None):
                outcomes = super().map(runner, specs, hooks)
                seen.append(
                    (self.sim_backend, outcomes[0].spec.sim_backend)
                )
                return outcomes

        monkeypatch.setattr(families, "SerialExecutor", Recording)
        base = {
            "family": "fig6", "design": ["BlueTree"], "n": 5,
            "utilization": [0.5], "trials": 1, "horizon": 300,
        }
        plain = one_cell(base)
        pinned = one_cell({**base, "sim_backend": ["batched"]})
        run_cell(plain)
        run_cell(plain, "scalar")
        run_cell(pinned, "scalar")
        assert seen == [
            (None, "batched"),
            ("scalar", "scalar"),
            ("batched", "batched"),
        ]

    def test_backend_axis_value_is_bit_identical(self, kernel_groups):
        base = {
            "family": "fig6", "design": ["BlueScale"], "n": 5,
            "utilization": [0.5], "trials": 1, "horizon": 300,
        }
        tags = {}
        groups = {}
        for backend in ("scalar", "batched", None):
            axis = {} if backend is None else {"sim_backend": [backend]}
            cell = one_cell({**base, **axis})
            kernel_groups.clear()
            tags[backend] = run_cell(cell).tags["BlueScale/trace"]
            groups[backend] = list(kernel_groups)
        assert tags["scalar"] == tags["batched"] == tags[None]
        # ...and the two sides really were two engines: the scalar cell
        # never entered a lock-step kernel, the batched and the
        # axis-less (default) cell did
        assert groups == {"scalar": [], "batched": [1], None: [1]}

    def test_failed_trial_fails_whole_cell(self, monkeypatch):
        cell = one_cell(
            {"family": "fig6", "design": ["BlueScale"], "n": 5,
             "utilization": [0.5], "trials": 1, "horizon": 300}
        )
        from repro.experiments import fig6

        def boom(spec):
            raise RuntimeError("injected")

        # the registry looks the runner up in its module at call time
        monkeypatch.setattr(fig6, "run_fig6_trial", boom)
        with pytest.raises(SimulationError, match="1 of 1"):
            run_cell(cell)


class TestAnalysisOracle:
    def test_ci_spec_bluescale_matches_the_scalar_oracle(self):
        """Every trial of every ``campaigns/ci.json`` cell programs
        BlueScale with the same interfaces when its composition runs on
        the test oracle as on the one engine."""
        import random
        from pathlib import Path

        from repro.analysis.cache import DISABLED
        from repro.analysis.context import AnalysisContext
        from repro.campaigns import load_campaign_spec
        from repro.experiments.factory import build_interconnect, draw_tasksets

        from ..analysis import oracle

        root = Path(__file__).resolve().parents[2]
        cells = expand_campaign(load_campaign_spec(root / "campaigns/ci.json"))
        checked = 0
        for cell in cells:
            if cell.value("design") != "BlueScale":
                continue
            for spec in cell_trial_specs(cell):
                config = spec.param("config")
                tasksets = draw_tasksets(random.Random(spec.seed), config)
                def build(ctx):
                    return build_interconnect(
                        "BlueScale", config.n_clients, tasksets, ctx=ctx
                    ).composition

                with oracle.installed() as calls:
                    expected = build(AnalysisContext(cache=DISABLED))
                assert calls["select_interface"] > 0
                engine = build(AnalysisContext())
                assert expected.interfaces == engine.interfaces, spec.seed
                assert expected.schedulable == engine.schedulable
                checked += 1
        assert checked == 4  # 2 utilizations x 2 trials
