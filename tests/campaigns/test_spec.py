"""Spec parsing and validation: strict keys, gated formats, digests."""

from __future__ import annotations

import json

import pytest

from repro.campaigns import (
    CampaignSpec,
    GateConfig,
    ToleranceRule,
    load_campaign_spec,
    parse_campaign_spec,
)
from repro.errors import ConfigurationError


def raw_spec(**overrides):
    raw = {
        "name": "demo",
        "seed": 3,
        "sweeps": [
            {"family": "fig6", "design": ["BlueScale"], "trials": 1}
        ],
    }
    raw.update(overrides)
    return raw


class TestParsing:
    def test_round_trip(self):
        spec = parse_campaign_spec(raw_spec())
        assert spec.name == "demo"
        assert spec.seed == 3
        assert spec.cell_count == 1
        assert spec.sweeps[0].family == "fig6"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown campaign"):
            parse_campaign_spec(raw_spec(sweps=[]))

    def test_missing_name_rejected(self):
        raw = raw_spec()
        del raw["name"]
        with pytest.raises(ConfigurationError, match="no 'name'"):
            parse_campaign_spec(raw)

    def test_no_sweeps_rejected(self):
        with pytest.raises(ConfigurationError, match="no sweeps"):
            parse_campaign_spec(raw_spec(sweeps=[]))

    def test_unknown_sweep_key_rejected(self):
        raw = raw_spec(
            sweeps=[{"family": "fig6", "desgin": ["BlueScale"]}]
        )
        with pytest.raises(ConfigurationError, match="unknown keys"):
            parse_campaign_spec(raw)

    def test_analysis_backend_key_rejected(self):
        """The analysis has one engine; a spec cannot pick another."""
        for value in (["scalar", "vectorized"], "scalar"):
            raw = raw_spec(
                sweeps=[{"family": "fig6", "analysis_backend": value}]
            )
            with pytest.raises(ConfigurationError, match="unknown keys"):
                parse_campaign_spec(raw)

    def test_family_specific_keys_stay_family_specific(self):
        """churn has no design axis; fig6 has no scenario axis."""
        with pytest.raises(ConfigurationError, match="unknown keys"):
            parse_campaign_spec(
                raw_spec(sweeps=[{"family": "churn", "design": ["X"]}])
            )
        with pytest.raises(ConfigurationError, match="unknown keys"):
            parse_campaign_spec(
                raw_spec(sweeps=[{"family": "fig6", "scenario": [2]}])
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            parse_campaign_spec(raw_spec(sweeps=[{"family": "fig9"}]))

    def test_setting_as_list_rejected(self):
        with pytest.raises(ConfigurationError, match="scalar setting"):
            parse_campaign_spec(
                raw_spec(sweeps=[{"family": "fig6", "trials": [1, 2]}])
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            parse_campaign_spec(
                raw_spec(sweeps=[{"family": "fig6", "design": []}])
            )

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            parse_campaign_spec(
                raw_spec(
                    sweeps=[{"family": "fig6", "design": ["A", "A"]}]
                )
            )

    def test_axes_normalize_into_canonical_order(self):
        spec = parse_campaign_spec(
            raw_spec(
                sweeps=[
                    {
                        "family": "fig6",
                        "utilization": [0.5],
                        "design": ["BlueScale"],
                        "n": [8, 16],
                    }
                ]
            )
        )
        assert [name for name, _ in spec.sweeps[0].axes] == [
            "design",
            "n",
            "utilization",
        ]


class TestGateConfig:
    def test_unknown_gate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown gate"):
            parse_campaign_spec(raw_spec(gate={"tolerances": []}))

    def test_bad_rule_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="bad gate rule"):
            GateConfig.from_mapping({"rules": [{"kind": "exact"}]})

    def test_unknown_rule_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="tolerance kind"):
            ToleranceRule(pattern="*", kind="fuzzy")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ToleranceRule(pattern="*", kind="relative", tolerance=-0.1)
        with pytest.raises(ConfigurationError, match="non-negative"):
            GateConfig(wall_clock_tolerance=-1.0)

    def test_rules_parse(self):
        gate = GateConfig.from_mapping(
            {
                "rules": [
                    {"pattern": "*/miss", "kind": "relative",
                     "tolerance": 0.05},
                    {"pattern": "*/obs/*", "kind": "ignore"},
                ],
                "wall_clock_tolerance": 2.0,
            }
        )
        assert gate.rules[0].tolerance == 0.05
        assert gate.rules[1].kind == "ignore"
        assert gate.wall_clock_tolerance == 2.0


class TestDigests:
    def test_digest_independent_of_key_order(self):
        forward = raw_spec()
        shuffled = dict(reversed(list(forward.items())))
        shuffled["sweeps"] = [
            dict(reversed(list(sweep.items())))
            for sweep in forward["sweeps"]
        ]
        assert (
            parse_campaign_spec(forward).digest()
            == parse_campaign_spec(shuffled).digest()
        )

    def test_digest_sensitive_to_values(self):
        assert (
            parse_campaign_spec(raw_spec(seed=3)).digest()
            != parse_campaign_spec(raw_spec(seed=4)).digest()
        )

    def test_spec_is_frozen_and_hashable(self):
        spec = parse_campaign_spec(raw_spec())
        assert isinstance(hash(spec), int)
        assert isinstance(spec, CampaignSpec)


class TestLoading:
    def test_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw_spec()), encoding="utf-8")
        assert load_campaign_spec(path).name == "demo"

    def test_toml_file_gated_on_tomllib(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            'name = "demo"\nseed = 3\n\n[[sweeps]]\nfamily = "fig6"\n'
            'design = ["BlueScale"]\ntrials = 1\n',
            encoding="utf-8",
        )
        try:
            import tomllib  # noqa: F401
        except ImportError:
            with pytest.raises(ConfigurationError, match="tomllib"):
                load_campaign_spec(path)
        else:
            assert load_campaign_spec(path).name == "demo"

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("name: demo\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=".json or .toml"):
            load_campaign_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no campaign spec"):
            load_campaign_spec(tmp_path / "absent.json")

    def test_committed_ci_spec_parses(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent.parent
        spec = load_campaign_spec(repo / "campaigns" / "ci.json")
        assert spec.name == "ci-tiny"
        assert spec.cell_count == 4
