"""Declarative, resumable, gated experiment campaigns.

The campaign layer turns the registered experiments
(:mod:`repro.experiments.registry`) into resumable, diffable sweeps
that CI gates against a committed baseline:

* :mod:`repro.campaigns.spec` — TOML/JSON sweep files normalized into
  frozen :class:`CampaignSpec` objects with key-order-independent
  digests;
* :mod:`repro.campaigns.grid` — deterministic cartesian expansion into
  seeded :class:`GridCell`\\ s with disjoint per-cell seed streams;
* :mod:`repro.campaigns.families` — the fig6/fig7/isolation/churn
  families: each cell's axes mapped onto its experiment's config and
  run through ``run_experiment``, unchanged;
* :mod:`repro.campaigns.executor` — sharded execution over
  :mod:`repro.runtime` with per-cell checkpointing; a killed run
  resumes to **byte-identical** final artifacts at any worker count;
* :mod:`repro.campaigns.summarize` — markdown report + JSONL series;
* :mod:`repro.campaigns.gate` — the regression gate diffing a run
  against a committed golden baseline under per-metric tolerance rules
  (``repro campaign run / report / diff``).
"""

from repro.campaigns.executor import (
    CampaignRun,
    CellRecord,
    load_campaign_dir,
    run_campaign,
)
from repro.campaigns.families import (
    FAMILIES,
    cell_trial_specs,
    family_axes,
    run_cell,
)
from repro.campaigns.gate import (
    CampaignArtifacts,
    GateViolation,
    MetricDelta,
    diff_campaigns,
    format_gate_report,
    golden_payload,
    load_artifacts,
    metric_deltas,
)
from repro.campaigns.grid import GridCell, expand_campaign, grid_digest
from repro.campaigns.spec import (
    AXIS_ORDER,
    CampaignSpec,
    GateConfig,
    SweepSpec,
    ToleranceRule,
    canonical_json,
    load_campaign_spec,
    parse_campaign_spec,
)
from repro.campaigns.summarize import (
    render_report,
    render_series,
    summarize_campaign,
)

__all__ = [
    "AXIS_ORDER",
    "FAMILIES",
    "CampaignArtifacts",
    "CampaignRun",
    "CampaignSpec",
    "CellRecord",
    "GateConfig",
    "GateViolation",
    "GridCell",
    "MetricDelta",
    "SweepSpec",
    "ToleranceRule",
    "canonical_json",
    "cell_trial_specs",
    "diff_campaigns",
    "expand_campaign",
    "family_axes",
    "format_gate_report",
    "golden_payload",
    "grid_digest",
    "load_artifacts",
    "load_campaign_dir",
    "load_campaign_spec",
    "metric_deltas",
    "parse_campaign_spec",
    "run_campaign",
    "run_cell",
    "summarize_campaign",
]
