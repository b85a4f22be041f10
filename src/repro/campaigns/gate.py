"""The campaign regression gate: manifest vs golden baseline.

:func:`diff_campaigns` compares a fresh campaign's artifacts against a
baseline — another results directory, or a committed golden-baseline
JSON — under the campaign's :class:`~repro.campaigns.spec.GateConfig`:

* **structure** is sacred: a cell present on one side only, or a cell
  that failed, is a regression (sweeps must not silently shrink);
* **tags** (trace digests, verdict strings) compare exactly, always —
  they certify bit-identical simulation;
* **scalars** compare exactly by default, with per-pattern
  :class:`~repro.campaigns.spec.ToleranceRule` overrides (first match
  wins) for metrics that legitimately move;
* **wall-clock** — the only machine-dependent artifact, kept in
  ``timings.jsonl`` outside every digest — compares under a relative
  band, and only when both sides actually carry timings (committed
  goldens usually don't).

:class:`MetricDelta` is the delta primitive, and every edge case is
explicit: a metric missing on either side yields an ``added``/
``removed`` delta (never a silent skip), a NaN on either side is an
explicit change (never a quiet pass), and a zero baseline never
raises — ``relative_change`` goes to ``inf``/``nan`` and threshold
checks are written so that non-finite changes always report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Mapping

from repro.campaigns.executor import (
    CellRecord,
    load_campaign_dir,
)
from repro.campaigns.spec import GateConfig, ToleranceRule
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MetricDelta:
    """One metric's change between two runs.

    ``before``/``after`` are ``None`` when the metric exists on only
    one side — such deltas are *explicit* (status ``added``/``removed``)
    rather than silently skipped, and their ``relative_change`` is NaN
    so every threshold check reports them.
    """

    experiment: str
    metric: str
    before: float | None
    after: float | None

    @property
    def status(self) -> str:
        if self.before is None:
            return "added"
        if self.after is None:
            return "removed"
        return "changed" if not self.equal else "equal"

    @property
    def equal(self) -> bool:
        """Exact equality; two NaNs count as equal (no change)."""
        if self.before is None or self.after is None:
            return False
        if math.isnan(self.before) and math.isnan(self.after):
            return True
        return self.before == self.after

    @property
    def relative_change(self) -> float:
        """(after - before) / |before|, with explicit edge semantics.

        * missing on either side → NaN (always exceeds any threshold);
        * NaN on exactly one side → NaN;
        * NaN on both sides → 0.0 (nothing moved);
        * zero baseline → 0.0 if after is zero too, else ±inf.
        """
        if self.before is None or self.after is None:
            return math.nan
        if math.isnan(self.before) and math.isnan(self.after):
            return 0.0
        if math.isnan(self.before) or math.isnan(self.after):
            return math.nan
        if self.before == 0:
            if self.after == 0:
                return 0.0
            return math.copysign(math.inf, self.after)
        return (self.after - self.before) / abs(self.before)

    def exceeds(self, threshold: float) -> bool:
        """True when the change is beyond ``threshold`` — written as
        ``not (|change| <= threshold)`` so NaN and inf always report."""
        return not (abs(self.relative_change) <= threshold)


def metric_deltas(
    before: Mapping[str, float],
    after: Mapping[str, float],
    experiment: str = "",
) -> list[MetricDelta]:
    """Explicit deltas over the *union* of both sides' metric names."""
    return [
        MetricDelta(
            experiment=experiment,
            metric=name,
            before=before.get(name),
            after=after.get(name),
        )
        for name in sorted(set(before) | set(after))
    ]


def format_metric(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


@dataclass(frozen=True)
class GateViolation:
    """One reason the gate fails: where, what kind, and the evidence."""

    kind: str  # "structure" | "failure" | "tag" | "metric" | "wall_clock"
    cell_id: str
    detail: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.cell_id}: {self.detail}"


@dataclass
class CampaignArtifacts:
    """A loaded campaign: manifest + cell records (+ optional timings)."""

    manifest: dict[str, Any]
    records: list[CellRecord]
    timings: list[dict[str, Any]]

    @property
    def by_cell(self) -> dict[str, CellRecord]:
        return {record.cell_id: record for record in self.records}

    def wall_clock_seconds(self) -> float | None:
        """Total per-cell wall-clock; last timing line per cell wins
        (resumed runs append a retry line).  None without timings."""
        if not self.timings:
            return None
        last: dict[str, float] = {}
        for entry in self.timings:
            try:
                last[entry["cell_id"]] = float(entry["seconds"])
            except (KeyError, TypeError, ValueError):
                continue
        return sum(last.values()) if last else None


def load_artifacts(path: str | Path) -> CampaignArtifacts:
    """Load a results directory *or* a golden-baseline JSON file."""
    path = Path(path)
    if path.is_dir():
        manifest, records, timings = load_campaign_dir(path)
        return CampaignArtifacts(manifest, records, timings)
    if not path.exists():
        raise ConfigurationError(f"no campaign artifacts at {path}")
    raw = json.loads(path.read_text(encoding="utf-8"))
    if "manifest" not in raw or "cells" not in raw:
        raise ConfigurationError(
            f"{path} is not a campaign baseline (needs 'manifest' and "
            "'cells' keys)"
        )
    return CampaignArtifacts(
        manifest=raw["manifest"],
        records=[CellRecord.from_dict(entry) for entry in raw["cells"]],
        timings=list(raw.get("timings", ())),
    )


def golden_payload(
    artifacts: CampaignArtifacts, comment: str
) -> dict[str, Any]:
    """The committed golden-baseline shape (timings intentionally
    dropped — they are machine-dependent and gate-exempt)."""
    return {
        "comment": comment,
        "manifest": artifacts.manifest,
        "cells": [record.as_dict() for record in artifacts.records],
    }


def _rule_for(gate: GateConfig, metric: str) -> ToleranceRule:
    for rule in gate.rules:
        if fnmatchcase(metric, rule.pattern):
            return rule
    return ToleranceRule(pattern="*", kind="exact")


def _check_metric(
    gate: GateConfig, cell_id: str, delta: MetricDelta
) -> GateViolation | None:
    rule = _rule_for(gate, delta.metric)
    if rule.kind == "ignore":
        return None
    if delta.before is None or delta.after is None:
        return GateViolation(
            kind="metric",
            cell_id=cell_id,
            detail=(
                f"{delta.metric} {delta.status}: "
                f"{format_metric(delta.before)} -> "
                f"{format_metric(delta.after)}"
            ),
        )
    if rule.kind == "exact":
        if delta.equal:
            return None
        return GateViolation(
            kind="metric",
            cell_id=cell_id,
            detail=(
                f"{delta.metric}: {format_metric(delta.before)} -> "
                f"{format_metric(delta.after)} (exact rule "
                f"{rule.pattern!r})"
            ),
        )
    if rule.kind == "relative":
        if not delta.exceeds(rule.tolerance):
            return None
        return GateViolation(
            kind="metric",
            cell_id=cell_id,
            detail=(
                f"{delta.metric}: {format_metric(delta.before)} -> "
                f"{format_metric(delta.after)} "
                f"({delta.relative_change:+.1%} beyond ±"
                f"{rule.tolerance:.0%} of rule {rule.pattern!r})"
            ),
        )
    # absolute
    moved = (
        abs(delta.after - delta.before)
        if not (math.isnan(delta.before) or math.isnan(delta.after))
        else math.nan
    )
    if moved <= rule.tolerance and not math.isnan(moved):
        return None
    return GateViolation(
        kind="metric",
        cell_id=cell_id,
        detail=(
            f"{delta.metric}: {format_metric(delta.before)} -> "
            f"{format_metric(delta.after)} (|Δ|={format_metric(moved)} "
            f"beyond {rule.tolerance} of rule {rule.pattern!r})"
        ),
    )


def diff_campaigns(
    baseline: CampaignArtifacts,
    current: CampaignArtifacts,
    gate: GateConfig | None = None,
) -> list[GateViolation]:
    """Every way ``current`` regresses from ``baseline`` under ``gate``.

    An empty list means the gate passes.  ``gate=None`` reads the gate
    config sealed into the *current* manifest (falling back to the
    baseline's, then to defaults) — the spec that produced the run
    decides its own tolerances.
    """
    if gate is None:
        raw = current.manifest.get("gate") or baseline.manifest.get("gate")
        gate = GateConfig.from_mapping(raw) if raw else GateConfig()
    violations: list[GateViolation] = []
    before_cells = baseline.by_cell
    after_cells = current.by_cell
    for cell_id in sorted(set(before_cells) - set(after_cells)):
        violations.append(
            GateViolation(
                kind="structure",
                cell_id=cell_id,
                detail="cell present in baseline but missing from run",
            )
        )
    for cell_id in sorted(set(after_cells) - set(before_cells)):
        violations.append(
            GateViolation(
                kind="structure",
                cell_id=cell_id,
                detail="cell present in run but not in baseline "
                "(bless a new baseline to accept it)",
            )
        )
    for cell_id in sorted(set(before_cells) & set(after_cells)):
        before = before_cells[cell_id]
        after = after_cells[cell_id]
        if before.error != after.error:
            violations.append(
                GateViolation(
                    kind="failure",
                    cell_id=cell_id,
                    detail=(
                        f"error status changed: {before.error!r} -> "
                        f"{after.error!r}"
                    ),
                )
            )
            continue
        before_tags = before.tag_dict
        after_tags = after.tag_dict
        for tag in sorted(set(before_tags) | set(after_tags)):
            if before_tags.get(tag) != after_tags.get(tag):
                violations.append(
                    GateViolation(
                        kind="tag",
                        cell_id=cell_id,
                        detail=(
                            f"{tag}: {before_tags.get(tag, '-')[:16]}… -> "
                            f"{after_tags.get(tag, '-')[:16]}…"
                        ),
                    )
                )
        for delta in metric_deltas(
            before.scalar_dict, after.scalar_dict, experiment=cell_id
        ):
            violation = _check_metric(gate, cell_id, delta)
            if violation is not None:
                violations.append(violation)
    before_seconds = baseline.wall_clock_seconds()
    after_seconds = current.wall_clock_seconds()
    if before_seconds is not None and after_seconds is not None:
        delta = MetricDelta(
            experiment="campaign",
            metric="wall_clock_seconds",
            before=before_seconds,
            after=after_seconds,
        )
        # only a *slowdown* beyond the band fails; getting faster is fine
        if (
            delta.relative_change > 0 or math.isnan(delta.relative_change)
        ) and delta.exceeds(gate.wall_clock_tolerance):
            violations.append(
                GateViolation(
                    kind="wall_clock",
                    cell_id="campaign",
                    detail=(
                        f"total wall-clock {before_seconds:.2f}s -> "
                        f"{after_seconds:.2f}s "
                        f"({delta.relative_change:+.0%} beyond the "
                        f"±{gate.wall_clock_tolerance:.0%} band)"
                    ),
                )
            )
    return violations


def format_gate_report(
    violations: list[GateViolation], baseline_name: str = "baseline"
) -> str:
    """Human-readable verdict for the ``repro campaign diff`` CLI."""
    if not violations:
        return f"gate PASS: no regressions against {baseline_name}"
    lines = [
        f"gate FAIL: {len(violations)} regression(s) against "
        f"{baseline_name}"
    ]
    lines.extend(violation.describe() for violation in violations)
    return "\n".join(lines)
