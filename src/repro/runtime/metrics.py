"""The shared metrics schema trial runners emit and campaigns archive.

A :class:`MetricSet` is a flat mapping of metric name → float plus
string tags identifying where it came from.  Per-trial runners return
one; reducers fold batches of them into experiment results; experiment
results expose an aggregate one via ``metric_set()``; and the campaign
layer archives those aggregates without per-experiment glue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MetricSet:
    """Named scalar metrics with identifying tags.

    Metric names are free-form but the convention throughout the
    experiments is ``"<series>/<quantity>"`` (``"BlueScale/miss"``),
    which flattens into campaign manifests and CSV columns unchanged.
    """

    scalars: Mapping[str, float]
    tags: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.scalars.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"metric {name!r} must be numeric, got {value!r}"
                )

    def __getitem__(self, name: str) -> float:
        try:
            return self.scalars[name]
        except KeyError:
            raise ConfigurationError(
                f"no metric {name!r} (has: {sorted(self.scalars)})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.scalars

    def merged_with(self, other: "MetricSet") -> "MetricSet":
        """Union of two metric sets; duplicate names are a bug."""
        overlap = set(self.scalars) & set(other.scalars)
        if overlap:
            raise ConfigurationError(
                f"metric sets overlap on {sorted(overlap)}"
            )
        return MetricSet(
            scalars={**self.scalars, **other.scalars},
            tags={**self.tags, **other.tags},
        )

    def as_dict(self) -> dict[str, float]:
        """Plain ``{name: float}`` for manifests and JSON."""
        return {k: float(v) for k, v in self.scalars.items()}


#: scalar present (== 1.0) in the metric set of a trial whose runner
#: raised; ``run_experiment`` fails the run on ``TrialOutcome.failed``
FAILURE_METRIC = "trial/failed"


def failure_metric_set(spec: Any, exc: BaseException) -> MetricSet:
    """The structured failure record of a raising trial runner.

    Campaign executors substitute this for the runner's result so one
    crashing trial cannot abort a parallel batch: the outcome keeps its
    slot (ordering and parallel ≡ serial are preserved) and carries the
    exception type and message as tags for post-mortem triage.
    """
    message = str(exc) or type(exc).__name__
    if len(message) > 500:
        message = message[:500] + "..."
    return MetricSet(
        scalars={FAILURE_METRIC: 1.0},
        tags={
            "experiment": spec.experiment,
            "trial": str(spec.index),
            "error_type": type(exc).__name__,
            "error": message,
        },
    )
