"""Statistics collection for simulation runs.

The paper evaluates interconnects on per-request latencies (Fig. 6:
blocking latency and deadline-miss ratio) and per-trial success
(Fig. 7: success ratio).  :class:`LatencyRecorder` accumulates the
per-request numbers; :class:`SummaryStatistics` condenses a sample into
the moments the figures report (mean, max, percentiles, variance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class SummaryStatistics:
    """Five-number-style summary of a latency (or any scalar) sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_sample(cls, sample: Sequence[float]) -> "SummaryStatistics":
        if not sample:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(sample)
        n = len(ordered)
        mean = sum(ordered) / n
        var = sum((x - mean) ** 2 for x in ordered) / n
        return cls(
            count=n,
            mean=mean,
            std=math.sqrt(var),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
        )


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class LatencyRecorder:
    """Accumulates per-request outcome metrics during one trial."""

    response_times: list[int] = field(default_factory=list)
    blocking_times: list[int] = field(default_factory=list)
    completed: int = 0
    missed: int = 0
    dropped: int = 0

    def record_completion(
        self, response_time: int, blocking_time: int, met_deadline: bool
    ) -> None:
        """Record one finished request."""
        self.response_times.append(response_time)
        self.blocking_times.append(blocking_time)
        self.completed += 1
        if not met_deadline:
            self.missed += 1

    def record_drop(self) -> None:
        """Record a request abandoned at a full ingress queue.

        A dropped request can never meet its deadline, so it also counts
        as a miss.
        """
        self.dropped += 1
        self.missed += 1

    @property
    def issued(self) -> int:
        """Requests that entered the system (completed or dropped)."""
        return self.completed + self.dropped

    @property
    def deadline_miss_ratio(self) -> float:
        """Fraction of issued requests that missed their deadline."""
        if self.issued == 0:
            return 0.0
        return self.missed / self.issued

    def response_summary(self) -> SummaryStatistics:
        return SummaryStatistics.from_sample(self.response_times)

    def blocking_summary(self) -> SummaryStatistics:
        return SummaryStatistics.from_sample(self.blocking_times)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's sample into this one (cross-trial)."""
        self.response_times.extend(other.response_times)
        self.blocking_times.extend(other.blocking_times)
        self.completed += other.completed
        self.missed += other.missed
        self.dropped += other.dropped


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean, 0.0 for an empty iterable."""
    items = list(values)
    if not items:
        return 0.0
    return sum(items) / len(items)
