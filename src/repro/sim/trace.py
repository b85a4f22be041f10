"""Transaction trace capture and replay.

Real evaluations often need to (a) archive exactly what traffic a trial
produced and (b) re-run the *same* traffic against a different
interconnect for a paired comparison.  This module provides both:

* :class:`TraceRecord` / :func:`save_trace` / :func:`load_trace` — a
  JSON-lines on-disk format holding each transaction's release, client,
  deadline, kind, address and originating task;
* :class:`TraceReplayClient` — a drop-in client for
  :class:`repro.soc.SoCSimulation` that re-issues a recorded trace
  verbatim (same cycles, same deadlines, same addresses).

Capture happens at the client: :func:`trace_from_clients` extracts the
released transactions of a finished trial from the traffic generators'
job records, in a deterministic order.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigurationError
from repro.memory.request import MemoryRequest, RequestKind


@dataclass(frozen=True, order=True)
class TraceRecord:
    """One recorded transaction (ordering: release, client, address)."""

    release_cycle: int
    client_id: int
    address: int
    absolute_deadline: int
    kind: str = "read"
    task_name: str = ""

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ConfigurationError(
                f"client id must be >= 0, got {self.client_id}"
            )
        if self.release_cycle < 0:
            raise ConfigurationError(
                f"release cycle must be >= 0, got {self.release_cycle}"
            )
        if self.absolute_deadline <= self.release_cycle:
            raise ConfigurationError(
                f"deadline {self.absolute_deadline} not after release "
                f"{self.release_cycle}"
            )
        if self.kind not in ("read", "write"):
            raise ConfigurationError(f"unknown kind {self.kind!r}")

    def to_request(self) -> MemoryRequest:
        return MemoryRequest(
            client_id=self.client_id,
            release_cycle=self.release_cycle,
            absolute_deadline=self.absolute_deadline,
            kind=RequestKind(self.kind),
            address=self.address,
            task_name=self.task_name,
        )


def save_trace(records: Iterable[TraceRecord], path: str | Path) -> int:
    """Write records as JSON lines; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(asdict(record)) + "\n")
            count += 1
    return count


def load_trace(path: str | Path) -> list[TraceRecord]:
    """Read a JSON-lines trace back, preserving order."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TraceRecord(**json.loads(line)))
            except (json.JSONDecodeError, TypeError, ConfigurationError) as exc:
                raise ConfigurationError(
                    f"{path}:{line_number}: malformed trace line ({exc})"
                ) from exc
    return records


class TraceReplayClient:
    """Replays a recorded per-client trace through the SoC simulator.

    Satisfies the same client contract as
    :class:`repro.clients.traffic_generator.TrafficGenerator`: one
    injection attempt per cycle, EDF order among due transactions,
    deadline bookkeeping per transaction, and the engine's quiescence
    contract, so replays run on the fast path.
    """

    def __init__(
        self,
        client_id: int,
        records: list[TraceRecord],
        pending_capacity: int = 4096,
    ) -> None:
        self.client_id = client_id
        foreign = [r for r in records if r.client_id != client_id]
        if foreign:
            raise ConfigurationError(
                f"trace contains records for client {foreign[0].client_id}, "
                f"expected only {client_id}"
            )
        self.pending_capacity = pending_capacity
        self._future = sorted(records)
        self._future_index = 0
        self._pending: list[tuple[tuple[int, int], MemoryRequest]] = []
        self.released_requests = 0
        self.dropped_requests = 0
        self.completed = 0
        self.missed = 0

    # -- client contract ---------------------------------------------------
    def tick(self, cycle: int, inject) -> None:  # noqa: ANN001 - hook
        """Release due records, then offer the EDF head (one port)."""
        while (
            self._future_index < len(self._future)
            and self._future[self._future_index].release_cycle <= cycle
        ):
            record = self._future[self._future_index]
            self._future_index += 1
            self.released_requests += 1
            if len(self._pending) >= self.pending_capacity:
                self.dropped_requests += 1
                self.missed += 1
                continue
            request = record.to_request()
            heapq.heappush(self._pending, (request.priority_key, request))
        if self._pending and inject(self._pending[0][1], cycle):
            heapq.heappop(self._pending)

    def on_response(self, request: MemoryRequest) -> None:
        self.completed += 1
        if not request.met_deadline:
            self.missed += 1

    # -- quiescence ------------------------------------------------------------
    def is_quiescent(self) -> bool:
        """True while nothing is pending (a tick only checks releases)."""
        return not self._pending

    def next_activity_cycle(self, cycle: int) -> int | None:
        """The next unreleased record's release cycle (None when done)."""
        if self._future_index < len(self._future):
            return self._future[self._future_index].release_cycle
        return None

    # -- outcome -------------------------------------------------------------
    def monitored_jobs_judged(self, horizon: int) -> int:
        return self.completed

    def monitored_job_misses(self, horizon: int) -> int:
        return self.missed

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def jobs(self):  # parity with TrafficGenerator introspection
        return []


def trace_from_clients(clients) -> list[TraceRecord]:  # noqa: ANN001
    """Extract every *issued* transaction of a finished trial.

    Reconstructs the records from each traffic generator's released
    jobs; the result replays identically (same releases, deadlines,
    addresses) on any interconnect.
    """
    records: list[TraceRecord] = []
    for client in clients:
        task_index = {task.name: i for i, task in enumerate(client.taskset)}
        for job in client.jobs:
            base = client.address_base + (
                task_index.get(job.task_name, 0) << 16
            )
            wcet = next(
                (t.wcet for t in client.taskset if t.name == job.task_name), 0
            )
            # dropped transactions never entered the fabric; replay the rest
            for burst_index in range(wcet - job.dropped):
                records.append(
                    TraceRecord(
                        release_cycle=job.release,
                        client_id=client.client_id,
                        address=base + burst_index * client.BURST_STRIDE,
                        absolute_deadline=job.deadline,
                        task_name=job.task_name,
                    )
                )
    records.sort()
    return records


def split_by_client(records: list[TraceRecord]) -> dict[int, list[TraceRecord]]:
    """Partition a system trace into per-client traces."""
    result: dict[int, list[TraceRecord]] = {}
    for record in records:
        result.setdefault(record.client_id, []).append(record)
    return result
