"""DNN hardware-accelerator clients (paper Sec. 6: two DNN HAs).

An accelerator streams inference workloads: each periodic inference
job fetches a large, contiguous burst of data (weights + activations),
making the HA the most memory-intensive client in the system.  The
paper enforces a bandwidth cap on the HA (1/#clients of the memory
bandwidth) because not all baselines support reservations; the
``bandwidth_cap`` parameter reproduces that throttle at the source by
spacing the HA's injections.
"""

from __future__ import annotations

import heapq
import random

from repro.clients.traffic_generator import TrafficGenerator
from repro.errors import ConfigurationError
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet


def dnn_inference_task(
    name: str, period: int, requests_per_inference: int, client_id: int | None = None
) -> PeriodicTask:
    """A periodic inference job expressed as a memory-transaction task."""
    return PeriodicTask(
        period=period,
        wcet=requests_per_inference,
        name=name,
        client_id=client_id,
    )


class AcceleratorClient(TrafficGenerator):
    """A DNN hardware accelerator issuing streaming burst traffic."""

    def __init__(
        self,
        client_id: int,
        inference_tasks: TaskSet,
        bandwidth_cap: float = 1.0,
        rng: random.Random | None = None,
    ) -> None:
        if not 0.0 < bandwidth_cap <= 1.0:
            raise ConfigurationError(
                f"bandwidth cap {bandwidth_cap} outside (0, 1]"
            )
        super().__init__(
            client_id=client_id,
            taskset=inference_tasks,
            pending_capacity=1024,
            rng=rng,
            write_ratio=0.0,  # inference streams are read-dominated
        )
        self.bandwidth_cap = bandwidth_cap
        # Inject at most one request per ceil(1/cap) cycles.
        self._inject_interval = max(1, round(1.0 / bandwidth_cap))
        self._last_inject = -(10**9)

    def tick(self, cycle: int, inject) -> None:  # noqa: ANN001 - hook
        self._release_due_jobs(cycle)
        if not self._pending:
            return
        if cycle - self._last_inject < self._inject_interval:
            return
        _, request = self._pending[0]
        if inject(request, cycle):
            heapq.heappop(self._pending)
            self._last_inject = cycle

    # -- quiescence ------------------------------------------------------------
    def is_quiescent(self) -> bool:
        """The throttle makes even a backlogged HA quiescent: between
        injection opportunities a tick only catches up job releases,
        which is exact after a leap (releases use stored cycles)."""
        return True

    def next_activity_cycle(self, cycle: int) -> int | None:
        """Next injection opportunity or job release, whichever is first.

        Releases must land on their exact cycles (request ids are
        assigned globally in release order, and they tie-break EDF
        arbitration), so the release heap always bounds the leap.  When
        injection eligibility has already arrived — e.g. the port is
        exerting backpressure — this returns a cycle in the past and
        the engine simply does not leap.
        """
        earliest: int | None = None
        if self._pending:
            earliest = self._last_inject + self._inject_interval
        if self._release_heap:
            release = self._release_heap[0][0]
            if earliest is None or release < earliest:
                earliest = release
        return earliest
