"""Processor clients for the case study (paper Sec. 6.4).

A :class:`ProcessorClient` is a traffic generator whose task set mixes
*application* tasks (the monitored automotive safety / function tasks)
with *interference* tasks added to reach a target utilization.  Only
application tasks count toward the success ratio, matching the paper's
setup where interference tasks merely load the system.
"""

from __future__ import annotations

import random

from repro.clients.traffic_generator import TrafficGenerator
from repro.tasks.taskset import TaskSet


class ProcessorClient(TrafficGenerator):
    """A fully featured processor core modelled by its memory traffic."""

    def __init__(
        self,
        client_id: int,
        application_tasks: TaskSet,
        interference_tasks: TaskSet | None = None,
        rng: random.Random | None = None,
    ) -> None:
        interference = interference_tasks if interference_tasks is not None else TaskSet()
        combined = application_tasks.merged_with(interference)
        monitored = {task.name for task in application_tasks}
        super().__init__(
            client_id=client_id,
            taskset=combined,
            rng=rng,
            write_ratio=0.25,  # a quarter of a core's transactions write
            monitored_tasks=monitored,
        )
        self.application_tasks = application_tasks
        self.interference_tasks = interference

    @property
    def application_utilization(self) -> float:
        return self.application_tasks.utilization_float

    @property
    def total_utilization(self) -> float:
        return self.taskset.utilization_float
