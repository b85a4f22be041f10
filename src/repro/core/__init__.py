"""BlueScale core: Scale Elements, nested priority queues, quadtree."""

from repro.core.counters import CountdownCounter, ServerCounterPair
from repro.core.random_access_buffer import RandomAccessBuffer
from repro.core.local_scheduler import LocalScheduler, ServerTaskState
from repro.core.scale_element import ScaleElement
from repro.core.interconnect import BlueScaleInterconnect
from repro.core.algorithm1 import LocalTask, PendingJob, ServerTask, algorithm1

__all__ = [
    "LocalTask",
    "PendingJob",
    "ServerTask",
    "algorithm1",
    "CountdownCounter",
    "ServerCounterPair",
    "RandomAccessBuffer",
    "LocalScheduler",
    "ServerTaskState",
    "ScaleElement",
    "BlueScaleInterconnect",
]
