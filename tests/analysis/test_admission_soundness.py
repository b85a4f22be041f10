"""Admission soundness on pinned systems: admitted ⇒ no simulated miss.

The three task systems below compose schedulably — BlueScale's
admission test, ``select_interface``'s dbf <= sbf at every SE port,
accepts them — yet each misses one job when simulated at the
experiments' buffer depth 2.  The admission test charges no
priority-inversion blocking: when a port buffer is full of
later-deadline requests of the same client, the SE can spend a budget
unit on one of them before an earlier-deadline request gets in
(ROADMAP item 1 traces the mechanism on the first system).

The task sets are written out literally, so a change to the task-set
generator cannot move them.  Two are single-SE systems (n = 4), the
third a two-level tree (n = 16).
"""

import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.soc import SoCSimulation
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

HORIZON = 4_000
DRAIN = 2_000

#: per client, its tasks' ``(T, C)`` in order (named txn0, txn1)
SYSTEMS = {
    "seed-2197": {
        0: [(50, 15), (253, 5)],
        1: [(94, 5), (72, 7)],
        2: [(51, 7), (800, 5)],
        3: [(800, 7), (50, 2)],
    },
    "seed-3945": {
        0: [(50, 15), (51, 5)],
        1: [(50, 14), (80, 4)],
        2: [(95, 1), (800, 4)],
        3: [(142, 4), (800, 6)],
    },
    "seed-798": {
        0: [(50, 1), (50, 1)],
        1: [(304, 8), (337, 5)],
        2: [(50, 3), (191, 3)],
        3: [(800, 4), (800, 8)],
        4: [(800, 6), (800, 4)],
        5: [(800, 6), (59, 1)],
        6: [(97, 2), (198, 7)],
        7: [(800, 4), (800, 2)],
        8: [(418, 7), (305, 7)],
        9: [(324, 7), (161, 3)],
        10: [(487, 7), (99, 2)],
        11: [(564, 5), (234, 8)],
        12: [(210, 3), (229, 5)],
        13: [(73, 1), (272, 8)],
        14: [(551, 2), (800, 4)],
        15: [(395, 8), (579, 5)],
    },
}


def _tasksets(name: str) -> dict[int, TaskSet]:
    return {
        client: TaskSet(
            [
                PeriodicTask(
                    period=period, wcet=wcet, name=f"txn{i}", client_id=client
                )
                for i, (period, wcet) in enumerate(tasks)
            ]
        )
        for client, tasks in SYSTEMS[name].items()
    }


def _admitted(name: str):
    tasksets = _tasksets(name)
    interconnect = BlueScaleInterconnect(len(tasksets))
    composition = interconnect.configure(tasksets)
    return tasksets, interconnect, composition


@pytest.mark.parametrize("name", SYSTEMS)
def test_pinned_system_is_admitted(name):
    _, _, composition = _admitted(name)
    assert composition.schedulable, composition.failure


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 1: the dbf <= sbf admission test charges no "
        "priority-inversion blocking at buffer depth 2, and each pinned "
        "system misses one job"
    ),
)
@pytest.mark.parametrize("name", SYSTEMS)
def test_admitted_system_never_misses(name):
    tasksets, interconnect, composition = _admitted(name)
    assert composition.schedulable
    clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
    SoCSimulation(clients, interconnect).run(HORIZON, drain=DRAIN)
    assert sum(c.monitored_jobs_judged(HORIZON) for c in clients) > 0
    assert sum(c.monitored_job_misses(HORIZON) for c in clients) == 0
