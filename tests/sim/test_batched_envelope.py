"""Equivalence wall over the batched envelope.

Hypothesis puts 2–6 trials into one :func:`repro.sim.batched.run_many`
call.  What a lock-step group shares is drawn once per call:

* the client roster — each port a plain traffic generator, a processor
  client (monitored application tasks plus interference), a
  bandwidth-capped accelerator, an idle generator with no tasks, or no
  client at all,
* the generators' ``pending_capacity`` — down to 1, so releases
  overflow and drop,
* the memory controller's ``queue_capacity`` and service cost.

Each trial then gets its own randomly parameterised fabric: BlueTree
and BlueTree-Smooth with FIFO capacity 1–8 and blocking factor α 1–4,
GSMTree with an equal-share TDM frame or an FBSP frame whose length
(``min_frame`` ∈ {n, 2n, 4n}) differs from trial to trial, AXI-IC^RT
with FIFO capacity 1–8, regulated over a drawn window or not, and
BlueScale with port buffers of depth 1–8 — plus, optionally, a rogue
fault plan of one or two burst windows aimed at any port (an absent
port's firings are ignored, an idle client's land on an idle
interface).  The whole call must run as a single lock-step group, and
every trial must still match the scalar fast path bit for bit and, for
the first trial of each call, the literal cycle-by-cycle reference.

Sizes stay tiny (at most 8 ports, short horizons) so the file runs in
well under 20 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clients.accelerator import AcceleratorClient
from repro.clients.processor import ProcessorClient
from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.experiments.factory import AXI_MARGIN
from repro.faults.plan import FaultEvent, FaultPlan
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.bluetree import (
    BlueTreeInterconnect,
    BlueTreeSmoothInterconnect,
)
from repro.interconnects.gsmtree import GsmTreeInterconnect, gsmtree_fbsp
from repro.memory.controller import MemoryController
from repro.memory.dram import FixedLatencyDevice
from repro.sim import run_many
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.taskset import TaskSet

from tests.sim.test_batched_equivalence import snapshot

HORIZON = 600
DRAIN = 300

DESIGNS = (
    "BlueTree",
    "BlueTree-Smooth",
    "GSMTree-TDM",
    "GSMTree-FBSP",
    "AXI-IC^RT",
    "BlueScale",
)

#: what sits on one port of the roster
KINDS = ("generator", "processor", "accelerator", "idle", "absent")


@dataclass(frozen=True)
class Roster:
    """What every trial of one lock-step group shares."""

    kinds: tuple[str, ...]
    #: the plain and idle generators' pending-queue capacity
    pending_capacity: int
    queue_capacity: int
    cycles_per_access: int

    @property
    def n_ports(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class Trial:
    """One trial's fabric parameters, workload and fault plan."""

    design: str
    #: FIFO capacity (mux trees, AXI) or port buffer depth (BlueScale)
    fifo_capacity: int
    alpha: int
    #: FBSP frame length as a multiple of the client count
    frame_factor: int
    #: AXI-IC^RT regulation window; None = unregulated
    window: int | None
    utilization: float
    seed: int
    #: rogue bursts as (port, start, duration, magnitude, period, slack)
    rogue: tuple[tuple[int, int, int, int, int, int], ...]


@st.composite
def rosters(draw) -> Roster:
    n_ports = draw(st.sampled_from([3, 5, 8]))
    kinds = draw(
        st.lists(st.sampled_from(KINDS), min_size=n_ports, max_size=n_ports)
    )
    if kinds[0] == "absent":
        kinds[0] = "generator"
    return Roster(
        kinds=tuple(kinds),
        pending_capacity=draw(st.sampled_from([1, 3, 256])),
        queue_capacity=draw(st.sampled_from([1, 2, 4])),
        cycles_per_access=draw(st.sampled_from([1, 1, 2])),
    )


@st.composite
def rogue_events(draw, n_ports: int):
    return (
        draw(st.integers(min_value=0, max_value=n_ports - 1)),
        draw(st.integers(min_value=0, max_value=HORIZON)),
        draw(st.integers(min_value=1, max_value=300)),
        draw(st.integers(min_value=1, max_value=16)),
        draw(st.sampled_from([0, 7, 25, 60])),
        draw(st.integers(min_value=1, max_value=64)),
    )


@st.composite
def trials(draw, n_ports: int) -> Trial:
    return Trial(
        design=draw(st.sampled_from(DESIGNS)),
        # one-slot buffers half the time: full ports, blocked children
        fifo_capacity=draw(
            st.one_of(st.just(1), st.integers(min_value=1, max_value=8))
        ),
        alpha=draw(st.integers(min_value=1, max_value=4)),
        frame_factor=draw(st.sampled_from([1, 2, 4])),
        window=draw(st.sampled_from([None, 16, 50, 200])),
        utilization=draw(st.sampled_from([0.1, 0.4, 0.8])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        rogue=tuple(
            draw(st.lists(rogue_events(n_ports), min_size=0, max_size=2))
        ),
    )


@st.composite
def groups(draw) -> tuple[Roster, list[Trial]]:
    roster = draw(rosters())
    group = draw(st.lists(trials(roster.n_ports), min_size=2, max_size=6))
    return roster, group


def regulation_budgets(tasksets, n_ports: int, window: int) -> list[int]:
    """``factory.axi_budgets``'s rule over an arbitrary window."""
    budgets = []
    for port in range(n_ports):
        taskset = tasksets.get(port, TaskSet())
        proportional = round(taskset.utilization_float * window * AXI_MARGIN)
        burst_floor = 2 * max((t.wcet for t in taskset), default=0)
        budgets.append(min(window, max(1, proportional, burst_floor)))
    return budgets


def build_fabric(trial: Trial, n_ports: int, tasksets):
    f = trial.fifo_capacity
    if trial.design == "BlueTree":
        return BlueTreeInterconnect(n_ports, fifo_capacity=f, alpha=trial.alpha)
    if trial.design == "BlueTree-Smooth":
        return BlueTreeSmoothInterconnect(
            n_ports, fifo_capacity=f, alpha=trial.alpha
        )
    if trial.design == "GSMTree-TDM":
        return GsmTreeInterconnect(n_ports, fifo_capacity=f)
    if trial.design == "AXI-IC^RT":
        fabric = AxiIcRtInterconnect(n_ports, fifo_capacity=f)
        if trial.window is not None:
            fabric.configure_regulation(
                regulation_budgets(tasksets, n_ports, trial.window),
                trial.window,
            )
        return fabric
    if trial.design == "BlueScale":
        fabric = BlueScaleInterconnect(n_ports, buffer_capacity=f)
        fabric.configure(tasksets)
        return fabric
    weights = [
        tasksets.get(c, TaskSet()).utilization_float for c in range(n_ports)
    ]
    return gsmtree_fbsp(
        n_ports,
        weights,
        fifo_capacity=f,
        min_frame=trial.frame_factor * n_ports,
    )


def build_client(kind: str, port: int, taskset, roster: Roster, seed: int):
    rng = random.Random(seed * 131 + port)
    if kind == "processor":
        return ProcessorClient(
            port,
            TaskSet(taskset.tasks[:1]),
            TaskSet(taskset.tasks[1:]),
            rng=rng,
        )
    if kind == "accelerator":
        return AcceleratorClient(
            port, taskset, bandwidth_cap=1.0 / roster.n_ports, rng=rng
        )
    return TrafficGenerator(
        port, taskset, pending_capacity=roster.pending_capacity, rng=rng
    )


def build_sim(
    roster: Roster, trial: Trial, *, fast: bool = True
) -> SoCSimulation:
    """A fresh simulation; equal arguments build identical trials."""
    rng = random.Random(trial.seed)
    drawn = generate_client_tasksets(
        rng,
        n_clients=roster.n_ports,
        tasks_per_client=2,
        system_utilization=trial.utilization,
    )
    tasksets = {
        port: TaskSet() if kind == "idle" else drawn[port]
        for port, kind in enumerate(roster.kinds)
        if kind != "absent"
    }
    fabric = build_fabric(trial, roster.n_ports, tasksets)
    clients = [
        build_client(kind, port, tasksets[port], roster, trial.seed)
        for port, kind in enumerate(roster.kinds)
        if kind != "absent"
    ]
    controller = MemoryController(
        FixedLatencyDevice(roster.cycles_per_access),
        queue_capacity=roster.queue_capacity,
    )
    faults = None
    if trial.rogue:
        faults = FaultPlan(
            tuple(
                FaultEvent(
                    cycle=start,
                    duration=duration,
                    client_id=port,
                    magnitude=magnitude,
                    period=period,
                    deadline_slack=slack,
                )
                for port, start, duration, magnitude, period, slack in trial.rogue
            )
        )
    return SoCSimulation(
        clients, fabric, controller=controller, fast_path=fast, faults=faults
    )


@given(drawn=groups())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mixed_group_matches_scalar(drawn, kernel_groups):
    roster, group = drawn
    kernel_groups.clear()
    sims = [build_sim(roster, trial) for trial in group]
    results = run_many(sims, HORIZON, drain=DRAIN, backend="batched")
    assert len(kernel_groups) == 1, kernel_groups
    for index, (trial, sim, result) in enumerate(zip(group, sims, results)):
        scalar_sim = build_sim(roster, trial)
        scalar = scalar_sim.run(HORIZON, drain=DRAIN)
        assert snapshot(sim, result) == snapshot(scalar_sim, scalar), trial
        assert result.fault_counters == scalar.fault_counters, trial
        if index == 0:
            slow_sim = build_sim(roster, trial, fast=False)
            slow = slow_sim.run(HORIZON, drain=DRAIN)
            assert snapshot(sim, result) == snapshot(slow_sim, slow), trial
