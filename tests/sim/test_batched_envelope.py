"""Equivalence wall over mixed lock-step groups.

Hypothesis puts 2–6 trials into one :func:`repro.sim.batched.run_many`
call, each on its own randomly parameterised fabric: BlueTree and
BlueTree-Smooth with FIFO capacity 1–8 and blocking factor α 1–4,
GSMTree with an equal-share TDM frame or an FBSP frame whose length
(``min_frame`` ∈ {n, 2n, 4n}) differs from trial to trial, AXI-IC^RT
with FIFO capacity 1–8, regulated or not, and BlueScale with port
buffers of depth 1–8.  The trials share one client roster, so the
whole call must run as a single lock-step group — mux-tree rows on one
kernel, the others on one kernel per buffer geometry — and every trial
must still match the scalar fast path bit for bit and, for the first
trial of each call, the literal cycle-by-cycle reference.

Sizes stay tiny (at most 8 clients, short horizons) so the file runs
in well under 20 s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clients.accelerator import AcceleratorClient
from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.experiments.factory import AXI_WINDOW, axi_budgets
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.bluetree import (
    BlueTreeInterconnect,
    BlueTreeSmoothInterconnect,
)
from repro.interconnects.gsmtree import GsmTreeInterconnect, gsmtree_fbsp
from repro.sim import run_many
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets

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


@dataclass(frozen=True)
class Trial:
    """One trial's fabric parameters and workload."""

    design: str
    #: FIFO capacity (mux trees, AXI) or port buffer depth (BlueScale)
    fifo_capacity: int
    alpha: int
    #: FBSP frame length as a multiple of the client count
    frame_factor: int
    #: AXI-IC^RT bandwidth regulation on or off
    regulated: bool
    utilization: float
    seed: int


@st.composite
def trials(draw) -> Trial:
    return Trial(
        design=draw(st.sampled_from(DESIGNS)),
        fifo_capacity=draw(st.integers(min_value=1, max_value=8)),
        alpha=draw(st.integers(min_value=1, max_value=4)),
        frame_factor=draw(st.sampled_from([1, 2, 4])),
        regulated=draw(st.booleans()),
        utilization=draw(st.sampled_from([0.1, 0.4, 0.8])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


def build_fabric(trial: Trial, n_clients: int, tasksets):
    f = trial.fifo_capacity
    if trial.design == "BlueTree":
        return BlueTreeInterconnect(n_clients, fifo_capacity=f, alpha=trial.alpha)
    if trial.design == "BlueTree-Smooth":
        return BlueTreeSmoothInterconnect(
            n_clients, fifo_capacity=f, alpha=trial.alpha
        )
    if trial.design == "GSMTree-TDM":
        return GsmTreeInterconnect(n_clients, fifo_capacity=f)
    if trial.design == "AXI-IC^RT":
        fabric = AxiIcRtInterconnect(n_clients, fifo_capacity=f)
        if trial.regulated:
            fabric.configure_regulation(
                axi_budgets(n_clients, tasksets), AXI_WINDOW
            )
        return fabric
    if trial.design == "BlueScale":
        fabric = BlueScaleInterconnect(n_clients, buffer_capacity=f)
        fabric.configure(tasksets)
        return fabric
    weights = [tasksets[c].utilization_float for c in range(n_clients)]
    return gsmtree_fbsp(
        n_clients,
        weights,
        fifo_capacity=f,
        min_frame=trial.frame_factor * n_clients,
    )


def build_sim(
    trial: Trial, n_clients: int, accelerator: bool, *, fast: bool = True
) -> SoCSimulation:
    """A fresh simulation; equal arguments build identical trials."""
    rng = random.Random(trial.seed)
    tasksets = generate_client_tasksets(
        rng,
        n_clients=n_clients,
        tasks_per_client=2,
        system_utilization=trial.utilization,
    )
    fabric = build_fabric(trial, n_clients, tasksets)
    n_generators = n_clients - 1 if accelerator else n_clients
    clients: list = [
        TrafficGenerator(c, tasksets[c], rng=random.Random(trial.seed * 131 + c))
        for c in range(n_generators)
    ]
    if accelerator:
        clients.append(
            AcceleratorClient(
                n_clients - 1,
                tasksets[n_clients - 1],
                bandwidth_cap=1.0 / n_clients,
                rng=random.Random(trial.seed + 7),
            )
        )
    return SoCSimulation(clients, fabric, fast_path=fast)


@given(
    group=st.lists(trials(), min_size=2, max_size=6),
    n_clients=st.sampled_from([3, 5, 8]),
    accelerator=st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mixed_group_matches_scalar(group, n_clients, accelerator, kernel_groups):
    kernel_groups.clear()
    sims = [build_sim(trial, n_clients, accelerator) for trial in group]
    results = run_many(sims, HORIZON, drain=DRAIN, backend="batched")
    assert len(kernel_groups) == 1, kernel_groups
    for index, (trial, sim, result) in enumerate(zip(group, sims, results)):
        scalar_sim = build_sim(trial, n_clients, accelerator)
        scalar = scalar_sim.run(HORIZON, drain=DRAIN)
        assert snapshot(sim, result) == snapshot(scalar_sim, scalar), trial
        if index == 0:
            slow_sim = build_sim(trial, n_clients, accelerator, fast=False)
            slow = slow_sim.run(HORIZON, drain=DRAIN)
            assert snapshot(sim, result) == snapshot(slow_sim, slow), trial
