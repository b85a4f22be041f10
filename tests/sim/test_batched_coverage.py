"""Branch coverage of the batched envelope and of the fused fabric pass.

Every reason :mod:`repro.sim.batched.extract` can give for sending a
simulation back to the scalar engine has a system here that trips it,
and :func:`check_supported` (or :func:`extract_plan`, for the two key
range checks) must refuse that system with exactly that reason.  The
reasons are read from the module's source, so a new ``_require`` with
no system in :data:`BUILDERS` fails :func:`test_every_reason_is_built`.

The tree kernels tick every level in one pass per cycle; the exact pass
counter holds them to that at two tree depths, and a spy on the pass
inputs checks that the systems here drive every branch of the pass that
the envelope wall relies on: the TDM root's owner match and its
fallback, BlueScale's background pass and exhausted budgets, and a full
parent port that blocks a child's forward or frees up by the parent's
own pop.
"""

from __future__ import annotations

import ast
import inspect
import random
from collections import Counter

import numpy as np
import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.experiments.ablation import FifoPortBuffer
from repro.experiments.factory import INTERCONNECT_NAMES
from repro.faults.plan import FaultEvent, FaultPlan
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.bluetree import BlueTreeInterconnect
from repro.interconnects.gsmtree import GsmTreeInterconnect
from repro.memory.controller import ArbitrationPolicy, MemoryController
from repro.memory.dram import DramDevice, FixedLatencyDevice
from repro.scenarios.plan import ScenarioPlan
from repro.sim import run_many
from repro.sim.batched import extract
from repro.sim.batched.bluescale import BlueScaleKernel
from repro.sim.batched.extract import (
    BIG,
    Ineligible,
    check_supported,
    extract_plan,
)
from repro.sim.batched.muxtree import MuxTreeKernel
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.task import PeriodicTask
from repro.tasks.taskset import TaskSet

from tests.conftest import make_request
from tests.sim import test_batched_envelope as envelope
from tests.sim.test_batched_equivalence import build_sim as build_design
from tests.sim.test_batched_equivalence import snapshot

N_PORTS = 4


def tasksets():
    return generate_client_tasksets(
        random.Random(3),
        n_clients=N_PORTS,
        tasks_per_client=2,
        system_utilization=0.4,
    )


def make_sim(fabric=None, *, clients=None, **kwargs) -> SoCSimulation:
    """A fresh, eligible 4-port system; ``kwargs`` go to the simulation."""
    sets = tasksets()
    if fabric is None:
        fabric = BlueTreeInterconnect(N_PORTS)
    if clients is None:
        clients = [
            TrafficGenerator(c, sets[c], rng=random.Random(c))
            for c in range(N_PORTS)
        ]
    return SoCSimulation(clients, fabric, **kwargs)


def bluescale() -> BlueScaleInterconnect:
    fabric = BlueScaleInterconnect(N_PORTS)
    fabric.configure(tasksets())
    return fabric


def regulated_axi() -> AxiIcRtInterconnect:
    fabric = AxiIcRtInterconnect(N_PORTS)
    fabric.configure_regulation([10] * N_PORTS, 50)
    return fabric


class _Controller(MemoryController):
    pass


class _Client(TrafficGenerator):
    pass


class _Tree(BlueTreeInterconnect):
    pass


def _tracing():
    return make_sim(observability=True)


def _scenario():
    return make_sim(scenario=ScenarioPlan.none())


def _stale_faults():
    sim = make_sim(faults=FaultPlan.none())
    sim.faults.rogue_requests = 1
    return sim


def _controller_subclass():
    return make_sim(controller=_Controller(FixedLatencyDevice(1)))


def _fr_fcfs():
    return make_sim(
        controller=MemoryController(
            FixedLatencyDevice(1), policy=ArbitrationPolicy.FR_FCFS
        )
    )


def _busy_controller():
    sim = make_sim()
    sim.controller._in_service = make_request()
    return sim


def _dram():
    return make_sim(controller=MemoryController(DramDevice()))


def _zero_latency():
    sim = make_sim()
    # the device is frozen and refuses 0 itself
    object.__setattr__(sim.controller.device, "cycles_per_access", 0)
    return sim


def _client_subclass():
    sets = tasksets()
    clients = [TrafficGenerator(c, sets[c]) for c in range(N_PORTS - 1)]
    clients.append(_Client(N_PORTS - 1, sets[N_PORTS - 1]))
    return make_sim(clients=clients)


def _used_client():
    sim = make_sim()
    sim.clients[1].released_requests = 1
    return sim


def _detached_controller():
    sim = make_sim()
    sim.interconnect.controller = MemoryController(FixedLatencyDevice(1))
    return sim


def _responses_in_flight():
    sim = make_sim()
    sim.interconnect._responses.append((5, 0, make_request()))
    return sim


def _used_mux():
    sim = make_sim()
    sim.interconnect._occupancy = 1
    return sim


def _used_axi():
    sim = make_sim(AxiIcRtInterconnect(N_PORTS))
    sim.interconnect._fifos[2].append(make_request(client_id=2))
    return sim


def _used_bluescale():
    sim = make_sim(bluescale())
    sim.interconnect._occupancy = 1
    return sim


def _gsm_credits():
    sim = make_sim(GsmTreeInterconnect(N_PORTS))
    sim.interconnect._credits[1] = 0.0
    return sim


def _axi_regulation():
    sim = make_sim(regulated_axi())
    sim.interconnect._next_refill = 50
    return sim


def _fifo_buffers():
    fabric = bluescale()
    element = fabric.elements[(0, 0)]
    element.buffers[0] = FifoPortBuffer(element.buffers[0].capacity)
    return make_sim(fabric)


def _spent_server():
    fabric = bluescale()
    counters = fabric.elements[(0, 0)].scheduler.servers[0].counters
    counters.b_counter.value -= 1
    return make_sim(fabric)


def _tree_subclass():
    return make_sim(_Tree(N_PORTS))


def _ragged_latency():
    sim = make_sim()
    sim.interconnect.response_latency = lambda client_id: 1 + client_id
    return sim


def _far_deadline():
    sets = tasksets()
    sets[0] = TaskSet([PeriodicTask(period=1 << 24, wcet=1, name="far")])
    clients = [TrafficGenerator(c, sets[c]) for c in range(N_PORTS)]
    return make_sim(clients=clients)


def _huge_burst():
    burst = FaultEvent(cycle=0, client_id=0, magnitude=1 << 24)
    return make_sim(faults=FaultPlan((burst,)))


#: every refusal reason → the systems that must be refused with it
BUILDERS = {
    "observability tracing enabled": [_tracing],
    "scenario plan attached": [_scenario],
    "fault orchestrator not fresh": [_stale_faults],
    "non-default memory controller": [_controller_subclass],
    "non-FCFS controller policy": [_fr_fcfs],
    "controller not fresh": [_busy_controller],
    "non-fixed-latency device": [_dram],
    "bad device latency": [_zero_latency],
    "unknown client type": [_client_subclass],
    "client not fresh": [_used_client],
    "controller not attached": [_detached_controller],
    "responses in flight": [_responses_in_flight],
    "interconnect not fresh": [_used_mux, _used_axi, _used_bluescale],
    "GSM credits not fresh": [_gsm_credits],
    "AXI regulation not fresh": [_axi_regulation],
    "non-default scale-element part": [_fifo_buffers],
    "scale-element servers not fresh": [_spent_server],
    "unknown interconnect type": [_tree_subclass],
    "non-uniform response latency": [_ragged_latency],
}

#: the reasons only the plan extraction can give
PLAN_BUILDERS = {
    "absolute deadline exceeds key range": _far_deadline,
    "request count exceeds key range": _huge_burst,
}


def declared_reasons() -> set[str]:
    """Every string ``extract.py`` hands to ``_require`` or
    ``Ineligible``."""
    tree = ast.parse(inspect.getsource(extract))
    reasons = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        if node.func.id == "_require":
            argument = node.args[1]
        elif node.func.id == "Ineligible" and node.args:
            argument = node.args[0]
            if isinstance(argument, ast.Name):
                continue  # ``_require``'s own raise
        else:
            continue
        assert isinstance(argument, ast.Constant), ast.dump(node)
        reasons.add(argument.value)
    return reasons


def test_every_reason_is_built():
    assert declared_reasons() == set(BUILDERS) | set(PLAN_BUILDERS)


@pytest.mark.parametrize(
    "reason, build",
    [(reason, build) for reason, builds in BUILDERS.items() for build in builds],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_check_supported_refuses_with_reason(reason, build):
    sim = build()
    with pytest.raises(Ineligible) as refused:
        check_supported(sim)
    assert str(refused.value) == reason


@pytest.mark.parametrize("reason", sorted(PLAN_BUILDERS))
def test_extract_plan_refuses_with_reason(reason):
    sim = PLAN_BUILDERS[reason]()
    check_supported(sim)
    with pytest.raises(Ineligible) as refused:
        extract_plan(sim, horizon=10, drain=0)
    assert str(refused.value) == reason


def test_baseline_systems_are_eligible():
    """Each builder's starting point passes, so the refusal above is
    the one tweak each builder makes."""
    for fabric in (
        BlueTreeInterconnect(N_PORTS),
        GsmTreeInterconnect(N_PORTS),
        AxiIcRtInterconnect(N_PORTS),
        regulated_axi(),
        bluescale(),
    ):
        check_supported(make_sim(fabric))


# -- the fused fabric pass -------------------------------------------------


@pytest.mark.parametrize("n_clients", [16, 64])
def test_one_fabric_pass_per_cycle(n_clients, fabric_passes, kernel_groups):
    """Each tree kernel makes exactly one pass in every cycle its fabric
    holds a request, and none in the others, whatever the tree depth."""
    sims = [
        build_design(name, n_clients, 0.6, seed)
        for name in INTERCONNECT_NAMES
        for seed in (5, 6)
    ]
    run_many(sims, 800, drain=400, backend="batched")
    assert kernel_groups == [len(sims)]
    kernels = {id(record[0]): record[0] for record in fabric_passes}
    assert sorted(type(k).__name__ for k in kernels.values()) == [
        "BlueScaleKernel",
        "MuxTreeKernel",
    ]
    depths = {type(k).__name__: int(k.tree.level.max()) for k in kernels.values()}
    expected = {16: (1, 3), 64: (2, 5)}[n_clients]
    assert (depths["BlueScaleKernel"], depths["MuxTreeKernel"]) == expected
    # one tick per kernel per cycle, one pass per busy tick
    ticks = {(id(kernel), cycle) for kernel, cycle, _, _ in fabric_passes}
    assert len(ticks) == len(fabric_passes)
    busy = sum(1 for record in fabric_passes if record[2])
    assert busy > 0
    assert [record[3] for record in fabric_passes] == [
        int(record[2]) for record in fabric_passes
    ]


def _parent_ports(kernel, fill, flat_keys, capacity, wants, active):
    """(trial, child) pairs that want to forward into a full parent
    port, with that port's keys before the pass."""
    full = fill[:, kernel.tree.parent_port[1:]] >= capacity
    tt, gg = np.nonzero(wants[:, 1:] & full & active[:, None])
    gg = gg + 1
    return tt, gg, flat_keys[tt, kernel.tree.parent_port[gg]].copy()


def _full_parent_outcome(kernel, flat_keys, before, seen, label) -> None:
    """A full parent port the pass left untouched blocked the child; one
    whose keys changed was freed by the parent's pop (and refilled by
    the child)."""
    tt, gg, keys = before
    if not len(tt):
        return
    after = flat_keys[tt, kernel.tree.parent_port[gg]]
    changed = (after != keys).any(axis=1)
    if (~changed).any():
        seen[f"{label}: full parent port blocks the child"] += 1
    if changed.any():
        seen[f"{label}: parent pop frees a full port"] += 1


def _spy_mux(seen):
    one_pass = MuxTreeKernel._pass

    def spy(self, cycle, active):
        wants = self.length.sum(axis=2) > 0
        if self.credits is not None:
            gsm = np.zeros(self.n, dtype=bool)
            gsm[self.gsm_rows] = True
            cid = self.core.rclient[np.arange(self.n)[:, None, None], self.buf[:, 0]]
            match = (
                (self.kbuf[:, 0] < BIG) & (cid == self.owner[:, None, None])
            ).any(axis=(1, 2))
            root = wants[:, 0] & gsm & active
            if (root & match).any():
                seen["tdm root: owner match"] += 1
            if (root & ~match).any():
                seen["tdm root: fallback to FCFS"] += 1
        before = _parent_ports(
            self, self.flen, self.fkbuf, self.fcap, wants, active
        )
        one_pass(self, cycle, active)
        _full_parent_outcome(self, self.fkbuf, before, seen, "mux")

    return spy


def _spy_bluescale(seen):
    one_pass = BlueScaleKernel._pass

    def spy(self, cycle, active):
        occupied = self.cnt > 0
        live = np.where(
            self.spent_in == cycle // self.period,
            self.budget,
            self.budget_full,
        )
        budgeted = (occupied & (live > 0)).any(axis=2)
        background = (occupied & self.idle).any(axis=2)
        on = active[:, None]
        if (on & ~budgeted & background).any():
            seen["bluescale: background pass"] += 1
        if (on[..., None] & occupied & ~self.idle & (live == 0)).any():
            seen["bluescale: budget exhausted"] += 1
        before = _parent_ports(
            self, self.fcnt, self.fkslots, self.cap, budgeted | background, active
        )
        one_pass(self, cycle, active)
        _full_parent_outcome(self, self.fkslots, before, seen, "bluescale")

    return spy


#: systems that drive every fused branch: congested GSMTree and
#: BlueTree trees with one-slot FIFOs, and BlueScale with one-slot port
#: buffers whose idle client takes rogue bursts
BRANCH_ROSTER = envelope.Roster(
    kinds=("generator", "idle", "processor", "generator", "accelerator",
           "generator", "generator", "generator"),
    pending_capacity=256,
    queue_capacity=2,
    cycles_per_access=1,
)
BRANCH_TRIALS = [
    envelope.Trial(
        design=design,
        fifo_capacity=1,
        alpha=2,
        frame_factor=2,
        window=None,
        utilization=0.8,
        seed=seed,
        rogue=((1, 50, 400, 6, 25, 8),),
    )
    for design in ("GSMTree-TDM", "GSMTree-FBSP", "BlueTree", "BlueScale")
    for seed in (1, 2)
]

FUSED_BRANCHES = {
    "tdm root: owner match",
    "tdm root: fallback to FCFS",
    "mux: full parent port blocks the child",
    "mux: parent pop frees a full port",
    "bluescale: background pass",
    "bluescale: budget exhausted",
    "bluescale: full parent port blocks the child",
    "bluescale: parent pop frees a full port",
}


def test_fused_branches_fire(monkeypatch):
    seen: Counter = Counter()
    monkeypatch.setattr(MuxTreeKernel, "_pass", _spy_mux(seen))
    monkeypatch.setattr(BlueScaleKernel, "_pass", _spy_bluescale(seen))
    sims = [envelope.build_sim(BRANCH_ROSTER, trial) for trial in BRANCH_TRIALS]
    results = run_many(
        sims, envelope.HORIZON, drain=envelope.DRAIN, backend="batched"
    )
    assert set(seen) == FUSED_BRANCHES, seen
    for trial, sim, result in zip(BRANCH_TRIALS, sims, results):
        scalar_sim = envelope.build_sim(BRANCH_ROSTER, trial)
        scalar = scalar_sim.run(envelope.HORIZON, drain=envelope.DRAIN)
        assert snapshot(sim, result) == snapshot(scalar_sim, scalar), trial
