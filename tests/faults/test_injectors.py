"""FaultOrchestrator integration: determinism on both engine paths,
inertness of the empty plan, and the rogue-burst hook.

The heavyweight guarantees here are:

* an instrumented run under ``FaultPlan.none()`` is **bit-for-bit**
  identical (same completion-trace digest) to an uninstrumented run, on
  both the quiescence fast path and the cycle-by-cycle path;
* every rogue plan produces identical digests and fault counters on
  the fast and slow paths (the orchestrator declares every burst cycle
  as activity, so no leap crosses one).
"""

import random

import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.errors import ConfigurationError
from repro.experiments.factory import build_interconnect
from repro.faults import FaultEvent, FaultOrchestrator, FaultPlan
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets

HORIZON, DRAIN = 1_200, 700
N_CLIENTS = 8

# one design per arbitration code path: SE tree, mux tree, AXI switch
DESIGNS = ("BlueScale", "GSMTree-TDM", "AXI-IC^RT")


def run_design(name, faults, fast, workload_seed=7):
    rng = random.Random(workload_seed)
    tasksets = generate_client_tasksets(
        rng, N_CLIENTS, 2, 0.6, period_min=100, period_max=900
    )
    interconnect = build_interconnect(name, N_CLIENTS, tasksets)
    clients = [
        TrafficGenerator(cid, ts, rng=random.Random(1_000 + cid))
        for cid, ts in tasksets.items()
    ]
    simulation = SoCSimulation(
        clients, interconnect, fast_path=fast, faults=faults
    )
    result = simulation.run(HORIZON, drain=DRAIN)
    return simulation, result


SEEDED_PLANS = {
    "rogue": FaultPlan.rogue_client(0, 200, 900, burst_size=12, burst_every=100),
    # two targets, one shared firing cycle, overlapping windows
    "rogue-overlap": FaultPlan(
        (
            FaultEvent(
                cycle=300,
                duration=500,
                client_id=2,
                magnitude=6,
                period=70,
                deadline_slack=20,
            ),
            FaultEvent(cycle=300, client_id=6, magnitude=10, deadline_slack=40),
            FaultEvent(cycle=510, client_id=2, magnitude=4, deadline_slack=9),
        )
    ),
    # fires in the drain window, after the client stage stops injecting
    "rogue-drain": FaultPlan(
        (FaultEvent(cycle=HORIZON + 50, client_id=3, magnitude=5),)
    ),
}


@pytest.mark.parametrize("name", DESIGNS)
def test_empty_plan_is_bit_for_bit_inert(name):
    """Instrumented-with-nothing == uninstrumented, on both paths."""
    digests = set()
    for fast in (True, False):
        _, bare = run_design(name, None, fast)
        _, instrumented = run_design(name, FaultPlan.none(), fast)
        assert instrumented.trace_digest == bare.trace_digest
        assert instrumented.fault_counters["events_applied"] == 0
        digests.add(bare.trace_digest)
    assert len(digests) == 1  # fast == slow as well


@pytest.mark.parametrize("label", sorted(SEEDED_PLANS))
@pytest.mark.parametrize("name", DESIGNS)
def test_fast_path_equals_slow_path_under_faults(name, label):
    plan = SEEDED_PLANS[label]
    _, fast = run_design(name, plan, True)
    _, slow = run_design(name, plan, False)
    assert fast.trace_digest == slow.trace_digest
    assert fast.fault_counters == slow.fault_counters
    assert fast.fault_counters["events_applied"] > 0
    assert fast.requests_released == slow.requests_released
    assert fast.requests_dropped == slow.requests_dropped


class TestPerKindHooks:
    def test_rogue_burst_wakes_a_sleeping_client(self):
        """A burst lands while the target client's pending queue is
        empty (it would otherwise sleep past the injection on the fast
        path); the extra transactions still flow and both paths agree."""
        plan = FaultPlan.rogue_client(
            5, 700, 800, burst_size=6, burst_every=200
        )
        sim_fast, fast = run_design("BlueScale", plan, True)
        _, slow = run_design("BlueScale", plan, False)
        assert fast.trace_digest == slow.trace_digest
        assert fast.fault_counters["rogue_requests"] == 6
        client = sim_fast.clients[5]
        assert "!rogue" in client.max_response_by_task  # they completed


class TestObservability:
    def test_fault_events_emit_spans_and_counters(self):
        plan = SEEDED_PLANS["rogue-overlap"]
        rng = random.Random(7)
        tasksets = generate_client_tasksets(
            rng, N_CLIENTS, 2, 0.6, period_min=100, period_max=900
        )
        interconnect = build_interconnect("BlueScale", N_CLIENTS, tasksets)
        clients = [
            TrafficGenerator(cid, ts, rng=random.Random(1_000 + cid))
            for cid, ts in tasksets.items()
        ]
        simulation = SoCSimulation(
            clients, interconnect, observability=True, faults=plan
        )
        simulation.run(HORIZON, drain=DRAIN)
        spans = simulation.tracer.recorder.spans()
        fault_spans = [s for s in spans if s.kind == "fault"]
        assert fault_spans
        assert {s.site.startswith("fault:") for s in fault_spans} == {True}
        counters = simulation.tracer.registry.counters
        assert any(k.startswith("faults/") for k in counters)

    def test_tracing_does_not_perturb_a_faulted_run(self):
        plan = SEEDED_PLANS["rogue-overlap"]
        _, untraced = run_design("BlueScale", plan, True)
        rng = random.Random(7)
        tasksets = generate_client_tasksets(
            rng, N_CLIENTS, 2, 0.6, period_min=100, period_max=900
        )
        interconnect = build_interconnect("BlueScale", N_CLIENTS, tasksets)
        clients = [
            TrafficGenerator(cid, ts, rng=random.Random(1_000 + cid))
            for cid, ts in tasksets.items()
        ]
        traced = SoCSimulation(
            clients, interconnect, observability=True, faults=plan
        ).run(HORIZON, drain=DRAIN)
        assert traced.trace_digest == untraced.trace_digest
        assert traced.fault_counters == untraced.fault_counters


def bare_simulation(faults):
    tasksets = generate_client_tasksets(random.Random(3), 2, 1, 0.3)
    clients = [TrafficGenerator(cid, ts) for cid, ts in tasksets.items()]
    return SoCSimulation(
        clients, build_interconnect("BlueScale", 2, tasksets), faults=faults
    )


class TestMakeOrchestrator:
    """The orchestrator ``SoCSimulation(faults=...)`` makes: none for
    ``None``, one per plan, and a refusal for anything else."""

    def test_none_stays_none(self):
        assert bare_simulation(None).faults is None

    def test_plan_is_wrapped(self):
        orchestrator = bare_simulation(FaultPlan.none()).faults
        assert isinstance(orchestrator, FaultOrchestrator)
        # an orchestrator holds per-run state: it is not an argument
        with pytest.raises(ConfigurationError):
            bare_simulation(orchestrator)

    def test_junk_rejected(self):
        with pytest.raises(ConfigurationError):
            bare_simulation([1, 2, 3])
