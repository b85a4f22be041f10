"""Online churn with `repro.scenarios`: joins, mode switches, transients.

One of BlueScale's headline properties (paper Sec. 3.2): when a task
joins or leaves a client, only the server tasks on that client's
memory-request path are refreshed — every other SE keeps its
parameters.  A centralized design must recompute *all* clients'
bandwidth allocations on any change.

This example scripts a whole churn timeline as a
:class:`repro.scenarios.ScenarioPlan` — a client joining, another
changing rate, a mode switch, a leave — and drives it through both
consumers of a plan:

1. the **analysis layer** (:func:`repro.scenarios.replay_plan`): every
   event becomes an ``admit``/``retask``/``evict`` decision on a live
   :class:`~repro.analysis.session.AdmissionSession`, and every
   committed transition reports how many SE ports must be reprogrammed
   (the O(log n) path) plus its *transient bound* — the window during
   which jobs released under the old budgets may still be draining;
2. the **simulator** (:class:`repro.scenarios.ScenarioDriver`): the same
   plan replayed against live traffic generators mid-simulation, so the
   churn actually happens to the cycle-accurate system.

Run:  python examples/dynamic_task_join.py            (~10 s)

The full three-policy comparison (BlueScale re-selection vs static and
dynamic AXI regulation, with transient verification) is the `churn`
experiment: ``python -m repro churn --verify``.
"""

import random
import time

from repro.analysis import SystemModel
from repro.core.interconnect import BlueScaleInterconnect
from repro.clients import TrafficGenerator
from repro.experiments.factory import axi_budgets
from repro.scenarios import (
    ScenarioDriver,
    ScenarioEvent,
    ScenarioKind,
    ScenarioPlan,
    rate_scaled,
    replay_plan,
)
from repro.soc import SoCSimulation
from repro.tasks import PeriodicTask, TaskSet, generate_client_tasksets
from repro.topology import quadtree


def build_plan(tasksets) -> ScenarioPlan:
    """A hand-written churn timeline over four different clients."""
    return ScenarioPlan(
        (
            # a new task joins client 42 (merged into its running set)
            ScenarioEvent(
                kind=ScenarioKind.CLIENT_JOIN,
                cycle=1_000,
                client_id=42,
                tasks=(PeriodicTask(period=500, wcet=4, name="joined"),),
            ),
            # client 7 drops to a lighter rate (periods stretched 1.5x)
            ScenarioEvent(
                kind=ScenarioKind.RATE_CHANGE,
                cycle=2_000,
                client_id=7,
                factor=1.5,
            ),
            # client 12 switches operating mode: a different task set
            ScenarioEvent(
                kind=ScenarioKind.MODE_SWITCH,
                cycle=3_000,
                client_id=12,
                tasks=tuple(rate_scaled(tasksets[12], 2.0)),
            ),
            # client 30 shuts down entirely
            ScenarioEvent(
                kind=ScenarioKind.CLIENT_LEAVE,
                cycle=4_000,
                client_id=30,
            ),
        )
    )


def analysis_leg() -> None:
    n_clients = 64
    rng = random.Random(7)
    tasksets = generate_client_tasksets(
        rng, n_clients, tasks_per_client=2, system_utilization=0.5
    )
    topology = quadtree(n_clients)

    t0 = time.perf_counter()
    model = SystemModel.build(topology, tasksets, label="churn demo")
    full_time = time.perf_counter() - t0
    print(
        f"initial composition over {topology.n_nodes()} SEs: "
        f"{full_time * 1000:.0f} ms, "
        f"schedulable={model.baseline.schedulable}"
    )

    plan = build_plan(tasksets)
    # First pass: just the admission decisions, to time the path-local
    # re-selection itself (transient windows add holistic response-time
    # analysis on top, which dwarfs the update being measured).
    t0 = time.perf_counter()
    replay_plan(model.session(), plan, transients=False)
    replay_time = time.perf_counter() - t0
    print(
        f"\nreplaying {len(plan)} transitions through the admission "
        f"session: {replay_time * 1000:.0f} ms total "
        f"({full_time / max(replay_time / len(plan), 1e-9):.0f}x faster "
        f"per transition than a full recompose)"
    )
    # Second pass on a fresh session: same decisions, now with the
    # per-transition transient bounds.
    session = model.session()
    replayed = replay_plan(session, plan, transients=True)
    for r in replayed:
        t = r.transient
        detail = (
            f"{t.reprogrammed_ports} SE ports reprogrammed, transient "
            f"window {t.window} cycles"
            if t is not None
            else "rejected — system state untouched"
        )
        print(
            f"  [{r.index}] cycle {r.event.cycle:>5} "
            f"{r.event.kind.value:<12} client {r.event.client_id:>2}: "
            f"{detail}"
        )

    # The centralized alternative recomputes every client's budget on
    # every one of those transitions.
    budgets = axi_budgets(n_clients, session.tasksets)
    worst_ports = max(
        r.transient.reprogrammed_ports for r in replayed if r.transient
    )
    print(
        f"\ncentralized (AXI-IC^RT-style) allocator: {len(budgets)} client "
        f"budgets recomputed per change (vs <= {worst_ports} SE ports "
        f"for BlueScale's path-local update)"
    )


def simulator_leg() -> None:
    """The same kind of plan applied to live traffic, mid-simulation."""
    n_clients = 16
    rng = random.Random(3)
    tasksets = generate_client_tasksets(
        rng, n_clients, tasks_per_client=2, system_utilization=0.4
    )
    # Client 15 starts idle and joins at cycle 1000; client 3 leaves.
    joiner = n_clients - 1
    base = {c: ts for c, ts in tasksets.items() if c != joiner}
    plan = ScenarioPlan(
        (
            ScenarioEvent(
                kind=ScenarioKind.CLIENT_JOIN,
                cycle=1_000,
                client_id=joiner,
                tasks=tuple(tasksets[joiner]),
            ),
            ScenarioEvent(
                kind=ScenarioKind.CLIENT_LEAVE, cycle=3_000, client_id=3
            ),
        )
    )
    interconnect = BlueScaleInterconnect(n_clients)
    model = SystemModel.build(interconnect.topology, base)
    interconnect.configure_from_model(model)
    clients = [
        TrafficGenerator(
            c, base.get(c, TaskSet()), rng=random.Random(f"demo/{c}")
        )
        for c in range(n_clients)
    ]
    sim = SoCSimulation(
        clients, interconnect, scenario=ScenarioDriver(plan)
    )
    result = sim.run(4_000, drain=2_000)
    print(
        f"\nsimulated the same churn live on {n_clients} clients: "
        f"{result.scenario_counters['events_applied']} events applied, "
        f"{result.jobs_judged} jobs judged, "
        f"miss ratio {result.deadline_miss_ratio:.3f}"
    )


def main() -> None:
    analysis_leg()
    simulator_leg()
    print(
        "\nfull policy comparison with transient verification: "
        "python -m repro churn --verify"
    )


if __name__ == "__main__":
    main()
