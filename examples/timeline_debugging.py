"""Debugging latency with per-request timelines (library extension).

When a request is late, the question is *where the cycles went*:
queued at its leaf port buffer, budget-paced at an interior level, or
waiting at the memory controller.  Switching request tracing on
(``SoCSimulation(..., observability=...)``) records every hop of every
request as spans; :func:`repro.observability.build_timeline` assembles
one request's journey and :func:`repro.observability.format_timeline`
prints it with per-hop queue waits.  The tracer runs on every design,
so this example drives the same loaded 16-client workload through
BlueScale and through BlueTree (a mux tree with blocking factor 2) and
prints each design's slowest journey.

Run:  python examples/timeline_debugging.py
"""

import random

from repro.clients import TrafficGenerator
from repro.experiments.factory import build_interconnect
from repro.observability import (
    ObservabilityConfig,
    build_timeline,
    format_timeline,
)
from repro.soc import SoCSimulation
from repro.tasks import generate_client_tasksets

N_CLIENTS = 16
HORIZON = 8_000
DESIGNS = ("BlueScale", "BlueTree")


def slowest_rid(spans) -> int:
    """The delivered request with the longest inject→deliver latency."""
    injected = {s.rid: s.cycle for s in spans if s.kind == "inject"}
    latency = {
        s.rid: s.cycle - injected[s.rid]
        for s in spans
        if s.kind == "deliver" and s.rid in injected
    }
    return max(latency, key=lambda rid: (latency[rid], -rid))


def main() -> None:
    tasksets = generate_client_tasksets(
        random.Random(31),
        N_CLIENTS,
        tasks_per_client=3,
        system_utilization=0.85,
    )
    for name in DESIGNS:
        interconnect = build_interconnect(name, N_CLIENTS, tasksets)
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        simulation = SoCSimulation(
            clients,
            interconnect,
            observability=ObservabilityConfig(ring_capacity=1 << 20),
        )
        result = simulation.run(HORIZON, drain=4_000)
        spans = list(simulation.tracer.recorder.spans())
        print(
            f"== {name}: {result.requests_completed} transactions, miss "
            f"ratio {result.deadline_miss_ratio:.4%}, {len(spans)} spans"
        )
        timeline = build_timeline(spans, slowest_rid(spans))
        print("slowest journey:")
        print(format_timeline(timeline))
        if name == "BlueScale":
            leaf, port = interconnect.topology.leaf_of_client(
                timeline.client_id
            )
            interface = interconnect.composition.interfaces[leaf][port]
            print(
                f"  (leaf interface of client {timeline.client_id}: "
                f"Pi={interface.period}, Theta={interface.budget} — a long "
                f"wait at the leaf SE is budget pacing)"
            )
        print()


if __name__ == "__main__":
    main()
