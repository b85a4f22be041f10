"""Cross-module integration scenarios spanning the extensions."""

import random

from repro.analysis.response_time import holistic_response_bounds
from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.observability import (
    ObservabilityConfig,
    build_timeline,
    format_timeline,
)
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets


class TestTimelineExplainsWcrtBound:
    def test_slowest_request_stays_within_its_task_bound(self):
        """The traced request with the longest inject→deliver journey
        still belongs to a job within its task's holistic WCRT bound —
        the span tracer and the analysis agree."""
        rng = random.Random(23)
        tasksets = generate_client_tasksets(rng, 16, 2, 0.55)
        interconnect = BlueScaleInterconnect(16)
        composition = interconnect.configure(tasksets)
        assert composition.schedulable
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        simulation = SoCSimulation(
            clients,
            interconnect,
            observability=ObservabilityConfig(ring_capacity=1 << 20),
        )
        simulation.run(8_000, drain=4_000)
        spans = list(simulation.tracer.recorder.spans())
        assert simulation.tracer.recorder.dropped == 0
        bounds = holistic_response_bounds(tasksets, composition)
        injected = {s.rid: s for s in spans if s.kind == "inject"}
        delivered = {s.rid: s.cycle for s in spans if s.kind == "deliver"}
        rid = max(delivered, key=lambda r: delivered[r] - injected[r].cycle)
        slowest = build_timeline(spans, rid)
        assert slowest.latency == delivered[rid] - injected[rid].cycle
        # map the request to its job via the release its inject carries
        release = injected[rid].attrs["release"]
        job = next(
            j
            for j in clients[slowest.client_id].jobs
            if j.release == release and j.finished
        )
        observed = job.last_completion - job.release
        assert observed <= bounds[slowest.client_id].bound_for(job.task_name)
        # the rendering carries the hop structure for diagnosis
        assert "se:0:0" in format_timeline(slowest)

