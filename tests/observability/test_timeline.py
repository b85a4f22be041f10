"""Unit tests for per-request timeline reconstruction and rendering."""

import random

import pytest

from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.errors import ConfigurationError
from repro.observability.spans import Span
from repro.observability.timeline import (
    build_timeline,
    format_timeline,
    worst_blocking_rid,
)
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets


def _journey(rid=5, client=1):
    """A complete inject-to-deliver span stream for one request."""
    mk = lambda site, kind, cycle, attrs=None: Span(
        rid=rid, client_id=client, site=site, kind=kind, cycle=cycle, attrs=attrs
    )
    return [
        mk(f"client:{client}", "inject", 2, {"release": 0}),
        mk("se:1:0", "enqueue", 2, {"port": 1, "occupancy": 3}),
        mk("se:1:0", "arbitration_win", 8, {"port": 1}),
        mk("se:0:0", "enqueue", 8, {"port": 0, "occupancy": 1}),
        mk("se:0:0", "arbitration_win", 9, {"port": 0}),
        mk("mc", "enqueue", 10, {"occupancy": 2}),
        mk("mc", "service_start", 14, {"cost": 3}),
        mk("mc", "service_end", 17),
        mk("response-path", "response_enqueue", 17, {"deliver_at": 20}),
        mk(f"client:{client}", "deliver", 20, {"blocking": 4}),
    ]


class TestBuildTimeline:
    def test_unknown_rid_rejected(self):
        with pytest.raises(ConfigurationError, match="request 99"):
            build_timeline(_journey(), 99)

    def test_filters_to_one_request(self):
        spans = _journey(rid=5) + _journey(rid=6)
        timeline = build_timeline(spans, 5)
        assert timeline.rid == 5
        assert all(s.rid == 5 for s in timeline.spans)

    def test_endpoints_and_latency(self):
        timeline = build_timeline(_journey(), 5)
        assert timeline.inject_cycle == 2
        assert timeline.deliver_cycle == 20
        assert timeline.latency == 18
        assert timeline.complete

    def test_partial_trace_has_no_latency(self):
        spans = [s for s in _journey() if s.kind != "inject"]
        timeline = build_timeline(spans, 5)
        assert timeline.inject_cycle is None
        assert timeline.latency is None
        assert not timeline.complete

    def test_out_of_order_stream_is_sorted_stably(self):
        spans = list(reversed(_journey()))
        timeline = build_timeline(spans, 5)
        assert [s.cycle for s in timeline.spans] == sorted(
            s.cycle for s in spans
        )


class TestHops:
    def test_hop_waits_per_site(self):
        hops = build_timeline(_journey(), 5).hops()
        assert [(h.site, h.wait_cycles) for h in hops] == [
            ("se:1:0", 6),
            ("se:0:0", 1),
            ("mc", 4),
        ]

    def test_ungranted_hop_reports_none(self):
        spans = [
            s
            for s in _journey()
            if not (s.site == "mc" and s.kind == "service_start")
        ]
        hops = build_timeline(spans, 5).hops()
        mc = [h for h in hops if h.site == "mc"][0]
        assert mc.grant_cycle is None
        assert mc.wait_cycles is None


class TestFormatTimeline:
    def test_render_contains_header_events_and_waits(self):
        rendered = format_timeline(build_timeline(_journey(), 5))
        assert "request 5 (client 1)" in rendered
        assert "latency 18 cycles" in rendered
        assert "service_start" in rendered
        assert "hop waits:" in rendered
        assert "se:1:0" in rendered

    def test_partial_trace_is_flagged(self):
        spans = [s for s in _journey() if s.kind != "inject"]
        rendered = format_timeline(build_timeline(spans, 5))
        assert "partial trace" in rendered


class TestWorstBlockingRid:
    def test_picks_max_blocking_deliver(self):
        spans = _journey(rid=1) + _journey(rid=2)
        spans.append(
            Span(
                rid=2,
                client_id=0,
                site="client:0",
                kind="deliver",
                cycle=50,
                attrs={"blocking": 99},
            )
        )
        assert worst_blocking_rid(spans) == 2

    def test_none_without_deliver_spans(self):
        spans = [s for s in _journey() if s.kind != "deliver"]
        assert worst_blocking_rid(spans) is None


class TestLiveSimulation:
    def test_one_se_hop_per_tree_level_on_the_path(self):
        """Every delivered request of a traced BlueScale run wins
        arbitration once at each SE level between its leaf and the root."""
        tasksets = generate_client_tasksets(random.Random(4), 8, 2, 0.5)
        interconnect = BlueScaleInterconnect(8)
        interconnect.configure(tasksets)
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        simulation = SoCSimulation(clients, interconnect, observability=True)
        result = simulation.run(2_000, drain=1_000)
        spans = list(simulation.tracer.recorder.spans())
        delivered = {s.rid for s in spans if s.kind == "deliver"}
        assert len(delivered) == result.requests_completed
        levels = interconnect.topology.depth + 1
        for rid in sorted(delivered)[:50]:
            wins = [
                span.site
                for span in build_timeline(spans, rid).spans
                if span.kind == "arbitration_win"
            ]
            assert len(wins) == len(set(wins)) == levels
            assert all(site.startswith("se:") for site in wins)
            assert wins[-1] == "se:0:0"  # the root is the last SE hop
