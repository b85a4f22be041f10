"""Unit tests for GSMTree (TDM and FBSP reservations)."""

import pytest

from repro.errors import ConfigurationError
from repro.interconnects.gsmtree import (
    GsmTreeInterconnect,
    build_fbsp_frame,
    build_tdm_frame,
    gsmtree_fbsp,
    gsmtree_tdm,
)
from repro.memory.controller import MemoryController
from repro.memory.dram import FixedLatencyDevice

from tests.conftest import make_request


def wired(interconnect):
    controller = MemoryController(FixedLatencyDevice(1), queue_capacity=8)
    interconnect.attach_controller(controller)
    return interconnect, controller


def drive(interconnect, controller, cycles, start=0):
    delivered = []
    for cycle in range(start, start + cycles):
        interconnect.tick_request_path(cycle)
        controller.tick(cycle)
        delivered.extend(interconnect.tick_response_path(cycle))
    return delivered


class TestFrames:
    def test_tdm_frame_round_robin(self):
        assert build_tdm_frame(4) == [0, 1, 2, 3]

    def test_tdm_rejects_zero_clients(self):
        with pytest.raises(ConfigurationError):
            build_tdm_frame(0)

    def test_fbsp_slots_proportional(self):
        frame = build_fbsp_frame([0.6, 0.2, 0.2], min_frame=10)
        counts = [frame.count(c) for c in range(3)]
        assert counts[0] > counts[1]
        assert counts[0] == pytest.approx(6, abs=1)
        assert len(frame) == 10

    def test_fbsp_every_client_gets_a_slot(self):
        frame = build_fbsp_frame([0.99, 0.005, 0.005], min_frame=8)
        assert all(frame.count(c) >= 1 for c in range(3))

    def test_fbsp_interleaves_slots(self):
        frame = build_fbsp_frame([0.5, 0.5], min_frame=4)
        assert frame == [0, 1, 0, 1]

    def test_fbsp_zero_weights_degrade_to_tdm(self):
        frame = build_fbsp_frame([0.0, 0.0, 0.0])
        assert sorted(set(frame)) == [0, 1, 2]

    def test_fbsp_rejects_negative_weight(self):
        with pytest.raises(ConfigurationError):
            build_fbsp_frame([0.5, -0.1])

    def test_fbsp_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            build_fbsp_frame([])


class TestFbspFrameProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12
        ),
        frame_scale=st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_frame_well_formed(self, weights, frame_scale):
        frame = build_fbsp_frame(weights, min_frame=frame_scale * len(weights))
        # exactly the requested length (>= one slot per client)
        assert len(frame) >= len(weights)
        # every client owns at least one slot
        assert set(frame) == set(range(len(weights)))

    @given(
        heavy=st.floats(min_value=0.5, max_value=1.0),
        light=st.floats(min_value=0.001, max_value=0.05),
    )
    @settings(max_examples=40)
    def test_heavier_client_never_fewer_slots(self, heavy, light):
        frame = build_fbsp_frame([heavy, light, light, light], min_frame=16)
        assert frame.count(0) >= frame.count(1)


class TestTdmAdmission:
    def test_injection_gated_by_credits(self):
        """A client may inject one request per owned slot (plus its
        banked credits); the reservation throttles it at the source."""
        interconnect = gsmtree_tdm(4)
        cap = interconnect.CREDIT_CAP
        accepted = sum(
            interconnect.try_inject(make_request(client_id=0, deadline=10_000), 0)
            for _ in range(cap + 3)
        )
        assert accepted == cap  # banked credits only

    def test_credits_replenish_in_own_slot(self):
        interconnect, controller = wired(gsmtree_tdm(4))
        for _ in range(interconnect.CREDIT_CAP):
            assert interconnect.try_inject(make_request(client_id=0, deadline=10_000), 0)
        assert not interconnect.try_inject(make_request(client_id=0, deadline=10_000), 1)
        # drain the tree so the leaf FIFO has space again
        drive(interconnect, controller, 3, start=1)
        # client 0 owns slots 0, 4, 8...: a credit returns at cycle 4
        assert interconnect.try_inject(make_request(client_id=0, deadline=10_000), 4)
        # and only one: the next inject in the same slot is rejected
        assert not interconnect.try_inject(make_request(client_id=0, deadline=10_000), 4)

    def test_equal_shares_regardless_of_demand(self):
        """TDM gives every client the same injection rate — the
        demand-blind reservation the paper criticizes."""
        interconnect, controller = wired(gsmtree_tdm(4))
        heavy_accepted = 0
        light_accepted = 0
        for cycle in range(64):
            if interconnect.try_inject(
                make_request(client_id=0, deadline=10_000), cycle
            ):
                heavy_accepted += 1
            if cycle % 16 == 0 and interconnect.try_inject(
                make_request(client_id=1, deadline=10_000), cycle
            ):
                light_accepted += 1
            interconnect.tick_request_path(cycle)
            controller.tick(cycle)
            interconnect.tick_response_path(cycle)
        # client 0 wants 64 but gets ~16 (1/4 of slots) + banked credits
        assert heavy_accepted <= 16 + interconnect.CREDIT_CAP
        assert light_accepted == 4  # light demand fully admitted


class TestFbspAdmission:
    def test_heavy_client_gets_more_bandwidth_than_tdm(self):
        workloads = [0.7, 0.05, 0.05, 0.05]
        fbsp = gsmtree_fbsp(4, workloads)
        tdm = gsmtree_tdm(4)
        def admitted(interconnect):
            count = 0
            controller = MemoryController(FixedLatencyDevice(1), queue_capacity=8)
            interconnect.attach_controller(controller)
            for cycle in range(64):
                if interconnect.try_inject(
                    make_request(client_id=0, deadline=100_000), cycle
                ):
                    count += 1
                interconnect.tick_request_path(cycle)
                controller.tick(cycle)
                interconnect.tick_response_path(cycle)
            return count
        assert admitted(fbsp) > admitted(tdm)

    def test_workload_count_must_match(self):
        with pytest.raises(ConfigurationError):
            gsmtree_fbsp(4, [0.5, 0.5])

    def test_names(self):
        assert gsmtree_tdm(4).name == "GSMTree-TDM"
        assert gsmtree_fbsp(4, [0.1] * 4).name == "GSMTree-FBSP"


class TestRootSchedule:
    def test_slot_owner_cycles_through_frame(self):
        interconnect = GsmTreeInterconnect(4, frame=[2, 0, 1])
        assert [interconnect.slot_owner(c) for c in range(6)] == [2, 0, 1, 2, 0, 1]

    def test_frame_validation(self):
        with pytest.raises(ConfigurationError):
            GsmTreeInterconnect(4, frame=[])
        with pytest.raises(ConfigurationError):
            GsmTreeInterconnect(4, frame=[5])

    def test_slack_reclamation_keeps_tree_working(self):
        """Unused slots are reclaimed: a single client still gets its
        requests through slots it does not own."""
        interconnect, controller = wired(gsmtree_tdm(4))
        requests = [make_request(client_id=2, deadline=10_000) for _ in range(3)]
        injected = 0
        delivered = []
        for cycle in range(40):
            while injected < 3 and interconnect.try_inject(requests[injected], cycle):
                injected += 1
            interconnect.tick_request_path(cycle)
            controller.tick(cycle)
            delivered.extend(interconnect.tick_response_path(cycle))
        assert len(delivered) == 3


class TestEndToEnd:
    def test_all_admitted_requests_complete(self):
        interconnect, controller = wired(gsmtree_tdm(8))
        injected = []
        backlog = [make_request(client_id=c % 8, deadline=10_000) for c in range(24)]
        delivered = []
        for cycle in range(300):
            if backlog and interconnect.try_inject(backlog[0], cycle):
                injected.append(backlog.pop(0))
            interconnect.tick_request_path(cycle)
            controller.tick(cycle)
            delivered.extend(interconnect.tick_response_path(cycle))
        assert len(delivered) == len(injected) == 24
        assert interconnect.requests_in_flight() == 0
