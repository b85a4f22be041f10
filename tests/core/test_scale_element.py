"""Unit tests for the Scale Element."""

import pytest

from repro.analysis.prm import ResourceInterface
from repro.core.scale_element import ScaleElement
from repro.errors import ConfigurationError

from tests.conftest import make_request, programmed_se


def full_bandwidth_se(node=(0, 0), capacity=4):
    return programmed_se(
        [ResourceInterface(1, 1)] * 4, node, buffer_capacity=capacity
    )


class Sink:
    """Provider hook that accepts everything and records order."""

    def __init__(self, accept=True):
        self.accept = accept
        self.received = []

    def __call__(self, request, cycle):
        if self.accept:
            self.received.append((request, cycle))
            return True
        return False


class TestIngress:
    def test_accepts_until_port_full(self):
        se = full_bandwidth_se(capacity=2)
        assert se.try_accept(0, make_request())
        assert se.try_accept(0, make_request())
        assert not se.try_accept(0, make_request())
        assert se.try_accept(1, make_request())  # other port unaffected

    def test_port_range_checked(self):
        with pytest.raises(ConfigurationError):
            full_bandwidth_se().try_accept(4, make_request())

    def test_needs_exactly_four_interfaces(self):
        se = ScaleElement((0, 0))
        assert len(se.interfaces()) == 4
        with pytest.raises(ConfigurationError):
            se.program_port(4, ResourceInterface(1, 1))


class TestForwarding:
    def test_forwards_one_per_cycle(self):
        se = full_bandwidth_se()
        sink = Sink()
        se.forward_to_provider = sink
        for port in range(3):
            se.try_accept(port, make_request(deadline=100 + port))
        for cycle in range(3):
            se.tick(cycle)
        assert len(sink.received) == 3
        assert se.forwarded == 3

    def test_edf_across_ports(self):
        """The nested queues pick the earliest-deadline request among
        eligible ports each cycle."""
        se = full_bandwidth_se()
        sink = Sink()
        se.forward_to_provider = sink
        relaxed = make_request(deadline=900)
        urgent = make_request(deadline=100)
        middle = make_request(deadline=500)
        se.try_accept(0, relaxed)
        se.try_accept(1, urgent)
        se.try_accept(2, middle)
        for cycle in range(3):
            se.tick(cycle)
        order = [r for r, _ in sink.received]
        assert order == [urgent, middle, relaxed]

    def test_stall_on_provider_backpressure(self):
        se = full_bandwidth_se()
        se.forward_to_provider = Sink(accept=False)
        request = make_request()
        se.try_accept(0, request)
        se.tick(0)
        assert se.forwarded == 0
        assert se.stalled_cycles == 1
        assert se.occupancy() == 1  # nothing lost

    def test_no_provider_means_stall(self):
        se = full_bandwidth_se()
        se.try_accept(0, make_request())
        se.tick(0)
        assert se.occupancy() == 1

    def test_budget_gates_forwarding(self):
        """Port 0 gets (Pi=4, Theta=1): with a backlog it forwards once
        per period, even though the SE is otherwise idle."""
        se = programmed_se(
            [
                ResourceInterface(4, 1),
                ResourceInterface(1000, 1),
                ResourceInterface(1000, 1),
                ResourceInterface(1000, 1),
            ],
            buffer_capacity=8,
        )
        sink = Sink()
        se.forward_to_provider = sink
        for _ in range(6):
            se.try_accept(0, make_request(deadline=10_000))
        for cycle in range(16):
            se.tick(cycle)
        assert len(sink.received) == 4  # one per 4-cycle period


class TestBlockingAccounting:
    def test_eligible_waiter_charged_on_inversion(self):
        """Port 1's earlier-deadline request waits (its server deadline is
        later) while port 0 forwards a later-deadline request: that is
        priority inversion and port 1's request is charged."""
        se = programmed_se(
            [
                ResourceInterface(2, 1),  # port 0: earliest server deadline
                ResourceInterface(50, 25),
                ResourceInterface(60, 30),
                ResourceInterface(70, 35),
            ],
        )
        se.forward_to_provider = Sink()
        late = make_request(deadline=900)
        early = make_request(deadline=100)
        se.try_accept(0, late)
        se.try_accept(1, early)
        se.tick(0)  # port 0 wins (server deadline 2 < 50) and forwards
        assert early.blocking_cycles == 1

    def test_budgetless_waiter_not_charged(self):
        """A port waiting only because its budget is exhausted is being
        shaped, not blocked — no blocking charge."""
        se = programmed_se(
            [
                ResourceInterface(50, 25),
                ResourceInterface(100, 1),
                ResourceInterface(60, 30),
                ResourceInterface(70, 35),
            ],
        )
        sink = Sink()
        se.forward_to_provider = sink
        early_a = make_request(deadline=100)
        early_b = make_request(deadline=120)
        se.try_accept(1, early_a)
        se.try_accept(1, early_b)
        se.tick(0)  # port 1 forwards early_a, budget (Theta=1) exhausted
        late = make_request(deadline=900)
        se.try_accept(0, late)
        se.tick(1)  # port 0 forwards late; early_b waits without budget
        assert [r for r, _ in sink.received] == [early_a, late]
        assert early_b.blocking_cycles == 0


class TestFanoutVariants:
    def test_binary_se_has_two_ports(self):
        se = programmed_se([ResourceInterface(1, 1)] * 2, fanout=2)
        assert len(se.buffers) == 2
        assert se.try_accept(1, make_request())
        with pytest.raises(ConfigurationError):
            se.try_accept(2, make_request())

    def test_binary_se_forwards_edf(self):
        se = programmed_se([ResourceInterface(1, 1)] * 2, fanout=2)
        sink = Sink()
        se.forward_to_provider = sink
        late = make_request(deadline=500)
        urgent = make_request(deadline=100)
        se.try_accept(0, late)
        se.try_accept(1, urgent)
        se.tick(0)
        se.tick(1)
        assert [r for r, _ in sink.received] == [urgent, late]

    def test_interface_count_must_match_fanout(self):
        se = ScaleElement((0, 0), fanout=2)
        assert len(se.interfaces()) == 2
        with pytest.raises(ConfigurationError):
            se.program_port(2, ResourceInterface(1, 1))

    def test_fanout_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            ScaleElement((0, 0), fanout=1)


class TestParameterPath:
    def test_program_port_applies_interface(self):
        se = full_bandwidth_se()
        se.program_port(2, ResourceInterface(7, 3), now=0)
        assert se.interfaces()[2] == ResourceInterface(7, 3)

    def test_unconfigured_se_behaves_as_pure_edf(self):
        """Default (idle) interfaces fall back to background EDF, so an
        unconfigured tree still moves traffic."""
        se = ScaleElement((0, 0))
        sink = Sink()
        se.forward_to_provider = sink
        first = make_request(deadline=500)
        second = make_request(deadline=100)
        se.try_accept(0, first)
        se.try_accept(3, second)
        se.tick(0)
        se.tick(1)
        assert [r for r, _ in sink.received] == [second, first]
