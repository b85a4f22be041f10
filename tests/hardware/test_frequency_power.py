"""Tests for the frequency and power models (Fig. 5(b), 5(c))."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.frequency import (
    axi_icrt_fmax_mhz,
    bluescale_fmax_mhz,
    legacy_fmax_mhz,
    scaling_factor,
    system_fmax_mhz,
)
from repro.hardware.power import ACTIVITY, estimate_power_mw, raw_power_mw


class TestScalingFactor:
    def test_powers_of_two(self):
        assert scaling_factor(2) == 1
        assert scaling_factor(16) == 4
        assert scaling_factor(128) == 7

    def test_rounds_up_for_intermediate(self):
        assert scaling_factor(17) == 5

    def test_rejects_single_client(self):
        with pytest.raises(ConfigurationError):
            scaling_factor(1)


class TestFrequencyShapes:
    """Obs 3: the crossover structure of Fig. 5(c)."""

    def test_axi_monotonically_decreasing(self):
        values = [axi_icrt_fmax_mhz(2**eta) for eta in range(1, 8)]
        assert values == sorted(values, reverse=True)

    def test_bluescale_always_above_legacy(self):
        for eta in range(1, 8):
            n = 2**eta
            assert bluescale_fmax_mhz(n) > legacy_fmax_mhz(n)

    def test_axi_crosses_below_legacy_past_32_clients(self):
        """Paper: 'when the system had more than 32 clients (eta > 5), the
        maximum frequency of AXI-IC^RT became lower than the legacy
        system'."""
        assert axi_icrt_fmax_mhz(32) >= legacy_fmax_mhz(32)
        assert axi_icrt_fmax_mhz(64) < legacy_fmax_mhz(64)

    def test_system_fmax_is_min(self):
        n = 64
        assert system_fmax_mhz(axi_icrt_fmax_mhz(n), n) == axi_icrt_fmax_mhz(n)
        assert system_fmax_mhz(bluescale_fmax_mhz(n), n) == legacy_fmax_mhz(n)


class TestPowerModel:
    def test_raw_power_components(self):
        assert raw_power_mw(0, 0) == 0.0
        assert raw_power_mw(1000, 0) == pytest.approx(8.0)
        assert raw_power_mw(0, 1000) == pytest.approx(3.0)
        assert raw_power_mw(0, 0, ram_kb=2) == pytest.approx(1.0)
        assert raw_power_mw(0, 0, dsps=1) == pytest.approx(10.0)

    def test_negative_resources_rejected(self):
        with pytest.raises(ConfigurationError):
            raw_power_mw(-1, 0)

    def test_estimate_applies_activity(self):
        raw = raw_power_mw(1000, 1000)
        assert estimate_power_mw("bluetree", 1000, 1000) == pytest.approx(
            ACTIVITY["bluetree"] * raw
        )

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_power_mw("mystery", 10, 10)

    def test_all_activity_factors_reasonable(self):
        assert all(0.5 < a < 3.0 for a in ACTIVITY.values())
