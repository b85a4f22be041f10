"""Analytical hardware models: area, power, maximum frequency."""

from repro.hardware.primitives import (
    DEFAULT_PRIMITIVES,
    HardwareReport,
    PrimitiveCosts,
)
from repro.hardware.power import estimate_power_mw, raw_power_mw
from repro.hardware.cost_model import (
    PLATFORM_LUTS,
    area_fraction,
    axi_icrt_cost,
    bluescale_cost,
    bluetree_cost,
    bluetree_smooth_cost,
    gsmtree_cost,
    legacy_system_cost,
    microblaze_cost,
    riscv_cost,
    scale_element_cost,
)
from repro.hardware.synthesis import (
    ComponentLine,
    SynthesisReport,
    format_synthesis_report,
    synthesize_bluescale_system,
)
from repro.hardware.frequency import (
    axi_icrt_fmax_mhz,
    bluescale_fmax_mhz,
    legacy_fmax_mhz,
    scaling_factor,
    system_fmax_mhz,
)

__all__ = [
    "DEFAULT_PRIMITIVES",
    "HardwareReport",
    "PrimitiveCosts",
    "estimate_power_mw",
    "raw_power_mw",
    "PLATFORM_LUTS",
    "area_fraction",
    "axi_icrt_cost",
    "bluescale_cost",
    "bluetree_cost",
    "bluetree_smooth_cost",
    "gsmtree_cost",
    "legacy_system_cost",
    "microblaze_cost",
    "riscv_cost",
    "scale_element_cost",
    "ComponentLine",
    "SynthesisReport",
    "format_synthesis_report",
    "synthesize_bluescale_system",
    "axi_icrt_fmax_mhz",
    "bluescale_fmax_mhz",
    "legacy_fmax_mhz",
    "scaling_factor",
    "system_fmax_mhz",
]
