"""Experiment F5 — Fig. 5: hardware scalability vs scaling factor η.

Sweeps η = 1..7 (2^η clients) and reports, per Fig. 5's three panels:

* (a) area as a fraction of the platform, for the legacy system,
  AXI-IC^RT, BlueScale, and the legacy system plus each interconnect;
* (b) power consumption of the same five configurations;
* (c) maximum synthesizable frequency of the legacy system, AXI-IC^RT
  and BlueScale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.experiments.reporting import format_series
from repro.hardware.cost_model import (
    area_fraction,
    axi_icrt_cost,
    bluescale_cost,
    legacy_system_cost,
)
from repro.hardware.frequency import (
    axi_icrt_fmax_mhz,
    bluescale_fmax_mhz,
    legacy_fmax_mhz,
)


@dataclass
class Fig5Result:
    """All three panels' series, indexed by η."""

    etas: list[int]
    #: Fig 5(a): area fraction of the platform
    area: dict[str, list[float]] = field(default_factory=dict)
    #: Fig 5(b): power in watts
    power_w: dict[str, list[float]] = field(default_factory=dict)
    #: Fig 5(c): fmax in MHz
    fmax_mhz: dict[str, list[float]] = field(default_factory=dict)

    def crossover_eta(self) -> int | None:
        """First η at which AXI-IC^RT's fmax falls below the legacy system's
        (the paper observes this past η = 5, i.e. more than 32 clients)."""
        for eta, axi, legacy in zip(
            self.etas, self.fmax_mhz["AXI-IC^RT"], self.fmax_mhz["Legacy"]
        ):
            if axi < legacy:
                return eta
        return None


def run_fig5(eta_min: int = 1, eta_max: int = 7) -> Fig5Result:
    """Compute the Fig. 5 series for η in [eta_min, eta_max]."""
    if not 1 <= eta_min <= eta_max:
        raise ConfigurationError(f"invalid η range [{eta_min}, {eta_max}]")
    etas = list(range(eta_min, eta_max + 1))
    result = Fig5Result(etas=etas)
    names = ["Legacy", "AXI-IC^RT", "BlueScale", "Legacy+AXI-IC^RT", "Legacy+BlueScale"]
    result.area = {name: [] for name in names}
    result.power_w = {name: [] for name in names}
    result.fmax_mhz = {name: [] for name in names[:3]}
    for eta in etas:
        n = 2**eta
        legacy = legacy_system_cost(n)
        axi = axi_icrt_cost(n)
        bluescale = bluescale_cost(n)
        result.area["Legacy"].append(area_fraction(legacy))
        result.area["AXI-IC^RT"].append(area_fraction(axi))
        result.area["BlueScale"].append(area_fraction(bluescale))
        result.area["Legacy+AXI-IC^RT"].append(area_fraction(legacy + axi))
        result.area["Legacy+BlueScale"].append(area_fraction(legacy + bluescale))
        result.power_w["Legacy"].append(legacy.power_mw / 1000)
        result.power_w["AXI-IC^RT"].append(axi.power_mw / 1000)
        result.power_w["BlueScale"].append(bluescale.power_mw / 1000)
        result.power_w["Legacy+AXI-IC^RT"].append(
            (legacy.power_mw + axi.power_mw) / 1000
        )
        result.power_w["Legacy+BlueScale"].append(
            (legacy.power_mw + bluescale.power_mw) / 1000
        )
        result.fmax_mhz["Legacy"].append(legacy_fmax_mhz(n))
        result.fmax_mhz["AXI-IC^RT"].append(axi_icrt_fmax_mhz(n))
        result.fmax_mhz["BlueScale"].append(bluescale_fmax_mhz(n))
    return result


def format_fig5(result: Fig5Result) -> str:
    """Render all three Fig. 5 panels plus the crossover note."""
    parts = [
        format_series(
            "η", result.etas, result.area, title="Fig 5(a) — area fraction"
        ),
        format_series(
            "η", result.etas, result.power_w, title="Fig 5(b) — power (W)"
        ),
        format_series(
            "η", result.etas, result.fmax_mhz, title="Fig 5(c) — fmax (MHz)"
        ),
    ]
    crossover = result.crossover_eta()
    parts.append(
        f"AXI-IC^RT fmax falls below the legacy system at η = {crossover} "
        f"(paper: past η = 5)"
    )
    return "\n\n".join(parts)
