"""Maximum-frequency model (Fig. 5(c)).

The achievable clock of a synthesized design is limited by its longest
combinational path.  For the centralized AXI-IC^RT the critical path is
the monolithic arbiter, whose comparator fan-in grows with the client
count — so fmax falls as the system scales, and past 32 clients the
interconnect (not the cores) limits the whole system.  BlueScale's
Scale Elements are synthesized independently with a constant 4-client
fan-in, so its fmax is flat and always above the legacy system's.

Constants are calibrated to reproduce Fig. 5(c)'s crossover: AXI-IC^RT
drops below the legacy system's frequency when the system exceeds 32
clients (η > 5).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: baseline fabric frequency achievable for a tuned datapath (MHz)
_FABRIC_FMAX_MHZ = 600.0
#: legacy system fmax parameters: slight decline as the NoC grows
_LEGACY_BASE_MHZ = 360.0
_LEGACY_DECLINE_MHZ_PER_ETA = 5.0
#: BlueScale: constant small-fan-in elements, mild routing pressure
_BLUESCALE_BASE_MHZ = 455.0
_BLUESCALE_DECLINE_MHZ_PER_ETA = 3.0
#: AXI-IC^RT arbiter critical-path growth coefficient
_AXI_PATH_COEFF = 0.0045


def _check(n_clients: int) -> None:
    if n_clients < 2:
        raise ConfigurationError(f"need at least 2 clients, got {n_clients}")


def scaling_factor(n_clients: int) -> int:
    """η with n = 2^η (rounded up for non-powers of two)."""
    _check(n_clients)
    return max(1, math.ceil(math.log2(n_clients)))


def legacy_fmax_mhz(n_clients: int) -> float:
    """Legacy many-core system without an evaluated interconnect."""
    eta = scaling_factor(n_clients)
    return _LEGACY_BASE_MHZ - _LEGACY_DECLINE_MHZ_PER_ETA * eta


def bluescale_fmax_mhz(n_clients: int) -> float:
    """BlueScale: independent 4-to-1 SEs keep the critical path flat."""
    eta = scaling_factor(n_clients)
    return _BLUESCALE_BASE_MHZ - _BLUESCALE_DECLINE_MHZ_PER_ETA * eta


def axi_icrt_fmax_mhz(n_clients: int) -> float:
    """AXI-IC^RT: the monolithic arbiter's fan-in throttles the clock."""
    _check(n_clients)
    path = 1.0 + _AXI_PATH_COEFF * n_clients * math.log2(n_clients)
    return _FABRIC_FMAX_MHZ / path


def system_fmax_mhz(interconnect_fmax: float, n_clients: int) -> float:
    """System clock: min of legacy fabric and the interconnect."""
    return min(interconnect_fmax, legacy_fmax_mhz(n_clients))
