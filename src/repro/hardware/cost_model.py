"""Structural hardware cost model for every design in Table 1.

Each ``*_cost`` function decomposes one design into the primitives its
micro-architecture instantiates and sums their costs.  The 16-client
configurations reproduce the paper's Table 1 within a few percent (the
tests pin this down); scaling the client count then yields Fig. 5's
area/power curves from structure alone.

MicroBlaze and RISC-V are third-party processor IP used by the paper
only as size yardsticks; their resource numbers are reference constants
(from Table 1 / the cited implementations), not structural models.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hardware.power import estimate_power_mw
from repro.hardware.primitives import DEFAULT_PRIMITIVES, HardwareReport, PrimitiveCosts
from repro.topology import TreeTopology, binary_tree


def _check_clients(n_clients: int) -> None:
    if n_clients < 2:
        raise ConfigurationError(
            f"an interconnect needs at least 2 clients, got {n_clients}"
        )


# ---------------------------------------------------------------------------
# BlueTree family — binary trees of 2:1 mux nodes
# ---------------------------------------------------------------------------
def _bluetree_node(
    prim: PrimitiveCosts, fifo_depth: int, smoothing: bool, fcfs_tags: bool
) -> tuple[float, float]:
    """(luts, registers) of one 2:1 mux node."""
    rw = prim.request_width_bits
    registers = 2 * fifo_depth * rw + prim.fifo_control_registers
    luts = (
        prim.mux2_luts(rw)  # output mux
        + 2 * prim.fifo_control_luts  # one FIFO controller per port
        + 49  # α-counter / handshake arbiter (calibrated)
    )
    if fcfs_tags:
        luts += prim.comparator_luts(8)  # arrival-tag compare
    if smoothing:
        # Output skid register smoothing the access path.
        registers += rw
        luts += rw
    return luts, registers


def bluetree_cost(
    n_clients: int,
    fifo_depth: int = 2,
    prim: PrimitiveCosts = DEFAULT_PRIMITIVES,
) -> HardwareReport:
    """BlueTree: n−1 mux nodes with blocking-factor arbiters."""
    _check_clients(n_clients)
    topology: TreeTopology = binary_tree(n_clients)
    node_luts, node_regs = _bluetree_node(prim, fifo_depth, False, False)
    n_nodes = topology.n_nodes()
    luts = round(n_nodes * node_luts)
    registers = round(n_nodes * node_regs)
    return HardwareReport(
        luts=luts,
        registers=registers,
        dsps=0,
        ram_kb=0,
        power_mw=round(estimate_power_mw("bluetree", luts, registers), 1),
    )


def bluetree_smooth_cost(
    n_clients: int,
    fifo_depth: int = 2,
    prim: PrimitiveCosts = DEFAULT_PRIMITIVES,
) -> HardwareReport:
    """BlueTree-Smooth: BlueTree plus per-node smoothing buffers."""
    _check_clients(n_clients)
    topology = binary_tree(n_clients)
    node_luts, node_regs = _bluetree_node(prim, fifo_depth, True, False)
    n_nodes = topology.n_nodes()
    luts = round(n_nodes * node_luts)
    registers = round(n_nodes * node_regs)
    return HardwareReport(
        luts=luts,
        registers=registers,
        dsps=0,
        ram_kb=0,
        power_mw=round(estimate_power_mw("bluetree-smooth", luts, registers), 1),
    )


def gsmtree_cost(
    n_clients: int,
    fifo_depth: int = 2,
    prim: PrimitiveCosts = DEFAULT_PRIMITIVES,
) -> HardwareReport:
    """GSMTree: FCFS mux nodes plus the global TDM arbitration unit.

    The TDM unit keeps the slot frame in RAM (8 KB per 16 clients) with
    a slot decoder and frame counters at the root.
    """
    _check_clients(n_clients)
    topology = binary_tree(n_clients)
    node_luts, node_regs = _bluetree_node(prim, fifo_depth, False, True)
    n_nodes = topology.n_nodes()
    tdm_luts = 710  # slot decoder + RAM interface (calibrated)
    tdm_regs = 220  # frame pointer / configuration registers
    luts = round(n_nodes * node_luts + tdm_luts)
    registers = round(n_nodes * node_regs + tdm_regs)
    ram_kb = 8 * ((n_clients + 15) // 16)
    return HardwareReport(
        luts=luts,
        registers=registers,
        dsps=0,
        ram_kb=ram_kb,
        power_mw=round(estimate_power_mw("gsmtree", luts, registers, ram_kb), 1),
    )


# ---------------------------------------------------------------------------
# AXI-IC^RT — centralized switch box + monolithic arbiter
# ---------------------------------------------------------------------------
#: AXI read/write channel datapath width (bits)
_AXI_DATAPATH_BITS = 64
#: fixed burst/handshake control logic of the switch box (calibrated)
_AXI_CONTROL_LUTS = 236
#: per-client address decode + QoS bookkeeping (calibrated)
_AXI_PER_CLIENT_LUTS = 80


def axi_icrt_cost(
    n_clients: int,
    fifo_depth: int = 4,
    prim: PrimitiveCosts = DEFAULT_PRIMITIVES,
) -> HardwareReport:
    """AXI-IC^RT: per-client ingress FIFOs, n:1 crossbar (read and write
    channels), deadline-comparator arbitration tree, per-client
    bandwidth regulators, and the switch-box control plane.

    The arbitration tree's ``n·log2(n)`` term is what makes the
    centralized design scale worse than linearly (Fig. 5(a))."""
    _check_clients(n_clients)
    rw = prim.request_width_bits
    log2n = max(1, (n_clients - 1).bit_length())
    # registers: ingress FIFOs + token counters + pipeline stages
    registers = (
        n_clients * (fifo_depth * rw + prim.fifo_control_registers)
        + n_clients * 16  # 16-bit regulation token counter per client
        + 2 * rw  # two-stage output pipeline
    )
    luts = (
        n_clients * prim.fifo_control_luts
        + 2 * (n_clients - 1) * prim.mux2_luts(_AXI_DATAPATH_BITS)  # R+W crossbars
        + (n_clients - 1) * prim.comparator_luts(prim.deadline_bits)
        + n_clients * log2n * 10  # arbitration tree: fan-in grows with n
        + n_clients * 8  # regulator decrement/compare
        + n_clients * _AXI_PER_CLIENT_LUTS
        + _AXI_CONTROL_LUTS
    )
    luts = round(luts)
    registers = round(registers)
    return HardwareReport(
        luts=luts,
        registers=registers,
        dsps=0,
        ram_kb=0,
        power_mw=round(estimate_power_mw("axi-icrt", luts, registers), 1),
    )


# ---------------------------------------------------------------------------
# BlueScale — quadtree of Scale Elements
# ---------------------------------------------------------------------------
def scale_element_cost(
    buffer_depth: int = 2,
    prim: PrimitiveCosts = DEFAULT_PRIMITIVES,
    fanout: int = 4,
) -> HardwareReport:
    """One Scale Element (Fig. 2(b)): ``fanout`` random-access buffers,
    the local scheduler (one P/B counter pair per port + scheduling
    circuits), the interface selector (ALU + FSM + 2 KB scratchpad), and
    the response demux.  The paper's SE is 4-to-1; other fan-outs cost
    the design-space ablations."""
    if fanout < 2:
        raise ConfigurationError(f"SE fanout must be >= 2, got {fanout}")
    rw = prim.request_width_bits
    # Random access buffers: register banks + comparator/mux arbiter each.
    buffer_regs = fanout * buffer_depth * rw
    buffer_luts = fanout * (
        (buffer_depth - 1) * prim.comparator_luts(prim.deadline_bits)
        + prim.mux2_luts(rw)
        + 12  # loader/fetcher handshake
    )
    # Local scheduler: per-port (P-counter + B-counter) + circuits.
    scheduler_regs = fanout * 2 * prim.counter32_registers + fanout
    scheduler_luts = (
        fanout * 2 * prim.counter32_luts
        + (fanout - 1) * prim.comparator_luts(prim.deadline_bits)  # EDF tree
        + prim.mux2_luts(rw)
        + fanout  # budget XOR gates
    )
    # Interface selector: ALU + FSM (scratchpad is RAM, counted separately).
    selector_regs = prim.fsm_registers
    selector_luts = prim.alu32_luts + prim.fsm_luts
    demux_luts = prim.mux2_luts(rw)
    luts = round(buffer_luts + scheduler_luts + selector_luts + demux_luts)
    registers = round(buffer_regs + scheduler_regs + selector_regs)
    return HardwareReport(
        luts=luts,
        registers=registers,
        dsps=0,
        ram_kb=2,
        power_mw=round(estimate_power_mw("bluescale", luts, registers, 2), 1),
    )


def bluescale_cost(
    n_clients: int,
    buffer_depth: int = 2,
    prim: PrimitiveCosts = DEFAULT_PRIMITIVES,
    fanout: int = 4,
) -> HardwareReport:
    """BlueScale: one Scale Element per tree node (quadtree by default)."""
    _check_clients(n_clients)
    topology = TreeTopology(n_clients=n_clients, fanout=fanout)
    per_element = scale_element_cost(buffer_depth, prim, fanout)
    n_elements = topology.n_nodes()
    luts = per_element.luts * n_elements
    registers = per_element.registers * n_elements
    ram_kb = per_element.ram_kb * n_elements
    return HardwareReport(
        luts=luts,
        registers=registers,
        dsps=0,
        ram_kb=ram_kb,
        power_mw=round(
            estimate_power_mw("bluescale", luts, registers, ram_kb), 1
        ),
    )


# ---------------------------------------------------------------------------
# Reference IP and the legacy system
# ---------------------------------------------------------------------------
def microblaze_cost() -> HardwareReport:
    """Fully featured MicroBlaze (pipeline + caches), Table 1 reference."""
    return HardwareReport(luts=4993, registers=4295, dsps=6, ram_kb=256, power_mw=369.0)


def riscv_cost() -> HardwareReport:
    """Out-of-order RISC-V soft core (Mashimo et al.), Table 1 reference."""
    return HardwareReport(
        luts=7433, registers=16544, dsps=21, ram_kb=512, power_mw=583.0
    )


#: per-client area/power of the legacy many-core platform in the Fig. 5
#: scaling experiment (lightweight core + NoC share; calibrated so the
#: 128-client legacy system occupies ~50% of a VC707)
LEGACY_CLIENT_LUTS = 1200
LEGACY_CLIENT_REGISTERS = 1100
LEGACY_CLIENT_POWER_MW = 12.0


def legacy_system_cost(n_clients: int) -> HardwareReport:
    """The many-core platform without any evaluated interconnect."""
    if n_clients < 1:
        raise ConfigurationError("legacy system needs at least one client")
    return HardwareReport(
        luts=LEGACY_CLIENT_LUTS * n_clients,
        registers=LEGACY_CLIENT_REGISTERS * n_clients,
        dsps=0,
        ram_kb=0,
        power_mw=LEGACY_CLIENT_POWER_MW * n_clients,
    )


#: LUT capacity of the Xilinx VC707 evaluation board (XC7VX485T)
PLATFORM_LUTS = 303_600


def area_fraction(report: HardwareReport) -> float:
    """Design area as a fraction of the platform (Fig. 5(a) y-axis)."""
    return report.luts / PLATFORM_LUTS
