"""Experiment T1 — Table 1: hardware overhead at 16 clients.

Reproduces the paper's Table 1: LUTs, registers, DSPs, RAM and power of
every evaluated interconnect (plus the MicroBlaze and RISC-V yardsticks)
at a 16-client configuration, from the structural hardware cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cost_model import (
    axi_icrt_cost,
    bluescale_cost,
    bluetree_cost,
    bluetree_smooth_cost,
    gsmtree_cost,
    microblaze_cost,
    riscv_cost,
)
from repro.hardware.primitives import HardwareReport
from repro.experiments.reporting import format_table

#: the paper's published Table 1, for side-by-side comparison
PAPER_TABLE1: dict[str, tuple[int, int, int, int, int]] = {
    "AXI-IC^RT": (3744, 3451, 0, 0, 46),
    "BlueTree": (1683, 2901, 0, 0, 27),
    "BlueTree-Smooth": (2349, 3455, 0, 0, 41),
    "GSMTree": (2443, 3115, 0, 8, 59),
    "MicroBlaze": (4993, 4295, 6, 256, 369),
    "RISC-V": (7433, 16544, 21, 512, 583),
    "BlueScale": (2959, 3312, 0, 10, 67),
}

ROW_ORDER = (
    "AXI-IC^RT",
    "BlueTree",
    "BlueTree-Smooth",
    "GSMTree",
    "MicroBlaze",
    "RISC-V",
    "BlueScale",
)


@dataclass(frozen=True)
class Table1Row:
    design: str
    report: HardwareReport
    paper: tuple[int, int, int, int, int]


def run_table1(n_clients: int = 16) -> list[Table1Row]:
    """Compute every Table 1 row at ``n_clients``."""
    reports = {
        "AXI-IC^RT": axi_icrt_cost(n_clients),
        "BlueTree": bluetree_cost(n_clients),
        "BlueTree-Smooth": bluetree_smooth_cost(n_clients),
        "GSMTree": gsmtree_cost(n_clients),
        "MicroBlaze": microblaze_cost(),
        "RISC-V": riscv_cost(),
        "BlueScale": bluescale_cost(n_clients),
    }
    return [
        Table1Row(design=name, report=reports[name], paper=PAPER_TABLE1[name])
        for name in ROW_ORDER
    ]


def format_table1(rows: list[Table1Row]) -> str:
    """Render the measured-vs-paper Table 1."""
    table_rows = []
    for row in rows:
        r, p = row.report, row.paper
        table_rows.append(
            [
                row.design,
                r.luts,
                r.registers,
                r.dsps,
                r.ram_kb,
                round(r.power_mw),
                f"{p[0]}/{p[1]}/{p[2]}/{p[3]}/{p[4]}",
            ]
        )
    return format_table(
        ["Design", "LUTs", "Registers", "DSPs", "RAM(KB)", "Power(mW)",
         "paper(L/R/D/RAM/P)"],
        table_rows,
        title="Table 1 — hardware overhead (16 clients)",
    )
