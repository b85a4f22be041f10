"""Interconnect models: BlueScale plus the paper's baselines."""

from repro.interconnects.base import Interconnect
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.mux_tree import MuxNode, MuxTreeInterconnect
from repro.interconnects.bluetree import (
    BlueTreeInterconnect,
    BlueTreeNode,
    BlueTreeSmoothInterconnect,
)
from repro.interconnects.gsmtree import (
    GsmTreeInterconnect,
    build_fbsp_frame,
    build_tdm_frame,
    gsmtree_fbsp,
    gsmtree_tdm,
)

__all__ = [
    "Interconnect",
    "AxiIcRtInterconnect",
    "MuxNode",
    "MuxTreeInterconnect",
    "BlueTreeInterconnect",
    "BlueTreeNode",
    "BlueTreeSmoothInterconnect",
    "GsmTreeInterconnect",
    "build_fbsp_frame",
    "build_tdm_frame",
    "gsmtree_fbsp",
    "gsmtree_tdm",
]
