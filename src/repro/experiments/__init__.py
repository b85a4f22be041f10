"""Experiment harness: one module per paper table/figure.

* :mod:`repro.experiments.table1` — Table 1 (hardware overhead).
* :mod:`repro.experiments.fig5` — Fig. 5 (hardware scalability).
* :mod:`repro.experiments.fig6` — Fig. 6 (interconnect-level real-time
  performance with synthetic workloads).
* :mod:`repro.experiments.fig7` — Fig. 7 (automotive case study).
"""

from repro.experiments.factory import (
    DEFAULT_FACTORY_CONFIG,
    INTERCONNECT_NAMES,
    FactoryConfig,
    build_interconnect,
)
from repro.experiments.table1 import PAPER_TABLE1, Table1Row, format_table1, run_table1
from repro.experiments.fig5 import Fig5Result, format_fig5, run_fig5
from repro.experiments.fig6 import (
    Fig6Config,
    Fig6Result,
    InterconnectMetrics,
    build_fig6_specs,
    format_fig6,
    reduce_fig6,
    run_fig6,
    run_fig6_trial,
)
from repro.experiments.fig7 import (
    Fig7Config,
    Fig7Result,
    build_fig7_specs,
    format_fig7,
    reduce_fig7,
    run_fig7,
    run_fig7_trial,
)
from repro.experiments.ablation import (
    VARIANTS,
    AlphaPoint,
    build_variant,
    evaluate_variant,
    run_ablation,
    run_bluetree_alpha_sweep,
)
from repro.experiments.dram_sensitivity import (
    format_dram_sensitivity,
    run_dram_sensitivity,
)
from repro.experiments.fairness import (
    FairnessOutcome,
    format_fairness,
    jain_index,
    run_fairness,
)
from repro.experiments.persistence import load_json, save_csv, save_json
from repro.experiments.scalability_sweep import (
    ScalabilityResult,
    format_scalability,
    run_scalability_sweep,
)
from repro.experiments.update_latency import (
    format_update_latency,
    measure_update_cost,
    run_update_latency,
)
from repro.experiments.reporting import (
    format_bar_chart,
    format_curves,
    format_series,
    format_supply_demand,
    format_table,
)

__all__ = [
    "DEFAULT_FACTORY_CONFIG",
    "INTERCONNECT_NAMES",
    "FactoryConfig",
    "build_interconnect",
    "PAPER_TABLE1",
    "Table1Row",
    "format_table1",
    "run_table1",
    "Fig5Result",
    "format_fig5",
    "run_fig5",
    "Fig6Config",
    "Fig6Result",
    "InterconnectMetrics",
    "build_fig6_specs",
    "format_fig6",
    "reduce_fig6",
    "run_fig6",
    "run_fig6_trial",
    "Fig7Config",
    "Fig7Result",
    "build_fig7_specs",
    "format_fig7",
    "reduce_fig7",
    "run_fig7",
    "run_fig7_trial",
    "format_series",
    "format_table",
    "format_bar_chart",
    "format_curves",
    "format_supply_demand",
    "VARIANTS",
    "build_variant",
    "evaluate_variant",
    "run_ablation",
    "AlphaPoint",
    "run_bluetree_alpha_sweep",
    "format_dram_sensitivity",
    "run_dram_sensitivity",
    "FairnessOutcome",
    "format_fairness",
    "jain_index",
    "run_fairness",
    "load_json",
    "save_csv",
    "save_json",
    "ScalabilityResult",
    "format_scalability",
    "run_scalability_sweep",
    "format_update_latency",
    "measure_update_cost",
    "run_update_latency",
]
