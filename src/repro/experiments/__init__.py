"""Experiment harness: one module per paper table/figure or extension.

Table 1, Fig. 5 and the update-latency extension are analytic
(:mod:`~repro.experiments.table1`, :mod:`~repro.experiments.fig5`,
:mod:`~repro.experiments.update_latency`).  The simulation-backed ones —
Fig. 6 (real-time performance under synthetic workloads), Fig. 7 (the
automotive case study), fault isolation, churn, the design-choice
ablations, DRAM sensitivity, fairness and the scalability sweep — are
the records of :data:`EXPERIMENTS`, each run by
``run_experiment(name, config)`` (:mod:`repro.experiments.registry`).
All of them build their designs with the paper's settings from
:mod:`~repro.experiments.factory`; no experiment config overrides them.
"""

from repro.experiments.factory import INTERCONNECT_NAMES, build_interconnect
from repro.experiments.table1 import PAPER_TABLE1, Table1Row, format_table1, run_table1
from repro.experiments.fig5 import Fig5Result, format_fig5, run_fig5
from repro.experiments.fig6 import (
    Fig6Config,
    Fig6Result,
    InterconnectMetrics,
    build_fig6_specs,
    format_fig6,
    reduce_fig6,
    run_fig6_trial,
)
from repro.experiments.fig7 import (
    Fig7Config,
    Fig7Result,
    build_fig7_specs,
    format_fig7,
    reduce_fig7,
    run_fig7_trial,
)
from repro.experiments.ablation import (
    VARIANTS,
    AblationConfig,
    AlphaPoint,
    build_variant,
    run_bluetree_alpha_sweep,
)
from repro.experiments.dram_sensitivity import (
    DramConfig,
    format_dram_sensitivity,
)
from repro.experiments.fairness import (
    FairnessConfig,
    FairnessOutcome,
    format_fairness,
    jain_index,
)
from repro.experiments.persistence import load_json, save_csv, save_json
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.scalability_sweep import (
    ScalabilityConfig,
    ScalabilityResult,
    format_scalability,
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
    "INTERCONNECT_NAMES",
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
    "run_fig6_trial",
    "Fig7Config",
    "Fig7Result",
    "build_fig7_specs",
    "format_fig7",
    "reduce_fig7",
    "run_fig7_trial",
    "format_series",
    "format_table",
    "format_bar_chart",
    "format_curves",
    "format_supply_demand",
    "EXPERIMENTS",
    "run_experiment",
    "VARIANTS",
    "AblationConfig",
    "build_variant",
    "AlphaPoint",
    "run_bluetree_alpha_sweep",
    "DramConfig",
    "format_dram_sensitivity",
    "FairnessConfig",
    "FairnessOutcome",
    "format_fairness",
    "jain_index",
    "load_json",
    "save_csv",
    "save_json",
    "ScalabilityConfig",
    "ScalabilityResult",
    "format_scalability",
    "format_update_latency",
    "measure_update_cost",
    "run_update_latency",
]
