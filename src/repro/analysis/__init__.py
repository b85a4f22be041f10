"""Schedulability analysis: periodic resource model, Theorems 1 & 2,
interface selection and hierarchical composition (paper Sec. 5).

How an analysis runs is one value, :class:`AnalysisContext` (backend +
memo cache + selection config), passed as ``ctx=`` to every function
here.  Two interchangeable backends evaluate the dbf<=sbf machinery:
the original ``scalar`` reference oracle and a numpy-backed
``vectorized`` engine that batches candidate interfaces over shared,
memoized step-point grids (:mod:`repro.analysis.context`,
:mod:`repro.analysis.vectorized`, :mod:`repro.analysis.cache`)."""

from repro.analysis.cache import (
    AnalysisCache,
    CacheStats,
    get_default_cache,
    taskset_digest,
    taskset_key,
)
from repro.analysis.context import (
    BACKENDS,
    DEFAULT_CONFIG,
    AnalysisContext,
    SelectionConfig,
)
from repro.analysis.prm import (
    ResourceInterface,
    dbf,
    dbf_step_points,
    dbf_task,
    sbf,
    sbf_linear_lower_bound,
)
from repro.analysis.schedulability import (
    SchedulabilityResult,
    is_schedulable,
    is_schedulable_exhaustive,
    theorem1_bound,
)
from repro.analysis.interface_selection import (
    SelectionResult,
    brute_force_minimum_bandwidth,
    minimal_budget_for_period,
    minimal_budgets_for_periods,
    select_interface,
    theorem2_period_bound,
)
from repro.analysis.vectorized import (
    StepGrid,
    dbf_values,
    sbf_values,
)
from repro.analysis.composition import (
    CompositionResult,
    compose,
    default_deadline_margin,
    tighten_deadlines,
    update_client,
)
from repro.analysis.sensitivity import (
    BreakdownResult,
    breakdown_scale,
    slack_per_client,
)
from repro.analysis.model import SystemModel
from repro.analysis.session import (
    AdmissionDecision,
    AdmissionSession,
    RejectionWitness,
)
from repro.analysis.response_time import (
    PathResponseBound,
    busy_period_length,
    end_to_end_bound,
    holistic_response_bounds,
    supply_inverse,
    wcrt_on_interface,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionSession",
    "AnalysisCache",
    "AnalysisContext",
    "BACKENDS",
    "DEFAULT_CONFIG",
    "RejectionWitness",
    "SystemModel",
    "CacheStats",
    "StepGrid",
    "dbf_values",
    "get_default_cache",
    "minimal_budgets_for_periods",
    "sbf_values",
    "taskset_digest",
    "taskset_key",
    "ResourceInterface",
    "dbf",
    "dbf_step_points",
    "dbf_task",
    "sbf",
    "sbf_linear_lower_bound",
    "SchedulabilityResult",
    "is_schedulable",
    "is_schedulable_exhaustive",
    "theorem1_bound",
    "SelectionConfig",
    "SelectionResult",
    "brute_force_minimum_bandwidth",
    "minimal_budget_for_period",
    "select_interface",
    "theorem2_period_bound",
    "CompositionResult",
    "compose",
    "default_deadline_margin",
    "tighten_deadlines",
    "update_client",
    "BreakdownResult",
    "breakdown_scale",
    "slack_per_client",
    "PathResponseBound",
    "busy_period_length",
    "end_to_end_bound",
    "holistic_response_bounds",
    "supply_inverse",
    "wcrt_on_interface",
]
