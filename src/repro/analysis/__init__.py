"""Schedulability analysis: periodic resource model, Theorems 1 & 2,
interface selection and hierarchical composition (paper Sec. 5).

How an analysis runs is one value, :class:`AnalysisContext` (memo cache
+ selection config), passed as ``ctx=`` to every function here.  One
numpy-backed engine evaluates the dbf<=sbf machinery, batching
candidate interfaces over shared, memoized step-point grids
(:mod:`repro.analysis.context`, :mod:`repro.analysis.vectorized`,
:mod:`repro.analysis.cache`); the test suite checks it against an
independent exact oracle written from the definitions."""

from repro.analysis.cache import (
    AnalysisCache,
    CacheStats,
    get_default_cache,
    taskset_digest,
    taskset_key,
)
from repro.analysis.context import (
    DEFAULT_CONFIG,
    AnalysisContext,
    SelectionConfig,
)
from repro.analysis.prm import (
    ResourceInterface,
    dbf,
    dbf_task,
    sbf,
    sbf_linear_lower_bound,
)
from repro.analysis.schedulability import (
    SchedulabilityResult,
    is_schedulable,
    theorem1_bound,
)
from repro.analysis.interface_selection import (
    SelectionResult,
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
)

__all__ = [
    "AdmissionDecision",
    "AdmissionSession",
    "AnalysisCache",
    "AnalysisContext",
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
    "dbf_task",
    "sbf",
    "sbf_linear_lower_bound",
    "SchedulabilityResult",
    "is_schedulable",
    "theorem1_bound",
    "SelectionConfig",
    "SelectionResult",
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
]
