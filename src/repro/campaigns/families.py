"""Family adapters: one grid cell → one experiment-triple run.

Each campaign cell names an experiment *family* (``fig6`` / ``fig7`` /
``isolation`` / ``churn``) and pins a point of that family's parameter
space.  The adapters here translate a :class:`~repro.campaigns.grid.GridCell`
into the family's existing runtime triple — spec builder, trial runner,
reducer — so the campaign layer adds **no new simulation code**: a cell
runs exactly the trials the standalone experiment would, under the
cell's seed, and folds the family's own ``metric_set()`` plus combined
trace digests into one deterministic record.

Conventions shared by every family:

* ``design`` selects a single interconnect per cell (the whole default
  roster when absent), so a two-design sweep yields two independently
  diffable cells;
* ``utilization`` pins the family's utilization draw (for families that
  draw from a ``[low, high]`` range, both ends are set to the value);
* ``fault`` (isolation) is a ``"SIZExEVERY"`` burst shape, e.g.
  ``"24x60"`` = bursts of 24 every 60 cycles;
* ``scenario`` (churn) is the joiner count of the churn timeline;
* ``sim_backend`` / ``analysis_backend`` name the cell's engines: they
  override the run-level :class:`~repro.runtime.EngineConfig` for this
  cell's trial specs and touch nothing else — results are bit-identical
  across them (the repo's differential walls), so sweeping a backend
  axis is a *test*, not a new experiment: the gate diffs the cells flat.

A failed trial fails its whole cell (recorded, surfaced by the gate) —
campaign records never average over silently-missing trials.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.campaigns.grid import ENGINE_AXES, GridCell
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import (
    EngineConfig,
    MetricSet,
    SerialExecutor,
    TrialOutcome,
    TrialSpec,
)

#: build result: (trial runner, trial specs, outcome folder)
CellPlan = tuple[
    Callable[[TrialSpec], MetricSet],
    "list[TrialSpec]",
    Callable[[Sequence[TrialOutcome]], MetricSet],
]


@dataclass(frozen=True)
class CellFamily:
    """One experiment family's campaign adapter."""

    name: str
    #: sweepable axis names (subset of spec.AXIS_ORDER)
    axes: tuple[str, ...]
    #: extra scalar-only settings beyond trials/horizon/drain
    extra_settings: tuple[str, ...]
    build: Callable[[GridCell], CellPlan]


def _scale_kwargs(cell: GridCell) -> dict[str, int]:
    """trials/horizon/drain overrides — only the ones the spec set."""
    kwargs: dict[str, int] = {}
    for name in ("trials", "horizon", "drain"):
        value = cell.value(name)
        if value is not None:
            kwargs[name] = int(value)
    return kwargs


def _designs(cell: GridCell, roster: tuple[str, ...]) -> tuple[str, ...]:
    design = cell.value("design")
    if design is None:
        return roster
    from repro.experiments.factory import INTERCONNECT_NAMES

    if design not in INTERCONNECT_NAMES:
        raise ConfigurationError(
            f"cell {cell.cell_id}: unknown design {design!r}; expected one "
            f"of {INTERCONNECT_NAMES}"
        )
    return (str(design),)


def _utilization_kwargs(cell: GridCell) -> dict[str, float]:
    utilization = cell.value("utilization")
    if utilization is None:
        return {}
    utilization = float(utilization)
    if not 0 < utilization <= 1:
        raise ConfigurationError(
            f"cell {cell.cell_id}: utilization must be in (0, 1], got "
            f"{utilization}"
        )
    return {
        "utilization_low": utilization,
        "utilization_high": utilization,
    }


def parse_fault_axis(value: Any) -> tuple[int, int]:
    """``"SIZExEVERY"`` → (burst_size, burst_every), e.g. ``"24x60"``."""
    try:
        size_text, every_text = str(value).split("x")
        size, every = int(size_text), int(every_text)
    except ValueError:
        raise ConfigurationError(
            f"fault axis values look like 'SIZExEVERY' (e.g. '24x60'), "
            f"got {value!r}"
        ) from None
    if size < 1 or every < 1:
        raise ConfigurationError(
            f"fault burst size and period must be positive, got {value!r}"
        )
    return size, every


def _fig6_build(cell: GridCell) -> CellPlan:
    from repro.experiments.factory import INTERCONNECT_NAMES
    from repro.experiments.fig6 import (
        Fig6Config,
        build_fig6_specs,
        reduce_fig6,
        run_fig6_trial,
    )

    designs = _designs(cell, INTERCONNECT_NAMES)
    kwargs: dict[str, Any] = _scale_kwargs(cell)
    kwargs.update(_utilization_kwargs(cell))
    if cell.value("n") is not None:
        kwargs["n_clients"] = int(cell.value("n"))
    if cell.value("observability") is not None:
        kwargs["observability"] = bool(cell.value("observability"))
    config = Fig6Config(seed=cell.seed, **kwargs)

    def fold(outcomes: Sequence[TrialOutcome]) -> MetricSet:
        return reduce_fig6(config, designs, list(outcomes)).metric_set()

    return run_fig6_trial, build_fig6_specs(config, designs), fold


def _fig7_build(cell: GridCell) -> CellPlan:
    from repro.experiments.factory import INTERCONNECT_NAMES
    from repro.experiments.fig7 import (
        Fig7Config,
        build_fig7_specs,
        reduce_fig7,
        run_fig7_trial,
    )

    designs = _designs(cell, INTERCONNECT_NAMES)
    kwargs: dict[str, Any] = _scale_kwargs(cell)
    if cell.value("n") is not None:
        kwargs["n_processors"] = int(cell.value("n"))
    if cell.value("utilization") is not None:
        kwargs["utilizations"] = (float(cell.value("utilization")),)
    if cell.value("observability") is not None:
        kwargs["observability"] = bool(cell.value("observability"))
    if cell.value("analysis") is not None:
        kwargs["analysis"] = bool(cell.value("analysis"))
    config = Fig7Config(seed=cell.seed, **kwargs)

    def fold(outcomes: Sequence[TrialOutcome]) -> MetricSet:
        return reduce_fig7(config, designs, list(outcomes)).metric_set()

    return run_fig7_trial, build_fig7_specs(config, designs), fold


def _isolation_build(cell: GridCell) -> CellPlan:
    from repro.experiments.isolation import (
        ISOLATION_INTERCONNECTS,
        IsolationConfig,
        build_isolation_specs,
        reduce_isolation,
        run_isolation_trial,
    )

    designs = _designs(cell, ISOLATION_INTERCONNECTS)
    kwargs: dict[str, Any] = _scale_kwargs(cell)
    kwargs.update(_utilization_kwargs(cell))
    if cell.value("n") is not None:
        kwargs["n_clients"] = int(cell.value("n"))
    if cell.value("fault") is not None:
        size, every = parse_fault_axis(cell.value("fault"))
        kwargs["burst_size"] = size
        kwargs["burst_every"] = every
    config = IsolationConfig(seed=cell.seed, **kwargs)

    def fold(outcomes: Sequence[TrialOutcome]) -> MetricSet:
        return reduce_isolation(config, designs, list(outcomes)).metric_set()

    return run_isolation_trial, build_isolation_specs(config, designs), fold


def _churn_build(cell: GridCell) -> CellPlan:
    from repro.experiments.churn import (
        ChurnConfig,
        build_churn_specs,
        reduce_churn,
        run_churn_trial,
    )

    kwargs: dict[str, Any] = _scale_kwargs(cell)
    kwargs.update(_utilization_kwargs(cell))
    if cell.value("n") is not None:
        kwargs["n_clients"] = int(cell.value("n"))
    if cell.value("scenario") is not None:
        kwargs["joiners"] = int(cell.value("scenario"))
    config = ChurnConfig(seed=cell.seed, **kwargs)

    def fold(outcomes: Sequence[TrialOutcome]) -> MetricSet:
        return reduce_churn(config, list(outcomes)).metric_set()

    return run_churn_trial, build_churn_specs(config), fold


FAMILIES: dict[str, CellFamily] = {
    "fig6": CellFamily(
        "fig6",
        axes=("design", "n", "utilization") + ENGINE_AXES,
        extra_settings=("observability",),
        build=_fig6_build,
    ),
    "fig7": CellFamily(
        "fig7",
        axes=("design", "n", "utilization") + ENGINE_AXES,
        extra_settings=("observability", "analysis"),
        build=_fig7_build,
    ),
    "isolation": CellFamily(
        "isolation",
        axes=("design", "n", "utilization", "fault") + ENGINE_AXES,
        extra_settings=(),
        build=_isolation_build,
    ),
    "churn": CellFamily(
        "churn",
        axes=("n", "utilization", "scenario") + ENGINE_AXES,
        extra_settings=(),
        build=_churn_build,
    ),
}


def get_family(name: str) -> CellFamily:
    if name not in FAMILIES:
        raise ConfigurationError(
            f"unknown experiment family {name!r}; expected one of "
            f"{sorted(FAMILIES)}"
        )
    return FAMILIES[name]


def family_axes(name: str) -> tuple[str, ...]:
    """Every key (axes + family settings) sweeps of ``name`` accept."""
    family = get_family(name)
    return family.axes + family.extra_settings


def cell_trial_specs(cell: GridCell) -> list[TrialSpec]:
    """The exact trial specs a cell will run (for the property tests)."""
    _, specs, _ = get_family(cell.family).build(cell)
    return specs


def _combined_trace_tags(
    outcomes: Sequence[TrialOutcome],
) -> dict[str, str]:
    """Per-design digests over every trial's trace digests, in order.

    Each trial already tags its completion-trace digests
    (``{design}/trace``, isolation's ``…/trace_base``/``…/trace_fault``,
    churn's per-policy traces); the cell record keeps one sha256 per
    tag key over the whole trial sequence — a single line whose
    equality certifies bit-identical simulation across executors,
    worker counts and sim backends.
    """
    keys: list[str] = []
    for outcome in outcomes:
        for key in outcome.metrics.tags:
            if "trace" in key.rsplit("/", 1)[-1] and key not in keys:
                keys.append(key)
    combined: dict[str, str] = {}
    for key in sorted(keys):
        digest = hashlib.sha256()
        for outcome in outcomes:
            digest.update(outcome.metrics.tags.get(key, "").encode())
        combined[key] = digest.hexdigest()
    return combined


def run_cell(
    cell: GridCell, engine: EngineConfig | None = None
) -> MetricSet:
    """Execute one grid cell to a deterministic metric set.

    Runs the family's trials on a :class:`SerialExecutor` inside the
    current process (the campaign executor shards *cells*, not trials —
    so each trial runner's ``.batch`` seam still batches within the
    cell).  The trials' engine is *cell axis beats run-level ``engine``
    beats default*, stamped onto their specs by that executor.
    """
    family = get_family(cell.family)
    runner, specs, fold = family.build(cell)
    cell_engine = (engine or EngineConfig()).override(
        cell.value("sim_backend"), cell.value("analysis_backend")
    )
    outcomes = SerialExecutor(cell_engine).map(runner, specs, None)
    failures = [outcome for outcome in outcomes if outcome.failed]
    if failures:
        raise SimulationError(
            f"cell {cell.cell_id}: {len(failures)} of {len(outcomes)} "
            f"trial(s) failed — first error: {failures[0].error}"
        )
    reduced = fold(outcomes)
    scalars = dict(reduced.scalars)
    scalars["cell/trials"] = float(len(specs))
    tags = dict(reduced.tags)
    tags.update(_combined_trace_tags(outcomes))
    tags["cell_id"] = cell.cell_id
    return MetricSet(scalars=scalars, tags=tags)
