"""Campaign families: one grid cell → one registered experiment run.

Each campaign cell names an experiment *family* (``fig6`` / ``fig7`` /
``isolation`` / ``churn``) — a record of the experiment registry
(:mod:`repro.experiments.registry`) — and pins a point of that
experiment's parameter space.  A family here adds only what a campaign
needs on top of the record: the axes a sweep of it may name, and the
mapping from a :class:`~repro.campaigns.grid.GridCell` to the
experiment's config.  :func:`run_cell` then runs the cell through
:func:`~repro.experiments.registry.run_experiment`, so the campaign
layer adds **no new simulation code**: a cell runs exactly the trials
the standalone experiment would, under the cell's seed, and folds the
experiment's own ``metric_set()`` plus combined trace digests into one
deterministic record.

Conventions shared by every family:

* ``design`` selects a single interconnect per cell (the whole default
  roster when absent), so a two-design sweep yields two independently
  diffable cells;
* ``utilization`` pins the family's utilization draw (for families that
  draw from a ``[low, high]`` range, both ends are set to the value);
* ``fault`` (isolation) is a ``"SIZExEVERY"`` burst shape, e.g.
  ``"24x60"`` = bursts of 24 every 60 cycles;
* ``scenario`` (churn) is the joiner count of the churn timeline;
* ``sim_backend`` names the cell's simulator backend: it overrides the
  run-level backend for this cell's trial specs and touches nothing
  else — results are bit-identical across backends (the repo's
  differential walls), so sweeping it is a *test*, not a new
  experiment: the gate diffs the cells flat.

A failed trial fails its whole cell (recorded, surfaced by the gate) —
campaign records never average over silently-missing trials.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.campaigns.grid import ENGINE_AXES, GridCell
from repro.errors import ConfigurationError
from repro.experiments.factory import INTERCONNECT_NAMES
from repro.experiments.registry import get_experiment, run_experiment
from repro.runtime import (
    KeepOutcomes,
    MetricSet,
    SerialExecutor,
    TrialOutcome,
    TrialSpec,
)


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


#: a cell value → the config keyword arguments it sets
Field = Callable[[Any], dict[str, Any]]


def _to(name: str, convert: Callable[[Any], Any]) -> Field:
    return lambda value: {name: convert(value)}


def _utilization_range(value: Any) -> dict[str, float]:
    """Pin a ``[low, high]`` utilization draw to one value."""
    utilization = float(value)
    if not 0 < utilization <= 1:
        raise ConfigurationError(
            f"utilization must be in (0, 1], got {utilization}"
        )
    return {"utilization_low": utilization, "utilization_high": utilization}


def _fault_bursts(value: Any) -> dict[str, int]:
    size, every = parse_fault_axis(value)
    return {"burst_size": size, "burst_every": every}


#: the settings every family maps the same way
_SCALE: dict[str, Field] = {
    name: _to(name, int) for name in ("trials", "horizon", "drain")
}


@dataclass(frozen=True)
class CellFamily:
    """One registered experiment's campaign surface."""

    name: str
    #: sweepable axis names (subset of spec.AXIS_ORDER)
    axes: tuple[str, ...]
    #: extra scalar-only settings beyond trials/horizon/drain
    extra_settings: tuple[str, ...]
    #: the experiment config's mapping of every other axis and setting
    #: (``design`` picks the roster; ``sim_backend`` the simulator)
    config: dict[str, Field]


FAMILIES: dict[str, CellFamily] = {
    "fig6": CellFamily(
        "fig6",
        axes=("design", "n", "utilization") + ENGINE_AXES,
        extra_settings=("observability",),
        config={
            "n": _to("n_clients", int),
            "utilization": _utilization_range,
            "observability": _to("observability", bool),
        },
    ),
    "fig7": CellFamily(
        "fig7",
        axes=("design", "n", "utilization") + ENGINE_AXES,
        extra_settings=("observability", "analysis"),
        config={
            "n": _to("n_processors", int),
            "utilization": _to("utilizations", lambda u: (float(u),)),
            "observability": _to("observability", bool),
            "analysis": _to("analysis", bool),
        },
    ),
    "isolation": CellFamily(
        "isolation",
        axes=("design", "n", "utilization", "fault") + ENGINE_AXES,
        extra_settings=(),
        config={
            "n": _to("n_clients", int),
            "utilization": _utilization_range,
            "fault": _fault_bursts,
        },
    ),
    "churn": CellFamily(
        "churn",
        axes=("n", "utilization", "scenario") + ENGINE_AXES,
        extra_settings=(),
        config={
            "n": _to("n_clients", int),
            "utilization": _utilization_range,
            "scenario": _to("joiners", int),
        },
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


def _designs(cell: GridCell, roster: tuple[str, ...]) -> tuple[str, ...]:
    design = cell.value("design")
    if design is None:
        return roster
    if design not in INTERCONNECT_NAMES:
        raise ConfigurationError(
            f"cell {cell.cell_id}: unknown design {design!r}; expected one "
            f"of {INTERCONNECT_NAMES}"
        )
    return (str(design),)


def _cell_run(cell: GridCell) -> tuple[Any, tuple[str, ...]]:
    """The experiment config and roster one cell runs."""
    experiment = get_experiment(cell.family)
    kwargs: dict[str, Any] = {"seed": cell.seed}
    fields = {**_SCALE, **get_family(cell.family).config}
    try:
        for key, field in fields.items():
            if cell.value(key) is not None:
                kwargs.update(field(cell.value(key)))
    except ConfigurationError as exc:
        raise ConfigurationError(f"cell {cell.cell_id}: {exc}") from None
    config = experiment.resolve("config")(**kwargs)
    return config, _designs(cell, experiment.resolve("roster"))


def cell_trial_specs(cell: GridCell) -> list[TrialSpec]:
    """The exact trial specs a cell will run (for the property tests)."""
    config, roster = _cell_run(cell)
    return get_experiment(cell.family).resolve("specs")(config, roster)


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


def run_cell(cell: GridCell, sim_backend: str | None = None) -> MetricSet:
    """Execute one grid cell to a deterministic metric set.

    Runs the experiment's trials on a :class:`SerialExecutor` inside the
    current process (the campaign executor shards *cells*, not trials —
    so each trial runner's ``.batch`` seam still batches within the
    cell).  The trials' simulator backend is *cell axis beats run-level
    ``sim_backend`` beats default*, stamped onto their specs by that
    executor.
    """
    config, roster = _cell_run(cell)
    kept = KeepOutcomes()
    reduced = run_experiment(
        cell.family,
        config,
        roster=roster,
        executor=SerialExecutor(cell.value("sim_backend") or sim_backend),
        hooks=kept,
    ).metric_set()
    scalars = dict(reduced.scalars)
    scalars["cell/trials"] = float(len(kept.outcomes))
    tags = dict(reduced.tags)
    tags.update(_combined_trace_tags(kept.outcomes))
    tags["cell_id"] = cell.cell_id
    return MetricSet(scalars=scalars, tags=tags)
