"""Deterministic grid expansion: spec → ordered, seeded cells.

:func:`expand_campaign` turns a :class:`~repro.campaigns.spec.CampaignSpec`
into the flat list of :class:`GridCell` it denotes — the cartesian
product of each sweep's axes, walked in :data:`~repro.campaigns.spec.AXIS_ORDER`
with each axis's values in spec order.  Three properties the campaign
machinery leans on (and the property tests pin):

* **Determinism** — the cell list is a pure function of the normalized
  spec; file key order, executor width and resume history cannot move a
  cell or change its seed.
* **Disjoint seed streams** — every cell's seed derives from the
  campaign seed and the cell's *workload* coordinates (the simulator
  backend axis is excluded: cells that differ only in ``sim_backend``
  deliberately share a seed, so a backend sweep replays the identical
  workload and the gate's exact tag rules certify bit-identity).
  Trial seeds inside a cell come from family streams keyed by the cell
  seed, so no two workload-distinct cells can share a trial seed
  stream.
* **Stable identity** — ``cell_id`` names the cell by its coordinates
  (``fig7/s0/design=BlueScale/utilization=0.3``), so checkpoints,
  manifests and gate diffs address cells symbolically, never by list
  position in a particular run.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any

from repro.campaigns.spec import AXIS_ORDER, CampaignSpec, canonical_json
from repro.runtime import derive_seed

#: axes that select an *engine*, not a workload — excluded from seed
#: derivation so backend-swept cells replay identical trials
ENGINE_AXES = ("sim_backend",)


@dataclass(frozen=True)
class GridCell:
    """One point of a campaign grid: where, with what, under what seed.

    ``coords`` are the swept ``(axis, value)`` pairs in
    :data:`AXIS_ORDER`; ``settings`` the sweep's fixed scalars sorted by
    name.  Frozen and tuple-backed, so cells hash, pickle and compare
    deterministically — they ride inside :class:`repro.runtime.TrialSpec`
    params across process boundaries.
    """

    family: str
    sweep: int
    coords: tuple[tuple[str, Any], ...]
    settings: tuple[tuple[str, Any], ...]
    seed: int
    index: int

    @property
    def cell_id(self) -> str:
        """Symbolic name: family, sweep block, then every coordinate."""
        return cell_name(self.family, self.sweep, self.coords)

    def value(self, name: str, default: Any = None) -> Any:
        """Look ``name`` up in the coordinates, then the settings."""
        for key, value in self.coords:
            if key == name:
                return value
        for key, value in self.settings:
            if key == name:
                return value
        return default

    def as_dict(self) -> dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "family": self.family,
            "sweep": self.sweep,
            "coords": dict(self.coords),
            "settings": dict(self.settings),
            "seed": self.seed,
            "index": self.index,
        }


def cell_name(
    family: str, sweep: int, coords: tuple[tuple[str, Any], ...]
) -> str:
    parts = [f"{family}/s{sweep}"]
    parts.extend(f"{name}={value}" for name, value in coords)
    return "/".join(parts)


def expand_campaign(spec: CampaignSpec) -> list[GridCell]:
    """The spec's full cell list, in canonical order, seeded disjointly.

    Sweeps expand in declaration order; within a sweep the axes nest in
    :data:`AXIS_ORDER` (first axis slowest), each axis's values in the
    order the spec listed them.  Cell seeds derive from the campaign
    seed and the cell's workload name (its id minus any
    :data:`ENGINE_AXES` coordinates), so they are stable under any
    re-slicing of the grid, unique per workload, and *shared* between
    cells that differ only in engine backend.
    """
    cells: list[GridCell] = []
    seen: set[str] = set()
    for sweep_index, sweep in enumerate(spec.sweeps):
        axis_names = [name for name, _ in sweep.axes]
        axis_values = [values for _, values in sweep.axes]
        assert axis_names == [a for a in AXIS_ORDER if a in axis_names]
        for point in itertools.product(*axis_values):
            coords = tuple(zip(axis_names, point))
            name = cell_name(sweep.family, sweep_index, coords)
            if name in seen:
                raise AssertionError(f"duplicate cell id {name!r}")
            seen.add(name)
            workload = cell_name(
                sweep.family,
                sweep_index,
                tuple(
                    (axis, value)
                    for axis, value in coords
                    if axis not in ENGINE_AXES
                ),
            )
            cells.append(
                GridCell(
                    family=sweep.family,
                    sweep=sweep_index,
                    coords=coords,
                    settings=sweep.settings,
                    seed=derive_seed(spec.seed, workload),
                    index=len(cells),
                )
            )
    return cells


def grid_digest(cells: list[GridCell]) -> str:
    """sha256 over the canonical JSON of the whole expanded grid.

    Recorded in the manifest and checked on resume: a checkpoint
    directory only continues a run whose spec expands to the *same*
    grid — same cells, same order, same seeds.
    """
    payload = canonical_json([cell.as_dict() for cell in cells])
    return hashlib.sha256(payload.encode()).hexdigest()
