"""Resumable, sharded campaign execution with checkpointed manifests.

:func:`run_campaign` maps a campaign's grid cells over the
:mod:`repro.runtime` executor seam (cells are the sharding unit — each
cell's trials run serially *inside* one process, so the trial runners'
``.batch`` seam still batches within the cell) and checkpoints every
completed cell to ``cells.jsonl`` as it is collected.  A killed run
restarts with ``resume=True``: finished cells are loaded back from the
checkpoint, only the missing (and previously-errored) cells execute,
and the finalization pass rewrites ``cells.jsonl`` in grid order — so
the final artifacts are **byte-identical** to an uninterrupted run, at
any worker count, on either sim backend.

Artifact layout under ``out_dir``::

    campaign.json   header: name + spec/grid digests (resume guard)
    cells.jsonl     one canonical-JSON record per cell, grid order
    manifest.json   name, digests (incl. sha256 of cells.jsonl), gate
    timings.jsonl   per-cell wall-clock — deliberately OUTSIDE every
                    digest; machines differ, manifests must not

Only ``timings.jsonl`` is machine-dependent; everything else is a pure
function of the spec, which is what lets the regression gate compare
manifests across machines and branches with exact rules.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.campaigns.families import run_cell
from repro.campaigns.grid import GridCell, expand_campaign, grid_digest
from repro.campaigns.spec import CampaignSpec, canonical_json
from repro.errors import ConfigurationError
from repro.runtime import (
    ExecutionHooks,
    Executor,
    MetricSet,
    ParallelExecutor,
    SerialExecutor,
    TrialOutcome,
    TrialSpec,
)

CAMPAIGN_FILE = "campaign.json"
CELLS_FILE = "cells.jsonl"
MANIFEST_FILE = "manifest.json"
TIMINGS_FILE = "timings.jsonl"


@dataclass(frozen=True)
class CellRecord:
    """One completed cell, ready to serialize canonically.

    Everything here is a pure function of the campaign spec (scalars,
    tags, the cell's identity and seed) — wall-clock lives in
    ``timings.jsonl``, never in a record, so records are byte-stable
    across machines, worker counts and resumption histories.
    """

    cell_id: str
    index: int
    family: str
    seed: int
    coords: tuple[tuple[str, Any], ...]
    settings: tuple[tuple[str, Any], ...]
    scalars: tuple[tuple[str, float], ...]
    tags: tuple[tuple[str, str], ...]
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def scalar_dict(self) -> dict[str, float]:
        return dict(self.scalars)

    @property
    def tag_dict(self) -> dict[str, str]:
        return dict(self.tags)

    def as_dict(self) -> dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "index": self.index,
            "family": self.family,
            "seed": self.seed,
            "coords": dict(self.coords),
            "settings": dict(self.settings),
            "scalars": dict(self.scalars),
            "tags": dict(self.tags),
            "error": self.error,
        }

    def line(self) -> str:
        return canonical_json(self.as_dict())

    @classmethod
    def from_outcome(
        cls, cell: GridCell, outcome: TrialOutcome
    ) -> "CellRecord":
        return cls(
            cell_id=cell.cell_id,
            index=cell.index,
            family=cell.family,
            seed=cell.seed,
            coords=cell.coords,
            settings=cell.settings,
            scalars=tuple(sorted(outcome.metrics.scalars.items())),
            tags=tuple(sorted(outcome.metrics.tags.items())),
            error=outcome.error,
        )

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "CellRecord":
        return cls(
            cell_id=raw["cell_id"],
            index=int(raw["index"]),
            family=raw["family"],
            seed=int(raw["seed"]),
            coords=tuple(raw["coords"].items()),
            settings=tuple(raw["settings"].items()),
            scalars=tuple(sorted(raw["scalars"].items())),
            tags=tuple(sorted(raw["tags"].items())),
            error=raw.get("error"),
        )


@dataclass
class CampaignRun:
    """What one (possibly resumed) campaign execution produced."""

    spec: CampaignSpec
    directory: Path
    records: list[CellRecord]
    manifest: dict[str, Any]
    #: cells loaded from the checkpoint instead of re-executed
    resumed_cells: int = 0
    executed_cells: int = 0

    @property
    def failed_cells(self) -> list[CellRecord]:
        return [record for record in self.records if record.failed]


def run_campaign_cell(spec: TrialSpec) -> MetricSet:
    """Runtime-level runner: unwrap the grid cell and execute it.

    Module-level (picklable by reference) so :class:`ParallelExecutor`
    ships cells to worker processes; deliberately has **no** ``batch``
    attribute — cells are coarse units that shard one-per-task.
    """
    return run_cell(spec.param("cell"), spec.sim_backend)


class _CheckpointHooks(ExecutionHooks):
    """Append each collected cell to the checkpoint, then chain on.

    Runs in the submitting process in spec (= grid) order, so a killed
    run's ``cells.jsonl`` is interleaved with any previously-resumed
    records but each line is complete-or-absent (write + flush + fsync
    per cell; a torn final line from a hard kill is discarded on load).
    """

    def __init__(
        self,
        directory: Path,
        workers: int,
        inner: ExecutionHooks | None,
    ) -> None:
        self.directory = directory
        self.workers = workers
        self.inner = inner or ExecutionHooks()
        self.records: list[CellRecord] = []

    def on_batch_start(self, specs: Sequence[TrialSpec]) -> None:
        self.inner.on_batch_start(specs)

    def on_trial_done(
        self, outcome: TrialOutcome, done: int, total: int
    ) -> None:
        cell: GridCell = outcome.spec.param("cell")
        record = CellRecord.from_outcome(cell, outcome)
        self.records.append(record)
        with open(
            self.directory / CELLS_FILE, "a", encoding="utf-8"
        ) as handle:
            handle.write(record.line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        with open(
            self.directory / TIMINGS_FILE, "a", encoding="utf-8"
        ) as handle:
            handle.write(
                canonical_json(
                    {
                        "cell_id": record.cell_id,
                        "seconds": outcome.seconds,
                        "workers": self.workers,
                    }
                )
                + "\n"
            )
        self.inner.on_trial_done(outcome, done, total)

    def on_batch_done(self, outcomes: Sequence[TrialOutcome]) -> None:
        self.inner.on_batch_done(outcomes)


def _load_checkpoint(
    path: Path, cells: list[GridCell]
) -> dict[str, CellRecord]:
    """Completed, still-valid records from a (possibly torn) JSONL.

    Discards: a truncated final line (hard kill mid-write), errored
    records (retried on resume), and records whose identity no longer
    matches the grid (defense in depth — the digest guard in
    :func:`run_campaign` should have caught a changed spec already).
    """
    by_id = {cell.cell_id: cell for cell in cells}
    records: dict[str, CellRecord] = {}
    if not path.exists():
        return records
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = CellRecord.from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, AttributeError):
                continue  # torn tail from a mid-write kill
            cell = by_id.get(record.cell_id)
            if cell is None or cell.seed != record.seed or record.failed:
                continue
            records[record.cell_id] = record
    return records


def _write_canonical(path: Path, value: Any) -> None:
    path.write_text(canonical_json(value) + "\n", encoding="utf-8")


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path,
    workers: int | None = 1,
    resume: bool = True,
    hooks: ExecutionHooks | None = None,
    sim_backend: str | None = None,
) -> CampaignRun:
    """Execute (or finish) a campaign into ``out_dir``.

    ``sim_backend`` is the run-level simulator backend (``None`` → the
    default); it rides to each cell on the cell's :class:`TrialSpec`,
    where a cell's own ``sim_backend`` axis overrides it
    (:func:`~repro.campaigns.families.run_cell`).

    With ``resume=True`` (the default) an existing checkpoint for the
    *same* spec — same spec digest, same grid digest — is continued:
    completed cells are skipped, errored and missing cells run.  A
    checkpoint from a different spec is refused rather than silently
    mixed.  ``resume=False`` discards any checkpoint and starts clean.

    On completion ``cells.jsonl`` is rewritten atomically in grid order
    and ``manifest.json`` seals the run with digests over the spec, the
    grid and the cell records — the byte-identity anchor the resume and
    backend tests (and the regression gate) compare.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    cells = expand_campaign(spec)
    header = {
        "name": spec.name,
        "spec": spec.as_dict(),
        "spec_digest": spec.digest(),
        "grid_digest": grid_digest(cells),
        "cells": len(cells),
    }
    header_path = directory / CAMPAIGN_FILE
    done: dict[str, CellRecord] = {}
    if header_path.exists() and resume:
        previous = json.loads(header_path.read_text(encoding="utf-8"))
        for key in ("spec_digest", "grid_digest"):
            if previous.get(key) != header[key]:
                raise ConfigurationError(
                    f"{directory} holds a checkpoint for a different "
                    f"campaign ({key} mismatch); pass resume=False to "
                    "discard it"
                )
        done = _load_checkpoint(directory / CELLS_FILE, cells)
    elif not resume:
        for name in (CELLS_FILE, MANIFEST_FILE, TIMINGS_FILE):
            (directory / name).unlink(missing_ok=True)
    _write_canonical(header_path, header)

    pending = [cell for cell in cells if cell.cell_id not in done]
    specs = [
        TrialSpec.make("campaign", cell.index, cell.seed, cell=cell)
        for cell in pending
    ]
    checkpoint = _CheckpointHooks(directory, workers or 1, hooks)
    if workers and workers > 1:
        # chunk_size=1: cells are coarse (tens of trials each), so
        # shard them one per pool task for checkpoint granularity
        executor: Executor = ParallelExecutor(
            workers, chunk_size=1, sim_backend=sim_backend
        )
    else:
        executor = SerialExecutor(sim_backend)
    executor.map(run_campaign_cell, specs, checkpoint)

    records = sorted(
        [*done.values(), *checkpoint.records], key=lambda r: r.index
    )
    if [record.cell_id for record in records] != [
        cell.cell_id for cell in cells
    ]:
        raise ConfigurationError(
            f"campaign {spec.name!r} finished with an inconsistent "
            "checkpoint; re-run with resume=False"
        )
    body = "".join(record.line() + "\n" for record in records)
    tmp = directory / (CELLS_FILE + ".tmp")
    tmp.write_text(body, encoding="utf-8")
    os.replace(tmp, directory / CELLS_FILE)
    manifest = {
        "name": spec.name,
        "spec_digest": header["spec_digest"],
        "grid_digest": header["grid_digest"],
        "cells_digest": hashlib.sha256(body.encode()).hexdigest(),
        "cells": len(records),
        "failed": sum(1 for record in records if record.failed),
        "gate": spec.gate.as_dict(),
    }
    _write_canonical(directory / MANIFEST_FILE, manifest)
    return CampaignRun(
        spec=spec,
        directory=directory,
        records=records,
        manifest=manifest,
        resumed_cells=len(done),
        executed_cells=len(pending),
    )


def load_campaign_dir(
    directory: str | Path,
) -> tuple[dict[str, Any], list[CellRecord], list[dict[str, Any]]]:
    """Read a completed campaign back: (manifest, records, timings)."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        raise ConfigurationError(
            f"{directory} holds no completed campaign ({MANIFEST_FILE} "
            "missing — interrupted runs resume via run_campaign)"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    records = [
        CellRecord.from_dict(json.loads(line))
        for line in (directory / CELLS_FILE)
        .read_text(encoding="utf-8")
        .splitlines()
        if line.strip()
    ]
    timings: list[dict[str, Any]] = []
    timings_path = directory / TIMINGS_FILE
    if timings_path.exists():
        for line in timings_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                try:
                    timings.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    return manifest, records, timings
