"""Declarative campaign specifications (TOML / JSON sweep files).

A campaign spec describes *what to run* as data: a list of sweep
blocks, each naming an experiment family plus the axes to sweep
(design, system size, utilization, fault plan, scenario plan,
simulator backend).  :func:`parse_campaign_spec` normalizes the raw
mapping into a frozen :class:`CampaignSpec` whose canonical form — and
therefore whose digest — is independent of the key order of the source
file: axes expand in a fixed canonical order, settings sort by name,
and the digest covers the normalized structure, never the file bytes.

Example (JSON; TOML is accepted wherever ``tomllib`` exists)::

    {
      "name": "ci-tiny",
      "seed": 2022,
      "sweeps": [
        {"family": "fig7",
         "design": ["AXI-IC^RT", "BlueScale"],
         "n": 4,
         "utilization": [0.3, 0.6],
         "trials": 2, "horizon": 2000, "drain": 1000}
      ],
      "gate": {"wall_clock_tolerance": 25.0}
    }

A known axis given as a *list* becomes a grid dimension (one cell per
value); given as a *scalar* it is a fixed setting shared by every cell
of the sweep.  Unknown keys are configuration errors — a typo must
never silently shrink a sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError

#: canonical expansion order of the sweep axes — grid expansion walks
#: axes in THIS order (never file key order), so shuffling keys in a
#: spec file cannot change the expanded grid or any digest
AXIS_ORDER = (
    "design",
    "n",
    "utilization",
    "fault",
    "scenario",
    "sim_backend",
)

#: scalar knobs every family accepts next to its axes
COMMON_SETTINGS = (
    "trials",
    "horizon",
    "drain",
)


@dataclass(frozen=True)
class ToleranceRule:
    """How the regression gate compares one metric family.

    ``pattern`` is an ``fnmatch`` glob over metric names
    (``"*/success_ratio"``); first matching rule wins.  Kinds:

    * ``exact`` — any difference is a regression (the default for every
      deterministic metric: digests, verdicts, counts, ratios);
    * ``relative`` — ``|after - before| / |before|`` must stay within
      ``tolerance`` (the wall-clock band);
    * ``absolute`` — ``|after - before|`` must stay within ``tolerance``;
    * ``ignore`` — never compared (informational metrics).
    """

    pattern: str
    kind: str = "exact"
    tolerance: float = 0.0

    KINDS = ("exact", "relative", "absolute", "ignore")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigurationError(
                f"unknown tolerance kind {self.kind!r}; expected one of "
                f"{self.KINDS}"
            )
        if self.tolerance < 0:
            raise ConfigurationError(
                f"tolerance must be non-negative, got {self.tolerance}"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "pattern": self.pattern,
            "kind": self.kind,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class GateConfig:
    """The regression gate's tolerance policy for one campaign.

    Deterministic content (metrics, digests, verdicts, structure) is
    compared exactly unless a rule says otherwise; wall-clock is always
    compared under a relative band because machines differ — the wide
    default only catches pathological slowdowns, CI can tighten it.
    """

    rules: tuple[ToleranceRule, ...] = ()
    wall_clock_tolerance: float = 25.0

    def __post_init__(self) -> None:
        if self.wall_clock_tolerance < 0:
            raise ConfigurationError(
                "wall_clock_tolerance must be non-negative, got "
                f"{self.wall_clock_tolerance}"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "rules": [rule.as_dict() for rule in self.rules],
            "wall_clock_tolerance": self.wall_clock_tolerance,
        }

    @classmethod
    def from_mapping(cls, raw: Mapping[str, Any]) -> "GateConfig":
        unknown = set(raw) - {"rules", "wall_clock_tolerance"}
        if unknown:
            raise ConfigurationError(
                f"unknown gate keys {sorted(unknown)}; expected "
                "'rules' and/or 'wall_clock_tolerance'"
            )
        rules = []
        for entry in raw.get("rules", ()):
            extra = set(entry) - {"pattern", "kind", "tolerance"}
            if extra or "pattern" not in entry:
                raise ConfigurationError(
                    f"bad gate rule {entry!r}: needs 'pattern' plus "
                    "optional 'kind'/'tolerance'"
                )
            rules.append(
                ToleranceRule(
                    pattern=str(entry["pattern"]),
                    kind=str(entry.get("kind", "exact")),
                    tolerance=float(entry.get("tolerance", 0.0)),
                )
            )
        return cls(
            rules=tuple(rules),
            wall_clock_tolerance=float(raw.get("wall_clock_tolerance", 25.0)),
        )


@dataclass(frozen=True)
class SweepSpec:
    """One sweep block: a family, its grid axes, its fixed settings.

    ``axes`` holds ``(name, values)`` pairs in :data:`AXIS_ORDER`;
    ``settings`` holds ``(name, value)`` pairs sorted by name.  Both are
    tuples so the spec stays hashable and pickles deterministically.
    """

    family: str
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    settings: tuple[tuple[str, Any], ...] = ()

    @property
    def cell_count(self) -> int:
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count

    def as_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "axes": {name: list(values) for name, values in self.axes},
            "settings": dict(self.settings),
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A fully-normalized campaign: named, seeded, gated sweeps."""

    name: str
    seed: int
    sweeps: tuple[SweepSpec, ...]
    gate: GateConfig = field(default_factory=GateConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign needs a non-empty name")
        if not self.sweeps:
            raise ConfigurationError(
                f"campaign {self.name!r} declares no sweeps"
            )

    @property
    def cell_count(self) -> int:
        return sum(sweep.cell_count for sweep in self.sweeps)

    def as_dict(self) -> dict[str, Any]:
        """The canonical (key-order-independent) form of the spec."""
        return {
            "name": self.name,
            "seed": self.seed,
            "sweeps": [sweep.as_dict() for sweep in self.sweeps],
            "gate": self.gate.as_dict(),
        }

    def digest(self) -> str:
        """sha256 over the canonical JSON form of the spec."""
        return hashlib.sha256(canonical_json(self.as_dict()).encode()).hexdigest()


def canonical_json(value: Any) -> str:
    """Deterministic compact JSON: sorted keys, no whitespace.

    Every digest and every manifest/checkpoint line in the campaign
    layer goes through this one serializer, so byte-identity claims
    reduce to value-identity claims.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _known_names(family: str) -> set[str]:
    from repro.campaigns.families import family_axes

    return set(family_axes(family)) | set(COMMON_SETTINGS)


def _normalize_sweep(raw: Mapping[str, Any], index: int) -> SweepSpec:
    if "family" not in raw:
        raise ConfigurationError(f"sweep #{index} has no 'family'")
    family = str(raw["family"])
    known = _known_names(family)  # validates the family name too
    unknown = set(raw) - known - {"family"}
    if unknown:
        raise ConfigurationError(
            f"sweep #{index} ({family}): unknown keys {sorted(unknown)}; "
            f"this family accepts {sorted(known)}"
        )
    axes: list[tuple[str, tuple[Any, ...]]] = []
    settings: dict[str, Any] = {}
    for name in sorted(set(raw) - {"family"}):
        value = raw[name]
        if isinstance(value, (list, tuple)):
            if name not in AXIS_ORDER:
                raise ConfigurationError(
                    f"sweep #{index} ({family}): {name!r} is a scalar "
                    "setting, not a sweep axis — pass a single value"
                )
            if not value:
                raise ConfigurationError(
                    f"sweep #{index} ({family}): axis {name!r} has no values"
                )
            if len(set(map(str, value))) != len(value):
                raise ConfigurationError(
                    f"sweep #{index} ({family}): axis {name!r} repeats a "
                    "value — every grid cell must be unique"
                )
            axes.append((name, tuple(value)))
        else:
            settings[name] = value
    # axes in canonical order, never file order
    ordered = tuple(
        (name, values)
        for axis in AXIS_ORDER
        for name, values in axes
        if name == axis
    )
    return SweepSpec(
        family=family,
        axes=ordered,
        settings=tuple(sorted(settings.items())),
    )


def parse_campaign_spec(raw: Mapping[str, Any]) -> CampaignSpec:
    """Normalize a raw spec mapping (parsed TOML/JSON) into a spec."""
    unknown = set(raw) - {"name", "seed", "sweeps", "gate"}
    if unknown:
        raise ConfigurationError(
            f"unknown campaign keys {sorted(unknown)}; expected "
            "'name', 'seed', 'sweeps', 'gate'"
        )
    if "name" not in raw:
        raise ConfigurationError("campaign spec has no 'name'")
    sweeps = raw.get("sweeps", ())
    if not isinstance(sweeps, (list, tuple)):
        raise ConfigurationError("'sweeps' must be a list of sweep blocks")
    return CampaignSpec(
        name=str(raw["name"]),
        seed=int(raw.get("seed", 0)),
        sweeps=tuple(
            _normalize_sweep(entry, index) for index, entry in enumerate(sweeps)
        ),
        gate=GateConfig.from_mapping(raw.get("gate", {})),
    )


def load_campaign_spec(path: str | Path) -> CampaignSpec:
    """Load and normalize a ``.json`` or ``.toml`` campaign file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no campaign spec at {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py<3.11 only
            raise ConfigurationError(
                f"{path} is TOML but this interpreter has no tomllib; "
                "use the JSON spec format instead"
            ) from exc
        raw = tomllib.loads(text)
    elif path.suffix == ".json":
        raw = json.loads(text)
    else:
        raise ConfigurationError(
            f"campaign specs are .json or .toml files, got {path.name!r}"
        )
    return parse_campaign_spec(raw)
