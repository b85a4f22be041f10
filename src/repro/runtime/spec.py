"""Trial specifications: pure, picklable descriptions of one trial.

A :class:`TrialSpec` carries everything a per-trial runner needs —
experiment name, trial index, seed, a frozen parameter mapping and the
simulator backend that runs it — and nothing else.  Because the spec
(not a closure, not ambient process state) crosses the process
boundary, any executor backend can ship trials anywhere and replay
them identically.  Every trial analyses on the one analysis engine,
``AnalysisContext()``, which has no backend to choose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TrialSpec:
    """One trial of one experiment, fully described.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so
    specs stay hashable-by-content and pickle deterministically; values
    must themselves be picklable (frozen config dataclasses, tuples,
    numbers, strings).
    """

    #: which experiment family this trial belongs to (``"fig6"``, ...)
    experiment: str
    #: position in the batch; reducers rely on spec order, not index
    index: int
    #: all trial randomness derives from this seed, nothing else
    seed: int | str
    params: tuple[tuple[str, Any], ...] = ()
    #: the simulator backend this trial runs on, one of
    #: :data:`repro.sim.backend.SIM_BACKENDS`; executors stamp their own
    #: value here before dispatch (``dataclasses.replace``), runners
    #: read it.  Results are bit-identical on either backend.
    sim_backend: str = "batched"

    def __post_init__(self) -> None:
        # imported here: repro.sim's package import reaches repro.soc,
        # which imports repro.runtime.seeding (via the scenario plans)
        from repro.sim.backend import resolve_sim_backend

        resolve_sim_backend(self.sim_backend)

    @classmethod
    def make(
        cls,
        experiment: str,
        index: int,
        seed: int | str,
        **params: Any,
    ) -> "TrialSpec":
        """Build a spec from keyword parameters."""
        return cls(
            experiment=experiment,
            index=index,
            seed=seed,
            params=tuple(sorted(params.items())),
        )

    def param(self, key: str) -> Any:
        """Look up one parameter; unknown keys are a configuration bug."""
        for name, value in self.params:
            if name == key:
                return value
        raise ConfigurationError(
            f"trial spec {self.experiment}[{self.index}] has no "
            f"parameter {key!r} (has: {[n for n, _ in self.params]})"
        )

    def client_seed(self, client_id: int) -> str:
        """Seed material for one client's private RNG inside this trial."""
        return f"{self.seed}/client/{client_id}"
