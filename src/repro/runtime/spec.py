"""Trial specifications: pure, picklable descriptions of one trial.

A :class:`TrialSpec` carries everything a per-trial runner needs —
experiment name, trial index, seed, a frozen parameter mapping and the
:class:`EngineConfig` naming the engines that run it — and nothing
else.  Because the spec (not a closure, not ambient process state)
crosses the process boundary, any executor backend can ship trials
anywhere and replay them identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EngineConfig:
    """Which engines run a trial — the one place they are chosen.

    Results are bit-identical on every combination (the repo's
    differential walls); the choice only moves wall-clock.
    """

    #: one of :data:`repro.sim.backend.SIM_BACKENDS`
    sim_backend: str = "batched"
    #: one of :data:`repro.analysis.context.BACKENDS`; each trial
    #: runner builds its one ``AnalysisContext`` from it
    analysis_backend: str = "vectorized"

    def __post_init__(self) -> None:
        # imported here: repro.sim's package import reaches repro.soc,
        # which imports repro.runtime.seeding (via the fault plans)
        from repro.analysis.context import AnalysisContext
        from repro.sim.backend import resolve_sim_backend

        resolve_sim_backend(self.sim_backend)
        AnalysisContext(backend=self.analysis_backend)

    def override(
        self,
        sim_backend: str | None = None,
        analysis_backend: str | None = None,
    ) -> "EngineConfig":
        """This config with every non-``None`` argument taking over —
        the precedence rule: ``EngineConfig().override(*flags)`` is
        *flag beats default*, ``run_level.override(*cell_axes)`` is
        *cell axis beats run-level flag*."""
        return EngineConfig(
            sim_backend or self.sim_backend,
            analysis_backend or self.analysis_backend,
        )


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
    #: the engines this trial runs on; executors stamp their own value
    #: here before dispatch (``dataclasses.replace``), runners read it
    engine: EngineConfig = field(default_factory=EngineConfig)

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
