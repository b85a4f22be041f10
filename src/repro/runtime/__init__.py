"""Unified trial-execution runtime for the experiment harness.

Every paper artefact (Fig. 6/7, the ablations, the extension sweeps)
is a batch of *independent trials*: seed in, metrics out.  This package
factors that shape into three explicit pieces so every experiment is a
spec-builder + per-trial-runner + reducer triple:

* :class:`TrialSpec` — a pure, picklable description of one trial
  (experiment name, trial index, seed, frozen parameters, and the
  simulator backend that runs it);
* :class:`Executor` — the seam that maps a trial runner over specs.
  :class:`SerialExecutor` runs in-process; :class:`ParallelExecutor`
  fans trials out over a :class:`concurrent.futures.ProcessPoolExecutor`
  with chunking and *ordered* result collection, so a parallel run is
  bit-for-bit identical to a serial one;
* :class:`MetricSet` — the schema every trial runner emits, consumed
  directly by reducers and by :mod:`repro.campaigns`.

Determinism contract: a trial runner must be a pure function of its
spec — all randomness derived from ``spec.seed`` via explicit
:class:`random.Random` instances, no module-level RNG, no reads of
ambient state.  Under that contract ``ParallelExecutor`` ≡
``SerialExecutor`` exactly, and any future backend (async, cluster)
plugs into the same seam.
"""

from repro.runtime.executor import (
    Executor,
    ExecutionHooks,
    KeepOutcomes,
    ParallelExecutor,
    ProgressPrinter,
    SerialExecutor,
    TrialOutcome,
    make_executor,
)
from repro.runtime.metrics import (
    FAILURE_METRIC,
    MetricSet,
    failure_metric_set,
)
from repro.runtime.seeding import (
    derive_seed,
    derive_seeds,
    seed_stream,
)
from repro.runtime.spec import TrialSpec

__all__ = [
    "FAILURE_METRIC",
    "Executor",
    "ExecutionHooks",
    "KeepOutcomes",
    "MetricSet",
    "ParallelExecutor",
    "ProgressPrinter",
    "SerialExecutor",
    "TrialOutcome",
    "TrialSpec",
    "derive_seed",
    "derive_seeds",
    "failure_metric_set",
    "make_executor",
    "seed_stream",
]
