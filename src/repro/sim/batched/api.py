"""`run_many`: the public entry point of the batched SoA backend.

Groups simulations that share a port count, client roster and
controller — whatever their design; per-trial workloads, fabric
parameters and horizons may differ — compiles each into a
:class:`~repro.sim.batched.extract.TrialPlan` and advances the whole
group in lock-step through one
:class:`~repro.sim.batched.core.BatchCore`, with one fabric kernel per
run of rows that share a :func:`~repro.sim.batched.extract.kernel_key`;
rogue-burst fault plans compile into the release schedule.  Anything
the kernels cannot represent — tracing, scenario plans, exotic
controllers or clients — transparently falls back to ``sim.run`` on
the scalar engine, so callers always get the full result list in
input order, bit-identical to running each trial on the scalar
engine.
"""

from __future__ import annotations

import itertools
import numbers
from typing import Sequence

from repro.errors import ConfigurationError
from repro.sim.backend import resolve_sim_backend
from repro.sim.batched.extract import (
    Ineligible,
    extract_plan,
    kernel_key,
    signature_of,
)
from repro.soc import SoCSimulation, TrialResult, default_drain

#: lock-step group size cap — bounds the (N, Rmax) array footprint
MAX_GROUP = 512


def _coerce_cycles(value):
    """Normalise one horizon/drain value to a plain int.

    Campaign grids routinely hand over numpy scalars (``np.int64``),
    which are Integral but not ``int``; ``bool`` is Integral too but a
    True/False cycle count is always a bug, so it is rejected.
    """
    if isinstance(value, bool):
        raise ConfigurationError(
            f"cycle counts must be integers, got bool {value!r}"
        )
    if isinstance(value, numbers.Integral):
        return int(value)
    return value


def _per_trial(value, n: int) -> list:
    if value is None:
        return [None] * n
    value = _coerce_cycles(value)
    if isinstance(value, int):
        return [value] * n
    values = [None if v is None else _coerce_cycles(v) for v in value]
    if len(values) != n:
        raise ConfigurationError(
            f"expected {n} per-trial values, got {len(values)}"
        )
    return values


def _make_kernel(kind: str, rows, sims):
    if kind == "axi":
        from repro.sim.batched.axi import AxiKernel

        return AxiKernel(rows, sims)
    if kind == "bluescale":
        from repro.sim.batched.bluescale import BlueScaleKernel

        return BlueScaleKernel(rows, sims)
    from repro.sim.batched.muxtree import MuxTreeKernel

    return MuxTreeKernel(rows, sims)


def _run_group(sims, plans) -> list[TrialResult]:
    """One lock-step loop over ``sims``; each run of consecutive trials
    with one :func:`kernel_key` is ticked by its own fabric kernel."""
    from repro.sim.batched.core import BatchCore

    core = BatchCore(sims, plans)
    kernels = []
    lo = 0
    for key, run in itertools.groupby(sims, key=kernel_key):
        hi = lo + len(list(run))
        kernels.append(_make_kernel(key[0], core.rows(lo, hi), sims[lo:hi]))
        lo = hi
    core.run(kernels)
    return [core.finalize(t) for t in range(len(sims))]


def run_many(
    sims: Sequence[SoCSimulation],
    horizon,
    drain=None,
    backend: str | None = None,
) -> list[TrialResult]:
    """Run many independent simulations; results in input order.

    ``horizon``/``drain`` accept a single int applied to every trial
    or one value per trial (ragged batches are fine — shorter trials
    simply freeze while the rest drain).  A missing drain defaults as
    in :meth:`SoCSimulation.run <repro.soc.SoCSimulation.run>`.
    """
    sims = list(sims)
    n = len(sims)
    horizons = _per_trial(horizon, n)
    drains = _per_trial(drain, n)
    for i in range(n):
        if horizons[i] is None or horizons[i] <= 0:
            raise ConfigurationError(
                f"horizon must be positive, got {horizons[i]}"
            )
        if drains[i] is None:
            drains[i] = default_drain(horizons[i])
    if resolve_sim_backend(backend) == "scalar":
        return [
            sim.run(horizons[i], drain=drains[i])
            for i, sim in enumerate(sims)
        ]
    results: list[TrialResult | None] = [None] * n
    groups: dict[tuple, dict[tuple, list[int]]] = {}
    for i, sim in enumerate(sims):
        try:
            signature = signature_of(sim)
        except Ineligible:
            results[i] = sim.run(horizons[i], drain=drains[i])
            continue
        groups.setdefault(signature, {}).setdefault(
            kernel_key(sim), []
        ).append(i)
    for by_kernel in groups.values():
        # each kernel's trials form one contiguous run of rows
        indices = [i for run in by_kernel.values() for i in run]
        for lo in range(0, len(indices), MAX_GROUP):
            chunk = indices[lo : lo + MAX_GROUP]
            members: list[int] = []
            plans = []
            for i in chunk:
                try:
                    plans.append(extract_plan(sims[i], horizons[i], drains[i]))
                    members.append(i)
                except Ineligible:
                    results[i] = sims[i].run(horizons[i], drain=drains[i])
            if members:
                batch = _run_group([sims[i] for i in members], plans)
                for i, result in zip(members, batch):
                    results[i] = result
    return results
