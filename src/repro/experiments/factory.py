"""Interconnect factories shared by the Fig. 6 / Fig. 7 experiments.

Each factory builds one of the paper's six evaluated interconnects and
configures it for a given per-client workload, reproducing Sec. 6's
setup: BlueTree family with blocking factor 2, GSMTree-TDM with equal
reservations, GSMTree-FBSP with workload-proportional reservations,
AXI-IC^RT with workload-based bandwidth regulation, and BlueScale with
interfaces from the composition of Sec. 5.

Each of those settings lives in one place and is not a parameter:
BlueTree's α, AXI-IC^RT's arbitration interval and BlueScale's
port-buffer depth are their constructors' defaults; the regulation
window and margin and BlueScale's search width are this module's
constants (:data:`AXI_WINDOW`, :data:`AXI_MARGIN`,
:data:`BLUESCALE_SEARCH`).

:func:`simulate_specs` is the build → run → fold loop every
simulation-backed trial runner and batch entry point shares, and
:func:`draw_tasksets` the synthetic workload draw of Fig. 6 and its
isolation/churn companions.  :func:`group_outcomes` is the first step
of the reducers that average per design, variant or size.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.analysis.context import AnalysisContext, SelectionConfig
from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.errors import ConfigurationError
from repro.interconnects.axi_icrt import AxiIcRtInterconnect
from repro.interconnects.base import Interconnect
from repro.interconnects.bluetree import (
    BlueTreeInterconnect,
    BlueTreeSmoothInterconnect,
)
from repro.interconnects.gsmtree import gsmtree_fbsp, gsmtree_tdm
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.taskset import TaskSet

if TYPE_CHECKING:
    from repro.runtime import MetricSet, TrialOutcome, TrialSpec
    from repro.soc import SoCSimulation, TrialResult

#: the evaluation order used in the paper's figures
INTERCONNECT_NAMES = (
    "AXI-IC^RT",
    "BlueTree",
    "BlueTree-Smooth",
    "GSMTree-TDM",
    "GSMTree-FBSP",
    "BlueScale",
)


#: AXI-IC^RT's bandwidth-regulation window (slots) and over-provisioning
#: margin — fixed properties of the regulator, as in Agrawal et al.
AXI_WINDOW = 200
AXI_MARGIN = 1.5

#: BlueScale's interface-selection search: every simulated composition
#: and every analysis verdict next to one uses this width
BLUESCALE_SEARCH = SelectionConfig(max_period_candidates=64)


def bluescale_context(ctx: AnalysisContext | None) -> AnalysisContext:
    """``ctx`` (backend and cache) with :data:`BLUESCALE_SEARCH`."""
    return replace(ctx or AnalysisContext(), config=BLUESCALE_SEARCH)


def _client_utilizations(
    n_clients: int, tasksets: dict[int, TaskSet]
) -> list[float]:
    return [
        tasksets.get(c, TaskSet()).utilization_float for c in range(n_clients)
    ]


def axi_budgets(n_clients: int, tasksets: dict[int, TaskSet]) -> list[int]:
    """Workload-based per-client budgets for AXI-IC^RT's regulation
    over an :data:`AXI_WINDOW`-slot window.

    Proportional-to-utilization with head-room, but never below twice
    the client's largest job burst — a client must be able to absorb a
    synchronous release of its tasks within one regulation window, or
    regulation itself induces deadline misses at low load.
    """
    budgets = []
    for client in range(n_clients):
        taskset = tasksets.get(client, TaskSet())
        proportional = round(
            taskset.utilization_float * AXI_WINDOW * AXI_MARGIN
        )
        burst_floor = 2 * max((t.wcet for t in taskset), default=0)
        budgets.append(min(AXI_WINDOW, max(1, proportional, burst_floor)))
    return budgets


def build_interconnect(
    name: str,
    n_clients: int,
    tasksets: dict[int, TaskSet],
    *,
    ctx: AnalysisContext | None = None,
) -> Interconnect:
    """Build and configure one of the paper's six interconnects.

    BlueScale is composed under ``ctx``'s backend and cache
    (``None``: ``AnalysisContext()``) with :data:`BLUESCALE_SEARCH`.
    """
    if name == "AXI-IC^RT":
        interconnect = AxiIcRtInterconnect(n_clients)
        interconnect.configure_regulation(
            axi_budgets(n_clients, tasksets), AXI_WINDOW
        )
        return interconnect
    if name == "BlueTree":
        return BlueTreeInterconnect(n_clients)
    if name == "BlueTree-Smooth":
        return BlueTreeSmoothInterconnect(n_clients)
    if name == "GSMTree-TDM":
        return gsmtree_tdm(n_clients)
    if name == "GSMTree-FBSP":
        return gsmtree_fbsp(
            n_clients, _client_utilizations(n_clients, tasksets)
        )
    if name == "BlueScale":
        interconnect = BlueScaleInterconnect(n_clients)
        interconnect.configure(tasksets, ctx=bluescale_context(ctx))
        return interconnect
    raise ConfigurationError(
        f"unknown interconnect {name!r}; expected one of {INTERCONNECT_NAMES}"
    )


def draw_tasksets(rng: random.Random, config: Any) -> dict[int, TaskSet]:
    """One trial's synthetic workload: a utilization drawn uniformly from
    ``config``'s range, split into per-client periodic task sets.

    ``config`` is any experiment config with ``utilization_low/high``,
    ``n_clients``, ``tasks_per_client`` and ``period_min/max``; ``rng``
    is the trial RNG, left advanced past the draw for callers that keep
    drawing from it.
    """
    utilization = rng.uniform(config.utilization_low, config.utilization_high)
    return generate_client_tasksets(
        rng,
        config.n_clients,
        config.tasks_per_client,
        utilization,
        period_min=config.period_min,
        period_max=config.period_max,
    )


def traffic_generators(
    spec: TrialSpec, tasksets: dict[int, TaskSet]
) -> list[TrafficGenerator]:
    """One generator per client, each on its private spec-derived RNG
    stream — so every simulation built for ``spec`` (each design, a
    baseline and its faulted twin, a traced replay) sees one workload."""
    return [
        TrafficGenerator(c, ts, rng=random.Random(spec.client_seed(c)))
        for c, ts in tasksets.items()
    ]


def simulate_specs(
    specs: Sequence[TrialSpec],
    build: Callable[[TrialSpec], tuple[Any, list[SoCSimulation], int, int]],
    fold: Callable[[TrialSpec, Any, list[TrialResult]], MetricSet],
    backend: str | None = None,
) -> list[MetricSet]:
    """Build, run and fold the simulations of a chunk of specs.

    ``build(spec)`` returns ``(state, sims, horizon, drain)``; all
    specs' ``sims`` go through one :func:`repro.sim.batched.run_many`
    call, and ``fold(spec, state, results)`` gets the spec's slice of
    results in ``sims`` order.

    ``backend=None`` (the batch entry points) runs the chunk on the
    sim backend its specs carry.  The per-trial runners pass
    ``"scalar"``: they are the executors' per-spec blame fallback and
    the scalar reference, and a batch of one is several times slower on
    the lock-step kernels than on the scalar fast path.
    """
    from repro.sim.batched import run_many

    if not specs:
        return []
    if backend is None:
        backend = specs[0].sim_backend
    built = [build(spec) for spec in specs]
    sims: list[SoCSimulation] = []
    horizons: list[int] = []
    drains: list[int] = []
    for _, spec_sims, horizon, drain in built:
        sims.extend(spec_sims)
        horizons.extend([horizon] * len(spec_sims))
        drains.extend([drain] * len(spec_sims))
    results = run_many(sims, horizon=horizons, drain=drains, backend=backend)
    folded: list[MetricSet] = []
    at = 0
    for spec, (state, spec_sims, _, _) in zip(specs, built):
        folded.append(fold(spec, state, results[at : at + len(spec_sims)]))
        at += len(spec_sims)
    return folded


def group_outcomes(
    outcomes: Sequence[TrialOutcome], *params: str
) -> dict[tuple, list[TrialOutcome]]:
    """Outcomes keyed by their specs' values of ``params``, in the order
    the keys first appear (spec order)."""
    groups: dict[tuple, list[TrialOutcome]] = {}
    for outcome in outcomes:
        key = tuple(outcome.spec.param(name) for name in params)
        groups.setdefault(key, []).append(outcome)
    return groups
