"""Extension experiment — sensitivity to the memory device model.

The paper's analysis (and our Figs. 6–7) works in transaction slots:
the provider services one transaction per slot.  Real DRAM is not flat:
row-buffer hits are fast, conflicts are slow, and interleaving across
clients destroys locality.  This experiment swaps the unit-slot
provider for the banked row-buffer DRAM model under two provisioning
policies:

* **worst-case provisioning** — task demand sized so that even if every
  access pays the row-conflict cost the system stays within capacity
  (how a real-time integrator must provision);
* **average provisioning** — demand sized to the optimistic average
  access cost (hit-dominated), the classic throughput-oriented sizing.

Expected finding: with worst-case provisioning every interconnect keeps
(nearly) all deadlines — the paper's slot abstraction is safe; with
average provisioning the system is effectively over-utilized whenever
locality collapses, and *no* interconnect can save it (scheduling
cannot create bandwidth).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.experiments.factory import (
    build_interconnect,
    group_outcomes,
    traffic_generators,
)
from repro.memory.controller import ArbitrationPolicy, MemoryController
from repro.memory.dram import DramDevice, DramTiming, FixedLatencyDevice
from repro.runtime import MetricSet, TrialOutcome, TrialSpec
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets

#: experiment configurations: (label, device, demand divisor)
_DRAM_SCALE = 4  # row-miss cost in slots; hits cost half, conflicts 1.25x


def _timing() -> DramTiming:
    return DramTiming(
        row_hit_cycles=_DRAM_SCALE // 2,
        row_miss_cycles=_DRAM_SCALE,
        row_conflict_cycles=_DRAM_SCALE + _DRAM_SCALE // 4,
    )


def _configurations() -> list[tuple[str, str, float]]:
    timing = _timing()
    average_cost = 0.6 * timing.row_hit_cycles + 0.4 * timing.row_miss_cycles
    return [
        ("unit-slot", "unit", 1.0),
        ("dram/worst-case", "dram", float(timing.row_conflict_cycles)),
        ("dram/average", "dram", average_cost),
    ]


@dataclass(frozen=True)
class DeviceOutcome:
    """Metrics of one (interconnect, configuration) pair."""

    interconnect: str
    configuration: str
    miss_ratio: float
    mean_response: float
    row_hit_ratio: float


def _make_controller(kind: str) -> MemoryController:
    if kind == "unit":
        return MemoryController(FixedLatencyDevice(1), queue_capacity=4)
    if kind == "dram":
        return MemoryController(
            DramDevice(timing=_timing()),
            queue_capacity=4,
            policy=ArbitrationPolicy.FR_FCFS,
        )
    raise ConfigurationError(f"unknown device kind {kind!r}")


#: designs compared by default
DRAM_INTERCONNECTS = ("BlueScale", "BlueTree", "AXI-IC^RT")


@dataclass(frozen=True)
class DramConfig:
    """Workload and scale of the provisioning comparison."""

    n_clients: int = 16
    utilization: float = 0.7
    seeds: tuple[int, ...] = (1, 2, 3)
    horizon: int = 15_000


def build_dram_specs(
    config: DramConfig = DramConfig(),
    interconnects: tuple[str, ...] = DRAM_INTERCONNECTS,
) -> list[TrialSpec]:
    """One spec per (configuration, interconnect, seed), grouped by
    configuration then interconnect in the reporting order."""
    specs: list[TrialSpec] = []
    for label, kind, divisor in _configurations():
        for name in interconnects:
            for seed in config.seeds:
                specs.append(
                    TrialSpec.make(
                        "dram_sensitivity",
                        len(specs),
                        f"dram/{seed}",
                        configuration=label,
                        kind=kind,
                        divisor=divisor,
                        interconnect=name,
                        n_clients=config.n_clients,
                        utilization=config.utilization,
                        horizon=config.horizon,
                    )
                )
    return specs


def run_dram_trial(spec: TrialSpec) -> MetricSet:
    """One (configuration, interconnect, seed) simulation."""
    n_clients = spec.param("n_clients")
    rng = random.Random(spec.seed)
    tasksets = generate_client_tasksets(
        rng, n_clients, 3, spec.param("utilization") / spec.param("divisor")
    )
    controller = _make_controller(spec.param("kind"))
    interconnect = build_interconnect(
        spec.param("interconnect"), n_clients, tasksets
    )
    clients = traffic_generators(spec, tasksets)
    result = SoCSimulation(clients, interconnect, controller=controller).run(
        spec.param("horizon"), drain=6_000
    )
    return MetricSet(
        scalars={
            "miss": result.deadline_miss_ratio,
            "response": result.response_summary().mean,
            "row_hits": getattr(controller.device, "row_hit_ratio", 1.0),
        },
        tags={
            "experiment": "dram_sensitivity",
            "configuration": spec.param("configuration"),
            "interconnect": spec.param("interconnect"),
        },
    )


def reduce_dram_sensitivity(
    config: DramConfig,
    interconnects: tuple[str, ...],
    outcomes: list[TrialOutcome],
) -> list[DeviceOutcome]:
    """Average per-seed metrics into one outcome per (config, design)."""
    grouped = group_outcomes(outcomes, "configuration", "interconnect")
    return [
        DeviceOutcome(
            interconnect=name,
            configuration=label,
            miss_ratio=statistics.fmean(o.metrics["miss"] for o in batch),
            mean_response=statistics.fmean(
                o.metrics["response"] for o in batch
            ),
            row_hit_ratio=statistics.fmean(
                o.metrics["row_hits"] for o in batch
            ),
        )
        for (label, name), batch in grouped.items()
    ]


def format_dram_sensitivity(outcomes: list[DeviceOutcome]) -> str:
    """Render the provisioning-vs-device outcome table."""
    from repro.experiments.reporting import format_table

    rows = [
        [
            o.configuration,
            o.interconnect,
            f"{100 * o.miss_ratio:.2f}",
            f"{o.mean_response:.1f}",
            f"{100 * o.row_hit_ratio:.0f}%",
        ]
        for o in outcomes
    ]
    return format_table(
        ["provisioning", "interconnect", "miss ratio (%)", "mean response", "row hits"],
        rows,
        title="Provider-model sensitivity (unit-slot vs banked DRAM)",
    )
