"""Ablations of BlueScale's design choices (DESIGN.md's ablation list).

Each variant removes exactly one mechanism the paper argues for, so a
benchmark can quantify that mechanism's contribution:

* ``round_robin`` — replace Algorithm 1's nested EDF with round-robin
  server selection (budgets still enforced).
* ``fifo_buffers`` — replace the random-access (priority) port buffers
  with plain FIFOs, removing the lower-level priority queue.
* ``naive_interfaces`` — skip the interface-selection algorithm and give
  every port an equal quarter-bandwidth server, ignoring task demands.
* ``binary_fanout`` — rebuild the tree with 2-to-1 SEs instead of the
  quadtree's 4-to-1 (twice the levels between client and memory).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from repro.analysis.prm import ResourceInterface
from repro.clients.traffic_generator import TrafficGenerator
from repro.core.interconnect import BlueScaleInterconnect
from repro.core.local_scheduler import LocalScheduler
from repro.core.random_access_buffer import RandomAccessBuffer
from repro.errors import ConfigurationError
from repro.experiments.factory import (
    bluescale_context,
    group_outcomes,
    traffic_generators,
)
from repro.experiments.reporting import format_table
from repro.runtime import MetricSet, TrialOutcome, TrialSpec
from repro.soc import SoCSimulation
from repro.tasks.generators import generate_client_tasksets
from repro.tasks.taskset import TaskSet

VARIANTS = ("paper", "round_robin", "fifo_buffers", "naive_interfaces", "binary_fanout")


class RoundRobinLocalScheduler(LocalScheduler):
    """Server selection by rotation instead of EDF (budgets still gate)."""

    def __init__(self, interfaces, now: int = 0) -> None:
        super().__init__(interfaces, now)
        self._cursor = 0

    def select_port(self, buffers: list[RandomAccessBuffer]) -> int | None:
        n = len(self.servers)
        if len(buffers) != n:
            raise ConfigurationError(f"{len(buffers)} buffers for {n} servers")
        for offset in range(n):
            port = (self._cursor + offset) % n
            server, buffer = self.servers[port], buffers[port]
            if buffer.empty:
                continue
            if server.is_idle_interface or server.has_budget:
                self._cursor = (port + 1) % n
                return port
        return None


class FifoPortBuffer(RandomAccessBuffer):
    """Arrival-order buffer: the lower priority queue ablated away."""

    def peek_highest_priority(self):
        if not self._entries:
            return None
        return self._entries[0]

    def fetch_highest_priority(self):
        if not self._entries:
            from repro.errors import CapacityError

            raise CapacityError("fetch from an empty FIFO port buffer")
        return self._entries.pop(0)

    def earliest_deadline(self):
        head = self.peek_highest_priority()
        return None if head is None else head.absolute_deadline


def build_variant(
    variant: str,
    n_clients: int,
    tasksets: dict[int, TaskSet],
) -> BlueScaleInterconnect:
    """Build BlueScale with one design choice ablated.

    The composition runs on the one analysis engine with the factory's
    search (:func:`~repro.experiments.factory.bluescale_context`).
    """
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {variant!r}; expected one of {VARIANTS}"
        )
    fanout = 2 if variant == "binary_fanout" else 4
    interconnect = BlueScaleInterconnect(n_clients, fanout=fanout)
    if variant == "naive_interfaces":
        # Equal quarter-bandwidth servers everywhere: (Pi=4, Theta=1).
        for element in interconnect.elements.values():
            for port in range(element.fanout):
                element.program_port(port, ResourceInterface(4, 1), now=0)
    else:
        interconnect.configure(tasksets, ctx=bluescale_context(None))
    if variant == "round_robin":
        for element in interconnect.elements.values():
            element.scheduler = RoundRobinLocalScheduler(element.interfaces())
    elif variant == "fifo_buffers":
        for element in interconnect.elements.values():
            element.buffers = [
                FifoPortBuffer(buffer.capacity) for buffer in element.buffers
            ]
    return interconnect


@dataclass(frozen=True)
class AblationPoint:
    """Averaged outcome of one variant over the seed batch."""

    variant: str
    mean_miss_ratio: float
    mean_blocking: float
    miss_ratio_std: float
    mean_response: float


@dataclass(frozen=True)
class AblationConfig:
    """Workload and scale every variant is evaluated under."""

    n_clients: int = 16
    utilization: float = 0.85
    seeds: tuple[int, ...] = (1, 2, 3)
    horizon: int = 15_000
    drain: int = 5_000


def build_ablation_specs(
    config: AblationConfig = AblationConfig(),
    variants: tuple[str, ...] = VARIANTS,
) -> list[TrialSpec]:
    """One spec per (variant, seed) pair, grouped by variant.

    All variants' trials go through one executor batch, so a parallel
    executor overlaps work across variants, not just seeds.
    """
    return [
        TrialSpec.make(
            "ablation",
            index,
            f"ablation/{seed}",
            variant=variant,
            n_clients=config.n_clients,
            utilization=config.utilization,
            horizon=config.horizon,
            drain=config.drain,
        )
        for index, (variant, seed) in enumerate(
            (variant, seed) for variant in variants for seed in config.seeds
        )
    ]


def run_ablation_trial(spec: TrialSpec) -> MetricSet:
    """Simulate one (variant, seed) draw; pure function of the spec."""
    variant = spec.param("variant")
    n_clients = spec.param("n_clients")
    rng = random.Random(spec.seed)
    tasksets = generate_client_tasksets(
        rng, n_clients, 3, spec.param("utilization")
    )
    interconnect = build_variant(variant, n_clients, tasksets)
    clients = traffic_generators(spec, tasksets)
    result = SoCSimulation(clients, interconnect).run(
        spec.param("horizon"), drain=spec.param("drain")
    )
    return MetricSet(
        scalars={
            "miss": result.deadline_miss_ratio,
            "blocking": result.mean_blocking,
            "response": result.response_summary().mean,
        },
        tags={"experiment": "ablation", "variant": variant},
    )


def reduce_ablation_variant(
    variant: str, outcomes: list[TrialOutcome]
) -> AblationPoint:
    """Average one variant's per-seed metrics into its point."""
    misses = [o.metrics["miss"] for o in outcomes]
    return AblationPoint(
        variant=variant,
        mean_miss_ratio=statistics.fmean(misses),
        mean_blocking=statistics.fmean(o.metrics["blocking"] for o in outcomes),
        miss_ratio_std=statistics.pstdev(misses) if len(misses) > 1 else 0.0,
        mean_response=statistics.fmean(o.metrics["response"] for o in outcomes),
    )


def reduce_ablation(
    config: AblationConfig,
    variants: tuple[str, ...],
    outcomes: list[TrialOutcome],
) -> dict[str, AblationPoint]:
    """Group the (variant, seed) outcomes by variant and average each."""
    return {
        variant: reduce_ablation_variant(variant, batch)
        for (variant,), batch in group_outcomes(outcomes, "variant").items()
    }


def format_ablation(points: dict[str, AblationPoint]) -> str:
    """Render the per-variant miss/blocking/response table."""
    rows = [
        [
            p.variant,
            f"{100 * p.mean_miss_ratio:.2f}",
            f"{p.mean_blocking:.2f}",
            f"{p.mean_response:.1f}",
        ]
        for p in points.values()
    ]
    return format_table(
        ["variant", "miss (%)", "blocking", "response"],
        rows,
        title="BlueScale design-choice ablations",
    )


@dataclass(frozen=True)
class AlphaPoint:
    """BlueTree behaviour at one blocking factor."""

    alpha: int
    mean_miss_ratio: float
    mean_blocking: float


def run_bluetree_alpha_sweep(
    alphas: tuple[int, ...] = (1, 2, 4, 8),
    n_clients: int = 16,
    utilization: float = 0.85,
    seeds: tuple[int, ...] = (1, 2, 3),
    horizon: int = 12_000,
) -> list[AlphaPoint]:
    """Sweep BlueTree's blocking factor α (paper Sec. 2.2).

    α = 1 is local round-robin; larger α favors the left path harder.
    The sweep quantifies the paper's argument that no static α links
    the arbitration to task demands — some α is least bad on average,
    but every setting stays far from BlueScale's numbers.
    """
    from repro.interconnects.bluetree import BlueTreeInterconnect

    points = []
    for alpha in alphas:
        misses, blockings = [], []
        for seed in seeds:
            rng = random.Random(f"alpha/{seed}")
            tasksets = generate_client_tasksets(rng, n_clients, 3, utilization)
            interconnect = BlueTreeInterconnect(n_clients, alpha=alpha)
            clients = [
                TrafficGenerator(
                    c, ts, rng=random.Random(f"alpha/{seed}/client/{c}")
                )
                for c, ts in tasksets.items()
            ]
            result = SoCSimulation(clients, interconnect).run(
                horizon, drain=5_000
            )
            misses.append(result.deadline_miss_ratio)
            blockings.append(result.mean_blocking)
        points.append(
            AlphaPoint(
                alpha=alpha,
                mean_miss_ratio=statistics.fmean(misses),
                mean_blocking=statistics.fmean(blockings),
            )
        )
    return points
