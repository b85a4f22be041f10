"""The four benchmark workloads.

Each workload has a ``prepare`` (everything before the first timed
call: imports of the layers it drives, input generation from the seed,
model builds, daemon boot, warm-up), a ``run`` (the timed region, which
returns an :class:`Outcome` whose outputs have been checked) and a
``close``.  The program under test receives only generated inputs; the
seed never reaches it except as the ``seed`` field of a campaign spec,
which is itself an input.

Sizes are fixed here and in ``specs/`` — a run is a fixed amount of
work, so ``wall_s`` is comparable across commits and the output digests
are comparable exactly.  ``smoke=True`` swaps in tiny sizes for the
test suite; its numbers mean nothing.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from metrics import percentile

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """One pass over a workload's timed region."""

    wall_s: float
    #: operations attempted / failed (cells, decisions, requests)
    attempted: int
    failed: int
    #: the workload's own end-to-end metrics (metrics.WORKLOAD_END_TO_END)
    metrics: dict[str, float]
    #: digest of the checked outputs; equal seeds must give equal digests
    digest: str
    #: counters no span carries (metrics.per_layer_metrics reads them)
    facts: dict[str, Any] = field(default_factory=dict)
    #: human-readable output-check failures; empty means correct
    problems: list[str] = field(default_factory=list)


def _digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- campaigns ----------------------------------------------------------------


class CampaignWorkload:
    """``parse_campaign_spec`` → ``run_campaign`` → ``summarize_campaign``."""

    SMOKE = {"trials": 2, "horizon": 600, "drain": 300}

    def __init__(self, name: str, spec_file: str) -> None:
        self.name = name
        self.spec_file = spec_file

    def prepare(self, seed: int, smoke: bool, scratch: Path) -> None:
        from repro import campaigns
        from repro.analysis.cache import get_default_cache
        from repro.experiments.churn import CHURN_POLICIES

        self.campaigns = campaigns
        self.cache = get_default_cache()
        self.scratch = scratch
        raw = json.loads((HERE / "specs" / self.spec_file).read_text())
        raw["seed"] = seed
        if smoke:
            for sweep in raw["sweeps"]:
                sweep.update(self.SMOKE)
        self.raw = raw
        self.input_digest = _digest(raw)
        # Simulated cycles the spec asks for: every simulation of every
        # trial runs horizon + drain cycles, whatever engine runs it.
        self.nominal_cycles = 0
        for cell in campaigns.expand_campaign(campaigns.parse_campaign_spec(raw)):
            for trial in campaigns.cell_trial_specs(cell):
                config = trial.param("config")
                if cell.family == "churn":
                    sims = len(CHURN_POLICIES)
                else:
                    sims = len(trial.param("interconnects"))
                    if cell.family == "isolation":
                        sims *= 2  # baseline + faulted
                self.nominal_cycles += sims * (config.horizon + config.drain)

    def run(self, trace) -> Outcome:
        campaigns = self.campaigns
        out_dir = self.scratch / self.name
        before = self.cache.stats_snapshot()
        start = time.perf_counter()
        with trace.timed():
            with trace.span("campaigns.parse"):
                spec = campaigns.parse_campaign_spec(self.raw)
            with trace.span("campaigns.run"):
                run = campaigns.run_campaign(
                    spec, out_dir, workers=1, resume=False
                )
            with trace.span("campaigns.summarize"):
                report, series = campaigns.summarize_campaign(out_dir)
        wall_s = time.perf_counter() - start
        after = self.cache.stats_snapshot()
        manifest = run.manifest
        problems = [
            f"cell {record.cell_id} failed: {record.error}"
            for record in run.failed_cells
        ]
        if manifest["cells"] != len(run.records) or not run.records:
            problems.append("manifest does not cover the grid")
        for path in (report, series):
            if not path.exists() or path.stat().st_size == 0:
                problems.append(f"{path.name} missing or empty")
        shutil.rmtree(out_dir, ignore_errors=True)
        return Outcome(
            wall_s=wall_s,
            attempted=manifest["cells"],
            failed=manifest["failed"],
            metrics={"sim_cycles_per_s": self.nominal_cycles / wall_s},
            digest=manifest["cells_digest"],
            facts={
                "cache_hits": after.hits - before.hits,
                "cache_lookups": after.lookups - before.lookups,
            },
            problems=problems,
        )

    def close(self) -> None:
        pass


# -- analysis library ---------------------------------------------------------


class AnalysisChurnWorkload:
    """Cold composition, warm re-selection, transient bounds; no simulator.

    Phase A builds ``n_cold`` large models cold, each with its own cache.
    Phase B replays one churn plan as warm incremental decisions, an equal
    slice of it on each phase-A model.  Phase C computes one transient
    bound per event, each event on its own small model.  Spreading B and
    C over several seeded models keeps one unusually cheap or costly draw
    from deciding the whole run.
    """

    name = "analysis-churn"

    def prepare(self, seed: int, smoke: bool, scratch: Path) -> None:
        from repro.analysis.cache import AnalysisCache
        from repro.analysis.model import SystemModel
        from repro.scenarios.plan import ScenarioPlan
        from repro.scenarios.replay import replay_plan

        self.AnalysisCache = AnalysisCache
        self.SystemModel = SystemModel
        self.ScenarioPlan = ScenarioPlan
        self.replay_plan = replay_plan
        self.seed = seed
        self.n_cold, self.n_big, n_small = (2, 16, 8) if smoke else (8, 64, 32)
        per_kind = 2 if smoke else 40
        self.warm_plan = ScenarioPlan.generate(
            seed,
            100_000,
            self.n_big,
            joins=per_kind,
            leaves=per_kind,
            rate_changes=per_kind,
            mode_switches=per_kind,
        )
        per_kind = 1 if smoke else 2
        self.transient_plan = ScenarioPlan.generate(
            seed,
            100_000,
            n_small,
            joins=per_kind,
            leaves=per_kind,
            rate_changes=per_kind,
            mode_switches=per_kind,
        )
        self.small_models = [
            SystemModel.from_seed(
                n_small,
                utilization=0.30,
                seed=f"{seed}/transient/{i}",
                cache=AnalysisCache(),
            )
            for i in range(len(self.transient_plan))
        ]
        self.input_digest = _digest(
            {
                "seed": seed,
                "cold": [self.n_cold, self.n_big],
                "warm": [repr(event) for event in self.warm_plan],
                "transient": [repr(event) for event in self.transient_plan],
                "small": [model.label for model in self.small_models],
            }
        )

    @staticmethod
    def _stream(replayed) -> list[tuple[bool, int, int]]:
        return [
            (
                item.applied,
                item.decision.interface.period,
                item.decision.interface.budget,
            )
            for item in replayed
        ]

    def run(self, trace) -> Outcome:
        cold_ms: list[float] = []
        transient_ms: list[float] = []
        problems: list[str] = []
        # phase-A caches are born inside the timed region; these are not
        before = [model.cache.stats_snapshot() for model in self.small_models]
        start = time.perf_counter()
        with trace.timed():
            # A: cold composition, a fresh cache per model
            models = []
            for i in range(self.n_cold):
                began = time.perf_counter()
                with trace.span("analysis.model_build"):
                    models.append(
                        self.SystemModel.from_seed(
                            self.n_big,
                            utilization=0.30 + 0.05 * (i % 4),
                            seed=f"{self.seed}/{i}",
                            cache=self.AnalysisCache(),
                        )
                    )
                cold_ms.append((time.perf_counter() - began) * 1000.0)
            # B: warm incremental decisions, one slice of the plan per model
            events = self.warm_plan.events
            share = -(-len(events) // len(models))
            warm = []
            began = time.perf_counter()
            for i, model in enumerate(models):
                piece = self.ScenarioPlan(events[i * share : (i + 1) * share])
                with trace.span("scenarios.replay_warm"):
                    warm.extend(
                        self.replay_plan(
                            model.session(), piece, transients=False
                        )
                    )
            warm_s = time.perf_counter() - began
            # C: one transient bound per event, timed per event
            transient = []
            for model, event in zip(self.small_models, self.transient_plan):
                began = time.perf_counter()
                with trace.span("scenarios.replay_transient"):
                    transient.extend(
                        self.replay_plan(
                            model.session(),
                            self.ScenarioPlan((event,)),
                            transients=True,
                        )
                    )
                transient_ms.append((time.perf_counter() - began) * 1000.0)
        wall_s = time.perf_counter() - start
        after = [
            model.cache.stats_snapshot() for model in (*models, *self.small_models)
        ]

        reference = [
            item
            for model, event in zip(self.small_models, self.transient_plan)
            for item in self.replay_plan(
                model.session(), self.ScenarioPlan((event,)), transients=False
            )
        ]
        failed = sum(
            1
            for got, want in zip(self._stream(transient), self._stream(reference))
            if got != want
        )
        if failed:
            problems.append(
                f"{failed} transient-phase decisions differ from the "
                "transients=False replay"
            )
        missing = sum(
            1 for item in transient if item.applied and item.transient is None
        )
        if missing:
            problems.append(f"{missing} committed events carry no bound")
            failed += missing
        unschedulable = sum(1 for model in models if not model.schedulable)
        if unschedulable:
            problems.append(f"{unschedulable} cold models are unschedulable")
            failed += unschedulable
        return Outcome(
            wall_s=wall_s,
            attempted=len(models) + len(warm) + len(transient),
            failed=failed,
            metrics={
                "cold_compose_ms_p50": statistics.median(cold_ms),
                "decisions_per_s": len(warm) / warm_s,
                "transient_bound_ms_p50": statistics.median(transient_ms),
            },
            digest=_digest(
                {
                    "cold": [str(m.baseline.root_bandwidth) for m in models],
                    "warm": self._stream(warm),
                    "transient": self._stream(transient),
                    "windows": [
                        item.transient.window
                        for item in transient
                        if item.transient is not None
                    ],
                }
            ),
            facts={
                "cache_hits": sum(s.hits for s in after)
                - sum(s.hits for s in before),
                "cache_lookups": sum(s.lookups for s in after)
                - sum(s.lookups for s in before),
                "scenario_events": len(warm) + len(transient),
                "scenario_applied": sum(
                    1 for item in (*warm, *transient) if item.applied
                ),
            },
            problems=problems,
        )

    def close(self) -> None:
        pass


# -- admission daemon ---------------------------------------------------------


class ServiceMixedWorkload:
    """Closed loop of keep-alive clients against the in-process daemon.

    Each of the ``THREADS`` client threads owns half of the model's
    clients and repeats one cycle: ``PROBES`` read-only probes (light
    tasks that fit and heavy ones that never do), then ``admit`` a light
    task, ``evict`` the client, and ``admit`` its baseline back — 80 %
    reads, 20 % writes, and the daemon's session equals the baseline
    again when a cycle ends.  A thread sends its next request only when
    the previous reply has arrived.
    """

    name = "service-mixed"
    #: ~8 interface selections per request would be ~5x10^4 spans a run
    untraced_spans = ("analysis.select_interface",)
    THREADS = 2
    PROBES = 12
    N_CLIENTS = 16

    def prepare(self, seed: int, smoke: bool, scratch: Path) -> None:
        from repro.analysis.model import SystemModel
        from repro.service import ServiceClient, ServiceError, start_background
        from repro.tasks.task import PeriodicTask
        from repro.tasks.taskset import TaskSet

        self.ServiceClient = ServiceClient
        self.ServiceError = ServiceError
        self.cycles = 4 if smoke else 200
        rng = random.Random(f"perf/service-mixed/{seed}")
        self.model = SystemModel.from_seed(
            self.N_CLIENTS, utilization=0.3, seed=7
        )
        light = [
            PeriodicTask(
                period=rng.randrange(1000, 4001),
                wcet=rng.randrange(1, 3),
                name=f"light/{i}",
            )
            for i in range(6)
        ]
        heavy = []
        for i in range(2):
            period = rng.randrange(64, 129)
            heavy.append(
                PeriodicTask(
                    period=period, wcet=period - 4, name=f"heavy/{i}"
                )
            )
        # (kind, client, tasks, expected admitted) per request, per thread
        self.scripts: list[list[tuple[str, int, list, bool]]] = []
        share = self.N_CLIENTS // self.THREADS
        for thread in range(self.THREADS):
            owned = list(range(thread * share, (thread + 1) * share))
            pool = [(c, rng.choice(light), True) for c in owned]
            pool += [(c, rng.choice(heavy), False) for c in owned[::2]]
            rng.shuffle(pool)
            script = []
            for cycle in range(self.cycles):
                for k in range(self.PROBES):
                    client, task, fits = pool[
                        (cycle * self.PROBES + k) % len(pool)
                    ]
                    script.append(("probe", client, [task], fits))
                target = owned[cycle % len(owned)]
                script.append(("admit", target, [rng.choice(light)], True))
                script.append(("evict", target, [], True))
                baseline = list(self.model.client_tasksets[target])
                script.append(("admit", target, baseline, True))
            self.scripts.append(script)
        self.pool = sorted(
            {
                (client, tasks[0])
                for script in self.scripts
                for kind, client, tasks, _ in script
                if kind == "probe"
            },
            key=lambda pair: (pair[0], pair[1].name),
        )
        self.input_digest = _digest(
            [
                [(k, c, [repr(t) for t in ts], e) for k, c, ts, e in script]
                for script in self.scripts
            ]
        )
        # Warm the model's shared analysis cache through a session of our
        # own, so the daemon's latency histogram holds timed requests only.
        # One cycle per owned client covers every path a write touches.
        warm = self.model.session()
        for script in self.scripts:
            for kind, client, tasks, _ in script[: share * (self.PROBES + 3)]:
                if kind == "probe":
                    warm.probe(client, tasks[0])
                elif kind == "evict":
                    warm.evict(client)
                else:
                    warm.admit(client, TaskSet(tasks))
        self.handle = start_background(self.model, max_workers=self.THREADS)
        self.clients = []
        for _ in range(self.THREADS):
            client = ServiceClient(self.handle.host, self.handle.port)
            client.healthz()  # connection established before the clock
            self.clients.append(client)

    def _drive(self, index: int, barrier, latencies, wrong, errors) -> None:
        client = self.clients[index]
        mine = latencies[index]
        barrier.wait()
        for kind, target, tasks, expected in self.scripts[index]:
            began = time.perf_counter()
            try:
                if kind == "evict":
                    reply = client.evict(target)
                else:
                    reply = client.admission(
                        target, tasks, commit=kind == "admit"
                    )
                if reply.get("admitted") is not expected:
                    wrong[index] += 1
            except self.ServiceError as exc:
                errors[index].append(exc.status)
            mine.append((kind, (time.perf_counter() - began) * 1000.0))

    def run(self, trace) -> Outcome:
        latencies: list[list[tuple[str, float]]] = [[] for _ in self.scripts]
        wrong = [0] * self.THREADS
        errors: list[list[int]] = [[] for _ in self.scripts]
        barrier = threading.Barrier(self.THREADS + 1)
        threads = [
            threading.Thread(
                target=self._drive,
                args=(index, barrier, latencies, wrong, errors),
            )
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        cache_before = self.clients[0].metrics()["cache"]
        with trace.timed():
            barrier.wait()
            start = time.perf_counter()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - start

        # Scrape before the parity pass so it holds timed requests only.
        scrape = self.clients[0].metrics()
        pooled = [ms for per in latencies for _, ms in per]
        by_kind = {
            kind: [ms for per in latencies for k, ms in per if k == kind]
            for kind in ("probe", "admit", "evict")
        }
        statuses = [status for per in errors for status in per]
        problems: list[str] = []
        if statuses:
            problems.append(f"non-2xx replies: {sorted(set(statuses))}")
        if sum(wrong):
            problems.append(f"{sum(wrong)} replies with the wrong verdict")
        attempted = sum(len(script) for script in self.scripts)
        if len(pooled) != attempted:
            problems.append("a client thread stopped early")

        # Untimed sequential parity: daemon == direct session, verdict
        # and selected interface, for every distinct probe in the pool.
        direct = self.model.session()
        parity = []
        mismatches = 0
        for client_id, task in self.pool:
            remote = self.clients[0].admission(client_id, task)
            local = direct.probe(client_id, task)
            same = remote["admitted"] == local.admitted
            interface = None
            if same and local.admitted:
                interface = (local.interface.period, local.interface.budget)
                same = (
                    remote["interface"]["period"],
                    remote["interface"]["budget"],
                ) == interface
            mismatches += not same
            parity.append((client_id, task.name, local.admitted, interface))
        if mismatches:
            problems.append(f"{mismatches} daemon/session parity mismatches")

        server = scrape["latency_ms"]
        counters = scrape["metrics"]
        cache = {
            key: scrape["cache"][key] - cache_before[key]
            for key in ("selection_hits", "grid_hits", "lookups")
        }
        client_p50 = percentile(pooled, 50)
        return Outcome(
            wall_s=wall_s,
            attempted=attempted,
            failed=len(statuses) + sum(wrong) + mismatches,
            metrics={
                "admission_qps": len(pooled) / wall_s,
                "admission_ms_p50": client_p50,
                "admission_ms_p95": percentile(pooled, 95),
            },
            digest=_digest(parity),
            facts={
                "cache_hits": cache["selection_hits"] + cache["grid_hits"],
                "cache_lookups": cache["lookups"],
                "service.client_ms_p99": percentile(pooled, 99),
                "service.server_decision_ms_p50": server["p50"],
                "service.server_decision_ms_p99": server["p99"],
                "service.http_overhead_ms_p50": client_p50 - server["p50"],
                "service.probe_ms_p50": percentile(by_kind["probe"], 50),
                "service.admit_ms_p50": percentile(by_kind["admit"], 50),
                "service.evict_ms_p50": percentile(by_kind["evict"], 50),
                "service.requests": len(pooled),
                "service.errors_5xx": sum(1 for s in statuses if s >= 500),
                "service.rejected_ratio": counters.get("service/rejected", 0.0)
                / max(1, len(pooled)),
            },
            problems=problems,
        )

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        handle = getattr(self, "handle", None)
        if handle is not None:
            handle.stop()


def make_workload(name: str):
    if name == "campaign-batched":
        return CampaignWorkload(name, "campaign-batched.json")
    if name == "campaign-scalar":
        return CampaignWorkload(name, "campaign-scalar.json")
    if name == "analysis-churn":
        return AnalysisChurnWorkload()
    if name == "service-mixed":
        return ServiceMixedWorkload()
    raise ValueError(f"unknown workload {name!r}")
