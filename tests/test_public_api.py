"""Public-API smoke tests: the documented entry points exist and the
error hierarchy behaves."""

import pytest

import repro
from repro import errors


def _public_analysis_callables() -> dict:
    """Every public function, and every public method or ``__init__``
    of a public class, defined in a ``repro.analysis`` module."""
    import importlib
    import inspect
    import pkgutil

    import repro.analysis

    subjects = {}
    for info in pkgutil.iter_modules(repro.analysis.__path__):
        module = importlib.import_module(f"repro.analysis.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or (
                getattr(obj, "__module__", None) != module.__name__
            ):
                continue
            if inspect.isfunction(obj):
                subjects[name] = obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member) and (
                        attr == "__init__" or not attr.startswith("_")
                    ):
                        subjects[f"{name}.{attr}"] = member
    return subjects


def _offenders(subjects: dict, forbidden: set, exempt=frozenset()) -> list:
    """``qualname(param)`` for each forbidden parameter a subject takes."""
    import inspect

    return sorted(
        f"{qualname}({param})"
        for qualname, func in subjects.items()
        if qualname not in exempt
        for param in inspect.signature(func).parameters
        if param in forbidden
    )


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis
        import repro.campaigns
        import repro.clients
        import repro.core
        import repro.experiments
        import repro.hardware
        import repro.interconnects
        import repro.memory
        import repro.runtime
        import repro.service
        import repro.sim
        import repro.tasks
        import repro.workloads

        for module in (
            repro.analysis,
            repro.campaigns,
            repro.clients,
            repro.core,
            repro.experiments,
            repro.hardware,
            repro.interconnects,
            repro.memory,
            repro.runtime,
            repro.service,
            repro.sim,
            repro.tasks,
            repro.workloads,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module.__name__, name)

    def test_no_process_global_engine_switches(self):
        """The sim backend is a value on the trial spec
        (``TrialSpec.sim_backend``); the process-wide setters and
        getters it replaced must not come back."""
        import repro.analysis
        import repro.runtime
        import repro.sim

        for module, stem in (
            (repro.sim, "default_sim_backend"),
            (repro.analysis, "default_backend"),
        ):
            for name in (f"set_{stem}", f"get_{stem}"):
                assert name not in module.__all__
                assert not hasattr(module, name)
        assert repro.runtime.TrialSpec.make("e", 0, 1).sim_backend == "batched"

    def test_retired_names_stay_out_of_all(self):
        """The BlueScale-only hook timeline (superseded by the span
        tracer in ``repro.observability``), the uncalled ``spawn_rng``,
        the multi-memory extension, the optional-contract protocol
        (every engine component now implements quiescence) and the
        analysis knobs one ``AnalysisContext`` replaced, the admission
        and ceiling shortcuts ``AdmissionSession`` and ``breakdown_scale``
        already answer, the uncalled per-client victim miss fold, the
        per-experiment ``run_*`` wrappers ``run_experiment`` replaced, the
        experiment-level design-setting knobs, ``EngineConfig`` (its
        analysis half had no caller outside the tests, its sim half is
        ``TrialSpec.sim_backend``), trace capture/replay, the client
        issue policies (every client issues EDF), the fault kinds other
        than the rogue burst (a fault is a rogue burst, so the kind enum
        and its orchestrator factory went too), the list wrapper over
        ``grid_verdicts``, the Scale Element's own interface selector
        (``compose`` is the one selection), the arbitration-interval
        model that only fed a simulator setting, the blocking helper no
        design called, the unreferenced design-cost table and the second
        analysis engine's tests-only helpers (the exact oracle lives in
        ``tests/analysis/oracle.py``) are gone from the public
        surface."""
        import importlib

        import repro.analysis
        import repro.clients
        import repro.core
        import repro.experiments
        import repro.faults
        import repro.hardware
        import repro.interconnects
        import repro.runtime
        import repro.sim

        for name in (
            "Timeline",
            "RequestTimeline",
            "format_timeline",
            "QuiescentComponent",
            "TraceRecord",
            "TraceReplayClient",
            "load_trace",
            "save_trace",
            "split_by_client",
            "trace_from_clients",
        ):
            assert name not in repro.sim.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.sim.trace")
        assert "QUEUE_POLICIES" not in repro.clients.__all__
        assert not hasattr(repro.clients, "QUEUE_POLICIES")
        for name in ("spawn_rng", "EngineConfig"):
            assert name not in repro.runtime.__all__
        assert not hasattr(repro.runtime, "EngineConfig")
        for name in (
            "AddressInterleaver",
            "MultiMemoryResult",
            "MultiMemorySystem",
            "run_multi_memory_trial",
            "InterfaceSelector",
            "TaskParameterTable",
            "TableEntry",
            "SelectedServer",
        ):
            assert name not in repro.core.__all__
            assert not hasattr(repro.core, name)
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.interface_selector")
        for name in ("arbitration_interval", "DESIGN_COSTS"):
            assert name not in repro.hardware.__all__
            assert not hasattr(repro.hardware, name)
        assert "charge_blocking_against" not in repro.interconnects.__all__
        assert not hasattr(repro.interconnects, "charge_blocking_against")
        for name in (
            "set_default_cache",
            "resolve_cache",
            "resolve_backend",
            "can_admit",
            "breakdown_utilization",
            "schedulable_many",
            "BACKENDS",
            "wcrt_on_interface",
            "minimal_budget_for_period",
            "dbf_step_points",
            "is_schedulable_exhaustive",
            "brute_force_minimum_bandwidth",
        ):
            assert name not in repro.analysis.__all__
            assert not hasattr(repro.analysis, name)
        for name in (
            "victim_miss_ratio",
            "FaultKind",
            "PORT_KINDS",
            "make_orchestrator",
        ):
            assert name not in repro.faults.__all__
            assert not hasattr(repro.faults, name)
        for name in (
            "run_fig6",
            "run_fig7",
            "run_isolation",
            "run_churn",
            "run_ablation",
            "evaluate_variant",
            "run_dram_sensitivity",
            "run_fairness",
            "run_scalability_sweep",
            "FactoryConfig",
            "DEFAULT_FACTORY_CONFIG",
        ):
            assert name not in repro.experiments.__all__
            assert not hasattr(repro.experiments, name)

    def test_faults_model_only_the_rogue_burst(self):
        """A fault event is a rogue burst window: it carries no kind and
        none of the port, bit-flip or stall settings; plans are built,
        not generated; and neither a Scale Element nor the controller
        has a fault hook."""
        import dataclasses

        from repro.core.scale_element import ScaleElement
        from repro.faults import FaultEvent, FaultPlan
        from repro.memory.controller import MemoryController

        fields = {f.name for f in dataclasses.fields(FaultEvent)}
        retired = {"kind", "node", "port", "bit", "counter", "ratio", "seed"}
        assert not fields & retired
        assert not hasattr(FaultPlan, "generate")
        assert not hasattr(ScaleElement, "flip_budget_bit")
        assert not hasattr(MemoryController, "inject_stall")

    def test_clients_take_only_the_settings_experiments_use(self):
        """Every client issues in EDF order from its own 16 MB window,
        phased at cycle 0, and drops the newest transaction on
        overflow; a processor writes a quarter of its transactions and
        an accelerator queues up to 1024.  None of that is a parameter."""
        import inspect

        from repro.clients import (
            AcceleratorClient,
            ProcessorClient,
            TrafficGenerator,
        )

        retired = {
            TrafficGenerator: {
                "queue_policy", "criticality", "random_phases", "address_base",
            },
            ProcessorClient: {
                "pending_capacity", "random_phases", "write_ratio",
            },
            AcceleratorClient: {"pending_capacity"},
        }
        for client, names in retired.items():
            params = set(inspect.signature(client).parameters)
            assert not params & names, client.__name__

    def test_fabrics_take_only_the_settings_experiments_use(self):
        """A BlueScale fabric gets its interfaces only from ``compose``
        (no SE-local selector or parameter table); the controller has
        no refresh model; the AXI-IC^RT arbiter decides every cycle
        behind a fixed two-stage pipeline; a GSMTree TDM slot is one
        cycle.  None of that is a parameter."""
        import inspect

        from repro.core.interconnect import BlueScaleInterconnect
        from repro.core.scale_element import ScaleElement
        from repro.interconnects import AxiIcRtInterconnect, GsmTreeInterconnect
        from repro.memory.controller import MemoryController
        from repro.memory.dram import FixedLatencyDevice

        retired = {
            ScaleElement: {"table_depth"},
            MemoryController: {"refresh_interval", "refresh_duration"},
            AxiIcRtInterconnect: {"pipeline_latency", "arbitration_interval"},
            GsmTreeInterconnect: {"slot_cycles"},
        }
        for fabric, names in retired.items():
            params = set(inspect.signature(fabric).parameters)
            assert not params & names, fabric.__name__
        assert not hasattr(BlueScaleInterconnect, "configure_distributed")
        assert not hasattr(ScaleElement(node=(0, 0)), "selector")
        controller = MemoryController(FixedLatencyDevice(1))
        for name in ("refresh_stall_cycles", "_refresh_remaining"):
            assert not hasattr(controller, name)
        assert AxiIcRtInterconnect.PIPELINE_LATENCY == 2
        axi = AxiIcRtInterconnect(4)
        for name in ("arbitration_interval", "pipeline_latency"):
            assert not hasattr(axi, name)
        assert axi.response_latency(0) == 2
        assert not hasattr(GsmTreeInterconnect(4), "slot_cycles")

    def test_analysis_has_one_engine(self):
        """No value selects an analysis engine: a context is a cache and
        a search config, and a model is built without a backend."""
        import dataclasses
        import inspect

        from repro.analysis import AnalysisContext, SystemModel

        fields = [field.name for field in dataclasses.fields(AnalysisContext)]
        assert fields == ["cache", "config"]
        for builder in (SystemModel.build, SystemModel.from_seed):
            assert "backend" not in inspect.signature(builder).parameters

    def test_analysis_runs_under_one_ctx(self):
        """How an analysis runs is one value, ``ctx=`` (an
        ``AnalysisContext``): no public analysis function or BlueScale
        configure path takes a backend, cache or config of its own.
        Only the holders that own a context build it from keywords —
        and the context itself."""
        from repro.core.interconnect import BlueScaleInterconnect
        from repro.experiments.factory import build_interconnect

        forbidden = {"backend", "cache", "config", "analysis_backend"}
        exempt = {
            "SystemModel.build",
            "SystemModel.from_seed",
            "AnalysisContext.__init__",
        }
        subjects = {"build_interconnect": build_interconnect}
        for name in ("configure", "reprogram_client"):
            subjects[f"BlueScaleInterconnect.{name}"] = getattr(
                BlueScaleInterconnect, name
            )
        subjects.update(_public_analysis_callables())
        assert exempt <= set(subjects)
        assert _offenders(subjects, forbidden, exempt) == []

    def test_no_margin_or_time_unit_options(self):
        """Values no caller sets are not options: the analysis margins
        come from the topology and ``RELATIVE_MARGIN``, the simulator
        records every completion and counts time in slots only."""
        from repro.sim import Engine, run_many
        from repro.soc import SoCSimulation

        subjects = _public_analysis_callables()
        assert {"compose", "update_client", "SystemModel.build"} <= set(
            subjects
        )
        assert _offenders(subjects, {"deadline_margin", "relative_margin"}) == []
        sim_subjects = {
            "SoCSimulation.__init__": SoCSimulation.__init__,
            "SoCSimulation.run": SoCSimulation.run,
            "Engine.__init__": Engine.__init__,
            "run_many": run_many,
        }
        assert _offenders(sim_subjects, {"warmup", "clock"}) == []
        import repro.sim

        assert not hasattr(repro.sim, "Clock")
        assert "Clock" not in repro.sim.__all__

    def test_readme_quickstart_snippet_runs(self):
        """The code block in README.md works as written."""
        import random

        from repro import BlueScaleInterconnect, SoCSimulation
        from repro.clients import TrafficGenerator
        from repro.tasks import generate_client_tasksets

        tasksets = generate_client_tasksets(
            random.Random(0), n_clients=16, tasks_per_client=3,
            system_utilization=0.8,
        )
        interconnect = BlueScaleInterconnect(16)
        composition = interconnect.configure(tasksets)
        assert composition is not None
        clients = [TrafficGenerator(c, ts) for c, ts in tasksets.items()]
        result = SoCSimulation(clients, interconnect).run(horizon=2_000)
        assert 0.0 <= result.deadline_miss_ratio <= 1.0


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "CapacityError",
            "InfeasibleError",
            "SimulationError",
            "ProtocolError",
        ):
            klass = getattr(errors, name)
            assert issubclass(klass, errors.ReproError)

    def test_single_except_clause_catches_everything(self):
        caught = []
        for klass in (
            errors.ConfigurationError,
            errors.CapacityError,
            errors.InfeasibleError,
        ):
            try:
                raise klass("boom")
            except errors.ReproError as exc:
                caught.append(type(exc))
        assert len(caught) == 3

    def test_repro_error_is_an_exception(self):
        with pytest.raises(Exception):
            raise errors.ReproError("base")
