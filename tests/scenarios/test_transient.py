"""TransientBound math, changed_ports locality, ledger verification."""

import pytest

from repro.analysis import SystemModel
from repro.clients.traffic_generator import JobRecord
from repro.errors import InfeasibleError
from repro.scenarios import (
    ScenarioEvent,
    ScenarioKind,
    TransientBound,
    changed_ports,
    compute_transient_bound,
    verify_transients,
)
from repro.tasks import PeriodicTask, TaskSet

SMALL = PeriodicTask(period=1000, wcet=1, name="small")


@pytest.fixture(scope="module")
def model():
    return SystemModel.from_seed(16, utilization=0.3, seed=7)


def _committed_admit(model):
    session = model.session()
    decision = session.admit(3, SMALL)
    assert decision.committed
    return session, decision


class TestChangedPorts:
    def test_identity_is_empty(self, model):
        assert changed_ports(model.baseline, model.baseline) == []

    def test_admit_touches_only_the_client_path(self, model):
        _, decision = _committed_admit(model)
        touched = changed_ports(model.baseline, decision.composition)
        path = set(model.topology.path_to_root(3))
        assert touched  # the admitted task changed something
        assert {node for node, _ in touched} <= path

    def test_new_node_counts_every_port(self, model):
        one_node = {
            node: interfaces
            for node, interfaces in model.baseline.interfaces.items()
        }
        (victim, ports) = next(iter(one_node.items()))
        import dataclasses

        shrunk = dataclasses.replace(
            model.baseline,
            interfaces={
                n: i for n, i in one_node.items() if n != victim
            },
        )
        touched = changed_ports(shrunk, model.baseline)
        assert {(victim, p) for p in range(len(ports))} <= set(touched)


class TestComputeTransientBound:
    def _event(self):
        return ScenarioEvent(
            kind=ScenarioKind.CLIENT_JOIN,
            cycle=500,
            client_id=3,
            tasks=(SMALL,),
        )

    def test_analytic_window_from_old_regime(self, model):
        session, decision = _committed_admit(model)
        bound = compute_transient_bound(
            0,
            self._event(),
            500,
            dict(model.client_tasksets),
            model.baseline,
            decision.composition,
        )
        assert bound.analytic
        assert bound.window > 0
        assert bound.cycle == 500 and bound.end == 500 + bound.window
        assert bound.reprogrammed_ports == len(
            changed_ports(model.baseline, decision.composition)
        )
        assert bound.kind is ScenarioKind.CLIENT_JOIN

    def test_empty_old_system_has_zero_window(self, model):
        session, decision = _committed_admit(model)
        bound = compute_transient_bound(
            0,
            self._event(),
            500,
            {c: TaskSet() for c in range(4)},
            model.baseline,
            decision.composition,
        )
        assert bound.window == 0 and bound.analytic

    def test_infeasible_bounds_fall_back_to_max_period(
        self, model, monkeypatch
    ):
        import repro.scenarios.transient as transient_mod

        def explode(*args, **kwargs):
            raise InfeasibleError("edge of schedulability")

        monkeypatch.setattr(
            transient_mod, "holistic_response_bounds", explode
        )
        bound = compute_transient_bound(
            0,
            self._event(),
            500,
            dict(model.client_tasksets),
            model.baseline,
            model.baseline,
        )
        assert not bound.analytic
        assert bound.window == max(
            task.period
            for ts in model.client_tasksets.values()
            for task in ts
        )

    def test_covers_is_inclusive(self):
        bound = TransientBound(
            event_index=0,
            kind=ScenarioKind.CLIENT_LEAVE,
            client_id=1,
            cycle=100,
            window=50,
            reprogrammed_ports=2,
        )
        assert bound.covers(100) and bound.covers(150)
        assert not bound.covers(99) and not bound.covers(151)


class _FakeClient:
    def __init__(self, client_id, jobs):
        self.client_id = client_id
        self.jobs = jobs


def _job(deadline, *, met=True, monitored=True):
    record = JobRecord(
        task_name="t",
        release=deadline - 50,
        deadline=deadline,
        outstanding=0,
        monitored=monitored,
        last_completion=deadline - 1 if met else deadline + 10,
    )
    return record


class TestVerifyTransients:
    BOUND = TransientBound(
        event_index=4,
        kind=ScenarioKind.MODE_SWITCH,
        client_id=0,
        cycle=1_000,
        window=200,
        reprogrammed_ports=3,
    )

    def test_clean_trial_reports_ok(self):
        clients = [_FakeClient(0, [_job(1_100), _job(1_150)])]
        report = verify_transients(clients, (self.BOUND,), 5_000)
        assert report.ok
        assert report.jobs_in_transit == 2
        assert report.max_window == 200 and report.mean_window == 200.0

    def test_miss_inside_window_is_a_violation(self):
        clients = [_FakeClient(7, [_job(1_100, met=False)])]
        report = verify_transients(clients, (self.BOUND,), 5_000)
        assert not report.ok
        (violation,) = report.violations
        assert violation.client_id == 7
        assert violation.deadline == 1_100
        assert violation.event_index == 4

    def test_miss_outside_window_is_not_flagged(self):
        clients = [_FakeClient(0, [_job(3_000, met=False)])]
        report = verify_transients(clients, (self.BOUND,), 5_000)
        assert report.ok and report.jobs_in_transit == 0

    def test_unmonitored_and_truncated_jobs_skipped(self):
        clients = [
            _FakeClient(
                0,
                [
                    _job(1_100, met=False, monitored=False),
                    _job(1_100, met=False),  # deadline > end_cycle below
                ],
            )
        ]
        report = verify_transients(clients, (self.BOUND,), 1_050)
        assert report.ok and report.jobs_in_transit == 0

    def test_empty_bounds_trivially_ok(self):
        report = verify_transients(
            [_FakeClient(0, [_job(100, met=False)])], (), 5_000
        )
        assert report.ok
        assert report.max_window == 0 and report.mean_window == 0.0
