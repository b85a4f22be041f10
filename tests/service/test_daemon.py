"""End-to-end tests of the admission daemon over real sockets: every
endpoint, error mapping, verdict parity with a direct in-process
session, and a small concurrent load smoke."""

import json
import threading

import pytest

from repro.analysis import SystemModel
from repro.service import (
    AdmissionService,
    ServiceClient,
    ServiceError,
    start_background,
)
from repro.tasks.task import PeriodicTask

SMALL = PeriodicTask(period=1000, wcet=1, name="small")
HEAVY = PeriodicTask(period=64, wcet=60, name="heavy")


@pytest.fixture(scope="module")
def model():
    return SystemModel.from_seed(16, utilization=0.3, seed=7)


@pytest.fixture()
def service(model):
    handle = start_background(model)
    client = ServiceClient(handle.host, handle.port)
    try:
        yield handle, client
    finally:
        client.close()
        handle.stop()
        handle.service.session.reset()
        handle.service.session.context.cache.reset_stats()


class TestEndpoints:
    def test_healthz(self, service):
        _, client = service
        assert client.healthz() == {"status": "ok"}

    def test_model_summary(self, service):
        _, client = service
        summary = client.model()
        assert set(summary) == {
            "label",
            "n_clients",
            "fanout",
            "depth",
            "nodes",
            "deadline_margin",
            "baseline_tasks",
            "baseline_utilization",
            "baseline_schedulable",
            "baseline_root_bandwidth",
        }
        assert summary["n_clients"] == 16
        assert summary["baseline_schedulable"] is True

    def test_probe_admitted_returns_interface(self, service):
        _, client = service
        response = client.admission(3, SMALL)
        assert response["admitted"] is True
        assert response["committed"] is False
        assert response["interface"]["period"] >= 1

    def test_probe_rejected_returns_witness(self, service):
        _, client = service
        response = client.admission(3, HEAVY)
        assert response["admitted"] is False
        assert "over-utilized" in response["witness"]["reason"]

    def test_commit_then_reset(self, service, model):
        handle, client = service
        response = client.admission(3, SMALL, commit=True)
        assert response["committed"] is True
        session = handle.service.session
        assert len(session.tasksets[3]) == len(model.client_tasksets[3]) + 1
        assert client.reset() == {"status": "reset"}
        assert session.tasksets == dict(model.client_tasksets)

    def test_metrics_counters_and_latency(self, service):
        _, client = service
        client.admission(3, SMALL)
        client.admission(3, HEAVY)
        payload = client.metrics()
        metrics = payload["metrics"]
        assert metrics["service/admitted"] >= 1
        assert metrics["service/rejected"] >= 1
        assert metrics["service/errors"] == 0
        assert metrics["service/latency_ms_count"] >= 2
        assert metrics["service/latency_ms_p50"] >= 0
        # the model's composition warmed the SE memo the probes hit
        assert payload["cache"]["node_hits"] > 0

    def test_evict_drops_client_and_commits(self, service, model):
        handle, client = service
        response = client.evict(3)
        assert response["committed"] is True
        assert response["admitted"] is True
        session = handle.service.session
        assert 3 not in session.tasksets
        # re-admission of the original workload is accepted again
        readmit = client.admission(
            3, list(model.client_tasksets[3]), commit=True
        )
        assert readmit["committed"] is True

    def test_evict_requires_valid_client(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.evict(99)
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/evict", {})
        assert err.value.status == 400

    def test_metrics_exposes_tail_latency_block(self, service):
        _, client = service
        client.admission(3, SMALL)
        client.evict(5)
        payload = client.metrics()
        block = payload["latency_ms"]
        assert set(block) == {"p50", "p95", "p99", "max"}
        assert block["max"] >= block["p99"] >= block["p50"] >= 0.0
        # evicts are timed through the same histogram as admissions
        assert payload["metrics"]["service/latency_ms_count"] >= 2

    def test_verdicts_match_inprocess_session(self, service, model):
        _, client = service
        session = model.session()
        for client_id in range(16):
            for task in (SMALL, HEAVY):
                remote = client.admission(client_id, task)
                local = session.probe(client_id, task)
                assert remote["admitted"] == local.admitted
                if local.admitted:
                    assert remote["interface"]["period"] == (
                        local.interface.period
                    )
                    assert remote["interface"]["budget"] == (
                        local.interface.budget
                    )


class TestErrorMapping:
    def test_unknown_path_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_is_405(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/healthz")
        assert err.value.status == 405

    def test_invalid_json_is_400(self, service):
        handle, client = service
        conn = client._conn
        conn.request(
            "POST",
            "/admission",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "JSON" in body["error"]

    def test_bad_payload_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client._request(
                "POST", "/admission", {"client_id": 1, "tasks": []}
            )
        assert err.value.status == 400

    def test_out_of_range_client_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as err:
            client.admission(99, SMALL)
        assert err.value.status == 400

    def test_errors_do_not_kill_the_connection(self, service):
        _, client = service
        with pytest.raises(ServiceError):
            client._request("GET", "/nope")
        assert client.healthz() == {"status": "ok"}


class TestLoadSmoke:
    def test_concurrent_probes_no_errors_and_cache_hits(self, model):
        """A few hundred keep-alive requests from several threads: no
        5xx, verdicts stable, non-zero cache hit rate."""
        handle = start_background(model)
        per_thread, n_threads = 60, 4
        failures: list[str] = []

        def worker(tid: int) -> None:
            with ServiceClient(handle.host, handle.port) as client:
                for i in range(per_thread):
                    task = SMALL if i % 3 else HEAVY
                    expected = task is SMALL
                    try:
                        response = client.admission((tid + i) % 16, task)
                    except ServiceError as exc:  # any 4xx/5xx is a failure
                        failures.append(str(exc))
                        continue
                    if response["admitted"] != expected:
                        failures.append(f"verdict flip at {tid}/{i}")

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(n_threads)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServiceClient(handle.host, handle.port) as client:
                payload = client.metrics()
        finally:
            handle.stop()
        assert failures == []
        metrics = payload["metrics"]
        assert metrics["service/errors"] == 0
        assert (
            metrics["service/admitted"] + metrics["service/rejected"]
            == per_thread * n_threads
        )
        cache = payload["cache"]
        assert cache["node_hits"] > cache["node_misses"]


class TestServiceObject:
    def test_max_workers_validated(self, model):
        with pytest.raises(Exception):
            AdmissionService(model, max_workers=0)

    def test_handle_reports_url(self, model):
        handle = start_background(model)
        try:
            assert handle.url.startswith("http://127.0.0.1:")
            assert handle.port is not None and handle.port > 0
        finally:
            handle.stop()
