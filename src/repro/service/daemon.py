"""The admission-control daemon: HTTP/JSON over stdlib asyncio.

``repro serve`` loads one frozen
:class:`~repro.analysis.model.SystemModel`, opens one long-lived
:class:`~repro.analysis.session.AdmissionSession` over it, and answers
admission queries over a deliberately tiny HTTP/1.1 surface (no
third-party web framework — ``asyncio`` streams only):

========  =============  ==================================================
method    path           behaviour
========  =============  ==================================================
GET       ``/healthz``   liveness probe
GET       ``/model``     the loaded model's ``describe()`` summary
GET       ``/metrics``   request counters, latency percentiles, cache stats
POST      ``/admission`` probe (or ``commit``) one task-set submission
POST      ``/evict``     drop one client's admitted tasks (always commits)
POST      ``/reset``     roll the session back to the model baseline
========  =============  ==================================================

The event loop parses requests and writes responses; the analysis
itself runs on a small thread pool via ``run_in_executor`` (on a warm
cache a decision is one whole-SE memo hit per SE on the client's path,
cheaper than the request's HTTP handling), which is exactly why the
:class:`~repro.analysis.cache.AnalysisCache` those threads share must
be thread-safe.  Metrics are touched only from the event-loop thread,
so plain counters suffice.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.model import SystemModel
from repro.errors import ConfigurationError, ReproError
from repro.observability.metrics import MetricsRegistry
from repro.service.protocol import (
    RequestError,
    decision_payload,
    parse_admission_request,
    parse_evict_request,
)

__all__ = ["AdmissionService", "ServiceHandle", "start_background"]

#: largest request body the daemon will read
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class AdmissionService:
    """One model, one shared session, one HTTP endpoint.

    ``max_workers`` sizes the analysis thread pool; admission
    throughput saturates quickly because a warm-cache decision is a
    few whole-SE memo hits (tens of microseconds), less than the HTTP
    parse and serialize around it, so a handful of threads is plenty.
    """

    def __init__(self, model: SystemModel, max_workers: int = 4) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.model = model
        self.session = model.session()
        self.registry = MetricsRegistry()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="admission"
        )
        self._requests = self.registry.counter("service/requests")
        self._admitted = self.registry.counter("service/admitted")
        self._rejected = self.registry.counter("service/rejected")
        self._errors = self.registry.counter("service/errors")
        self._latency = self.registry.histogram("service/latency_ms")

    # -- route handlers ------------------------------------------------------
    def _metrics_payload(self) -> dict:
        stats = self.session.cache_stats
        scalars = self.registry.summary_scalars()
        return {
            "metrics": scalars,
            # Explicit tail-latency block so monitors don't have to
            # know the registry's flattened-key naming scheme.
            "latency_ms": {
                "p50": scalars.get("service/latency_ms_p50", 0.0),
                "p95": scalars.get("service/latency_ms_p95", 0.0),
                "p99": scalars.get("service/latency_ms_p99", 0.0),
                "max": scalars.get("service/latency_ms_max", 0.0),
            },
            "cache": {
                "selection_hits": stats.selection_hits,
                "selection_misses": stats.selection_misses,
                "grid_hits": stats.grid_hits,
                "grid_misses": stats.grid_misses,
                "lookups": stats.lookups,
                "hit_rate": stats.hit_rate,
                "node_hits": stats.node_hits,
                "node_misses": stats.node_misses,
            },
            "session_decisions": self.session.decisions,
        }

    async def _handle_admission(self, body: bytes) -> tuple[int, dict]:
        try:
            request = json.loads(body)
        except ValueError as exc:
            raise RequestError(f"body is not valid JSON: {exc}") from exc
        client_id, tasks, commit = parse_admission_request(request)
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        call = self.session.admit if commit else self.session.probe
        decision = await loop.run_in_executor(
            self._pool, call, client_id, tasks
        )
        self._latency.observe((time.perf_counter() - started) * 1000.0)
        if decision.admitted:
            self._admitted.increment()
        else:
            self._rejected.increment()
        return 200, decision_payload(decision)

    async def _handle_evict(self, body: bytes) -> tuple[int, dict]:
        try:
            request = json.loads(body)
        except ValueError as exc:
            raise RequestError(f"body is not valid JSON: {exc}") from exc
        client_id = parse_evict_request(request)
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        decision = await loop.run_in_executor(
            self._pool, self.session.evict, client_id
        )
        self._latency.observe((time.perf_counter() - started) * 1000.0)
        self._admitted.increment()  # an evict always commits
        return 200, decision_payload(decision)

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return 200, {"status": "ok"}
        if path == "/model":
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return 200, self.model.describe()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return 200, self._metrics_payload()
        if path == "/admission":
            if method != "POST":
                return 405, {"error": "method not allowed"}
            return await self._handle_admission(body)
        if path == "/evict":
            if method != "POST":
                return 405, {"error": "method not allowed"}
            return await self._handle_evict(body)
        if path == "/reset":
            if method != "POST":
                return 405, {"error": "method not allowed"}
            self.session.reset()
            return 200, {"status": "reset"}
        return 404, {"error": f"no such endpoint: {path}"}

    # -- HTTP plumbing -------------------------------------------------------
    @staticmethod
    def _response(status: int, payload: dict, close: bool) -> bytes:
        body = json.dumps(payload).encode()
        connection = "close" if close else "keep-alive"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        return head.encode() + body

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve_requests(reader, writer)
        except asyncio.CancelledError:
            pass  # event loop shutting down mid-connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _serve_requests(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                header_blob = await reader.readuntil(b"\r\n\r\n")
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                ConnectionResetError,
            ):
                break
            lines = header_blob.decode("latin-1").split("\r\n")
            parts = lines[0].split()
            if len(parts) != 3:
                writer.write(
                    self._response(
                        400, {"error": "malformed request line"}, True
                    )
                )
                break
            method, target, _version = parts
            headers = {}
            for line in lines[1:]:
                if ":" in line:
                    key, _, value = line.partition(":")
                    headers[key.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0"))
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                writer.write(
                    self._response(
                        413, {"error": "bad content length"}, True
                    )
                )
                break
            body = await reader.readexactly(length) if length else b""
            close = headers.get("connection", "").lower() == "close"
            path = target.split("?", 1)[0]
            self._requests.increment()
            try:
                status, payload = await self._dispatch(method, path, body)
            except (RequestError, ConfigurationError) as exc:
                status, payload = 400, {"error": str(exc)}
            except ReproError as exc:
                self._errors.increment()
                status, payload = 500, {"error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - daemon must answer
                self._errors.increment()
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            writer.write(self._response(status, payload, close))
            await writer.drain()
            if close:
                break

    # -- lifecycle -----------------------------------------------------------
    async def serve(self, host: str, port: int) -> asyncio.base_events.Server:
        """Bind and return the listening server (caller drives the loop)."""
        return await asyncio.start_server(self._handle_connection, host, port)

    def run(self, host: str = "127.0.0.1", port: int = 8787) -> None:
        """Serve forever on the current thread (Ctrl-C to stop)."""

        async def _main() -> None:
            server = await self.serve(host, port)
            bound = server.sockets[0].getsockname()
            print(
                f"repro admission service on http://{bound[0]}:{bound[1]} "
                f"({self.model.label or 'custom model'}, "
                f"{self.model.n_clients} clients)"
            )
            async with server:
                await server.serve_forever()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Release the analysis thread pool."""
        self._pool.shutdown(wait=False, cancel_futures=True)


class ServiceHandle:
    """A running background daemon: where it listens and how to stop it."""

    def __init__(self, service: AdmissionService, host: str) -> None:
        self.service = service
        self.host = host
        self.port: int | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """Base URL of the listening daemon."""
        return f"http://{self.host}:{self.port}"

    def _serve_thread(self, port: int) -> None:
        async def _main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            server = await self.service.serve(self.host, port)
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            async with server:
                await self._stop.wait()

        try:
            asyncio.run(_main())
        finally:
            self._ready.set()  # unblock a waiter even on bind failure

    def start(self, port: int = 0, timeout: float = 10.0) -> "ServiceHandle":
        """Launch the daemon thread and wait until the socket is bound."""
        self._thread = threading.Thread(
            target=self._serve_thread, args=(port,), daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout)
        if self.port is None:
            raise ConfigurationError(
                f"service failed to bind on {self.host}:{port}"
            )
        return self

    def stop(self) -> None:
        """Shut the daemon down and join its thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.service.close()


def start_background(
    model: SystemModel,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 4,
) -> ServiceHandle:
    """Run an :class:`AdmissionService` on a daemon thread.

    ``port=0`` picks an ephemeral port; the returned handle exposes the
    resolved :attr:`~ServiceHandle.url` and a blocking
    :meth:`~ServiceHandle.stop`.  This is how the tests, the example and
    the load benchmark embed the daemon in-process.
    """
    service = AdmissionService(model, max_workers=max_workers)
    return ServiceHandle(service, host).start(port)
