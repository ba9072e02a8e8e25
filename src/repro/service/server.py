"""``repro serve``: a long-lived asyncio front-end for the service.

Everything below the transport existed before this module — the
content-addressed :class:`~repro.service.store.DesignStore`, the
resumable :class:`~repro.service.jobs.ExplorationJob`, the
:class:`~repro.service.runner.ExplorationService` facade — but every
client had to fork a CLI process per manifest.  This server keeps one
process (and its trained models, built netlists, and warm stores)
alive and speaks plain HTTP/1.1 over stdlib ``asyncio`` — no new
dependencies, no framework.

Contract highlights (the full table lives in
``docs/ARCHITECTURE.md`` → "Server"):

* **Streaming**: ``POST /v1/explore`` and ``POST /v1/sweep`` stream
  JSONL — or SSE frames under ``Accept: text/event-stream`` — in one
  ``write`` per *batch* of complete lines (a warm hit: the head, its
  lines, the summary), never a partial line.  Lines come from the
  batch runner's own record builders (:func:`~repro.service.runner.
  request_records`, :meth:`ExplorationService.sweep_records`), so a
  served design line is byte-*identical* to the serial runner's,
  pinned by the conformance suite.
* **Idempotency / coalescing**: requests key by their content
  fingerprint (the same base-fingerprint → grid-key derivation the
  store uses).  A re-submitted request attaches to the in-flight
  computation's line channel (every subscriber receives the same
  lines) or, once the grid landed, resolves as a free store hit —
  exactly one computation per content key, ever.
* **Backpressure**: at most ``concurrency`` computations run and at
  most ``queue_depth`` more may wait; beyond that a submission gets
  ``429`` with a ``Retry-After`` header before any streaming starts.
  Coalescing subscribers and stored grids bypass the queue and the
  semaphore (they cost no computation).
* **Tenancy**: the ``X-Tenant`` header selects a per-tenant store
  file under ``store_root`` *and* a key namespace threaded into every
  base fingerprint, so tenants can never alias each other's rows.
  The default tenant keeps the empty namespace — its keys are
  byte-compatible with CLI-built stores.
* **Fleet coordination**: the JSON endpoints of the RPC table in
  :mod:`repro.service.coordinator` expose the tenant store's
  lease/checkpoint primitives over HTTP, so
  ``repro explore --coordinator URL`` workers drain a grid with no
  shared filesystem; shard uploads are fenced by lease token (a
  reclaimed worker's late write gets 409 and mutates nothing).
* **Keep-alive**: a client that sends ``Connection: keep-alive`` may
  reuse the connection for up to ``_KEEPALIVE_MAX`` JSON requests
  (streams always close); the default stays ``close``.
* **Drain**: SIGTERM (or SIGINT) stops accepting, lets every
  in-flight stream finish, then exits 0.  The fault points
  ``server.accept`` / ``server.enqueue`` / ``server.stream`` /
  ``server.drain`` put the transport under the same ``REPRO_FAULTS``
  chaos grammar as the rest of the stack.

Threading model: the event loop owns all bookkeeping (in-flight map,
queues, counters, channels) and all rendering; key resolution, grid
lookups and computations run in a small pool via ``run_in_executor``.
:class:`~repro.eval.accuracy.CircuitEvaluator` is *not* thread-safe,
so computations serialize per (dataset, model) on a lock.  A worker
returns a request's records as one list; the loop posts it to the
channel and renders each subscriber's batch (``write_line`` per line)
into one socket write.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .coordinator import COORD_PREFIXES, SAFE_CHARS, serve_rpc
from .faults import fault_point
from .jobs import DEFAULT_SHARD_SIZE
from .jsonl import write_line
from .runner import (ExplorationService, ExploreRequest, request_records,
                     summary_record)
from .store import DesignStore, canonical_json, grid_key as make_grid_key
from .telemetry import (capture_context, counter as _metric,
                        current_request_id, current_trace_id, gauge,
                        get_hub, new_request_id, set_request_id, span,
                        use_context)
from .telemetry import configure as _configure_telemetry

__all__ = ["ServeConfig", "ExploreServer", "serve"]

# Keep-alive is strictly opt-in (clients must send ``Connection:
# keep-alive``): every pre-existing client reads to EOF, so the default
# stays close.  The per-connection request cap bounds how long one
# client can pin a handler task.
_KEEPALIVE_MAX = 100
# Coordinator bodies (shard checkpoints, grid uploads) dwarf manifests;
# they get their own ceiling instead of raising the global one.
_COORD_MAX_BODY = 64 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Everything one :class:`ExploreServer` is configured by."""

    host: str = "127.0.0.1"
    port: int = 8765            # 0 → ephemeral (the ready line names it)
    store_root: str = "stores"  # per-tenant store files live under here
    concurrency: int = 2        # computations running at once
    queue_depth: int = 16       # computations allowed to wait
    retry_after_s: int = 1      # advisory Retry-After on 429
    n_workers: int | None = None
    engine: str = "auto"
    shard_size: int = DEFAULT_SHARD_SIZE
    identity: str = "exact"
    default_tenant: str = "default"
    max_body_bytes: int = 1 << 20
    events_log: str | None = None   # JSONL span/event sink (enables tracing)
    trace_sample: float = 1.0       # fraction of traces recorded when tracing


class _HttpError(Exception):
    """An HTTP error response decided before streaming started."""

    def __init__(self, status: int, message: str,
                 headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class _LineChannel:
    """One computation's ordered JSONL records, loop-owned, replayable.

    Records append exactly once (the loop is the only writer); any
    number of subscribers iterate independently — a late subscriber
    replays from the start, so every coalesced client receives the
    full identical stream.  ``error`` marks a failed computation.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.error: str | None = None
        self.done = False
        self._event = asyncio.Event()

    def post(self, records: list[dict]) -> None:
        self.records.extend(records)
        self._event.set()

    def finish(self, error: str | None = None) -> None:
        self.error = error
        self.done = True
        self._event.set()

    async def subscribe(self):
        """Yield every ready record as one batch, in order; returns
        when the channel ends."""
        index = 0
        while True:
            if index < len(self.records):
                batch = self.records[index:]
                index += len(batch)
                yield batch
            elif self.done:
                return
            else:  # nothing can post between these checks and the wait
                self._event.clear()
                await self._event.wait()


class ExploreServer:
    """The asyncio HTTP server; one instance per process.

    Lifecycle: :meth:`start` binds the socket, :meth:`begin_drain`
    (sync — safe from a signal handler) stops accepting and lets
    in-flight work finish, ``await stopped.wait()`` observes the
    drain completing, :meth:`shutdown` is the composed teardown the
    tests use.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.port = config.port
        self.draining = False
        self.stopped = asyncio.Event()
        self.counters = {
            "requests": 0, "computed": 0, "coalesced": 0,
            "rejected_busy": 0, "errors": 0,
        }
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(config.concurrency)) + 2,
            thread_name_prefix="repro-serve")
        self._services: dict[str, ExplorationService] = {}
        self._evaluators: dict = {}   # shared across tenants (pure compute)
        self._evaluator_fps: dict = {}
        # Content-keyed bespoke builds shared across tenants: concurrent
        # cold misses for the same model+e build once per serve process
        # (hits/misses on the build.cache metric).
        self._build_cache: dict = {}
        self._inflight: dict[tuple, _LineChannel] = {}
        self._streaming: set[asyncio.StreamWriter] = set()  # 200 head sent
        self._handlers: set[asyncio.Task] = set()
        self._computes: set[asyncio.Task] = set()
        self._sem = asyncio.Semaphore(max(1, int(config.concurrency)))
        self._admitted = 0            # queued + running computations
        self._resolve_lock = asyncio.Lock()
        self._circuit_locks: dict[tuple, threading.Lock] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ExploreServer":
        self._loop = asyncio.get_running_loop()
        if self.config.events_log:
            _configure_telemetry(tracing=True,
                                 sample=self.config.trace_sample,
                                 events_path=self.config.events_log)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def begin_drain(self) -> None:
        """Stop accepting; finish in-flight work; then ``stopped`` sets.

        Synchronous and idempotent so ``loop.add_signal_handler`` can
        call it directly on SIGTERM.
        """
        if self.draining:
            return
        self.draining = True
        try:
            fault_point("server.drain")
        except Exception:
            pass  # a drain fault must never prevent the drain itself
        if self._server is not None:
            self._server.close()
        assert self._loop is not None
        self._loop.create_task(self._watch_drain())

    async def _watch_drain(self) -> None:
        while self._handlers or self._computes:
            await asyncio.sleep(0.02)
        self.stopped.set()

    async def shutdown(self) -> None:
        """Drain, wait, and release the worker pool (test teardown)."""
        self.begin_drain()
        await self.stopped.wait()
        if self._server is not None:
            await self._server.wait_closed()
        self._pool.shutdown(wait=True)
        if self.config.events_log:
            # This server opened the sink in start(); flush the buffered
            # tail and release it so readers see every span.
            get_hub().close()

    # -- per-tenant services -------------------------------------------

    def _tenant(self, headers: dict) -> str:
        tenant = headers.get("x-tenant", self.config.default_tenant)
        if not tenant or len(tenant) > 64 \
                or any(c not in SAFE_CHARS for c in tenant):
            raise _HttpError(400, f"invalid tenant {tenant[:80]!r}: use "
                                  "1-64 chars of [A-Za-z0-9._-]")
        return tenant

    def _service(self, tenant: str) -> ExplorationService:
        service = self._services.get(tenant)
        if service is None:
            config = self.config
            # The default tenant keeps the empty namespace: its keys
            # are byte-identical to a CLI-built store's, so pointing
            # store_root at existing stores serves them warm.
            namespace = "" if tenant == config.default_tenant else tenant
            store = DesignStore(Path(config.store_root) / f"{tenant}.sqlite",
                                namespace=namespace)
            service = ExplorationService(
                store, n_workers=config.n_workers, engine=config.engine,
                shard_size=config.shard_size, identity=config.identity,
                evaluator_cache=self._evaluators,
                evaluator_fp_cache=self._evaluator_fps,
                build_cache=self._build_cache)
            self._services[tenant] = service
        return service

    def _circuit_lock(self, dataset: str, model: str) -> threading.Lock:
        # CircuitEvaluator carries mutable simulation caches — one
        # circuit must never evaluate on two threads at once.
        return self._circuit_locks.setdefault((dataset, model),
                                              threading.Lock())

    # -- computations --------------------------------------------------

    async def _resolve_key(self, service: ExplorationService,
                           request: ExploreRequest) -> str:
        """The request's store grid key (may train/build, hence pooled).

        Serialized on one lock: first-contact resolution can train a
        model; afterwards it is a cache read, and serializing removes
        any duplicate heavy work between racing resolutions.
        """
        assert self._loop is not None
        async with self._resolve_lock:
            base_key = await self._loop.run_in_executor(
                self._pool, service._base_key, request)
        return make_grid_key(base_key, request.tau_grid)

    def _admit(self, n_new: int, tenant: str) -> None:
        """Queue admission for ``n_new`` fresh computations, or 429."""
        if n_new == 0:
            return
        config = self.config
        limit = max(1, config.concurrency) + max(0, config.queue_depth)
        if self._admitted + n_new > limit:
            self.counters["rejected_busy"] += 1
            _metric("server.rejected", reason="busy")
            raise _HttpError(
                429, f"queue full ({self._admitted} in flight, "
                     f"limit {limit}); retry later",
                headers={"Retry-After": str(config.retry_after_s)})
        for _ in range(n_new):
            fault_point("server.enqueue", tenant=tenant)
        self._admitted += n_new

    def _pooled(self, fn, *args):
        """``fn(*args)`` in the pool, under the caller's trace context
        (run_in_executor does not propagate contextvars), so worker
        spans parent under the originating server.request span."""
        assert self._loop is not None
        ctx = capture_context()

        def run():
            with use_context(ctx):
                return fn(*args)
        return self._loop.run_in_executor(self._pool, run)

    def _compute_error(self, exc: Exception) -> str:
        self.counters["errors"] += 1
        _metric("server.errors", kind="compute")
        return f"{type(exc).__name__}: {exc}"

    def _spawn_compute(self, key: tuple, run_sync) -> _LineChannel:
        """A channel registered under ``key``, fed by ``run_sync`` pooled.

        ``run_sync()``'s records land in the channel in one post.  The
        caller has already passed admission (``_admit``); this always
        decrements ``_admitted`` exactly once.  The in-flight entry pops
        only *after* the work landed in the store, so a late duplicate
        either coalesces or warm-hits — never recomputes.
        """
        assert self._loop is not None
        channel = self._inflight[key] = _LineChannel()

        async def compute() -> None:
            error = None
            try:
                async with self._sem:
                    records = await self._pooled(run_sync)
                channel.post(records)
                # A grid that landed while this request looked it up
                # is served, not computed (a sweep always computes).
                if not records[0].get("grid_hit"):
                    self.counters["computed"] += 1
                    _metric("server.computed")
            except Exception as exc:
                error = self._compute_error(exc)
            finally:
                self._admitted -= 1
                self._inflight.pop(key, None)
                channel.finish(error)

        task = self._loop.create_task(compute())
        self._computes.add(task)
        task.add_done_callback(self._computes.discard)
        return channel

    async def _lookup(self, service: ExplorationService,
                      request: ExploreRequest) -> _LineChannel | None:
        """A finished channel of a stored grid's lines, or ``None``: no
        queue slot, no semaphore, and the resolve lock already released.
        """
        def read() -> list | None:
            fault_point("service.request", index=0, dataset=request.dataset)
            warm = service.lookup(request)
            return warm and request_records(0, request, *warm)

        channel = _LineChannel()
        try:
            records = await self._pooled(read)
        except Exception as exc:
            channel.finish(self._compute_error(exc))
            return channel
        if records is None:
            return None
        channel.post(records)
        channel.finish()
        return channel

    def _explore_sync(self, service: ExplorationService,
                      request: ExploreRequest) -> list[dict]:
        with self._circuit_lock(request.dataset, request.model):
            designs, report = service.explore(request)
        return request_records(0, request, designs, report)

    def _sweep_sync(self, service: ExplorationService,
                    request: ExploreRequest, e_values: tuple,
                    include_cross: bool) -> list[dict]:
        with self._circuit_lock(request.dataset, request.model):
            return service.sweep_records(request, e_values,
                                         include_cross=include_cross)

    # -- HTTP plumbing -------------------------------------------------

    async def _read_head(self, reader: asyncio.StreamReader,
                         idle: bool) -> bytes:
        """The raw request head; ``idle`` marks a kept-alive wait.

        Between keep-alive requests the wait runs in short slices so a
        drain can shed idle connections promptly.  ``readuntil`` only
        consumes its buffer once the separator is found, so a timed-out
        slice never loses bytes; a clean client close (EOF with nothing
        buffered) surfaces as ``ConnectionResetError`` — the handler's
        quiet exit — rather than a 400.
        """
        if not idle:
            return await reader.readuntil(b"\r\n\r\n")
        while True:
            try:
                return await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=0.25)
            except asyncio.TimeoutError:
                if self.draining:
                    raise ConnectionResetError(
                        "draining: closing idle keep-alive connection")
            except asyncio.IncompleteReadError as exc:
                if not exc.partial:
                    raise ConnectionResetError("keep-alive peer closed")
                raise

    async def _read_request(self, reader: asyncio.StreamReader,
                            idle: bool = False):
        try:
            head = await self._read_head(reader, idle)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise _HttpError(400, "malformed HTTP request head")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        path = path.split("?", 1)[0]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        limit = self.config.max_body_bytes
        if path.startswith(COORD_PREFIXES):
            limit = max(limit, _COORD_MAX_BODY)
        if length > limit:
            raise _HttpError(413, f"body of {length} bytes exceeds the "
                                  f"{limit} limit")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    @staticmethod
    def _head(status: int, content_type: str,
              extra: dict | None = None, length: int | None = None,
              conn: str = "close") -> bytes:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 409: "Conflict",
                   413: "Payload Too Large", 429: "Too Many Requests",
                   500: "Internal Server Error",
                   503: "Service Unavailable"}
        lines = [f"HTTP/1.1 {status} {reasons.get(status, 'Status')}",
                 f"Content-Type: {content_type}",
                 f"Connection: {conn}"]
        if conn == "keep-alive":
            lines.append(f"Keep-Alive: max={_KEEPALIVE_MAX}")
        if length is not None:
            lines.append(f"Content-Length: {length}")
        rid = current_request_id()
        if rid is not None:
            # Every response of a connection — 200 streams, 429s, drain
            # 503s, even 500s — carries the request id (generated or
            # client-supplied), so client logs correlate with spans.
            lines.append(f"X-Request-Id: {rid}")
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: dict, extra: dict | None = None,
                         conn: str = "close") -> None:
        body = (json.dumps(payload) + "\n").encode()
        writer.write(self._head(status, "application/json", extra,
                                len(body), conn) + body)
        await writer.drain()

    @staticmethod
    def _client_request_id(headers: dict) -> str | None:
        """A sanitized client-supplied ``X-Request-Id``, or ``None``."""
        rid = headers.get("x-request-id", "")
        if rid and len(rid) <= 64 and all(c in SAFE_CHARS for c in rid):
            return rid
        return None

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        try:
            peer = writer.get_extra_info("peername")
            fault_point("server.accept", peer=str(peer))
            served = 0
            while True:
                # One request == one context copy: each exchange on a
                # kept-alive connection gets a fresh request id (the
                # client may override per request) that scopes its whole
                # reply, including 4xx/5xx.
                set_request_id(new_request_id())
                keep = False
                try:
                    method, path, headers, body = \
                        await self._read_request(reader, idle=served > 0)
                    client_rid = self._client_request_id(headers)
                    if client_rid is not None:
                        set_request_id(client_rid)
                    keep = (headers.get("connection", "").lower()
                            == "keep-alive"
                            and served + 1 < _KEEPALIVE_MAX
                            and not self.draining)
                    conn = "keep-alive" if keep else "close"
                    with span("server.request", method=method, path=path):
                        kept = await self._route(method, path, headers,
                                                 body, writer, conn)
                    keep = keep and kept
                except _HttpError as exc:
                    await self._send_json(writer, exc.status,
                                          {"error": exc.message},
                                          exc.headers)
                    keep = False
                served += 1
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception:
            self.counters["errors"] += 1
            _metric("server.errors", kind="transport")
            if writer not in self._streaming:  # else just cut the stream
                try:
                    await self._send_json(
                        writer, 500, {"error": "internal server error"})
                except Exception:
                    pass
        finally:
            self._handlers.discard(task)
            self._streaming.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    _ENDPOINTS = ("/v1/explore", "/v1/sweep", "/v1/status", "/v1/healthz",
                  "/v1/metrics")

    @staticmethod
    def _endpoint_label(path: str) -> str:
        if path in ExploreServer._ENDPOINTS:
            return path
        for prefix in COORD_PREFIXES:
            if path.startswith(prefix):
                return prefix.rstrip("/")
        return "other"

    async def _route(self, method: str, path: str, headers: dict,
                     body: bytes, writer: asyncio.StreamWriter,
                     conn: str = "close") -> bool:
        """Dispatch one request; ``True`` iff the connection may persist
        (the response honored ``conn``; streams always close)."""
        self.counters["requests"] += 1
        _metric("server.requests", endpoint=self._endpoint_label(path))
        if path.startswith(COORD_PREFIXES):
            # Coordinator (fleet) plane: cheap store operations, allowed
            # during drain so in-flight workers can land their
            # checkpoints and release their leases.
            tenant = self._tenant(headers)
            status, reply = await serve_rpc(
                method, path, body, partial(self._store_call, tenant))
            if status != 200:
                raise _HttpError(status, reply["error"])
            await self._send_json(writer, status, reply, conn=conn)
            return True
        if path == "/v1/metrics":
            if method != "GET":
                raise _HttpError(405, "metrics is GET-only")
            await self._metrics(headers, writer, conn)
            return True
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            status = 503 if self.draining else 200
            await self._send_json(writer, status, {
                "status": "draining" if self.draining else "ok",
                "pid": os.getpid()}, conn=conn)
            return True
        if path == "/v1/status":
            if method != "GET":
                raise _HttpError(405, "status is GET-only")
            await self._send_json(writer, 200, self._status(), conn=conn)
            return True
        if path in ("/v1/explore", "/v1/sweep"):
            if method != "POST":
                raise _HttpError(405, f"{path} is POST-only")
            if self.draining:
                raise _HttpError(503, "server is draining; not accepting "
                                      "new work")
            payload = self._parse_body(body)
            if path == "/v1/explore":
                await self._explore(payload, headers, writer)
            else:
                await self._sweep(payload, headers, writer)
            return False  # streamed with Connection: close
        raise _HttpError(404, f"unknown path {path!r}; endpoints: "
                              "/v1/explore /v1/sweep /v1/status "
                              "/v1/healthz /v1/metrics plus the "
                              "coordinator plane under "
                              + " ".join(COORD_PREFIXES))

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    def _status(self) -> dict:
        running = max(0, self.config.concurrency) - self._sem._value
        return {
            "type": "status",
            "draining": self.draining,
            "admitted": self._admitted,
            "running": max(0, running),
            "queued": max(0, self._admitted - max(0, running)),
            "in_flight_keys": len(self._inflight),
            "open_connections": len(self._handlers),
            "counters": dict(self.counters),
            "tenants": {name: {"store": service.store.path,
                               "namespace": service.store.namespace}
                        for name, service in self._services.items()},
            "limits": {"concurrency": self.config.concurrency,
                       "queue_depth": self.config.queue_depth},
        }

    async def _metrics(self, headers: dict, writer: asyncio.StreamWriter,
                       conn: str = "close") -> None:
        """``GET /v1/metrics``: Prometheus text (default) or JSON.

        Gauges are sampled at scrape time (the registry otherwise only
        sees monotonic events); everything else is whatever the layers
        below recorded since process start.
        """
        status = self._status()
        gauge("server.admitted", status["admitted"])
        gauge("server.running", status["running"])
        gauge("server.open_connections", status["open_connections"])
        gauge("server.inflight_keys", status["in_flight_keys"])
        gauge("server.draining", int(self.draining))
        registry = get_hub().registry
        if "application/json" in headers.get("accept", ""):
            await self._send_json(writer, 200, {
                "type": "metrics", **registry.snapshot(),
                "server": status}, conn=conn)
            return
        body = registry.render_prometheus().encode()
        writer.write(self._head(200, "text/plain; version=0.0.4",
                                None, len(body), conn) + body)
        await writer.drain()

    # -- coordinator (fleet) plane -------------------------------------

    async def _store_call(self, tenant: str, fn, *args, **kwargs):
        """One blocking store call on the tenant's store, pooled."""
        assert self._loop is not None
        store = self._service(tenant).store
        return await self._loop.run_in_executor(
            self._pool, lambda: fn(store, *args, **kwargs))

    # -- streaming endpoints -------------------------------------------

    async def _explore(self, payload: dict, headers: dict,
                       writer: asyncio.StreamWriter) -> None:
        tenant = self._tenant(headers)
        service = self._service(tenant)
        manifest = payload.get("requests", [payload])
        if not isinstance(manifest, list) or not manifest:
            raise _HttpError(400, "'requests' must be a non-empty list")
        try:
            requests = [ExploreRequest.from_dict(d) for d in manifest]
        except (ValueError, TypeError) as exc:
            raise _HttpError(400, str(exc))

        # Settle every request before the response status goes out, so
        # a full queue is a clean 429, never a broken stream.  Cheapest
        # tier first: an in-flight channel (captured now — it replays
        # from the start even if its computation finishes before
        # streaming starts), then a stored grid; only the rest compute.
        entries = []  # [request, key, channel or None]
        n_hits = 0
        for request in requests:
            try:
                gkey = await self._resolve_key(service, request)
            except Exception as exc:
                raise _HttpError(400, f"cannot resolve "
                                      f"{request.name}: {exc}")
            channel = self._inflight.get((tenant, gkey))
            if channel is None:
                channel = await self._lookup(service, request)
                n_hits += channel is not None
            entries.append([request, (tenant, gkey), channel])
        fresh = {key for _request, key, channel in entries
                 if channel is None and key not in self._inflight}
        self._admit(len(fresh), tenant)
        n_coalesced = len(entries) - n_hits - len(fresh)
        self.counters["coalesced"] += n_coalesced
        if n_coalesced:
            _metric("server.coalesced", n_coalesced)
        for entry in entries:
            request, key, channel = entry
            if channel is None:
                entry[2] = self._inflight.get(key) or self._spawn_compute(
                    key, partial(self._explore_sync, service, request))

        await self._stream(writer, headers,
                           self._explore_lines(entries, service))

    @staticmethod
    def _trace_stamp(headers: dict) -> dict | None:
        """The opt-in per-line ``trace`` field (``X-Trace: 1`` header).

        Default responses never carry it — served design lines stay
        byte-identical whether telemetry is on, off, or sampled.
        """
        if headers.get("x-trace", "").lower() not in ("1", "true", "on"):
            return None
        stamp: dict = {}
        rid = current_request_id()
        if rid is not None:
            stamp["request_id"] = rid
        tid = current_trace_id()
        if tid is not None:
            stamp["trace_id"] = tid
        return stamp or None

    async def _stream(self, writer: asyncio.StreamWriter, headers: dict,
                      batches) -> None:
        """Send the 200 head, then each batch of records in one write.

        Per line: the ``server.stream`` fault point, the opt-in trace
        stamp, ``write_line`` into the batch.  A failure at line k sends
        lines 1..k-1 whole, then propagates (and ends the response).
        """
        sse = "text/event-stream" in headers.get("accept", "")
        trace_stamp = self._trace_stamp(headers)
        writer.write(self._head(200, "text/event-stream" if sse
                                else "application/x-ndjson"))
        self._streaming.add(writer)
        await writer.drain()
        line_no = 0
        async for records in batches:
            out = io.StringIO()
            try:
                for record in records:
                    line_no += 1
                    fault_point("server.stream", index=line_no)
                    if trace_stamp is not None:
                        record = {**record, "trace": trace_stamp}
                    write_line(out, record)
            finally:
                text = out.getvalue()
                if sse:
                    text = "".join(f"data: {line}\n\n"
                                   for line in text.splitlines())
                writer.write(text.encode())
            await writer.drain()

    @staticmethod
    async def _lines(channel: _LineChannel, **error_fields):
        """A channel's batches, then an ``error`` line if it failed."""
        async for batch in channel.subscribe():
            yield batch
        if channel.error is not None:
            yield [{"type": "error", **error_fields,
                    "error": channel.error}]

    async def _explore_lines(self, entries: list,
                             service: ExplorationService):
        """Each request's batches under its manifest index, then the
        aggregate summary (or stop after the first failed request)."""
        start = time.perf_counter()
        n_grid_hits = n_designs = 0
        for index, (request, _key, channel) in enumerate(entries):
            async for batch in self._lines(channel, index=index,
                                           request=request.name):
                if index:
                    batch = [{**record, "index": index} for record in batch]
                for record in batch:
                    if record["type"] == "request":
                        n_grid_hits += int(bool(record.get("grid_hit")))
                        n_designs += int(record.get("n_designs", 0))
                yield batch
            if channel.error is not None:
                return
        assert self._loop is not None
        stats = await self._loop.run_in_executor(
            self._pool, service.store.stats)
        yield [summary_record(len(entries), n_grid_hits, n_designs, start,
                              stats)]

    async def _sweep(self, payload: dict, headers: dict,
                     writer: asyncio.StreamWriter) -> None:
        tenant = self._tenant(headers)
        service = self._service(tenant)
        e_values = payload.pop("e_values", None)
        include_cross = bool(payload.pop("include_cross", True))
        if not isinstance(e_values, list) or not e_values:
            raise _HttpError(400, "'e_values' must be a non-empty list")
        try:
            e_values = tuple(int(e) for e in e_values)
            request = ExploreRequest.from_dict({**payload, "base": "coeff"})
        except (ValueError, TypeError) as exc:
            raise _HttpError(400, str(exc))
        # Sweeps coalesce on the normalized spec (cheap, no resolution):
        # identical concurrent sweeps share one run; the store already
        # dedupes everything under them across different spellings.
        key = (tenant, "sweep", canonical_json({
            "dataset": request.dataset, "model": request.model,
            "tau_grid": list(request.tau_grid), "e_values": list(e_values),
            "identity": request.identity, "include_cross": include_cross}))
        channel = self._inflight.get(key)
        if channel is None:
            self._admit(1, tenant)
            channel = self._spawn_compute(key, partial(
                self._sweep_sync, service, request, e_values, include_cross))
        else:
            self.counters["coalesced"] += 1
            _metric("server.coalesced")
        await self._stream(writer, headers, self._lines(channel))


async def _serve_async(config: ServeConfig) -> None:
    server = await ExploreServer(config).start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.begin_drain)
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal handler support
    print(json.dumps({"type": "serving", "host": config.host,
                      "port": server.port, "pid": os.getpid()}),
          flush=True)
    await server.stopped.wait()
    await server.shutdown()
    print(json.dumps({"type": "drained", "counters": server.counters}),
          flush=True)


def serve(config: ServeConfig) -> None:
    """Run the server until SIGTERM/SIGINT completes a graceful drain.

    Prints one ``{"type": "serving", ...}`` ready line (with the bound
    port — pass ``port=0`` for an ephemeral one) and a final
    ``{"type": "drained", ...}`` line on exit, both line-atomic on
    stdout, so supervisors and tests can follow the lifecycle.
    """
    asyncio.run(_serve_async(config))
