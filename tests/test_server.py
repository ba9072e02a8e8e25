"""Protocol conformance + concurrency tests for ``repro serve``.

Three layers:

* **conformance** — every streamed line parses under the strict JSONL
  reader, the request/design/summary schemas are pinned, SSE framing
  round-trips, and — the wire path's identity oracle — a served
  explore's design lines are byte-identical to the same request run
  through :meth:`ExplorationService.run_manifest` serially;
* **concurrency** — 32 clients with overlapping + duplicate requests
  against one server: exactly one computation per content key
  (monkeypatch-counted), identical design lists for every client of a
  key, a clean store integrity check afterwards, and explicit
  backpressure (429 + ``Retry-After``) when the queue is full;
* **lifecycle** — tenant namespacing (distinct fingerprints, distinct
  store files), graceful in-process drain, and a real-subprocess
  SIGTERM-mid-stream test: the in-flight stream completes, the server
  exits 0 with a ``drained`` line, and a reconnecting client resolves
  warm with identical designs.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import asynccontextmanager
from pathlib import Path

import pytest

from repro.service import DesignStore, ExplorationService
from repro.service.faults import FaultInjector, installed
from repro.service.jobs import ExplorationJob
from repro.service.jsonl import read_jsonl
from repro.service.runner import ExploreRequest
from repro.service.server import ExploreServer, ServeConfig
from repro.service.store import base_fingerprint_from_parts

REPO_ROOT = Path(__file__).resolve().parents[1]

GRID = [0.9, 0.95, 0.99]
REQ = {"dataset": "redwine", "model": "svm_r", "base": "coeff",
       "tau_grid": GRID}

# Pinned line schemas: the served wire format is the batch runner's.
REPORT_KEYS = {"grid_key", "n_shards", "shards_loaded", "shards_computed",
               "grid_hit", "variants_preloaded", "runtime_s",
               "shards_retried", "pool_respawns", "serial_fallbacks",
               "engine_fallbacks", "shard_timeouts", "fault_events"}
REQUEST_KEYS = {"type", "index", "dataset", "model", "base", "label",
                "tau_grid_points", "n_designs"} | REPORT_KEYS
DESIGN_KEYS = {"type", "index", "tau_c", "phi_c", "n_pruned",
               "duplicate_of", "accuracy", "area_mm2", "power_mw",
               "n_gates"}
SUMMARY_KEYS = {"type", "n_requests", "n_grid_hits", "n_designs",
                "runtime_s", "store"}


@asynccontextmanager
async def running_server(tmp_path, **overrides):
    options = {"port": 0, "store_root": str(tmp_path / "stores"),
               "concurrency": 2, "queue_depth": 8}
    options.update(overrides)
    server = await ExploreServer(ServeConfig(**options)).start()
    try:
        yield server
    finally:
        await server.shutdown()


async def http(port, method, path, body=None, headers=None):
    """One raw HTTP/1.1 exchange; returns (status, head text, body text)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = b"" if body is None else json.dumps(body).encode()
    head = [f"{method} {path} HTTP/1.1", "Host: t", "Connection: close"]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    if data:
        head.append(f"Content-Length: {len(data)}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    head_blob, _, payload = raw.partition(b"\r\n\r\n")
    return (int(head_blob.split()[1]), head_blob.decode("latin-1"),
            payload.decode())


def design_lines(body: str) -> list[str]:
    """The raw design-line text of one streamed response."""
    return [line for line in body.splitlines()
            if '"type": "design"' in line]


def parse_lines(body: str) -> list[dict]:
    return [json.loads(line) for line in body.splitlines() if line.strip()]


def gate_explore(monkeypatch):
    """Hold every server computation (``ExplorationService.explore``,
    run under the semaphore) until ``gate`` is set; ``entered`` marks
    that one really started, so a gated test cannot pass vacuously."""
    gate, entered = threading.Event(), threading.Event()
    original = ExplorationService.explore

    def gated(self, *args, **kwargs):
        entered.set()
        assert gate.wait(timeout=30)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(ExplorationService, "explore", gated)
    return gate, entered


class TestConformance:
    def test_healthz_and_status(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                status, _head, body = await http(server.port, "GET",
                                                 "/v1/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"
                status, _head, body = await http(server.port, "GET",
                                                 "/v1/status")
                assert status == 200
                report = json.loads(body)
                assert report["draining"] is False
                assert report["limits"] == {"concurrency": 2,
                                            "queue_depth": 8}
                assert set(report["counters"]) == {
                    "requests", "computed", "coalesced", "rejected_busy",
                    "errors"}
        asyncio.run(run())

    def test_streamed_lines_parse_strictly_and_schemas_pinned(
            self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                status, head, body = await http(server.port, "POST",
                                                "/v1/explore", REQ)
                assert status == 200
                assert "application/x-ndjson" in head
                # every line survives the strict reader — no partial tail
                records = read_jsonl(io.StringIO(body),
                                     allow_partial_tail=False)
                kinds = [record["type"] for record in records]
                assert kinds[0] == "request" and kinds[-1] == "summary"
                assert kinds.count("design") == len(records) - 2
                header, *designs, summary = records
                assert set(header) == REQUEST_KEYS
                assert header["grid_hit"] is False
                for design in designs:
                    assert set(design) == DESIGN_KEYS
                assert set(summary) == SUMMARY_KEYS
                assert summary["n_designs"] == len(designs)
                assert summary["n_requests"] == 1
        asyncio.run(run())

    def test_served_designs_byte_identical_to_serial_run(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                _status, _head, body = await http(server.port, "POST",
                                                  "/v1/explore", REQ)
                return design_lines(body)
        served = asyncio.run(run())

        service = ExplorationService(
            DesignStore(tmp_path / "serial.sqlite"))
        out = io.StringIO()
        service.run_manifest([REQ], out)
        serial = design_lines(out.getvalue())
        assert serial and served == serial  # the wire identity oracle

    def test_sse_framing_round_trips(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                _s, _h, jsonl_body = await http(server.port, "POST",
                                                "/v1/explore", REQ)
                status, head, sse_body = await http(
                    server.port, "POST", "/v1/explore", REQ,
                    {"Accept": "text/event-stream"})
                return status, head, jsonl_body, sse_body
        status, head, jsonl_body, sse_body = asyncio.run(run())
        assert status == 200
        assert "text/event-stream" in head
        frames = [chunk for chunk in sse_body.split("\n\n") if chunk]
        assert all(frame.startswith("data: ") for frame in frames)
        sse_records = [json.loads(frame[len("data: "):])
                       for frame in frames]
        jsonl_records = parse_lines(jsonl_body)
        # same records modulo the per-run volatile fields
        def stable(records):
            return [{key: value for key, value in record.items()
                     if key not in ("runtime_s", "store", "grid_hit",
                                    "n_grid_hits", "variants_preloaded",
                                    "shards_loaded", "shards_computed",
                                    "n_shards")}
                    for record in records]
        assert stable(sse_records) == stable(jsonl_records)

    def test_resubmission_is_warm_and_never_recomputes(
            self, tmp_path, monkeypatch):
        runs = []
        original = ExplorationJob.run

        def counted(self, *args, **kwargs):
            runs.append(self.grid_key())
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ExplorationJob, "run", counted)

        async def run():
            async with running_server(tmp_path) as server:
                _s, _h, cold = await http(server.port, "POST",
                                          "/v1/explore", REQ)
                _s, _h, warm = await http(server.port, "POST",
                                          "/v1/explore", REQ)
                return cold, warm
        cold, warm = asyncio.run(run())
        assert len(runs) == 1  # the retry resolved off the store
        assert parse_lines(warm)[0]["grid_hit"] is True
        assert design_lines(cold) == design_lines(warm)

    def test_multi_request_manifest_indices(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                body = {"requests": [REQ, {**REQ, "tau_grid": [0.85, 0.9]},
                                     REQ]}
                _s, _h, text = await http(server.port, "POST",
                                          "/v1/explore", body)
                return parse_lines(text)
        records = asyncio.run(run())
        headers = [r for r in records if r["type"] == "request"]
        assert [h["index"] for h in headers] == [0, 1, 2]
        assert records[-1]["n_requests"] == 3
        # the duplicate third request reuses the first's computation
        first = [r for r in records
                 if r["type"] == "design" and r["index"] == 0]
        third = [r for r in records
                 if r["type"] == "design" and r["index"] == 2]
        assert [dict(r, index=0) for r in third] == first

    def test_sweep_streams_batch_runner_lines(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                spec = {"dataset": "redwine", "model": "svm_r",
                        "tau_grid": GRID, "e_values": [2, 3]}
                status, _head, text = await http(server.port, "POST",
                                                 "/v1/sweep", spec)
                return status, parse_lines(text)
        status, records = asyncio.run(run())
        assert status == 200
        kinds = [record["type"] for record in records]
        assert kinds[0] == "sweep" and kinds[-1] == "summary"
        assert kinds.count("coeff") == 2 and kinds.count("request") == 2
        assert records[-1]["kind"] == "sweep"

    def test_sweep_lines_byte_identical_to_run_sweep(self, tmp_path):
        spec = {"dataset": "redwine", "model": "svm_r", "tau_grid": GRID,
                "e_values": [2, 3]}

        async def run():
            async with running_server(tmp_path) as server:
                return await http(server.port, "POST", "/v1/sweep",
                                  dict(spec))
        _status, _head, served = asyncio.run(run())

        service = ExplorationService(DesignStore(tmp_path / "serial.sqlite"))
        out = io.StringIO()
        service.run_sweep(ExploreRequest.from_dict(
            {"dataset": "redwine", "model": "svm_r", "tau_grid": GRID}),
            (2, 3), out)

        def stable(text):  # the per-run fields dropped, bytes otherwise
            lines = []
            for line in text.splitlines():
                record = json.loads(line)
                if "runtime_s" in record or "store" in record:
                    record.pop("runtime_s", None)
                    record.pop("store", None)
                    line = json.dumps(record)
                lines.append(line)
            return lines
        assert len(served.splitlines()) > 4
        assert stable(served) == stable(out.getvalue())

    def test_warm_response_is_a_constant_number_of_writes(
            self, tmp_path, monkeypatch):
        writes: dict[int, list[bytes]] = {}
        original = asyncio.StreamWriter.write

        def counted(self, data):
            writes.setdefault(id(self), []).append(bytes(data))
            return original(self, data)
        monkeypatch.setattr(asyncio.StreamWriter, "write", counted)
        small = REQ
        large = {key: value for key, value in REQ.items()
                 if key != "tau_grid"}  # the paper's 20-point grid

        async def warm_writes(server, request):
            await http(server.port, "POST", "/v1/explore", request)
            writes.clear()
            _s, _h, body = await http(server.port, "POST", "/v1/explore",
                                      request)
            served = [chunks for chunks in writes.values()
                      if chunks[0].startswith(b"HTTP/1.1 200")]
            assert len(served) == 1
            return len(design_lines(body)), len(served[0])

        async def run():
            async with running_server(tmp_path) as server:
                return (await warm_writes(server, small),
                        await warm_writes(server, large))
        (n_small, w_small), (n_large, w_large) = asyncio.run(run())
        assert n_large > n_small > 0
        # head, the request's lines, the summary — whatever N is
        assert w_small == w_large == 3

    @pytest.mark.parametrize("sse", [False, True], ids=["ndjson", "sse"])
    def test_stream_fault_leaves_only_complete_lines(self, tmp_path, sse):
        headers = {"Accept": "text/event-stream"} if sse else {}
        sep = "\n\n" if sse else "\n"

        async def run():
            async with running_server(tmp_path) as server:
                _s, _h, full = await http(server.port, "POST",
                                          "/v1/explore", REQ, headers)
                cut = {}
                for k in (1, 2, 4):
                    with installed(FaultInjector.parse(
                            f"server.stream@index={k}:1=err")):
                        cut[k] = await http(server.port, "POST",
                                            "/v1/explore", REQ, headers)
                return full, cut
        full, cut = asyncio.run(run())
        full_lines = full.split(sep)[:-1]
        assert len(full_lines) > 4
        for k, (status, _head, body) in cut.items():
            assert status == 200
            assert body == "" or body.endswith(sep)  # no partial line
            lines = body.split(sep)[:-1] if body else []
            assert len(lines) == k - 1
            for line, whole in zip(lines, full_lines):
                if sse:
                    assert line.startswith("data: ")
                    line, whole = line[6:], whole[6:]
                record = json.loads(line)
                if record["type"] == "design":
                    assert line == whole

    def test_invalid_requests_rejected(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                port = server.port
                results = {}
                results["404"] = await http(port, "GET", "/v1/nope")
                results["405"] = await http(port, "GET", "/v1/explore")
                bad = await asyncio.open_connection("127.0.0.1", port)
                reader, writer = bad
                writer.write(b"POST /v1/explore HTTP/1.1\r\n"
                             b"Content-Length: 7\r\n\r\nnotjson")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                results["badjson"] = int(raw.split()[1])
                results["badfield"] = await http(
                    port, "POST", "/v1/explore", {**REQ, "nope": 1})
                results["badtenant"] = await http(
                    port, "POST", "/v1/explore", REQ,
                    {"X-Tenant": "no/slashes"})
                results["badsweep"] = await http(
                    port, "POST", "/v1/sweep",
                    {"dataset": "redwine", "model": "svm_r"})
                return results
        results = asyncio.run(run())
        assert results["404"][0] == 404
        assert results["405"][0] == 405
        assert results["badjson"] == 400
        assert results["badfield"][0] == 400
        assert "unknown request fields" in results["badfield"][2]
        assert results["badtenant"][0] == 400
        assert results["badsweep"][0] == 400


class TestTenancy:
    def test_namespace_changes_base_fingerprint(self):
        plain = base_fingerprint_from_parts("nl", "ev", "exact")
        tenant1 = base_fingerprint_from_parts("nl", "ev", "exact",
                                              namespace="t1")
        tenant2 = base_fingerprint_from_parts("nl", "ev", "exact",
                                              namespace="t2")
        assert len({plain, tenant1, tenant2}) == 3
        # the empty namespace is byte-compatible with pre-namespace keys
        assert plain == base_fingerprint_from_parts("nl", "ev", "exact",
                                                    namespace="")

    def test_tenants_get_isolated_stores_and_keys(
            self, tmp_path, monkeypatch):
        runs = []
        original = ExplorationJob.run

        def counted(self, *args, **kwargs):
            runs.append(self.grid_key())
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ExplorationJob, "run", counted)

        async def run():
            async with running_server(tmp_path) as server:
                _s, _h, body_a = await http(server.port, "POST",
                                            "/v1/explore", REQ,
                                            {"X-Tenant": "alice"})
                _s, _h, body_b = await http(server.port, "POST",
                                            "/v1/explore", REQ,
                                            {"X-Tenant": "bob"})
                return body_a, body_b
        body_a, body_b = asyncio.run(run())
        # distinct content keys → two computations, two store files
        assert len(runs) == 2 and runs[0] != runs[1]
        root = tmp_path / "stores"
        assert (root / "alice.sqlite").is_file()
        assert (root / "bob.sqlite").is_file()
        assert DesignStore(root / "alice.sqlite",
                           namespace="alice").stats()["grids"] == 1
        # isolation never changes the physics: identical design lists
        assert design_lines(body_a) == design_lines(body_b)


class TestConcurrency:
    def test_32_clients_coalesce_to_one_computation_per_key(
            self, tmp_path, monkeypatch):
        runs = []
        original = ExplorationJob.run

        def counted(self, *args, **kwargs):
            runs.append(self.grid_key())
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ExplorationJob, "run", counted)

        grid_a = [0.85, 0.9, 0.95, 0.99]
        grid_b = [0.8, 0.88, 0.96]
        requests = [{**REQ, "tau_grid": grid_a if i % 2 else grid_b}
                    for i in range(32)]

        async def run():
            async with running_server(tmp_path, concurrency=4,
                                      queue_depth=32) as server:
                results = await asyncio.gather(*[
                    http(server.port, "POST", "/v1/explore", request)
                    for request in requests])
                store = server._service("default").store
                intact = store.integrity_ok()
                return results, intact
        results, intact = asyncio.run(run())

        assert all(status == 200 for status, _h, _b in results)
        by_grid: dict[str, list] = {}
        for (status, _head, body), request in zip(results, requests):
            records = parse_lines(body)
            assert records[-1]["type"] == "summary"  # complete stream
            by_grid.setdefault(json.dumps(request["tau_grid"]),
                               []).append(design_lines(body))
        # every client of a key saw the identical design list
        for streams in by_grid.values():
            assert all(stream == streams[0] for stream in streams[1:])
        # exactly one computation per content key
        assert len(runs) == len(set(runs)) == 2
        assert intact

    def test_queue_full_gets_429_with_retry_after(
            self, tmp_path, monkeypatch):
        gate, entered = gate_explore(monkeypatch)

        async def run():
            async with running_server(tmp_path, concurrency=1,
                                      queue_depth=0) as server:
                first = asyncio.ensure_future(
                    http(server.port, "POST", "/v1/explore", REQ))
                for _ in range(500):
                    if server._admitted >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert server._admitted >= 1
                # distinct content key, same circuit: must queue → 429
                busy = await http(server.port, "POST", "/v1/explore",
                                  {**REQ, "tau_grid": [0.8, 0.9]})
                gate.set()
                done = await first
                return busy, done
        busy, done = asyncio.run(run())
        assert entered.is_set()
        status, head, body = busy
        assert status == 429
        assert "Retry-After: 1" in head
        assert "queue full" in json.loads(body)["error"]
        assert done[0] == 200
        assert parse_lines(done[2])[-1]["type"] == "summary"

    def test_stored_grid_is_served_while_the_queue_is_full(
            self, tmp_path, monkeypatch):
        gate, entered = gate_explore(monkeypatch)

        async def run():
            async with running_server(tmp_path, concurrency=1,
                                      queue_depth=0) as server:
                gate.set()
                _s, _h, first = await http(server.port, "POST",
                                           "/v1/explore", REQ)
                gate.clear()
                entered.clear()
                cold = asyncio.ensure_future(
                    http(server.port, "POST", "/v1/explore",
                         {**REQ, "tau_grid": [0.8, 0.9]}))
                for _ in range(500):
                    if entered.is_set():
                        break
                    await asyncio.sleep(0.01)
                assert entered.is_set() and server._admitted == 1
                warm = await http(server.port, "POST", "/v1/explore", REQ)
                gate.set()
                await cold
                return first, warm, dict(server.counters)
        first, warm, counters = asyncio.run(run())
        status, _head, body = warm
        assert status == 200  # not 429: a stored grid costs no slot
        assert parse_lines(body)[0]["grid_hit"] is True
        assert design_lines(body) == design_lines(first)
        assert counters["computed"] == 2  # the two cold requests only
        assert counters["rejected_busy"] == 0


class TestDrain:
    def test_in_process_drain_finishes_inflight_stream(
            self, tmp_path, monkeypatch):
        gate, entered = gate_explore(monkeypatch)

        async def run():
            async with running_server(tmp_path, concurrency=1) as server:
                inflight = asyncio.ensure_future(
                    http(server.port, "POST", "/v1/explore", REQ))
                for _ in range(500):
                    if server._admitted >= 1:
                        break
                    await asyncio.sleep(0.01)
                server.begin_drain()
                gate.set()
                status, _head, body = await inflight
                await asyncio.wait_for(server.stopped.wait(), timeout=30)
                refused = False
                try:
                    await asyncio.open_connection("127.0.0.1",
                                                  server.port)
                except OSError:
                    refused = True
                return status, body, refused
        status, body, refused = asyncio.run(run())
        assert entered.is_set()
        assert status == 200
        records = parse_lines(body)
        assert records[-1]["type"] == "summary"  # stream completed
        assert any(r["type"] == "design" for r in records)
        assert refused  # no new connections after drain began

    def test_sigterm_mid_stream_drains_and_reconnect_is_warm(
            self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        store_root = tmp_path / "stores"

        def spawn():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port",
                 "0", "--store-root", str(store_root)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                env=env, text=True, bufsize=1, cwd=str(tmp_path))
            ready = json.loads(proc.stdout.readline())
            assert ready["type"] == "serving"
            return proc, ready["port"]

        def post_explore(port, request, after_headers=None):
            body = json.dumps(request).encode()
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=120) as sock:
                sock.sendall(
                    b"POST /v1/explore HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\n\r\n" + body)
                blob = b""
                while b"\r\n\r\n" not in blob:
                    chunk = sock.recv(65536)
                    assert chunk, "connection closed before headers"
                    blob += chunk
                if after_headers is not None:
                    after_headers()
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    blob += chunk
            head, _sep, payload = blob.partition(b"\r\n\r\n")
            return int(head.split()[1]), payload.decode()

        request = {**REQ, "tau_grid": [0.8, 0.85, 0.9, 0.95, 0.99]}
        proc, port = spawn()
        try:
            # SIGTERM lands while the response is in flight (headers
            # received, body still streaming/computing): graceful drain
            # must finish this stream, then exit 0.
            status, body = post_explore(
                port, request,
                after_headers=lambda: proc.send_signal(signal.SIGTERM))
            assert status == 200
            records = parse_lines(body)
            assert records[-1]["type"] == "summary"
            cold_designs = design_lines(body)
            assert cold_designs
            out, _err = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert json.loads(out.splitlines()[-1])["type"] == "drained"
        finally:
            if proc.poll() is None:
                proc.kill()

        # a reconnecting client (fresh server, same stores) is warm
        proc2, port2 = spawn()
        try:
            status, body = post_explore(port2, request)
            assert status == 200
            records = parse_lines(body)
            assert records[0]["grid_hit"] is True
            assert design_lines(body) == cold_designs
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc2.kill()
