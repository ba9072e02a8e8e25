"""Chaos benchmark: crash consistency of the exploration service.

Sweeps a matrix of deterministic fault schedules
(:mod:`repro.service.faults`) over real explorations and asserts the
**crash-consistency invariant**: whatever faults fire — store locks,
corrupt database files, failing engines, dying pool workers, hung
chains, SIGKILLed processes — the design list that finally comes out of
the store is *identical* to a fault-free cold run.  Any divergence
exits non-zero, so CI treats consistency as a hard gate, not a metric.

Scenario classes (one row per (circuit, scenario) in the report):

* ``baseline``         — no faults (also records the reference timing);
* ``store-*``          — injected busy/locked inside store writes,
  absorbed by the store's bounded retry;
* ``store-corrupt``    — a garbage store file quarantined to a
  ``.corrupt-<n>`` sidecar and rebuilt;
* ``shard-fault``      — a shard's compute raises once; job-level retry;
* ``assemble-fault``   — the final assembly raises; restart resumes
  from checkpoints;
* ``engine-fault``     — the batched walk fails; the engine ladder
  degrades (batched → compiled → bigint);
* ``worker-exit``      — a pool worker dies mid-chain (``os._exit``);
  the pool is respawned, the shard retried;
* ``hung-chain``       — a chain sleeps past the shard timeout; the
  pool is killed and respawned;
* ``sigkill-resume``   — a real subprocess SIGKILLs itself mid-grid
  (``REPRO_FAULTS`` + marker dir make the kill one-shot); a second
  process resumes from the checkpoints;
* ``seeded-<n>``       — a :func:`~repro.service.faults.seeded_schedule`
  soak over the store/job sites, restarted on every surfaced fault;
* ``serve-*``          — the same invariant over the HTTP transport
  (``repro serve``): an enqueue fault surfaced to one client and
  retried, store contention absorbed while serving, and a real server
  subprocess SIGKILLed mid-stream by ``server.stream:2=kill`` — the
  restarted server must serve the identical designs warm;
* ``fleet-*``          — the multi-host fleet under network chaos:
  a real coordinator subprocess SIGKILLed mid-job and restarted on the
  same port (the worker's retry policy rides it out), a worker
  SIGKILLed mid-shard whose lease a peer reclaims, a partition during
  checkpoint upload (the ack lost *after* the server committed —
  idempotent replay), and seeded soaks over the ``coord.request`` /
  ``coord.response`` network sites.

Run standalone (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_faults.py           # full
    PYTHONPATH=src python benchmarks/bench_faults.py --quick   # CI

Quick mode shrinks the circuit set, grid, and seed count so the whole
matrix finishes in well under a minute while still firing every fault
class at least once.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time
import warnings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.pruning import NetlistPruner  # noqa: E402
from repro.eval.accuracy import CircuitEvaluator  # noqa: E402
from repro.experiments.zoo import get_case  # noqa: E402
from repro.hw.bespoke import build_bespoke_netlist  # noqa: E402
from repro.service import (  # noqa: E402
    DesignStore,
    ExplorationJob,
    ExplorationService,
    ExploreRequest,
    JobReport,
)
from repro.service.faults import (  # noqa: E402
    ENV_SCHEDULE,
    ENV_STATE,
    FaultInjector,
    installed,
    seeded_schedule,
)

OUTPUT = REPO_ROOT / "BENCH_faults.json"

CIRCUITS = [("redwine", "svm_r"), ("redwine", "mlp_c")]
SMOKE_CIRCUITS = [("redwine", "svm_r")]
FULL_GRID = (0.80, 0.85, 0.90, 0.95, 0.97, 0.99)
SMOKE_GRID = (0.85, 0.90, 0.95, 0.99)

# Seeds of the random-schedule soak (deterministically derived faults
# over the store/job sites — see seeded_schedule).
FULL_SEEDS = range(5)
SMOKE_SEEDS = range(2)
SEEDED_SITES = ["store.put_shard", "store.put_variants", "store.put_grid",
                "job.shard", "job.assemble"]

# A run interrupted by a surfaced fault (anything the supervision
# chose to re-raise) is restarted, modeling a crash-looped worker; the
# invariant is that the *final* designs still match, in at most:
MAX_RESTARTS = 4

SIGKILL_SPEC = "job.shard@index=1:1=kill"

# The resumed half of the sigkill scenario, run as a real subprocess so
# the kill takes the whole interpreter with it.  Placeholders are
# substituted via %-formatting (no brace escaping games).
SIGKILL_SCRIPT = """\
import json, sys
sys.path.insert(0, %(src)r)
from repro.core.pruning import NetlistPruner
from repro.eval.accuracy import CircuitEvaluator
from repro.experiments.zoo import get_case
from repro.hw.bespoke import build_bespoke_netlist
from repro.service import DesignStore, ExplorationJob
from repro.service.store import design_to_dict

case = get_case(%(dataset)r, %(model)r)
netlist = build_bespoke_netlist(case.quant_model)
evaluator = CircuitEvaluator.from_split(
    case.quant_model, case.split.X_train, case.split.X_test,
    case.split.y_test)
job = ExplorationJob(NetlistPruner(netlist, evaluator, %(grid)r),
                     DesignStore(%(store)r), shard_size=2)
designs = job.run()
json.dump([design_to_dict(d) for d in designs], open(%(out)r, "w"))
"""


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class Case:
    """One prepared circuit plus its fault-free reference designs."""

    def __init__(self, dataset: str, model: str, grid) -> None:
        self.dataset, self.model, self.grid = dataset, model, tuple(grid)
        case = get_case(dataset, model)
        self.netlist = build_bespoke_netlist(case.quant_model)
        self.evaluator = CircuitEvaluator.from_split(
            case.quant_model, case.split.X_train, case.split.X_test,
            case.split.y_test)
        self.reference = None  # filled by the baseline scenario

    def job(self, store_path, **pruner_kwargs) -> ExplorationJob:
        pruner = NetlistPruner(self.netlist, self.evaluator, self.grid,
                               **pruner_kwargs)
        return ExplorationJob(pruner, DesignStore(store_path),
                              shard_size=2)


def run_with_restarts(case: Case, scratch: pathlib.Path,
                      **pruner_kwargs) -> tuple[list, JobReport, int]:
    """One store-backed exploration, restarted on surfaced faults.

    Each restart resumes from the store's checkpoints — exactly what a
    supervisor (or the fleet's lease reclamation) does to a crashed
    worker.  Raises after :data:`MAX_RESTARTS` genuine failures.
    """
    store_path = scratch / "store.sqlite"
    report = JobReport("")
    for restart in range(MAX_RESTARTS + 1):
        try:
            designs = case.job(store_path, **pruner_kwargs).run(
                report=report)
            return designs, report, restart
        except Exception:
            if restart == MAX_RESTARTS:
                raise
    raise AssertionError("unreachable")


def in_process_scenarios(quick: bool):
    """(name, schedule spec, pruner kwargs) of the installed-injector runs."""
    scenarios = [
        ("store-locked", "store.put_shard:1=err-locked", {}),
        ("store-busy", "store.put_variants:1=err-busy", {}),
        ("shard-fault", "job.shard@index=0:1=err", {}),
        ("assemble-fault", "job.assemble:1=err", {}),
        ("engine-fault", "engine.batched:1=err", {}),
    ]
    seeds = SMOKE_SEEDS if quick else FULL_SEEDS
    scenarios += [(f"seeded-{seed}",
                   seeded_schedule(seed, SEEDED_SITES), {})
                  for seed in seeds]
    return scenarios


def env_scenarios():
    """(name, env schedule, pruner kwargs) of the pool-worker fault runs.

    These go through ``REPRO_FAULTS`` because the fault fires inside a
    *pool worker* process, and a state dir keeps each entry one-shot
    across the respawned pools.
    """
    return [
        ("worker-exit", "worker.chain:1=exit",
         {"n_workers": 2, "retry_backoff_s": 0.0}),
        ("hung-chain", "worker.chain:1=sleep(30)",
         {"n_workers": 2, "retry_backoff_s": 0.0, "shard_timeout_s": 2.0}),
    ]


def run_scenario(case: Case, name: str, spec: str, pruner_kwargs: dict,
                 via_env: bool) -> dict:
    with tempfile.TemporaryDirectory() as td:
        scratch = pathlib.Path(td)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if via_env:
                state = scratch / "fault-state"
                os.environ[ENV_SCHEDULE] = spec
                os.environ[ENV_STATE] = str(state)
                try:
                    elapsed, (designs, report, restarts) = _timed(
                        lambda: run_with_restarts(case, scratch,
                                                  **pruner_kwargs))
                finally:
                    os.environ.pop(ENV_SCHEDULE, None)
                    os.environ.pop(ENV_STATE, None)
            else:
                with installed(FaultInjector.parse(spec)):
                    elapsed, (designs, report, restarts) = _timed(
                        lambda: run_with_restarts(case, scratch,
                                                  **pruner_kwargs))
    return {
        "scenario": name,
        "spec": spec,
        "identical": designs == case.reference,
        "n_designs": len(designs),
        "restarts": restarts,
        "runtime_s": round(elapsed, 3),
        "telemetry": {
            "shards_retried": report.shards_retried,
            "pool_respawns": report.pool_respawns,
            "serial_fallbacks": report.serial_fallbacks,
            "engine_fallbacks": report.engine_fallbacks,
            "shard_timeouts": report.shard_timeouts,
        },
    }


def run_corrupt_scenario(case: Case) -> dict:
    """A pre-corrupted store file: quarantine, rebuild, full identity."""
    with tempfile.TemporaryDirectory() as td:
        scratch = pathlib.Path(td)
        store_path = scratch / "store.sqlite"
        store_path.write_bytes(b"not a sqlite database at all" * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            elapsed, designs = _timed(
                lambda: case.job(store_path).run())
        quarantined = (scratch / "store.sqlite.corrupt-0").exists()
    return {
        "scenario": "store-corrupt",
        "spec": "<garbage store file>",
        "identical": designs == case.reference and quarantined,
        "n_designs": len(designs),
        "restarts": 0,
        "runtime_s": round(elapsed, 3),
        "telemetry": {"quarantined": quarantined},
    }


def run_sigkill_scenario(case: Case) -> dict:
    """A real SIGKILL mid-grid, then a resumed subprocess.

    The first process dies on shard 1 (the marker dir makes the kill
    one-shot); the second resumes from the surviving checkpoints and
    must reproduce the reference designs exactly.
    """
    from repro.service.store import design_to_dict

    with tempfile.TemporaryDirectory() as td:
        scratch = pathlib.Path(td)
        out = scratch / "designs.json"
        script = SIGKILL_SCRIPT % {
            "src": str(REPO_ROOT / "src"),
            "dataset": case.dataset, "model": case.model,
            "grid": case.grid, "store": str(scratch / "store.sqlite"),
            "out": str(out),
        }
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_FAULTS=SIGKILL_SPEC,
                   REPRO_FAULTS_STATE=str(scratch / "fault-state"))
        start = time.perf_counter()
        first = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, timeout=600)
        killed = first.returncode == -9
        second = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, timeout=600)
        elapsed = time.perf_counter() - start
        resumed = second.returncode == 0 and out.exists()
        identical = False
        if resumed:
            identical = json.load(open(out)) \
                == [design_to_dict(d) for d in case.reference]
    return {
        "scenario": "sigkill-resume",
        "spec": SIGKILL_SPEC,
        "identical": killed and identical,
        "n_designs": len(case.reference) if resumed else 0,
        "restarts": 1,
        "runtime_s": round(elapsed, 3),
        "telemetry": {"first_returncode": first.returncode,
                      "second_returncode": second.returncode},
    }


# Kill the server on its 2nd streamed line (the request header line
# rendered, possibly unsent; first design pending): a client-visible
# mid-stream death.
SERVE_KILL_SPEC = "server.stream:2=kill"


def _server_request(case: Case) -> dict:
    return {"dataset": case.dataset, "model": case.model,
            "base": "exact", "tau_grid": list(case.grid)}


def _expected_design_lines(case: Case) -> list[dict]:
    """The design records ``run_manifest`` (and so the server) streams."""
    expected = []
    for design in case.reference:
        duplicate = design.duplicate_of
        expected.append({
            "type": "design", "index": 0,
            "tau_c": design.tau_c, "phi_c": design.phi_c,
            "n_pruned": design.n_pruned,
            "duplicate_of": None if duplicate is None
            else [duplicate[0], duplicate[1]],
            **design.record.to_dict(),
        })
    return expected


def _served_designs(body: str) -> list[dict]:
    return [json.loads(line) for line in body.splitlines()
            if '"type": "design"' in line]


async def _async_explore(port: int, request: dict):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(request).encode()
    writer.write((f"POST /v1/explore HTTP/1.1\r\nHost: b\r\n"
                  f"Connection: close\r\nContent-Length: {len(data)}"
                  "\r\n\r\n").encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    head, _sep, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload.decode()


def _sync_explore(port: int, request: dict, timeout: float = 600.0):
    """Blocking client tolerant of the server dying mid-stream."""
    data = json.dumps(request).encode()
    blob = b""
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=timeout) as sock:
            sock.sendall(b"POST /v1/explore HTTP/1.1\r\nHost: b\r\n"
                         b"Connection: close\r\nContent-Length: "
                         + str(len(data)).encode() + b"\r\n\r\n" + data)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                blob += chunk
    except (ConnectionError, OSError):
        pass  # the kill scenario drops the socket mid-stream
    head, _sep, payload = blob.partition(b"\r\n\r\n")
    parts = head.split()
    return (int(parts[1]) if len(parts) > 1 else 0,
            payload.decode(errors="replace"))


def run_serve_fault_scenario(case: Case, name: str, spec: str) -> dict:
    """An injected fault under the HTTP server.

    The client retries on any surfaced error (a 4xx/5xx or an
    ``error`` line); the designs that finally stream out must be the
    reference list — the transport analogue of ``run_with_restarts``.
    """
    from repro.service.server import ExploreServer, ServeConfig

    request = _server_request(case)

    async def run():
        with tempfile.TemporaryDirectory() as td:
            config = ServeConfig(
                port=0, store_root=str(pathlib.Path(td) / "stores"),
                concurrency=1, queue_depth=4)
            server = await ExploreServer(config).start()
            attempts = 0
            designs = []
            try:
                with installed(FaultInjector.parse(spec)):
                    for _attempt in range(MAX_RESTARTS + 1):
                        attempts += 1
                        status, body = await _async_explore(server.port,
                                                            request)
                        records = [json.loads(line)
                                   for line in body.splitlines()
                                   if line.strip()]
                        failed = status != 200 or any(
                            record["type"] == "error"
                            for record in records)
                        if not failed:
                            designs = [record for record in records
                                       if record["type"] == "design"]
                            break
            finally:
                await server.shutdown()
            return attempts, designs

    elapsed, (attempts, designs) = _timed(lambda: asyncio.run(run()))
    return {
        "scenario": name,
        "spec": spec,
        "identical": designs == _expected_design_lines(case),
        "n_designs": len(designs),
        "restarts": attempts - 1,
        "runtime_s": round(elapsed, 3),
        "telemetry": {"attempts": attempts},
    }


def run_serve_kill_scenario(case: Case) -> dict:
    """A real server subprocess SIGKILLed mid-stream, then restarted.

    ``server.stream:2=kill`` (one-shot via the marker dir) takes the
    whole server down while it renders the second line of the stream.
    The server writes a batch of lines at once, so the request header
    line rendered before it may not have gone out: the client sees at
    most the HTTP head and that line, never the design list.  The
    restarted server must serve the identical designs warm off the
    surviving store.
    """
    request = _server_request(case)
    with tempfile.TemporaryDirectory() as td:
        scratch = pathlib.Path(td)
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_FAULTS=SERVE_KILL_SPEC,
                   REPRO_FAULTS_STATE=str(scratch / "fault-state"))

        def spawn():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port",
                 "0", "--store-root", str(scratch / "stores")],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                env=env, text=True, bufsize=1)
            ready = json.loads(proc.stdout.readline())
            return proc, ready["port"]

        start = time.perf_counter()
        proc, port = spawn()
        _status, first_body = _sync_explore(port, request)
        proc.wait(timeout=600)
        killed = proc.returncode == -signal.SIGKILL
        truncated = not _served_designs(first_body) \
            or len(_served_designs(first_body)) < len(case.reference)

        proc2, port2 = spawn()
        try:
            status2, body2 = _sync_explore(port2, request)
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc2.kill()
        elapsed = time.perf_counter() - start
        designs = _served_designs(body2)
        warm = [json.loads(line) for line in body2.splitlines()
                if '"type": "request"' in line]
    return {
        "scenario": "serve-kill-mid-stream",
        "spec": SERVE_KILL_SPEC,
        "identical": killed and truncated and status2 == 200
        and designs == _expected_design_lines(case),
        "n_designs": len(designs),
        "restarts": 1,
        "runtime_s": round(elapsed, 3),
        "telemetry": {"first_returncode": proc.returncode,
                      "resumed_warm": bool(warm)
                      and bool(warm[0].get("grid_hit"))},
    }


# -- multi-host fleet: network chaos ----------------------------------

# The worker dies with SIGKILL mid-shard (lease left dangling, ttl
# bounds how long a peer waits to reclaim it).
FLEET_WORKER_KILL_SPEC = "job.shard@index=0:1=kill"
# The coordinator dies inside the first checkpoint write; the marker
# dir makes the kill one-shot so the restarted coordinator survives.
FLEET_COORD_KILL_SPEC = "store.put_shard:1=kill"
# The ack of a committed checkpoint upload is lost on the wire: the
# worker's retry replays the PUT, which must be idempotent.
FLEET_PARTITION_SPEC = "coord.response@method=PUT:1=partial-body"

NETWORK_SITES = ["coord.request", "coord.response"]
NETWORK_ACTIONS = ("drop", "delay", "error-503", "partial-body")
FULL_NET_SEEDS = range(3)
SMOKE_NET_SEEDS = range(1)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()


def _spawn_coordinator(scratch: pathlib.Path, port: int = 0,
                       env_extra: dict | None = None):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
         "--store-root", str(scratch / "stores")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True, bufsize=1)
    ready = json.loads(proc.stdout.readline())
    return proc, ready["port"]


def _spawn_fleet_worker(scratch: pathlib.Path, case: Case, port: int,
                        name: str, env_extra: dict | None = None,
                        ttl_s: float = 300.0) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.update(env_extra or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "explore",
         "--dataset", case.dataset, "--model", case.model,
         "--base", "exact",
         "--tau", *[str(t) for t in case.grid],
         "--shard-size", "1",
         "--coordinator", f"http://127.0.0.1:{port}",
         "--worker-id", name,
         "--lease-ttl", str(ttl_s),
         "--out", str(scratch / f"{name}.jsonl")],
        env=env, cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _fleet_store_designs(case: Case, scratch: pathlib.Path):
    """Read the coordinator store back serially: (designs, grid_hit)."""
    service = ExplorationService(
        DesignStore(scratch / "stores" / "default.sqlite"))
    request = ExploreRequest(dataset=case.dataset, model=case.model,
                             base="exact", tau_grid=case.grid)
    designs, report = service.explore(request)
    return designs, report.grid_hit


def run_fleet_worker_kill_scenario(case: Case) -> dict:
    """A fleet worker SIGKILLed mid-shard; a peer reclaims its lease.

    The victim dies holding shard 0's lease (short ttl); the survivor
    drains the rest, waits out the dangling lease, reclaims, and
    finalizes a grid identical to the serial reference.
    """
    with tempfile.TemporaryDirectory() as td:
        scratch = pathlib.Path(td)
        start = time.perf_counter()
        coordinator, port = _spawn_coordinator(scratch)
        try:
            victim = _spawn_fleet_worker(
                scratch, case, port, "victim", ttl_s=2.0,
                env_extra={"REPRO_FAULTS": FLEET_WORKER_KILL_SPEC,
                           "REPRO_FAULTS_STATE":
                               str(scratch / "fault-state")})
            victim.communicate(timeout=600)
            killed = victim.returncode == -signal.SIGKILL
            survivor = _spawn_fleet_worker(scratch, case, port,
                                           "survivor", ttl_s=2.0)
            _out, err = survivor.communicate(timeout=600)
            survived = survivor.returncode == 0
        finally:
            _stop(coordinator)
        elapsed = time.perf_counter() - start
        designs, grid_hit = _fleet_store_designs(case, scratch)
        report = {}
        if survived:
            report = json.loads((scratch / "survivor.jsonl")
                                .read_text().splitlines()[0])
    return {
        "scenario": "fleet-worker-kill",
        "spec": FLEET_WORKER_KILL_SPEC,
        "identical": killed and survived and grid_hit
        and designs == case.reference,
        "n_designs": len(designs),
        "restarts": 1,
        "runtime_s": round(elapsed, 3),
        "telemetry": {"victim_returncode": victim.returncode,
                      "survivor_stderr_tail":
                          err.decode(errors="replace")[-200:]
                          if not survived else "",
                      "survivor_shards":
                          report.get("shards_computed", []),
                      "survivor_finalized":
                          bool(report.get("finalized"))},
    }


def run_fleet_coord_kill_scenario(case: Case) -> dict:
    """The coordinator SIGKILLed mid-job, restarted on the same port.

    The kill fires inside the first shard-checkpoint write (before its
    transaction commits); the worker's in-flight request dies with the
    connection, its retry policy spans the restart, and the replayed
    upload lands on the revived coordinator.  One worker process runs
    the whole job across both coordinator incarnations.
    """
    with tempfile.TemporaryDirectory() as td:
        scratch = pathlib.Path(td)
        env_extra = {"REPRO_FAULTS": FLEET_COORD_KILL_SPEC,
                     "REPRO_FAULTS_STATE": str(scratch / "fault-state")}
        start = time.perf_counter()
        coordinator, port = _spawn_coordinator(scratch,
                                               env_extra=env_extra)
        revived = None
        try:
            worker = _spawn_fleet_worker(scratch, case, port, "steady")
            coordinator.wait(timeout=600)
            killed = coordinator.returncode == -signal.SIGKILL
            # Supervisor-style restart: same port, same env (the marker
            # dir keeps the kill one-shot), well inside the worker's
            # retry deadline.
            revived, _port = _spawn_coordinator(scratch, port=port,
                                                env_extra=env_extra)
            _out, err = worker.communicate(timeout=600)
            finished = worker.returncode == 0
        finally:
            _stop(coordinator)
            if revived is not None:
                _stop(revived)
        elapsed = time.perf_counter() - start
        designs, grid_hit = _fleet_store_designs(case, scratch)
    return {
        "scenario": "fleet-coord-kill",
        "spec": FLEET_COORD_KILL_SPEC,
        "identical": killed and finished and grid_hit
        and designs == case.reference,
        "n_designs": len(designs),
        "restarts": 1,
        "runtime_s": round(elapsed, 3),
        "telemetry": {"coordinator_returncode": coordinator.returncode,
                      "worker_returncode": worker.returncode,
                      "worker_stderr_tail":
                          err.decode(errors="replace")[-200:]
                          if not finished else ""},
    }


def run_fleet_network_scenario(case: Case, name: str, spec: str) -> dict:
    """Client-side network chaos on one worker's coordinator link.

    The injected faults (drops, delays, 503s, torn responses) fire in
    the *worker's* client; every one must be absorbed by the retry
    policy with the final grid identical to the serial reference.
    """
    with tempfile.TemporaryDirectory() as td:
        scratch = pathlib.Path(td)
        start = time.perf_counter()
        coordinator, port = _spawn_coordinator(scratch)
        try:
            worker = _spawn_fleet_worker(
                scratch, case, port, "chaos",
                env_extra={"REPRO_FAULTS": spec})
            _out, err = worker.communicate(timeout=600)
            finished = worker.returncode == 0
        finally:
            _stop(coordinator)
        elapsed = time.perf_counter() - start
        designs, grid_hit = _fleet_store_designs(case, scratch)
    return {
        "scenario": name,
        "spec": spec,
        "identical": finished and grid_hit
        and designs == case.reference,
        "n_designs": len(designs),
        "restarts": 0,
        "runtime_s": round(elapsed, 3),
        "telemetry": {"worker_returncode": worker.returncode,
                      "worker_stderr_tail":
                          err.decode(errors="replace")[-200:]
                          if not finished else ""},
    }


def bench_circuit(dataset: str, model: str, grid, quick: bool) -> dict:
    case = Case(dataset, model, grid)

    with tempfile.TemporaryDirectory() as td:
        baseline_s, (case.reference, _report, _restarts) = _timed(
            lambda: run_with_restarts(case, pathlib.Path(td)))
    rows = [{
        "scenario": "baseline", "spec": "", "identical": True,
        "n_designs": len(case.reference), "restarts": 0,
        "runtime_s": round(baseline_s, 3), "telemetry": {},
    }]

    for name, spec, kwargs in in_process_scenarios(quick):
        rows.append(run_scenario(case, name, spec, kwargs, via_env=False))
    for name, spec, kwargs in env_scenarios():
        rows.append(run_scenario(case, name, spec, kwargs, via_env=True))
    rows.append(run_corrupt_scenario(case))
    rows.append(run_sigkill_scenario(case))
    rows.append(run_serve_fault_scenario(case, "serve-enqueue-fault",
                                         "server.enqueue:1=err"))
    rows.append(run_serve_fault_scenario(case, "serve-store-busy",
                                         "store.put_shard:1=err-locked"))
    rows.append(run_serve_kill_scenario(case))
    rows.append(run_fleet_worker_kill_scenario(case))
    rows.append(run_fleet_coord_kill_scenario(case))
    rows.append(run_fleet_network_scenario(case, "fleet-partition-upload",
                                           FLEET_PARTITION_SPEC))
    for seed in (SMOKE_NET_SEEDS if quick else FULL_NET_SEEDS):
        rows.append(run_fleet_network_scenario(
            case, f"fleet-net-seeded-{seed}",
            seeded_schedule(seed, NETWORK_SITES,
                            actions=NETWORK_ACTIONS)))

    for row in rows:
        status = "ok" if row["identical"] else "DIVERGED"
        print(f"  {row['scenario']:<22} {status:<9} "
              f"{row['runtime_s']:>7.3f}s  restarts={row['restarts']} "
              f"{row['spec']}")
    return {
        "dataset": dataset, "model": model,
        "tau_grid": list(grid),
        "scenarios": rows,
        "all_identical": all(row["identical"] for row in rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small circuit set / grid / seed count (CI)")
    parser.add_argument("--out", type=pathlib.Path, default=OUTPUT)
    args = parser.parse_args(argv)

    circuits = SMOKE_CIRCUITS if args.quick else CIRCUITS
    grid = SMOKE_GRID if args.quick else FULL_GRID

    results = []
    for dataset, model in circuits:
        print(f"[bench_faults] {dataset}/{model} "
              f"({'quick' if args.quick else 'full'})")
        results.append(bench_circuit(dataset, model, grid, args.quick))

    all_identical = all(entry["all_identical"] for entry in results)
    report = {
        "schema": 2,
        "quick": args.quick,
        "invariant": "designs under any injected fault schedule are "
                     "identical to a fault-free cold run",
        "circuits": results,
        "all_identical": all_identical,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_faults] wrote {args.out} "
          f"(all_identical={all_identical})")
    if not all_identical:
        print("[bench_faults] CRASH-CONSISTENCY INVARIANT VIOLATED",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
