"""End-to-end benchmark of the three user paths, with a traced run.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload explore-cold --seed 1 \\
        --seconds 10 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``explore-cold`` -- one client, closed loop: every request of the
  paper's 14 circuits x {exact, coeff} against a fresh ``repro serve``
  with an empty store, in seeded order;
* ``serve-warm`` -- a fresh ``repro serve`` whose store set-up filled
  with 12 grids; two clients, closed loop, seeded picks, every request
  a grid hit;
* ``cli-warm`` -- sequential fresh ``python -m repro.cli explore``
  processes against a store set-up filled with 4 coeff grids.

The load comes from this one process, with at most two connections or
child processes in flight.  Every design the program returns is checked
against the digest pinned in ``digests.json``.  With ``--trace 0`` the
programs run untouched and the end-to-end metrics are reported; with
``--trace 1`` every request goes in turn to a plain program and to
one started under ``shim.py`` (the layer wrappers of ``tracer.py``),
and the per-layer metrics plus the tracing overhead are reported.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workset import (BASES, DIGESTS, Order, check_output, load_digests,
                     request_set)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
clock = time.perf_counter

WORKLOADS = ("explore-cold", "serve-warm", "cli-warm")
CLIENTS = 2                   # serve-warm connections in flight
# Set-ups per run; setup_s is their median.  An explore-cold set-up is
# a bare server launch (about 1.3 s).  A serve-warm or cli-warm set-up
# fills a store (5-11 s on a 2-core host), which leaves no room for a
# second one in the 3420 s that 70 runs may take.  Toy size takes two.
SETUPS = {"explore-cold": 7, "serve-warm": 1, "cli-warm": 1}
# Measured operations per run, at least (and at least --seconds long).
MIN_OPS = {("serve-warm", False): 1000, ("serve-warm", True): 40,
           ("cli-warm", False): 20, ("cli-warm", True): 4}
# A traced cli-warm run makes this many plain/traced pairs of calls, so
# that it ends well within the 180 s run limit.
TRACED_CLI_CALLS = {False: 12, True: 2}
START_TIMEOUT_S = 120
OP_TIMEOUT_S = 150


@dataclass
class Op:
    """One measured operation: a streamed request or a CLI process.

    ``start`` and ``end`` are ``perf_counter`` readings.  On Linux that
    is one monotonic clock for every process, so the program's spans can
    be placed inside the operation that caused them.
    """

    name: str
    rid: str
    start: float
    end: float
    n_designs: int
    ok: bool
    reason: str = ""
    rss_mb: float = 0.0        # a CLI child's peak RSS
    spans: list | None = None  # a traced CLI child's spans

    @property
    def latency_s(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    """What one measured window produced.

    ``ops`` are the plain program's operations.  A traced run sends each
    request to a plain and to a traced program in turn, and
    ``traced_ops[i]`` is the traced neighbour of ``ops[i]``.
    """

    ops: list
    wall_s: float
    peak_rss_mb: float
    order: dict
    setup_s: list
    traced_ops: list = field(default_factory=list)
    span_sets: list = field(default_factory=list)
    store_bytes: int = 0


class Context:
    def __init__(self, workload: str, seed: int, seconds: float,
                 toy: bool, digests: dict, run_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.toy = toy
        self.digests = digests
        self.run_dir = run_dir
        self.requests = request_set(workload, toy)
        self._n = 0

    def fresh(self, stem: str) -> Path:
        """A new, unused path under the run directory."""
        self._n += 1
        return self.run_dir / f"{stem}-{self._n}"


def program_env(spans: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("REPRO_FAULTS", None)  # never inject faults into a measurement
    env.pop("REPRO_FAULTS_STATE", None)
    if spans is not None:
        env["PERFBENCH_SPANS"] = str(spans)
    return env


def repro_command(args: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "shim.py"), *args]
    return [sys.executable, "-m", "repro.cli", *args]


def dir_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file())


def drive(pick, targets: list, clients: int) -> list[tuple]:
    """Closed loop: ``clients`` threads run ``pick()`` until it is None.

    Each picked request goes to every target in turn (``target(request,
    rid) -> Op``), the first target alternating from one request to the
    next, so that a traced operation has its plain neighbour close in
    time.  Returns one tuple of ops per request, in target order.
    """
    lock = threading.Lock()
    count = itertools.count()
    rows: list[tuple] = []
    errors: list[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    request = pick()
                    n = next(count)
                if request is None:
                    return
                turn = list(range(len(targets)))
                ops = {k: targets[k](request, f"pb{n}.{k}")
                       for k in (turn if n % 2 == 0 else turn[::-1])}
                with lock:
                    rows.append(tuple(ops[k] for k in turn))
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return rows


def until(ctx: Context, order: Order, min_ops: int):
    """A ``pick`` that stops after ``min_ops`` picks and ``--seconds``
    (counted from its first call)."""
    start = None

    def pick():
        nonlocal start
        start = start or clock()
        if len(order.taken) >= min_ops and clock() - start >= ctx.seconds:
            return None
        return order.next()
    return pick


# -- repro serve -------------------------------------------------------


class Server:
    """A ``repro serve`` child on an ephemeral port; a context manager."""

    def __init__(self, ctx: Context, store_root: Path,
                 traced: bool) -> None:
        self.store_root = store_root
        self.spans = ctx.fresh("spans-serve") if traced else None
        self._log = open(ctx.run_dir / "serve.log", "ab")
        self.launched = clock()
        self.proc = subprocess.Popen(
            repro_command(["serve", "--port", "0",
                           "--store-root", str(store_root)], traced),
            cwd=ctx.run_dir, env=program_env(self.spans),
            stdout=subprocess.PIPE, stderr=self._log)
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.ready = clock()
        try:
            self.port = int(json.loads(line)["port"])
        except (ValueError, KeyError, TypeError):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r} "
                               f"(see {ctx.run_dir / 'serve.log'})")

    def reset_peak(self) -> None:
        """Start a new peak-RSS window: ``VmHWM`` drops to the current RSS."""
        Path(f"/proc/{self.proc.pid}/clear_refs").write_text("5")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = next(line.split()[1] for line in status.splitlines()
                   if line.startswith("VmHWM:"))
        return int(kib) / 1024

    def stop(self) -> list:
        """SIGTERM (graceful drain), wait; the traced child's spans."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.spans is None:
            return []
        if not self.spans.exists():
            raise RuntimeError("traced repro serve wrote no spans")
        return tracer.load(self.spans)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.returncode is None:
            self.stop()


def post(ctx: Context, port: int, request, rid: str) -> Op:
    """One ``POST /v1/explore``, timed from first byte sent to close."""
    body = json.dumps(request.manifest_entry()).encode()
    head = ("POST /v1/explore HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nX-Request-Id: {rid}\r\n"
            "Connection: close\r\n\r\n")
    chunks = []
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=OP_TIMEOUT_S) as sock:
        start = clock()
        sock.sendall(head.encode() + body)
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
        end = clock()
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0]
    if b" 200 " not in status:
        return Op(request.name, rid, start, end, 0, False,
                  status.decode("latin-1"))
    ok, n_designs, reason = check_output(payload, request, ctx.digests)
    return Op(request.name, rid, start, end, n_designs, ok, reason)


def populate(ctx: Context, server: Server) -> None:
    """Send each distinct request once (two in flight); all must pass."""
    pending = list(ctx.requests)
    rows = drive(lambda: pending.pop() if pending else None,
                 [functools.partial(post, ctx, server.port)], CLIENTS)
    bad = [op for (op,) in rows if not op.ok]
    if bad:
        raise RuntimeError(f"set-up request failed: {bad[0]}")


def launch(ctx: Context, setups: int, traced: bool,
           prepare) -> tuple[Server, list[float]]:
    """Set up ``setups`` times (launch, then ``prepare``); keep the last.

    Each set-up is timed from launch until ``prepare`` returns; every
    set-up but the last is stopped again.
    """
    server, times = None, []
    for _ in range(setups):
        if server is not None:
            server.stop()
        server = Server(ctx, ctx.fresh("stores"), traced)
        try:
            prepare(server)
        except BaseException:
            server.stop()
            raise
        times.append(clock() - server.launched)
    return server, times


def start_servers(ctx: Context, setups: int, traced: bool,
                  prepare) -> tuple[list[Server], list[float]]:
    """The plain server and, traced, a traced one beside it.

    Each has its own store root; ``setup_s`` times the plain one.
    """
    server, setup_s = launch(ctx, setups, False, prepare)
    servers = [server]
    if traced:
        try:
            servers.append(launch(ctx, 1, True, prepare)[0])
        except BaseException:
            server.stop()
            raise
    return servers, setup_s


def measure(ctx: Context, servers: list[Server], order: Order, pick,
            clients: int, setup_s: list[float]) -> Phase:
    """The closed loop against ``servers``; stops them at the end."""
    with contextlib.ExitStack() as stack:
        for server in servers:
            stack.enter_context(server)
            server.reset_peak()
        last = servers[-1]
        before = dir_bytes(last.store_root)
        since = clock()
        rows = drive(pick, [functools.partial(post, ctx, server.port)
                            for server in servers], clients)
        wall = clock() - since
        rss = servers[0].peak_rss_mb()
        n_bytes = dir_bytes(last.store_root) - before
        traced = len(servers) > 1
        span_sets = [(last.stop(), since)] if traced else []
    return Phase([row[0] for row in rows], wall, rss, order.record(),
                 setup_s, [row[-1] for row in rows] if traced else [],
                 span_sets, n_bytes)


# -- workloads ---------------------------------------------------------


def explore_cold(ctx: Context, setups: int, traced: bool = False) -> Phase:
    """One client, one pass over the request set on a fresh server.

    A pass (about 30 s on a 2-core host) is longer than ``--seconds``,
    so a run measures exactly one.
    """
    servers, setup_s = start_servers(ctx, setups, traced,
                                     lambda server: None)
    order = Order(ctx.requests, ctx.seed, group=len(BASES))

    def pick():
        if len(order.taken) < len(ctx.requests):
            return order.next()
        return None
    return measure(ctx, servers, order, pick, 1, setup_s)


def serve_warm(ctx: Context, setups: int, traced: bool = False) -> Phase:
    """Two clients against a server whose store the set-up filled."""
    servers, setup_s = start_servers(ctx, setups, traced,
                                     lambda server: populate(ctx, server))
    order = Order(ctx.requests, ctx.seed)
    pick = until(ctx, order, MIN_OPS[(ctx.workload, ctx.toy)])
    return measure(ctx, servers, order, pick, CLIENTS, setup_s)


def cli_call(ctx: Context, store: Path, traced: bool, request,
             rid: str) -> Op:
    """One fresh ``repro.cli explore`` process."""
    out = ctx.run_dir / "out.jsonl"
    out.unlink(missing_ok=True)
    span_file = ctx.fresh("spans-cli") if traced else None
    with open(ctx.run_dir / "cli.log", "ab") as log:
        start = clock()
        proc = subprocess.Popen(
            repro_command(["explore", *request.cli_args(),
                           "--store", str(store), "--out", str(out)],
                          traced),
            cwd=ctx.run_dir, env=program_env(span_file),
            stdout=subprocess.DEVNULL, stderr=log)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        _pid, status, usage = os.wait4(proc.pid, 0)
        end = clock()
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024
    if proc.returncode != 0:
        return Op(request.name, rid, start, end, 0, False,
                  f"exit code {proc.returncode}", rss_mb)
    # A CLI process has no request id: its spans belong to this call.
    spans = [(*span[:6], rid, span[7]) for span in tracer.load(span_file)] \
        if traced else None
    ok, n_designs, reason = check_output(out.read_bytes(), request,
                                         ctx.digests)
    return Op(request.name, rid, start, end, n_designs, ok, reason, rss_mb,
              spans)


def fill_store(ctx: Context) -> tuple[Path, float]:
    """``repro.cli serve-batch`` fills a fresh store: (store, seconds)."""
    store = ctx.fresh("store") / "designs.sqlite"
    store.parent.mkdir(parents=True)
    manifest = store.parent / "manifest.json"
    manifest.write_text(json.dumps(
        [request.manifest_entry() for request in ctx.requests]))
    with open(ctx.run_dir / "cli.log", "ab") as log:
        start = clock()
        code = subprocess.run(
            repro_command(["serve-batch", "--manifest", str(manifest),
                           "--store", str(store),
                           "--out", str(store.parent / "fill.jsonl")],
                          traced=False),
            cwd=ctx.run_dir, env=program_env(), stdout=subprocess.DEVNULL,
            stderr=log, timeout=OP_TIMEOUT_S).returncode
        elapsed = clock() - start
    if code != 0:
        raise RuntimeError(f"set-up serve-batch exited {code}")
    return store, elapsed


def cli_warm(ctx: Context, setups: int, traced: bool = False) -> Phase:
    """Sequential fresh CLI processes, every one a grid hit."""
    setup_s: list[float] = []
    for _ in range(setups):
        store, elapsed = fill_store(ctx)
        setup_s.append(elapsed)
    order = Order(ctx.requests, ctx.seed)
    min_ops = (TRACED_CLI_CALLS[ctx.toy] if traced
               else MIN_OPS[(ctx.workload, ctx.toy)])
    targets = [functools.partial(cli_call, ctx, store, mode)
               for mode in ((False, True) if traced else (False,))]
    before = dir_bytes(store.parent)
    since = clock()
    rows = drive(until(ctx, order, min_ops), targets, 1)
    wall = clock() - since
    ops = [row[0] for row in rows]
    traced_ops = [row[-1] for row in rows] if traced else []
    return Phase(ops, wall, max(op.rss_mb for op in ops), order.record(),
                 setup_s, traced_ops,
                 [(op.spans, None) for op in traced_ops if op.spans],
                 dir_bytes(store.parent) - before)


# -- metrics -----------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical_latency(ops: list[Op]) -> float:
    """Median over the distinct requests of each one's median latency.

    Taking the median per request first keeps a balanced mix of a few
    request kinds (cli-warm runs four) from putting the overall median
    on the gap between two kinds.  With one sample per request
    (explore-cold) it is the plain median.
    """
    per_request: dict[str, list[float]] = {}
    for op in ops:
        per_request.setdefault(op.name, []).append(op.latency_s)
    return statistics.median(statistics.median(latencies)
                             for latencies in per_request.values())


def end_to_end(phase: Phase) -> dict:
    latencies = [op.latency_s for op in phase.ops]
    designs = sum(op.n_designs for op in phase.ops)
    n = len(latencies)
    kinds = len({op.name for op in phase.ops})
    return {
        "setup_s": (statistics.median(phase.setup_s), "s",
                    f"median of {len(phase.setup_s)} set-ups"),
        "p50_ms": (typical_latency(phase.ops) * 1e3, "ms",
                   f"n={n} over {kinds} requests"),
        "p90_ms": (quantile(latencies, 90) * 1e3, "ms", f"n={n}" + (
            f"; p99 {quantile(latencies, 99) * 1e3:.2f} ms" if n >= 1000
            else "")),
        "designs_per_s": (designs / phase.wall_s, "1/s",
                          f"{designs} designs in {phase.wall_s:.2f} s"),
        "ops_per_s": (n / phase.wall_s, "1/s",
                      f"{n} ops in {phase.wall_s:.2f} s"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB", "peak resident set"),
    }


def per_layer(phase: Phase) -> tuple[dict, dict]:
    """Per-layer metrics of the traced operations, and their aggregate."""
    agg = tracer.aggregate(phase.span_sets)
    traced = phase.traced_ops
    measured = sum(op.latency_s for op in traced)
    n = len(traced)
    metrics = {}
    for layer in tracer.LAYER_NAMES[:-1]:
        row = agg["layers"][layer]
        metrics[f"{layer}.calls"] = (row["calls"], "count", "")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s", "")
    metrics[f"{tracer.UNATTRIBUTED}.calls"] = (n, "count", "operations")
    metrics[f"{tracer.UNATTRIBUTED}.self_s"] = (
        measured - agg["roots_s"], "s", f"{measured:.3f} s measured")
    extras = agg["extras"]

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    metrics.update({
        "core.pruning.unique_ratio": (
            ratio(extras["unique"], extras["designs"]), "ratio",
            f"{extras['unique']}/{extras['designs']} designs"),
        "eval.accuracy.evaluate.variants": (extras["variants"], "count",
                                            ""),
        "service.jobs.run.shards_computed": (extras["shards_computed"],
                                             "count", ""),
        "service.store.read.hit_ratio": (
            ratio(extras["read_hits"], extras["reads"]), "ratio",
            f"{extras['read_hits']}/{extras['reads']} reads"),
        "service.store.bytes": (phase.store_bytes, "B",
                                "store growth in the window"),
        "service.runner.grid_hit_ratio": (
            ratio(extras["grid_hits"], extras["explores"]), "ratio",
            f"{extras['grid_hits']}/{extras['explores']} explores"),
        "trace.overhead_ratio": (
            statistics.median(mine.latency_s / plain.latency_s
                              for plain, mine in zip(phase.ops, traced)),
            "ratio", f"median traced/plain latency, {n} neighbouring "
            "pairs"),
    })
    return metrics, agg


def misplaced_roots(phase: Phase) -> list[str]:
    """Counted top-level spans that their own operation does not hold.

    A span carries the request id of the operation that caused it, or
    none when the program ran the work off the request's context (the
    server's model resolution does); such a span belongs to the one
    operation whose window holds it.  Each top-level span the layer
    report counts must lie inside its operation's window, and an
    operation's top-level spans must not add up to more than its
    latency; otherwise the self times and the ``unattributed`` row
    would double-count or leak time.
    """
    ops = phase.traced_ops
    by_rid = {op.rid: op for op in ops}
    held: dict[str, float] = {}
    problems = []
    for spans, since in phase.span_sets:
        for span in spans:
            if span[4] != -1 or (since is not None and span[2] < since):
                continue
            if span[6] is None:
                holders = [op for op in ops
                           if op.start <= span[2] <= span[3] <= op.end]
                if len(holders) > 1:
                    continue  # concurrent operations: cannot tell
                op = holders[0] if holders else None
            else:
                op = by_rid.get(span[6])
                if op and not op.start <= span[2] <= span[3] <= op.end:
                    op = None
            if op is None:
                problems.append(f"{span[1]} span of request {span[6]} "
                                "outside its operation")
            else:
                held[op.rid] = held.get(op.rid, 0.0) + span[3] - span[2]
    problems += [f"request {rid}: top-level spans {total:.4f} s > latency "
                 f"{by_rid[rid].latency_s:.4f} s"
                 for rid, total in held.items()
                 if total > by_rid[rid].latency_s]
    return problems


def print_tree(agg: dict, measured: float, n_ops: int) -> None:
    print(f"layer tree ({n_ops} ops, {measured:.3f} s measured):")
    print(f"  {'calls':>8} {'total_s':>10} {'self_s':>10}  path")
    for path, row in sorted(agg["tree"].items(),
                            key=lambda item: item[0].split(" > ")):
        depth = path.count(" > ")
        print(f"  {row['calls']:>8} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f}  {'  ' * depth}"
              f"{path.rsplit(' > ', 1)[-1]}")
    unattributed = measured - agg["roots_s"]
    print(f"  {n_ops:>8} {'':>10} {unattributed:>10.4f}  "
          f"{tracer.UNATTRIBUTED}")
    self_sum = sum(row["self_s"] for row in agg["layers"].values())
    print(f"  sum(self) + unattributed = {self_sum + unattributed:.4f} s "
          f"= measured {measured:.4f} s")


# -- main --------------------------------------------------------------


RUNNERS = {"explore-cold": explore_cold, "serve-warm": serve_warm,
           "cli-warm": cli_warm}


def run(ctx: Context, trace: bool) -> tuple[list[Op], dict]:
    if trace:
        setups = 1
    else:
        setups = 2 if ctx.toy else SETUPS[ctx.workload]
    phase = RUNNERS[ctx.workload](ctx, setups, traced=trace)
    print(json.dumps({"workload": ctx.workload, "seed": ctx.seed,
                      "requests": phase.order}))
    if not trace:
        return phase.ops, end_to_end(phase)
    metrics, agg = per_layer(phase)
    measured = sum(op.latency_s for op in phase.traced_ops)
    print_tree(agg, measured, len(phase.traced_ops))
    misplaced = misplaced_roots(phase)
    print(f"top-level spans outside their operation: {len(misplaced)}")
    for problem in misplaced[:5]:
        print(f"  {problem}")
    WORK.mkdir(exist_ok=True)
    (WORK / f"{ctx.workload}-trace.json").write_text(json.dumps(
        {"measured_s": measured, "misplaced_roots": misplaced, **agg},
        indent=1))
    return phase.ops + phase.traced_ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy size: 2 circuits, 3-point tau grid")
    parser.add_argument("--digests", default=str(DIGESTS),
                        help="pinned digest file (default: digests.json)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ctx = Context(args.workload, args.seed, args.seconds, args.toy,
                      load_digests(args.digests), run_dir)
        ops, metrics = run(ctx, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    (WORK / f"{args.workload}-ops.json").write_text(json.dumps(
        [[op.name, op.latency_s, op.n_designs, op.ok] for op in ops]))
    failed = [op for op in ops if not op.ok]
    for op in failed[:5]:
        print(f"FAILED {op.name}: {op.reason}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops, {len(failed)} failed "
          f"(failed_ratio {len(failed) / len(ops):.4f})")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
