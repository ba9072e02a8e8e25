"""HTTP fleet coordinator: one RPC table, its client and its server side.

The fleet loop (:func:`~repro.service.leases.run_fleet_worker`) drains
a grid through a handful of store operations.  This module puts exactly
those on the wire, so ``repro explore --worker-id W --coordinator
http://host:port`` runs the *unchanged* loop across machines with no
shared disk.

The wire is written once, in :data:`RPC_TABLE`: one :class:`Rpc` row
per :class:`~repro.service.store.DesignStore` method the fleet uses,
holding its HTTP method and path shape, its typed body arguments (how
the client encodes each and how the server strictly decodes it), its
reply encoding and decoding, and its error mapping — a store ``None``
is a ``404`` (``None`` again in the client), a
:class:`~repro.service.store.FencedWriteError` a ``409`` (the same
exception again in the client).  Both ends are generated from it:

* :class:`RemoteStore` — the client: every row is a method with the
  ``DesignStore`` signature, all sharing one ``_invoke``, so the
  service, job and fleet layers need no remote special case.
* :func:`serve_rpc` — the server side, mounted by
  :mod:`repro.service.server` under :data:`COORD_PREFIXES`: it matches
  (method, path) to a row (``404`` unknown path, ``405`` wrong method),
  answers any malformed argument with a ``400`` that writes nothing,
  runs the store call and encodes the reply.

Around the table:

* :class:`CoordinatorClient` — one keep-alive HTTP/1.1 connection with
  deadline-bounded retries (the shared :mod:`repro.service.retry`
  policy).  The ``coord.request`` / ``coord.response`` fault points put
  the wire under the ``REPRO_FAULTS`` chaos grammar: a fault *before*
  send is a request the server never saw; one *after* the body was read
  is a committed write whose acknowledgement was lost — retrying it
  exercises the idempotent-replay contract.
* :class:`RemoteLeaseManager` — the local lease policy plus a heartbeat
  thread that renews each held lease at a quarter TTL on its *own*
  connection while the shard computes.  If the coordinator stays
  unreachable past the retry deadline the heartbeat stops and the lease
  expires: a peer reclaims the shard and this worker's late upload is
  fenced server-side.  Unreachability during a store call surfaces as
  :class:`CoordinatorError`, and the CLI exits nonzero.

Every payload round-trips through the store's own serializers
(``design_to_dict``, ``EvaluationRecord.to_dict``, the shard checkpoint
JSON), so a multi-host fleet's design list is byte-identical to a
serial run's — pinned by the network-chaos matrix in
``benchmarks/bench_faults.py``.
"""

from __future__ import annotations

import http.client
import inspect
import json
import math
import re
import string
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, NamedTuple
from urllib.parse import urlsplit

from ..core.pruning import prune_key_ids
from ..eval.accuracy import EvaluationRecord
from .faults import fault_point
from .leases import DEFAULT_LEASE_TTL_S, LeaseManager
from .retry import RetryPolicy, retry_call
from .store import (DesignStore, FencedWriteError, design_from_dict,
                    design_to_dict)
from .telemetry import counter as _metric
from .telemetry import span as _span

__all__ = ["COORD_PREFIXES", "CoordinatorClient", "CoordinatorError",
           "RPC_TABLE", "RemoteLeaseManager", "RemoteStore", "Rpc",
           "SAFE_CHARS", "serve_rpc"]

# Liberal attempts under a firm deadline: transient blips (a restart, a
# drain window, injected chaos) are absorbed; a genuinely dead
# coordinator surfaces as CoordinatorError once the deadline passes.
# Attempts are set high enough that the deadline is the binding bound —
# connection-refused fails instantly, so a coordinator restart must be
# ridden out on wall-clock, not on a try counter.
_DEFAULT_POLICY = RetryPolicy(attempts=24, base_s=0.05, cap_s=2.0,
                              deadline_s=30.0)
_RETRYABLE_STATUSES = (429, 503)


class CoordinatorError(RuntimeError):
    """The coordinator stayed unreachable past the retry deadline."""


class _TransientHttpError(ConnectionError):
    """A retryable HTTP status (503 drain window, 429 backpressure)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"coordinator answered {status}: {detail}")
        self.status = status


class _ProtocolError(ConnectionError):
    """A response that was not parseable JSON (truncated body, garbage).

    ``ConnectionError`` so the retry predicate treats a torn response
    like any other transport failure — the server may well have
    committed, which is exactly what idempotent uploads are for.
    """


class CoordinatorClient:
    """Stdlib HTTP/1.1 client for the server's coordinator plane.

    One persistent keep-alive connection, rebuilt on any transport
    error; every call runs under the shared retry policy.  **Not**
    thread-safe — give each thread its own :meth:`clone`.
    """

    def __init__(self, base_url: str, tenant: str | None = None,
                 timeout_s: float = 10.0,
                 policy: RetryPolicy | None = None) -> None:
        if "//" not in base_url:
            base_url = "http://" + base_url
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"coordinator URL must be http://host:port, "
                             f"got {base_url!r}")
        self.base_url = f"http://{split.netloc}"
        self.host = split.hostname
        self.port = split.port or 80
        self.tenant = tenant
        self.timeout_s = float(timeout_s)
        self.policy = policy if policy is not None else _DEFAULT_POLICY
        self._conn: http.client.HTTPConnection | None = None

    def clone(self) -> "CoordinatorClient":
        """A client with its own connection (for heartbeat threads)."""
        return CoordinatorClient(self.base_url, tenant=self.tenant,
                                 timeout_s=self.timeout_s,
                                 policy=self.policy)

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:
                pass
            self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        return self._conn

    @staticmethod
    def _endpoint(path: str) -> str:
        # Low-cardinality span/metric label: "/v1/jobs", "/v1/coeff", ...
        return "/".join(path.split("/", 3)[:3])

    def request(self, method: str, path: str,
                payload: dict | None = None) -> tuple[int, dict]:
        """One JSON exchange; returns ``(status, parsed body)``.

        Retries transport failures, injected network faults, torn
        responses, and 429/503 answers under the client policy; any
        other status returns to the caller.  Exhaustion raises
        :class:`CoordinatorError`.
        """
        body = b"" if payload is None else json.dumps(payload).encode()
        headers = {"Connection": "keep-alive",
                   "Content-Type": "application/json"}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        endpoint = self._endpoint(path)

        def attempt() -> tuple[int, dict]:
            # A fault here is a request the server never received.
            fault_point("coord.request", method=method, path=path)
            with _span("coord.request", method=method, endpoint=endpoint):
                conn = self._connection()
                conn.request(method, path, body, headers)
                response = conn.getresponse()
                data = response.read()
            # ... and a fault here is a response lost *after* the
            # server committed: the retry that follows replays the
            # request, exercising idempotency by content key.
            fault_point("coord.response", method=method, path=path)
            if response.status in _RETRYABLE_STATUSES:
                raise _TransientHttpError(response.status,
                                          data[:200].decode("latin-1"))
            try:
                parsed = json.loads(data.decode() or "null")
            except (ValueError, UnicodeDecodeError) as exc:
                raise _ProtocolError(
                    f"unparseable coordinator response for {method} "
                    f"{path}: {exc}")
            return response.status, \
                parsed if isinstance(parsed, dict) else {}

        def transient(exc: Exception) -> bool:
            return isinstance(exc, (OSError, http.client.HTTPException))

        def on_retry(_attempt: int, _exc: Exception, _delay: float) -> None:
            _metric("coord.retries", endpoint=endpoint)
            self.close()  # the kept-alive socket may be poisoned

        try:
            return retry_call(attempt, self.policy, retryable=transient,
                              on_retry=on_retry)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise CoordinatorError(
                f"coordinator {self.base_url} unreachable after retries: "
                f"{exc}") from exc


# -- the RPC table -------------------------------------------------------
#
# Argument types: ``encode`` runs in the client on the caller's value;
# ``decode`` runs in the server on untrusted JSON and raises on anything
# the store must not see (the request is then a 400 that writes nothing).

_REQUIRED = object()
#: Characters allowed in keys (and in tenant names and request ids).
SAFE_CHARS = frozenset(string.ascii_letters + string.digits + "._-")
_SURROGATE = re.compile("[\ud800-\udfff]")  # unencodable, so SQLite fails


class _Type(NamedTuple):
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


def _check(ok: Callable[[Any], bool], what: str) -> Callable[[Any], Any]:
    """A decoder that passes values satisfying ``ok`` and refuses others."""
    def decode(value):
        if not ok(value):
            raise ValueError(f"expected {what}, got {value!r:.40}")
        return value
    return decode


_int = _check(lambda v: type(v) is int and -2 ** 63 <= v < 2 ** 63,
              "a 64-bit integer")   # SQLite's integer range; no bools
_str = _check(lambda v: isinstance(v, str) and not _SURROGATE.search(v),
              "a string")
_finite = _check(lambda v: type(v) in (int, float) and math.isfinite(v),
                 "a finite number")
_object = _check(lambda v: isinstance(v, dict), "a JSON object")
_array = _check(lambda v: isinstance(v, list), "a JSON array")
_key = _check(lambda v: len(v) <= 128 and set(v) <= SAFE_CHARS,
              "a key of up to 128 chars of [A-Za-z0-9._-]")
_pair = _check(lambda v: isinstance(v, list) and len(v) == 2,
               "[worker, token]")


def _fence(value) -> tuple[str, int]:
    worker, token = _pair(value)
    return _str(worker), _int(token)


def _variants_from_wire(value) -> dict:
    return {tuple(_int(i) for i in _array(ids)):
            EvaluationRecord.from_dict(_object(record))
            for ids, record in _array(value)}


def _variants_to_wire(entries: dict) -> list:
    return [[list(prune_key_ids(key)), record.to_dict()]
            for key, record in entries.items()]


def _same(value):
    return value


_KEY = _Type(str, _key)
_INDEX = _Type(int, lambda segment: _int(int(segment)))  # a path segment
_INT = _Type(int, _int)
_STR = _Type(str, _str)
_FINITE = _Type(float, _finite)
_FENCE = _Type(lambda fence: [str(fence[0]), int(fence[1])], _fence)
_TAUS = _Type(lambda taus: [float(t) for t in taus],
              lambda value: [_finite(t) for t in _array(value)])
_OBJECT = _Type(_same, _object)
_ARRAY = _Type(_same, _array)
_DESIGNS = _Type(lambda designs: [design_to_dict(d) for d in designs],
                 lambda value: [design_from_dict(d) for d in _array(value)])
_VARIANTS = _Type(_variants_to_wire, _variants_from_wire)
_PATH_TYPES = {"key": _KEY, "shard": _INDEX}


class _Arg(NamedTuple):
    """One body field: the store parameter, its type, its wire name."""

    param: str
    type: _Type
    default: Any = _REQUIRED   # absent or null → this; _REQUIRED → 400
    wire: str | None = None    # body field name when it is not ``param``

    @property
    def field(self) -> str:
        return self.wire or self.param


@dataclass(frozen=True)
class Rpc:
    """One store operation on the wire (a row of :data:`RPC_TABLE`).

    ``path`` carries the store method's first argument as ``{key}``
    (and a shard index as ``{shard}``); the other arguments travel in
    the JSON body as ``args``.  On the server, ``reply(result, args)``
    builds the reply fields after ``type``; in the client,
    ``result(reply)`` rebuilds the method's return value.  ``missing``
    is the 404 text for a store ``None`` (which the client returns as
    ``None``).
    """

    name: str                 # the DesignStore method
    method: str
    path: str
    type: str                 # the reply's "type" tag
    reply: Callable[[Any, dict], dict] | None
    result: Callable[[dict], Any] = lambda _reply: None
    args: tuple[_Arg, ...] = ()
    missing: str | None = None
    serve: Callable | None = None   # server-side call (default: the method)
    skip_empty: str | None = None   # argument whose emptiness is a no-op
    client_only: bool = False       # reads another row's reply

    @cached_property
    def pattern(self) -> re.Pattern:
        return re.compile(self.path.format(key="(?P<key>[^/]+)",
                                           shard="(?P<shard>[^/]+)"))

    def encode(self, arguments: dict) -> tuple[str, dict | None]:
        """Client side: ``(path, body)`` for bound store arguments."""
        key = next(iter(arguments.values()))
        shard = arguments.get("shard", 0)
        path = self.path.format(key=_KEY.encode(key),
                                shard=_INDEX.encode(shard))
        body = {arg.field: None if arguments.get(arg.param) is None
                else arg.type.encode(arguments[arg.param])
                for arg in self.args}
        return path, body or None

    def decode(self, params: dict, body: bytes) -> tuple[str, dict]:
        """Server side: ``(key, keyword arguments)``; raises if malformed."""
        kwargs = {name: _PATH_TYPES[name].decode(value)
                  for name, value in params.items()}
        key = kwargs.pop("key")
        if not self.args:
            return key, kwargs
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"request body is not JSON: {exc}")
        _object(payload)
        for arg in self.args:
            value = payload.get(arg.field)
            if value is None and arg.default is _REQUIRED:
                raise ValueError(f"missing field {arg.field!r}")
            try:
                kwargs[arg.param] = arg.default if value is None \
                    else arg.type.decode(value)
            except Exception as exc:
                # The store's own deserializers (design_from_dict, ...)
                # raise whatever the untrusted input provokes.
                raise ValueError(f"field {arg.field!r}: {exc}") from exc
        return key, kwargs


def _ack(name: str, **extra) -> dict:
    """A write acknowledged by ``{name: true}`` plus ``extra`` fields.

    Each ``extra`` value is a function of the call's arguments.
    """
    return {"reply": lambda _result, args: {
        name: True, **{field: fn(args) for field, fn in extra.items()}}}


def _carry(name: str, encode=_same, decode=_same) -> dict:
    """A result carried in the reply field ``name``."""
    return {"reply": lambda result, _args: {name: encode(result)},
            "result": lambda data: decode(data[name])}


def _grid_and_meta(store: DesignStore, key: str):
    designs = store.get_grid(key)
    return None if designs is None else (designs, store.grid_meta(key))


_SHARD = _Arg("shard", _INT)
_WORKER = _Arg("worker", _STR)
_TTL = _Arg("ttl_s", _FINITE, DEFAULT_LEASE_TTL_S)
_NO_GRID = "no finished grid {key:.12}"
_NO_NETLIST = "no coeff netlist {key:.12}"

#: Every store operation the fleet performs over HTTP.
RPC_TABLE: tuple[Rpc, ...] = (
    Rpc("claim_lease", "POST", "/v1/jobs/{key}/leases/claim", "lease",
        args=(_SHARD, _WORKER, _TTL), **_carry("token", int, int)),
    Rpc("renew_lease", "POST", "/v1/jobs/{key}/leases/renew", "lease",
        args=(_SHARD, _WORKER, _TTL, _Arg("token", _INT, None)),
        **_carry("renewed", bool, bool)),
    Rpc("release_lease", "POST", "/v1/jobs/{key}/leases/release", "lease",
        args=(_SHARD, _WORKER), **_ack("released")),
    Rpc("leases_for_grid", "GET", "/v1/jobs/{key}/leases", "leases",
        **_carry("leases",
                 lambda leases: {str(s): info for s, info in leases.items()},
                 lambda leases: {int(s): info
                                 for s, info in leases.items()})),
    Rpc("clear_leases", "DELETE", "/v1/jobs/{key}/leases", "leases",
        **_ack("cleared")),
    Rpc("get_shard", "GET", "/v1/jobs/{key}/shards/{shard}", "shard",
        reply=lambda stored, args: {"shard": args["shard"],
                                    "taus": stored[0],
                                    "payload": stored[1]},
        result=lambda data: (data["taus"], data["payload"]),
        missing="no checkpoint for shard {shard} of {key:.12}"),
    # Not _ack: the shard index comes first in this reply.
    Rpc("put_shard", "PUT", "/v1/jobs/{key}/shards/{shard}", "shard",
        args=(_Arg("taus", _TAUS), _Arg("payload", _OBJECT),
              _Arg("fence", _FENCE, None)),
        reply=lambda _result, args: {"shard": args["shard"],
                                     "stored": True}),
    Rpc("shard_indices", "GET", "/v1/jobs/{key}/shards", "shards",
        **_carry("indices", lambda indices: sorted(int(i) for i in indices),
                 lambda indices: {int(i) for i in indices})),
    Rpc("clear_shards", "DELETE", "/v1/jobs/{key}/shards", "shards",
        **_ack("cleared")),
    Rpc("get_grid", "GET", "/v1/jobs/{key}/grid", "grid",
        serve=_grid_and_meta, missing=_NO_GRID,
        reply=lambda found, _args: {
            "designs": _DESIGNS.encode(found[0]), "meta": found[1]},
        result=lambda data: _DESIGNS.decode(data["designs"])),
    # The same GET as get_grid, read for its meta field; never routed.
    Rpc("grid_meta", "GET", "/v1/jobs/{key}/grid", "grid", reply=None,
        result=lambda data: data["meta"], missing=_NO_GRID,
        client_only=True),
    Rpc("put_grid", "PUT", "/v1/jobs/{key}/grid", "grid",
        args=(_Arg("designs", _DESIGNS), _Arg("meta", _OBJECT, None)),
        **_ack("stored", n_designs=lambda args: len(args["designs"]))),
    Rpc("delete_grid", "DELETE", "/v1/jobs/{key}/grid", "grid",
        **_ack("deleted")),
    Rpc("variants_for_base", "GET", "/v1/bases/{key}/variants", "variants",
        **_carry("variants",
                 lambda found: _variants_to_wire(dict(sorted(found.items()))),
                 _variants_from_wire)),
    Rpc("put_variants", "PUT", "/v1/bases/{key}/variants", "variants",
        args=(_Arg("entries", _VARIANTS, wire="variants"),),
        reply=lambda _result, args: {"stored": len(args["entries"])},
        skip_empty="entries"),
    Rpc("get_coeff", "GET", "/v1/coeff/{key}", "coeff",
        missing="no coefficient payload {key:.12}", **_carry("payload")),
    Rpc("put_coeff", "PUT", "/v1/coeff/{key}", "coeff",
        args=(_Arg("payload", _ARRAY),), **_ack("stored")),
    Rpc("get_coeff_netlist", "GET", "/v1/coeff-netlists/{key}",
        "coeff-netlist", missing=_NO_NETLIST, **_carry("netlist")),
    Rpc("put_coeff_netlist", "PUT", "/v1/coeff-netlists/{key}",
        "coeff-netlist",
        args=(_Arg("netlist_data", _OBJECT, wire="netlist"),
              _Arg("fingerprint", _STR)), **_ack("stored")),
    Rpc("get_coeff_netlist_fingerprint", "GET",
        "/v1/coeff-netlists/{key}/fingerprint", "coeff-netlist",
        missing=_NO_NETLIST, **_carry("fingerprint")),
)

_SERVED = tuple(rpc for rpc in RPC_TABLE if not rpc.client_only)

#: Path prefixes of the coordinator plane, e.g. ``"/v1/jobs/"``.
COORD_PREFIXES: tuple[str, ...] = tuple(dict.fromkeys(
    rpc.path[:rpc.path.index("{")] for rpc in RPC_TABLE))


async def serve_rpc(method: str, path: str, body: bytes,
                    call) -> tuple[int, dict]:
    """Serve one coordinator request: ``(status, JSON reply)``.

    ``call(fn, key, **kwargs)`` must await ``fn(store, key, **kwargs)``
    on the requesting tenant's store.  Error replies are ``{"error":
    text}``; a request answered with 400 never reaches the store.
    """
    matches = [(rpc, found.groupdict()) for rpc in _SERVED
               if (found := rpc.pattern.fullmatch(path))]
    if not matches:
        return 404, {"error": f"unknown coordinator path {path!r}"}
    for rpc, params in matches:
        if rpc.method == method:
            break
    else:
        allowed = "/".join(rpc.method for rpc, _params in matches)
        return 405, {"error": f"{path} allows {allowed}, not {method}"}
    try:
        key, kwargs = rpc.decode(params, body)
    except ValueError as exc:
        return 400, {"error": f"bad coordinator payload: {exc}"}
    try:
        result = await call(rpc.serve or getattr(DesignStore, rpc.name),
                            key, **kwargs)
    except FencedWriteError as exc:
        return 409, {"error": str(exc)}
    if result is None and rpc.missing is not None:
        return 404, {"error": rpc.missing.format(key=key, **kwargs)}
    return 200, {"type": rpc.type, **rpc.reply(result, kwargs)}


class RemoteStore:
    """A store-shaped client of the coordinator plane.

    Every :data:`RPC_TABLE` row is a method here with the
    :class:`~repro.service.store.DesignStore` signature (arguments the
    server cannot use, such as a client-side ``now``, are dropped).
    ``namespace`` must match the coordinator-side tenant namespace so
    worker-derived content keys equal the server's (the default
    tenant's namespace is ``""``).
    """

    def __init__(self, client: CoordinatorClient,
                 namespace: str = "") -> None:
        self.client = client
        self.namespace = str(namespace)
        self.path = client.base_url  # reports/status show the URL

    def for_thread(self) -> "RemoteStore":
        """A facade with its own connection (heartbeat threads)."""
        return RemoteStore(self.client.clone(), namespace=self.namespace)

    def _invoke(self, rpc: Rpc, arguments: dict):
        if rpc.skip_empty is not None and not arguments.get(rpc.skip_empty):
            return None
        path, body = rpc.encode(arguments)
        status, data = self.client.request(rpc.method, path, body)
        if status == 404 and rpc.missing is not None:
            return None
        if status == 409:
            _metric("fleet.fenced_writes", side="client")
            raise FencedWriteError(data.get("error", "fenced write"))
        if status != 200:
            raise CoordinatorError(
                f"{rpc.method} {path} failed with {status}: "
                f"{data.get('error', data)}")
        return rpc.result(data)

    # -- fitted models -------------------------------------------------
    # Fleet workers are long-lived and fit once per process, so the
    # coordinator serves no models: every lookup misses, nothing is sent.

    def get_fitted_model(self, key: str) -> None:
        return None

    def put_fitted_model(self, key: str, state: dict) -> None:
        pass

    def has_fitted_model(self, key: str) -> bool:
        return True  # nothing to put: see put_fitted_model

    # -- fleet hooks ---------------------------------------------------

    def make_lease_manager(self, grid_key: str, worker: str,
                           ttl_s: float) -> "RemoteLeaseManager":
        """The fleet loop's lease-manager factory (duck-typed hook)."""
        return RemoteLeaseManager(self, grid_key, worker, ttl_s)

    def stats(self) -> dict:
        """Minimal stats surface (the coordinator owns the real ones)."""
        return {"path": self.path, "remote": True}


def _remote_method(rpc: Rpc):
    signature = inspect.signature(getattr(DesignStore, rpc.name))
    unbound = signature.replace(
        parameters=list(signature.parameters.values())[1:])

    def method(self, *args, **kwargs):
        return self._invoke(rpc, unbound.bind(*args, **kwargs).arguments)

    method.__name__ = rpc.name
    method.__qualname__ = f"RemoteStore.{rpc.name}"
    method.__signature__ = signature
    method.__doc__ = (f"``{rpc.method} {rpc.path}``: remote "
                      f":meth:`DesignStore.{rpc.name}`.")
    return method


for _rpc in RPC_TABLE:
    setattr(RemoteStore, _rpc.name, _remote_method(_rpc))
del _rpc


@dataclass
class RemoteLeaseManager(LeaseManager):
    """Lease policy over a :class:`RemoteStore`, plus heartbeats.

    ``guarding(shard)`` renews the held lease at a quarter TTL on a
    dedicated connection while the shard computes, so a compute longer
    than the TTL keeps its ownership span (same token — the fence
    still matches).  A heartbeat that learns the lease was lost, or
    that cannot reach the coordinator past the retry deadline, simply
    stops: the server-side fence is what guarantees the stale upload
    never lands.
    """

    heartbeat_s: float | None = None

    @contextmanager
    def guarding(self, shard: int):
        stop = threading.Event()
        interval = self.heartbeat_s if self.heartbeat_s is not None \
            else max(self.ttl_s / 4.0, 0.05)
        store = self.store.for_thread()
        token = self.tokens.get(shard)

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    if not store.renew_lease(self.grid_key, shard,
                                             self.worker, self.ttl_s,
                                             token=token):
                        _metric("fleet.lease_lost")
                        return  # reclaimed; the fence rejects our write
                except Exception:
                    # Unreachable past the retry deadline: let the
                    # lease expire so a peer can reclaim the shard.
                    return

        thread = threading.Thread(
            target=beat, daemon=True,
            name=f"lease-heartbeat-{self.worker}-{shard}")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=5.0)
            store.client.close()
