"""Golden wire test for the coordinator plane.

Pins, byte for byte, what a real ``repro serve`` answers on every
coordinator route: the status and the full 2xx body (key order,
spacing, trailing newline), the 404 a missing row gets, the 409 a
fenced upload gets, and the 404/405 for an unknown sub-resource and a
wrong method.  Workers of one release talk to coordinators of another,
so any change here is a wire-protocol change, not a refactor.

``SCRIPT`` runs top to bottom against one fresh store; every step names
the route template it exercises so the contract suite can check that
no route of the RPC table is left unpinned.
"""

from __future__ import annotations

import http.client
import json

from test_coordinator import coordinator

K = "c" * 64          # grid key
B = "b" * 64          # base key
C = "k" * 64          # coefficient key
RECORD = {"accuracy": 0.5, "area_mm2": 1.25, "power_mw": 0.125,
          "n_gates": 10}
DESIGN = {"tau_c": 0.9, "phi_c": 3, "n_pruned": 2, "record": RECORD,
          "duplicate_of": None}
NETLIST = {"nodes": [], "buses": {"z": 1, "a": 2}}

# The 19 served routes, as templates.
CLAIM = ("POST", "/v1/jobs/{key}/leases/claim")
RENEW = ("POST", "/v1/jobs/{key}/leases/renew")
RELEASE = ("POST", "/v1/jobs/{key}/leases/release")
LEASES = ("GET", "/v1/jobs/{key}/leases")
CLEAR_LEASES = ("DELETE", "/v1/jobs/{key}/leases")
GET_SHARD = ("GET", "/v1/jobs/{key}/shards/{shard}")
PUT_SHARD = ("PUT", "/v1/jobs/{key}/shards/{shard}")
SHARDS = ("GET", "/v1/jobs/{key}/shards")
CLEAR_SHARDS = ("DELETE", "/v1/jobs/{key}/shards")
GET_GRID = ("GET", "/v1/jobs/{key}/grid")
PUT_GRID = ("PUT", "/v1/jobs/{key}/grid")
DELETE_GRID = ("DELETE", "/v1/jobs/{key}/grid")
GET_VARIANTS = ("GET", "/v1/bases/{key}/variants")
PUT_VARIANTS = ("PUT", "/v1/bases/{key}/variants")
GET_COEFF = ("GET", "/v1/coeff/{key}")
PUT_COEFF = ("PUT", "/v1/coeff/{key}")
GET_NETLIST = ("GET", "/v1/coeff-netlists/{key}")
PUT_NETLIST = ("PUT", "/v1/coeff-netlists/{key}")
FINGERPRINT = ("GET", "/v1/coeff-netlists/{key}/fingerprint")

LEASE_BODY = {"shard": 0, "worker": "w1", "ttl_s": 60.0}
SHARD_BODY = {"taus": [0.9, 0.99], "payload": {"chains": [], "rows": []}}

# (route, key, shard, request body, status, exact response body).
SCRIPT = [
    (LEASES, K, None, None, 200, '{"type": "leases", "leases": {}}'),
    (CLAIM, K, None, LEASE_BODY, 200, '{"type": "lease", "token": 1}'),
    (CLAIM, K, None, {**LEASE_BODY, "worker": "w2"}, 200,
     '{"type": "lease", "token": 0}'),
    (RENEW, K, None, {**LEASE_BODY, "token": 1}, 200,
     '{"type": "lease", "renewed": true}'),
    (RENEW, K, None, {**LEASE_BODY, "token": 2}, 200,
     '{"type": "lease", "renewed": false}'),
    (PUT_SHARD, K, 0, {**SHARD_BODY, "fence": ["w1", 1]}, 200,
     '{"type": "shard", "shard": 0, "stored": true}'),
    (GET_SHARD, K, 0, None, 200,
     '{"type": "shard", "shard": 0, "taus": [0.9, 0.99], '
     '"payload": {"chains": [], "rows": []}}'),
    (SHARDS, K, None, None, 200, '{"type": "shards", "indices": [0]}'),
    (RELEASE, K, None, {"shard": 0, "worker": "w1"}, 200,
     '{"type": "lease", "released": true}'),
    (PUT_SHARD, K, 0, {**SHARD_BODY, "fence": ["w1", 1]}, 409,
     '{"error": "stale shard upload fenced: shard 0 of grid '
     'cccccccccccc from \'w1\' (token 1), no lease"}'),
    (CLEAR_SHARDS, K, None, None, 200,
     '{"type": "shards", "cleared": true}'),
    (GET_SHARD, K, 0, None, 404,
     '{"error": "no checkpoint for shard 0 of cccccccccccc"}'),
    (CLAIM, K, None, {"shard": 1, "worker": "zombie", "ttl_s": -5.0},
     200, '{"type": "lease", "token": 2}'),
    (CLAIM, K, None, {"shard": 1, "worker": "peer", "ttl_s": 60.0},
     200, '{"type": "lease", "token": 3}'),
    (PUT_SHARD, K, 1, {**SHARD_BODY, "fence": ["zombie", 2]}, 409,
     '{"error": "stale shard upload fenced: shard 1 of grid '
     'cccccccccccc from \'zombie\' (token 2), lease held by \'peer\' '
     '(token 3)"}'),
    (SHARDS, K, None, None, 200, '{"type": "shards", "indices": []}'),
    (CLEAR_LEASES, K, None, None, 200,
     '{"type": "leases", "cleared": true}'),
    (LEASES, K, None, None, 200, '{"type": "leases", "leases": {}}'),
    (GET_GRID, K, None, None, 404,
     '{"error": "no finished grid cccccccccccc"}'),
    (PUT_GRID, K, None, {"designs": [DESIGN], "meta": {"engine": "x"}},
     200, '{"type": "grid", "stored": true, "n_designs": 1}'),
    (GET_GRID, K, None, None, 200,
     '{"type": "grid", "designs": [{"tau_c": 0.9, "phi_c": 3, '
     '"n_pruned": 2, "record": {"accuracy": 0.5, "area_mm2": 1.25, '
     '"power_mw": 0.125, "n_gates": 10}, "duplicate_of": null}], '
     '"meta": {"engine": "x"}}'),
    (DELETE_GRID, K, None, None, 200,
     '{"type": "grid", "deleted": true}'),
    (GET_GRID, K, None, None, 404,
     '{"error": "no finished grid cccccccccccc"}'),
    (GET_VARIANTS, B, None, None, 200,
     '{"type": "variants", "variants": []}'),
    (PUT_VARIANTS, B, None, {"variants": [[[3, 1], RECORD],
                                          [[2], RECORD]]}, 200,
     '{"type": "variants", "stored": 2}'),
    (GET_VARIANTS, B, None, None, 200,
     '{"type": "variants", "variants": [[[1, 3], {"accuracy": 0.5, '
     '"area_mm2": 1.25, "power_mw": 0.125, "n_gates": 10}], [[2], '
     '{"accuracy": 0.5, "area_mm2": 1.25, "power_mw": 0.125, '
     '"n_gates": 10}]]}'),
    (GET_COEFF, C, None, None, 404,
     '{"error": "no coefficient payload kkkkkkkkkkkk"}'),
    (PUT_COEFF, C, None, {"payload": [{"original": 3,
                                       "approximated": 2}]}, 200,
     '{"type": "coeff", "stored": true}'),
    (GET_COEFF, C, None, None, 200,
     '{"type": "coeff", "payload": [{"approximated": 2, '
     '"original": 3}]}'),
    (GET_NETLIST, C, None, None, 404,
     '{"error": "no coeff netlist kkkkkkkkkkkk"}'),
    (FINGERPRINT, C, None, None, 404,
     '{"error": "no coeff netlist kkkkkkkkkkkk"}'),
    (PUT_NETLIST, C, None, {"netlist": NETLIST, "fingerprint": "f" * 64},
     200, '{"type": "coeff-netlist", "stored": true}'),
    (GET_NETLIST, C, None, None, 200,
     '{"type": "coeff-netlist", "netlist": {"nodes": [], '
     '"buses": {"z": 1, "a": 2}}}'),
    (FINGERPRINT, C, None, None, 200,
     '{"type": "coeff-netlist", "fingerprint": "' + "f" * 64 + '"}'),
]

# (method, path, status): unknown sub-resources and wrong methods.
REFUSALS = [
    ("GET", f"/v1/jobs/{K}/bogus", 404),
    ("GET", f"/v1/bases/{B}/bogus", 404),
    ("PATCH", f"/v1/jobs/{K}/grid", 405),
    ("GET", f"/v1/jobs/{K}/leases/claim", 405),
    ("PUT", f"/v1/jobs/{K}/shards", 405),
    ("DELETE", f"/v1/bases/{B}/variants", 405),
    ("POST", f"/v1/coeff/{C}", 405),
    ("PUT", f"/v1/coeff-netlists/{C}/fingerprint", 405),
]


def exchange(port: int, method: str, path: str,
             body: dict | bytes | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection; a dict body is sent as JSON."""
    if isinstance(body, dict):
        body = json.dumps(body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body or b"",
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_every_route_answers_byte_identically(tmp_path):
    with coordinator(tmp_path) as server:
        for (method, template), key, shard, body, status, want in SCRIPT:
            path = template.format(key=key, shard=shard)
            got = exchange(server.port, method, path, body)
            assert got == (status, want.encode() + b"\n"), \
                (method, path, body)


def test_populated_lease_table_shape(tmp_path):
    # Heartbeat and expiry are wall-clock stamps: pin everything else.
    with coordinator(tmp_path) as server:
        exchange(server.port, "POST", f"/v1/jobs/{K}/leases/claim",
                 LEASE_BODY)
        status, raw = exchange(server.port, "GET", f"/v1/jobs/{K}/leases")
        info = json.loads(raw)["leases"]["0"]
        assert status == 200
        assert raw == (
            '{"type": "leases", "leases": {"0": {"worker": "w1", '
            f'"heartbeat": {info["heartbeat"]!r}, '
            f'"expiry": {info["expiry"]!r}, "token": 1}}}}}}\n'
        ).encode()
        assert info["expiry"] == info["heartbeat"] + 60.0


def test_unknown_sub_resource_and_wrong_method(tmp_path):
    with coordinator(tmp_path) as server:
        for method, path, status in REFUSALS:
            got, raw = exchange(server.port, method, path, {})
            assert got == status, (method, path, raw)
            assert list(json.loads(raw)) == ["error"], raw
