"""One store contract, proven for both backends.

The fleet loop, the jobs and the service use a store only through the
operations of the coordinator's RPC table.  Every test in
``TestStoreContract`` runs twice: against a local SQLite
:class:`DesignStore`, and against a :class:`RemoteStore` talking HTTP to
a real in-process ``repro serve`` coordinator.  Fencing, lease expiry
and reclaim, lost-ack replay and the missing-row answers are therefore
the same contract on both sides of the wire.

The rest pins the server's refusal of malformed input: the typed
decoders answer every bad body with a 400 that writes nothing, and a
Hypothesis fuzz over every route never draws a 5xx or poisons the store.
"""

from __future__ import annotations

import inspect
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pruning import PrunedDesign
from repro.eval.accuracy import EvaluationRecord
from repro.service import DesignStore, FencedWriteError, RemoteStore
from repro.service.coordinator import RPC_TABLE
from repro.service.faults import FaultInjector, installed

from test_coordinator import GKEY, GRID, PAYLOAD, coordinator, fast_policy, \
    remote
from test_coordinator_wire import SCRIPT, exchange

BKEY = "b" * 64
CKEY = "k" * 64
RECORD = EvaluationRecord(accuracy=0.75, area_mm2=2.5, power_mw=0.25,
                          n_gates=42)
DESIGNS = [PrunedDesign(0.9, 3, 2, RECORD, None),
           PrunedDesign(0.99, 4, 0, RECORD, (0.9, 3))]


@pytest.fixture(params=["sqlite", "http"])
def store(request, tmp_path):
    if request.param == "sqlite":
        yield DesignStore(tmp_path / "store.sqlite")
        return
    with coordinator(tmp_path) as server:
        store = remote(server)
        store.client.policy = fast_policy()
        yield store


class TestStoreContract:
    def test_lease_lifecycle(self, store):
        token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
        assert token >= 1
        # a live peer is excluded; the holder re-claims its own token
        assert store.claim_lease(GKEY, 0, "w2", ttl_s=60.0) == 0
        assert store.claim_lease(GKEY, 0, "w1", ttl_s=60.0) == token
        assert store.renew_lease(GKEY, 0, "w1", ttl_s=60.0, token=token)
        assert store.renew_lease(GKEY, 0, "w1", ttl_s=60.0)
        assert not store.renew_lease(GKEY, 0, "w1", ttl_s=60.0,
                                     token=token + 1)
        leases = store.leases_for_grid(GKEY)
        assert list(leases) == [0]
        assert leases[0]["worker"] == "w1"
        assert leases[0]["token"] == token
        store.release_lease(GKEY, 0, "w1")
        assert store.leases_for_grid(GKEY) == {}
        store.claim_lease(GKEY, 3, "w1", ttl_s=60.0)
        store.clear_leases(GKEY)
        assert store.leases_for_grid(GKEY) == {}

    def test_lease_expiry_and_reclaim(self, store):
        stale = store.claim_lease(GKEY, 0, "zombie", ttl_s=-5.0)
        fresh = store.claim_lease(GKEY, 0, "peer", ttl_s=60.0)
        assert fresh > stale >= 1
        assert store.leases_for_grid(GKEY)[0]["worker"] == "peer"
        # the zombie learns it lost the span, under its id or its token
        assert not store.renew_lease(GKEY, 0, "zombie", ttl_s=60.0)
        assert not store.renew_lease(GKEY, 0, "zombie", ttl_s=60.0,
                                     token=stale)
        assert store.renew_lease(GKEY, 0, "peer", ttl_s=60.0, token=fresh)

    def test_shard_checkpoints_round_trip(self, store):
        assert store.get_shard(GKEY, 0) is None
        assert store.shard_indices(GKEY) == set()
        token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
        store.put_shard(GKEY, 0, list(GRID), PAYLOAD, fence=("w1", token))
        store.put_shard(GKEY, 2, list(GRID), {"rows": [1]})  # unfenced
        taus, payload = store.get_shard(GKEY, 0)
        assert taus == list(GRID) and payload == PAYLOAD
        assert store.get_shard(GKEY, 2) == (list(GRID), {"rows": [1]})
        assert store.shard_indices(GKEY) == {0, 2}
        store.clear_shards(GKEY)
        assert store.shard_indices(GKEY) == set()

    def test_fenced_upload_writes_nothing(self, store):
        stale = store.claim_lease(GKEY, 0, "zombie", ttl_s=-5.0)
        fresh = store.claim_lease(GKEY, 0, "peer", ttl_s=60.0)
        with pytest.raises(FencedWriteError):
            store.put_shard(GKEY, 0, list(GRID), PAYLOAD,
                            fence=("zombie", stale))
        assert store.shard_indices(GKEY) == set()
        # a released lease fences its former holder too
        with pytest.raises(FencedWriteError):
            store.put_shard(GKEY, 1, list(GRID), PAYLOAD, fence=("peer", 1))
        # ... and the rightful holder still lands its write
        store.put_shard(GKEY, 0, list(GRID), PAYLOAD, fence=("peer", fresh))
        assert store.shard_indices(GKEY) == {0}

    def test_lost_ack_replay_is_idempotent(self, store):
        # Over HTTP the response fault fires after the server committed:
        # the client sees a network error and replays the upload.  The
        # explicit second upload is the same replay for either backend.
        token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
        with installed(FaultInjector.parse(
                "coord.response@method=PUT:1=partial-body")):
            store.put_shard(GKEY, 0, list(GRID), PAYLOAD,
                            fence=("w1", token))
        store.put_shard(GKEY, 0, list(GRID), PAYLOAD, fence=("w1", token))
        assert store.get_shard(GKEY, 0) == (list(GRID), PAYLOAD)
        assert store.shard_indices(GKEY) == {0}

    def test_grid_round_trip_meta_and_delete(self, store):
        assert store.get_grid(GKEY) is None
        assert store.grid_meta(GKEY) is None
        store.put_grid(GKEY, DESIGNS, meta={"engine": "auto"})
        assert store.get_grid(GKEY) == DESIGNS
        assert store.grid_meta(GKEY) == {"engine": "auto"}
        store.put_grid(GKEY, DESIGNS[:1])       # replaces; meta defaults
        assert store.get_grid(GKEY) == DESIGNS[:1]
        assert store.grid_meta(GKEY) == {}
        store.delete_grid(GKEY)
        assert store.get_grid(GKEY) is None
        assert store.grid_meta(GKEY) is None

    def test_variants_round_trip(self, store):
        assert store.variants_for_base(BKEY) == {}
        store.put_variants(BKEY, {})            # a no-op, not an error
        other = EvaluationRecord(0.5, 1.0, 0.125, 7)
        store.put_variants(BKEY, {frozenset({5, 2}): RECORD, (): other})
        store.put_variants(BKEY, {frozenset({2, 5}): other})  # first wins
        assert store.variants_for_base(BKEY) == {(2, 5): RECORD,
                                                 (): other}
        assert store.variants_for_base("a" * 64) == {}

    def test_coeff_caches(self, store):
        assert store.get_coeff(CKEY) is None
        store.put_coeff(CKEY, [{"original": 3, "approximated": 2}])
        assert store.get_coeff(CKEY) == [{"original": 3, "approximated": 2}]
        assert store.get_coeff_netlist(CKEY) is None
        assert store.get_coeff_netlist_fingerprint(CKEY) is None
        netlist = {"nodes": [], "buses": {"z": 1, "a": 2}}
        store.put_coeff_netlist(CKEY, netlist, "f" * 64)
        got = store.get_coeff_netlist(CKEY)
        assert got == netlist and list(got["buses"]) == ["z", "a"]
        assert store.get_coeff_netlist_fingerprint(CKEY) == "f" * 64


class TestTable:
    def test_remote_methods_mirror_the_store_signatures(self):
        for rpc in RPC_TABLE:
            assert inspect.signature(getattr(RemoteStore, rpc.name)) \
                == inspect.signature(getattr(DesignStore, rpc.name)), \
                rpc.name

    def test_golden_wire_script_covers_every_route(self):
        served = {(rpc.method, rpc.path) for rpc in RPC_TABLE}
        assert {route for route, *_rest in SCRIPT} == served


def _server_store(tmp_path) -> DesignStore:
    return DesignStore(tmp_path / "stores" / "default.sqlite")


class TestMalformedBodies:
    """Bodies a client-side typo could send: 400, and nothing written."""

    @pytest.mark.parametrize("path, body", [
        (f"/v1/jobs/{GKEY}/shards/0",
         {"taus": [0.9], "payload": {}, "fence": ["w"]}),
        (f"/v1/jobs/{GKEY}/shards/0",
         {"taus": [0.9, "nan"], "payload": {}}),
        (f"/v1/jobs/{GKEY}/grid", {"designs": [{}]}),
        (f"/v1/jobs/{GKEY}/grid", {"designs": [{"tau_c": 0.9}]}),
        (f"/v1/bases/{BKEY}/variants", {"variants": [[[1], {}]]}),
        (f"/v1/bases/{BKEY}/variants", {"variants": [[[True], {}]]}),
        (f"/v1/coeff-netlists/{CKEY}", {"netlist": {}, "fingerprint": 7}),
    ])
    def test_put_is_refused_and_writes_nothing(self, tmp_path, path, body):
        with coordinator(tmp_path) as server:
            status, raw = exchange(server.port, "PUT", path, body)
            assert status == 400, raw
            assert json.loads(raw)["error"].startswith(
                "bad coordinator payload")
        counts = _server_store(tmp_path).stats()
        assert counts["grids"] == counts["variants"] == 0
        assert counts["shards"] == counts["coeff_netlists"] == 0

    @pytest.mark.parametrize("body", [
        {"shard": 0, "worker": "w", "ttl_s": "nan"},
        {"shard": 0, "worker": "w", "ttl_s": float("inf")},
        {"shard": 2 ** 64, "worker": "w", "ttl_s": 60.0},
        {"shard": 0, "worker": "w\ud800", "ttl_s": 60.0},
        {"worker": "w", "ttl_s": 60.0},
    ])
    def test_claim_is_refused_and_leases_nothing(self, tmp_path, body):
        with coordinator(tmp_path) as server:
            status, raw = exchange(server.port, "POST",
                                   f"/v1/jobs/{GKEY}/leases/claim", body)
            assert status == 400, raw
        assert _server_store(tmp_path).leases_for_grid(GKEY) == {}

    def test_non_object_bodies_are_refused(self, tmp_path):
        with coordinator(tmp_path) as server:
            for body in (b"", b"[1]", b"{not json", b"\xff"):
                status, raw = exchange(server.port, "PUT",
                                       f"/v1/coeff/{CKEY}", body)
                assert status == 400, (body, raw)


# -- boundary fuzz ------------------------------------------------------

SERVED = [rpc for rpc in RPC_TABLE if not rpc.client_only]
FIELDS = sorted({arg.field for rpc in RPC_TABLE for arg in rpc.args}
                | {"tau_c", "phi_c", "n_pruned", "record", "duplicate_of",
                   "accuracy", "area_mm2", "power_mw", "n_gates"})
VALID_BODIES = {route: body for route, _k, _s, body, *_rest in SCRIPT
                if body is not None}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4),
                      inner, max_size=4),
    max_leaves=12)


@st.composite
def requests(draw):
    """A served route, a concrete path, and a random JSON-object body."""
    rpc = draw(st.sampled_from(SERVED))
    shard = draw(st.sampled_from(["0", "1", "-3", "x", str(2 ** 70)]))
    path = rpc.path.format(key=draw(st.sampled_from(["k" * 8, GKEY])),
                           shard=shard)
    body = draw(st.dictionaries(st.sampled_from(FIELDS), JSON, max_size=5))
    valid = VALID_BODIES.get((rpc.method, rpc.path))
    if valid is not None and draw(st.booleans()):
        # Near-valid: one field of a well-formed body swapped for junk,
        # so the decoders (and the store behind them) see mostly-right
        # input rather than only missing fields.
        body = {**valid, draw(st.sampled_from(sorted(valid))): draw(JSON)}
    return rpc.method, path, body


def test_random_bodies_never_draw_a_5xx(tmp_path):
    with coordinator(tmp_path) as server:
        @settings(max_examples=300, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(requests())
        def probe(request):
            method, path, body = request
            status, raw = exchange(server.port, method, path, body)
            assert status < 500, (method, path, body, raw)
            json.loads(raw)

        probe()
    store = _server_store(tmp_path)   # never poisoned: it opens and checks
    assert store.stats()["format"] >= 5
    assert store.integrity_ok()
