"""Tests for the HTTP fleet coordinator's client, heartbeat and fleet.

The multi-host fleet has one safety property — **a fenced worker never
mutates the store** — and one liveness property — **transient network
failure is absorbed by retry, sustained failure surfaces as
CoordinatorError**.  The store operations themselves (fencing included)
are proven once for both backends in ``tests/test_store_contract.py``
and their wire bytes pinned in ``tests/test_coordinator_wire.py``; this
module covers the client's retry behaviour, the lease heartbeat, and the
end-to-end identity oracle — a fleet worker running entirely over HTTP
produces the byte-identical design list to a serial in-process run.
Every server here is a real in-process ``repro serve`` (its own event
loop on a background thread, real sockets on localhost); the helpers
``coordinator()`` and ``remote()`` are shared with those modules.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.service import (
    CoordinatorClient,
    CoordinatorError,
    DesignStore,
    ExplorationService,
    ExploreRequest,
    RemoteStore,
)
from repro.service.faults import FaultInjector, installed
from repro.service.retry import RetryPolicy
from repro.service.server import ExploreServer, ServeConfig
from repro.service.telemetry import get_hub

GRID = (0.90, 0.99)
GKEY = "c" * 64
PAYLOAD = {"chains": [], "rows": []}


@contextmanager
def coordinator(tmp_path, **overrides):
    """A real ``repro serve`` on localhost, event loop on a thread."""
    options = {"port": 0, "store_root": str(tmp_path / "stores"),
               "concurrency": 2, "queue_depth": 8}
    options.update(overrides)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    box: dict = {}

    def run():
        asyncio.set_event_loop(loop)
        box["server"] = loop.run_until_complete(
            ExploreServer(ServeConfig(**options)).start())
        ready.set()
        loop.run_forever()
        loop.run_until_complete(box["server"].shutdown())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(15), "coordinator failed to start"
    try:
        yield box["server"]
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(20)


def remote(server, **kwargs) -> RemoteStore:
    return RemoteStore(CoordinatorClient(f"http://127.0.0.1:{server.port}",
                                         **kwargs))


def fast_policy(**overrides) -> RetryPolicy:
    options = dict(attempts=4, base_s=0.01, cap_s=0.05, deadline_s=5.0,
                   jitter="none")
    options.update(overrides)
    return RetryPolicy(**options)


class TestClientRobustness:
    def test_keep_alive_reuses_one_connection(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            before = get_hub().registry.counter_total("coord.retries")
            store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
            conn = store.client._conn
            assert conn is not None
            for _ in range(5):
                store.leases_for_grid(GKEY)
            # Same socket the whole way, and no retry was needed — the
            # server honored keep-alive rather than closing on us.
            assert store.client._conn is conn
            assert get_hub().registry.counter_total("coord.retries") \
                == before

    def test_request_fault_is_retried_transparently(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            store.client.policy = fast_policy()
            before = get_hub().registry.counter_total("coord.retries")
            with installed(FaultInjector.parse("coord.request:1=drop")):
                token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
            assert token >= 1
            assert get_hub().registry.counter_total("coord.retries") \
                == before + 1

    def test_lost_ack_replay_is_idempotent(self, tmp_path):
        # The response fault fires *after* the body was read: the
        # server committed, the client saw a network error and replays.
        with coordinator(tmp_path) as server:
            store = remote(server)
            store.client.policy = fast_policy()
            token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
            with installed(FaultInjector.parse(
                    "coord.response@method=PUT:1=partial-body")):
                store.put_shard(GKEY, 0, list(GRID), PAYLOAD,
                                fence=("w1", token))
            taus, payload = store.get_shard(GKEY, 0)
            assert taus == list(GRID) and payload == PAYLOAD
            assert store.shard_indices(GKEY) == {0}

    def test_injected_503_is_absorbed(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            store.client.policy = fast_policy()
            with installed(FaultInjector.parse(
                    "coord.response:1=error-503")):
                assert store.claim_lease(GKEY, 0, "w1", ttl_s=60.0) >= 1

    def test_unreachable_coordinator_raises_after_deadline(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # Nothing listens on `port` now; connection is refused fast.
        client = CoordinatorClient(f"http://127.0.0.1:{port}",
                                   policy=fast_policy(attempts=3,
                                                      deadline_s=1.0))
        store = RemoteStore(client)
        with pytest.raises(CoordinatorError, match="unreachable"):
            store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            CoordinatorClient("https://example.com")


class TestRemoteLeaseManager:
    def test_heartbeat_outlives_a_short_ttl(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            manager = store.make_lease_manager(GKEY, "w1", ttl_s=0.6)
            manager.heartbeat_s = 0.1
            assert manager.claim(0)
            with manager.guarding(0):
                time.sleep(1.0)  # several TTLs worth of compute
                # the heartbeat kept the lease alive the whole time
                info = store.leases_for_grid(GKEY)[0]
                assert info["worker"] == "w1"
                assert info["expiry"] > time.time()
            store.put_shard(GKEY, 0, list(GRID), PAYLOAD,
                            fence=manager.fence(0))
            manager.release(0)
            assert store.shard_indices(GKEY) == {0}


class TestRemoteFleetIdentity:
    def test_http_workers_match_serial_run(self, tmp_path):
        request = ExploreRequest(dataset="redwine", model="svm_r",
                                 base="exact", tau_grid=GRID)
        reference, _report = ExplorationService(
            DesignStore(tmp_path / "ref.sqlite"), shard_size=1).explore(
                request)
        with coordinator(tmp_path) as server:
            results: dict = {}

            def worker(name: str) -> None:
                service = ExplorationService(remote(server),
                                             shard_size=1)
                try:
                    results[name] = service.fleet_worker(request, name)
                except Exception as exc:  # surfaced by the assert below
                    results[name] = exc

            threads = [threading.Thread(target=worker, args=(name,))
                       for name in ("alpha", "beta")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(300)
            for name, outcome in results.items():
                assert not isinstance(outcome, Exception), \
                    (name, outcome)

            # Every HTTP worker returns the byte-identical design list.
            for name in ("alpha", "beta"):
                designs, report = results[name]
                assert designs == reference, name
                assert report.finalized or report.grid_hit \
                    or report.shards_computed == []

            # The coordinator's store holds the same grid and no
            # leftover leases or checkpoints-in-flight.
            done = [results[n][1] for n in ("alpha", "beta")]
            computed = [set(r.shards_computed) for r in done]
            assert computed[0] & computed[1] == set()
