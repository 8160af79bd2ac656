"""Sharded serving plane: listener setup, session routing, fallback path.

The invariants that make ``shards=K`` safe to turn on:

* every parked waiter for a session lives on the one shard that owns it
  (the session router), so a publish wakes exactly one loop,
* a woken herd is delivered exactly once — no cross-shard double
  delivery, and still ~one JSON encode per wake,
* the SO_REUSEPORT-unavailable fallback (single acceptor + round-robin
  handoff) serves the identical API,
* ``/api/v1/stats`` top-level counters are honest sums of the per-shard
  blocks.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.costmodel.calibration import default_calibration
from repro.errors import WebServerError
from repro.net import build_paper_testbed
from repro.steering import CentralManager, SessionManager, SteeringClient
from repro.web import AjaxWebServer
from repro.web.sharding import (
    create_shard_listeners,
    default_shard_router,
    reuseport_available,
)


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


def make_server(cm, **kwargs):
    manager = SessionManager(cm, executor_workers=2)
    client = SteeringClient(cm, manager)
    return AjaxWebServer(client, port=0, **kwargs), manager


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestShardListeners:
    def test_single_shard_is_one_plain_listener(self):
        listeners, used = create_shard_listeners("127.0.0.1", 0, 1)
        try:
            assert len(listeners) == 1
            assert used is False
        finally:
            listeners[0].close()

    @pytest.mark.skipif(not reuseport_available(),
                        reason="platform lacks SO_REUSEPORT")
    def test_reuseport_binds_every_shard_to_one_port(self):
        listeners, used = create_shard_listeners("127.0.0.1", 0, 4)
        try:
            assert used is True
            assert len(listeners) == 4
            ports = {sock.getsockname()[1] for sock in listeners}
            assert len(ports) == 1
            for sock in listeners:
                assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT)
        finally:
            for sock in listeners:
                sock.close()

    def test_forced_fallback_returns_single_listener(self):
        listeners, used = create_shard_listeners(
            "127.0.0.1", 0, 4, use_reuseport=False
        )
        try:
            assert used is False
            assert len(listeners) == 1
        finally:
            listeners[0].close()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(WebServerError, match="shard count"):
            create_shard_listeners("127.0.0.1", 0, 0)
        with pytest.raises(WebServerError, match="shard count"):
            default_shard_router(0)

    def test_router_is_deterministic_and_spreads(self):
        route = default_shard_router(4)
        sids = [f"session{i}" for i in range(64)]
        first = [route(s) for s in sids]
        assert first == [route(s) for s in sids]  # stable, unsalted
        assert all(0 <= shard < 4 for shard in first)
        assert len(set(first)) > 1  # not everything on one shard


class TestServerSharding:
    def test_single_shard_default_unchanged(self, cm):
        server, manager = make_server(cm)
        with server:
            assert server.shards == 1
            assert server.io_thread_count() == 1
            assert server.scheduler is server._shards[0].scheduler
        manager.close_all()

    def test_multi_shard_scheduler_property_refuses(self, cm):
        server, manager = make_server(cm, shards=2)
        with pytest.raises(WebServerError, match="per-shard"):
            server.scheduler
        server.stop()
        manager.close_all()

    def _park_and_publish(self, cm, n_clients: int, **server_kwargs):
        """Park ``n_clients`` long polls on one session, publish once,
        and return (server, per-client response list, owner shard)."""
        server, manager = make_server(cm, **server_kwargs)
        store = manager.open_monitor("alpha")
        store.publish_status("session", ready=True)
        since = store.seq
        responses: list[dict] = []
        lock = threading.Lock()
        errors: list[BaseException] = []

        def client() -> None:
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=15.0
                )
                conn.request("GET", f"/api/v1/alpha/poll?since={since}&timeout=10")
                resp = conn.getresponse()
                body = json.loads(resp.read())
                conn.close()
                with lock:
                    responses.append(body)
            except BaseException as exc:  # surfaced by the caller
                with lock:
                    errors.append(exc)

        with server:
            owner = server._shard_of("alpha")
            threads = [threading.Thread(target=client) for _ in range(n_clients)]
            for t in threads:
                t.start()
            assert wait_until(
                lambda: owner.scheduler.pending_for("alpha") == n_clients
            ), "not every poll parked on the owning shard"
            # Routing invariant: no waiter for the session anywhere else.
            for shard in server._shards:
                if shard is not owner:
                    assert shard.scheduler.pending_for("alpha") == 0
            encodes_before = store.json_encodes
            store.publish_status("session", tick=1)
            for t in threads:
                t.join(timeout=15.0)
            assert not errors, errors
            encode_cost = store.json_encodes - encodes_before
            owner_stats = owner.stats()
        manager.close_all()
        return server, responses, owner_stats, encode_cost

    @pytest.mark.parametrize("use_reuseport", [None, False])
    def test_waiters_wake_once_on_owning_shard(self, cm, use_reuseport):
        n = 8
        server, responses, owner_stats, encode_cost = self._park_and_publish(
            cm, n, shards=4, use_reuseport=use_reuseport
        )
        # Exactly-once delivery: every client got exactly one response
        # carrying the published event — the herd saw no duplicates and
        # no cross-shard second delivery.
        assert len(responses) == n
        versions = {r["version"] for r in responses}
        assert len(versions) == 1
        assert all(not r["timeout"] for r in responses)
        # The whole herd shared ~one encode (a racing straggler may add one).
        assert encode_cost <= 2
        # And the owning shard answered the entire herd.
        assert owner_stats["polls_served"] == n

    def test_fallback_acceptor_hands_off_round_robin(self, cm):
        server, manager = make_server(cm, shards=4, use_reuseport=False)
        assert server.reuseport_active is False
        # Only shard 0 has an accept socket in fallback mode.
        assert server._shards[0].listen is not None
        assert all(s.listen is None for s in server._shards[1:])
        manager.open_monitor("alpha").publish_status("session", ready=True)
        with server:
            for _ in range(8):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10.0
                )
                conn.request("GET", "/api/v1/sessions")
                body = json.loads(conn.getresponse().read())
                conn.close()
                assert "alpha" in body
            stats = server.stats()
        manager.close_all()
        shard_stats = stats["shards"]
        # The single acceptor handed connections to its peers...
        assert shard_stats[0]["accept_handoffs"] >= 6
        # ...and peers actually served some of them.
        assert sum(s["requests_served"] for s in shard_stats[1:]) >= 1

    def test_migrated_connection_keeps_working(self, cm):
        """A keep-alive connection that crosses shard ownership twice (two
        different sessions) is migrated and keeps serving requests."""
        server, manager = make_server(cm, shards=4)
        stores = {}
        for sid in ("alpha", "beta", "gamma", "delta"):
            stores[sid] = manager.open_monitor(sid)
            stores[sid].publish_status("session", ready=True)
        with server:
            # Find two sessions owned by different shards.
            owners = {sid: server._shard_of(sid).index for sid in stores}
            a = "alpha"
            b = next(s for s in stores if owners[s] != owners[a])
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10.0
            )
            for sid in (a, b, a, b):  # ping-pong across owners, same socket
                conn.request("GET", f"/api/v1/{sid}/state")
                body = json.loads(conn.getresponse().read())
                assert body["version"] >= 1
            conn.close()
            stats = server.stats()
        manager.close_all()
        assert stats["migrations"] >= 3  # at least one hop per crossing

    def test_stats_top_level_sums_per_shard_blocks(self, cm):
        server, manager = make_server(cm, shards=3)
        manager.open_monitor("alpha").publish_status("session", ready=True)
        with server:
            for _ in range(6):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10.0
                )
                conn.request("GET", "/api/v1/alpha/state")
                conn.getresponse().read()
                conn.close()
            stats = server.stats()
        manager.close_all()
        shard_stats = stats["shards"]
        assert stats["shard_count"] == 3
        assert len(shard_stats) == 3
        assert stats["io_threads"] == 3
        for key in ("requests_served", "polls_served", "bytes_sent",
                    "parked_polls", "slow_client_disconnects"):
            assert stats[key] == sum(s[key] for s in shard_stats), key
        for s in shard_stats:
            assert {"shard", "io_threads", "parked_polls", "bytes_sent",
                    "migrations_in", "migrations_out",
                    "accept_handoffs"} <= set(s)
        assert stats["executor"]["backend"] in ("thread", "process", "none")

    def test_server_thread_budget_scales_with_shards_only(self, cm):
        server, manager = make_server(cm, shards=4, workers=2)
        with server:
            assert server.io_thread_count() == 4
            assert server.worker_thread_count() == 2
            assert server.server_thread_count() == 6
            names = [t.name for t in threading.enumerate()
                     if t.name.startswith("ricsa-web-io")]
            assert sorted(names) == [f"ricsa-web-io-{i}" for i in range(4)]
        manager.close_all()

    def test_custom_router_controls_ownership(self, cm):
        server, manager = make_server(
            cm, shards=4, shard_router=lambda sid: 2
        )
        with server:
            assert server._shard_of("anything").index == 2
            assert server._shard_of("else").index == 2
        manager.close_all()
