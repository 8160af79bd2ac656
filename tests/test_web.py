"""End-to-end tests for the Ajax web server over real loopback HTTP."""

from __future__ import annotations

import gc
import http.client
import json
import os
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from repro.costmodel.calibration import default_calibration
from repro.errors import WebServerError
from repro.net import build_paper_testbed
from repro.steering import CentralManager, SteeringClient
from repro.viz.image import Image
from repro.web import AjaxWebServer, SteeringWebClient


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


@pytest.fixture()
def running_server(cm):
    """A steering session on the heat demo behind a live HTTP server."""
    client = SteeringClient(cm)
    server = AjaxWebServer(client, port=0)
    server.start()
    client.start(
        simulator="heat",
        technique="isosurface",
        n_cycles=200,
        sim_kwargs={"shape": (12, 12, 12)},
        push_every=2,
    )
    yield server, client
    try:
        client.stop_all()
    finally:
        server.stop()


class TestHttpEndpoints:
    def test_index_page_is_ajax(self, running_server):
        server, _ = running_server
        ajax = SteeringWebClient(server.url)
        html = ajax.index_page()
        assert "XMLHttpRequest" in html
        assert "poll" in html

    def test_long_poll_delivers_image_updates(self, running_server):
        server, _ = running_server
        ajax = SteeringWebClient(server.url)
        props = ajax.wait_for_component("image", polls=30, timeout=2.0)
        assert props["version"] >= 1
        assert "total_delay" in props

    def test_partial_updates_only_changed_components(self, running_server):
        server, _ = running_server
        ajax = SteeringWebClient(server.url)
        ajax.wait_for_component("image")
        diff = ajax.poll(timeout=2.0)
        # every delivered component must be strictly newer than our cursor
        for comp in diff["components"]:
            assert comp["version"] > 0

    def test_image_download_fixed_size_and_png(self, running_server):
        server, _ = running_server
        ajax = SteeringWebClient(server.url)
        ajax.wait_for_component("image")
        img = ajax.fetch_image()
        assert isinstance(img, Image)
        assert img.width > 0
        png = ajax.fetch_png()
        assert png[:8] == b"\x89PNG\r\n\x1a\n"

    def test_image_content_types_and_keepalive(self, running_server):
        """Satellite fix: correct Content-Type per representation and
        honest Connection handling on a persistent connection."""
        server, _ = running_server
        ajax = SteeringWebClient(server.url)
        ajax.wait_for_component("image")
        sid = ajax.resolve_session()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.request("GET", f"/api/v1/{sid}/image")
            resp = conn.getresponse()
            assert resp.getheader("Content-Type") == "application/octet-stream"
            assert resp.getheader("Connection") == "keep-alive"
            resp.read()
            # same socket again: keep-alive must actually keep it open
            conn.request("GET", f"/api/v1/{sid}/image.png")
            resp = conn.getresponse()
            assert resp.getheader("Content-Type") == "image/png"
            body = resp.read()
            assert body[:8] == b"\x89PNG\r\n\x1a\n"
            conn.request("GET", f"/api/v1/{sid}/state", headers={"Connection": "close"})
            resp = conn.getresponse()
            assert resp.getheader("Connection") == "close"
            resp.read()
        finally:
            conn.close()

    def test_steering_round_trip_over_http(self, running_server):
        server, client = running_server
        ajax = SteeringWebClient(server.url)
        ajax.wait_for_component("image")
        resp = ajax.steer(source_x=0.2)
        assert resp["ok"]
        # the steering update must reach the running simulation
        sim = client.session.simulation
        for _ in range(100):
            if sim.params["source_x"] == pytest.approx(0.2):
                break
            ajax.poll(timeout=0.2)
        assert sim.params["source_x"] == pytest.approx(0.2)

    def test_view_operations_change_camera(self, running_server):
        server, client = running_server
        ajax = SteeringWebClient(server.url)
        ajax.wait_for_component("image")
        az_before = client.session._camera.azimuth
        ajax.view(rotate_azimuth=30.0)
        assert client.session._camera.azimuth == pytest.approx(
            (az_before + 30.0) % 360.0
        )
        zoom_before = client.session._camera.zoom
        ajax.view(zoom=2.0)
        assert client.session._camera.zoom == pytest.approx(zoom_before * 2.0)

    def test_stats_endpoint_exposes_executor_counters(self, running_server):
        server, _ = running_server
        ajax = SteeringWebClient(server.url)
        ajax.wait_for_component("image")
        stats = ajax._get_json("/api/v1/stats")
        assert stats["io_threads"] == 1
        assert stats["worker_threads"] == server.workers
        assert stats["requests_served"] >= 1
        executor = stats["executor"]
        # the heat session steps on the shared executor, not its own thread
        assert executor["workers"] >= 1
        assert executor["steps_executed"] >= 1
        assert executor["executor_queue_depth"] >= 0

    def test_cold_png_served_through_worker_pool(self, running_server):
        """A cold-cache PNG re-encode must come back via the off-loop path
        (busy connection -> worker -> completion) and still be cached."""
        server, client = running_server
        ajax = SteeringWebClient(server.url)
        props = ajax.wait_for_component("image")
        sid = ajax.resolve_session()
        store = client.manager.events(sid)
        before = store.png_encode_count
        version = props["version"]
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.request("GET", f"/api/v1/{sid}/image.png?v={version}")
            resp = conn.getresponse()
            assert resp.getheader("Content-Type") == "image/png"
            assert resp.read()[:8] == b"\x89PNG\r\n\x1a\n"
            # warm hit: served inline from the cache, no second encode
            conn.request("GET", f"/api/v1/{sid}/image.png?v={version}")
            resp = conn.getresponse()
            assert resp.read()[:8] == b"\x89PNG\r\n\x1a\n"
        finally:
            conn.close()
        assert store.png_encode_count <= before + 1

    def test_stats_is_get_only(self, running_server):
        server, _ = running_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            conn.request("POST", "/api/v1/stats", body=b"{}")
            resp = conn.getresponse()
            assert resp.status == 405
            body = json.loads(resp.read().decode("utf-8"))
            assert body["error"]["code"] == "method_not_allowed"
        finally:
            conn.close()

    def test_sessions_endpoint(self, running_server):
        server, _ = running_server
        ajax = SteeringWebClient(server.url)
        sessions = ajax.sessions()
        assert "session0" in sessions
        assert sessions["session0"]["simulator"] == "heat"
        assert "running" in sessions["session0"]

    def test_unknown_route_404(self, running_server):
        server, _ = running_server
        ajax = SteeringWebClient(server.url)
        with pytest.raises(Exception):
            ajax._get_json("/api/v1/flux-capacitor")

    def test_unknown_session_404(self, running_server):
        server, _ = running_server
        ajax = SteeringWebClient(server.url, session="nope")
        with pytest.raises(Exception, match="404"):
            ajax.state()


class TestMultiSessionHttp:
    def test_two_sessions_served_concurrently(self, cm):
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            client.start(simulator="heat", session_id="alpha", n_cycles=120,
                         sim_kwargs={"shape": (10, 10, 10)}, push_every=2)
            client.start(simulator="heat", session_id="beta", n_cycles=120,
                         sim_kwargs={"shape": (10, 10, 10)}, push_every=2)
            a = SteeringWebClient(server.url, session="alpha")
            b = SteeringWebClient(server.url, session="beta")
            pa = a.wait_for_component("image", polls=40, timeout=2.0)
            pb = b.wait_for_component("image", polls=40, timeout=2.0)
            assert pa["version"] >= 1 and pb["version"] >= 1
            listing = a.sessions()
            assert set(listing) >= {"alpha", "beta"}
            # steering alpha must not leak into beta's simulation
            a.steer(source_x=0.9)
            alpha_sim = client.manager.get("alpha").simulation
            beta_sim = client.manager.get("beta").simulation
            for _ in range(100):
                if alpha_sim.params["source_x"] == pytest.approx(0.9):
                    break
                a.poll(timeout=0.2)
            assert alpha_sim.params["source_x"] == pytest.approx(0.9)
            assert beta_sim.params["source_x"] != pytest.approx(0.9)
            client.stop_all()

    def test_server_threads_do_not_scale_with_parked_polls(self, cm):
        """The tentpole property: N parked polls, constant server threads."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("quiet")
            cursor = store.seq
            before = {t.name for t in threading.enumerate()}
            conns = []
            try:
                for _ in range(32):
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", server.port, timeout=30.0
                    )
                    conn.request("GET", f"/api/v1/quiet/poll?since={cursor}&timeout=20")
                    conns.append(conn)
                # give the IO loop time to park all 32
                deadline = 50
                while server.scheduler.pending() < 32 and deadline:
                    threading.Event().wait(0.05)
                    deadline -= 1
                assert server.scheduler.pending() == 32
                after = {t.name for t in threading.enumerate()}
                new_threads = after - before
                assert not any(t.startswith("ricsa-web") for t in new_threads)
                assert server.io_thread_count() == 1
                # a publish wakes every parked poll without any new thread
                store.publish_status("session", tick=1)
                for conn in conns:
                    resp = conn.getresponse()
                    delta = resp.read()
                    assert b'"timeout": false' in delta or b"tick" in delta
            finally:
                for conn in conns:
                    conn.close()


class TestOneLoop:
    def test_parked_herd_is_answered_exactly_once_from_a_shared_encode(self, cm):
        """Eight waiters on one session, one publish: every client gets
        the event once, the herd shares ~one JSON encode, and the server
        is 1 IO thread + the worker pool while they are parked."""
        n = 8
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("alpha")
            store.publish_status("session", ready=True)
            path = f"/api/v1/alpha/poll?since={store.seq}&timeout=10"
            conns = [_park_poll(server, path, parked=i + 1) for i in range(n)]
            try:
                assert server.io_thread_count() == 1
                assert server.server_thread_count() == 1 + server.workers
                encodes_before = store.json_encodes
                store.publish_status("session", tick=1)
                responses = [json.loads(c.getresponse().read()) for c in conns]
            finally:
                for conn in conns:
                    conn.close()
            assert {r["version"] for r in responses} == {store.seq}
            assert not any(r["timeout"] for r in responses)
            # A racing straggler may add one encode; never one per waiter.
            assert store.json_encodes - encodes_before <= 2
            assert server.polls_served == n

    def test_stats_is_one_flat_object(self, cm):
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            stats = SteeringWebClient(server.url).server_stats()
        assert not {"shards", "shard_count", "reuseport", "migrations"} & set(stats)
        assert stats["io_threads"] == 1
        assert stats["worker_threads"] == server.workers

    def test_shard_count_is_not_a_parameter(self, cm):
        with pytest.raises(TypeError):
            AjaxWebServer(SteeringClient(cm), shards=2)


class TestServerLifecycle:
    def test_never_started_server_leaves_no_fd_open(self, cm):
        client = SteeringClient(cm)
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        servers = [AjaxWebServer(client, port=0) for _ in range(5)]
        for server in servers:
            server.stop()
        # Closed by stop() itself, while the objects are still alive ...
        assert len(os.listdir("/proc/self/fd")) == before
        # ... so collecting them finds no socket left to warn about.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del servers, server
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_port_and_url_survive_stop(self, cm):
        server = AjaxWebServer(SteeringClient(cm), port=0).start()
        port = server.port
        server.stop()
        assert server.port == port > 0
        assert server.url == f"http://127.0.0.1:{port}"

    def test_restart_raises(self, cm):
        server = AjaxWebServer(SteeringClient(cm), port=0)
        with server:
            with pytest.raises(WebServerError, match="cannot be restarted"):
                server.start()  # already running
            assert server.io_thread_count() == 1  # and still serving
        with pytest.raises(WebServerError, match="cannot be restarted"):
            server.start()
        never_started = AjaxWebServer(SteeringClient(cm), port=0)
        never_started.stop()
        with pytest.raises(WebServerError, match="cannot be restarted"):
            never_started.start()


class TestParkedPollDemand:
    def test_parked_poll_counts_as_live_demand(self, cm):
        """A watched-but-quiet session must never read as 'stalled'.

        A parked long poll touches none of the store's read paths while
        it waits, so the poll-recency clock alone would decay mid-park
        and demote the session to the executor's cold queue.  The web
        tier's demand probe (parked-waiter count) must keep it hot.
        """
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("watched")
            cursor = store.seq
            store._last_poll -= 100.0  # decay: no reads, no probe yet
            assert not store.in_demand(5.0)
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30.0)
            try:
                conn.request("GET", f"/api/v1/watched/poll?since={cursor}&timeout=20")
                deadline = 100
                while server.scheduler.pending() < 1 and deadline:
                    time.sleep(0.02)
                    deadline -= 1
                assert server.scheduler.pending() == 1
                store._last_poll -= 100.0  # decay the clock again mid-park
                assert store.in_demand(5.0), (
                    "a parked poll did not register as live demand"
                )
                store.publish_status("session", tick=1)
                assert conn.getresponse().status == 200
                # waiter delivered: demand now rests on the (touched) clock
                assert store.in_demand(5.0)
            finally:
                conn.close()


def _park_poll(server, path: str, parked: int = 1) -> http.client.HTTPConnection:
    """Send a poll that must park; return once the scheduler holds it."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)
    conn.request("GET", path)
    deadline = time.monotonic() + 5.0
    while server.scheduler.pending() < parked and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.scheduler.pending() == parked
    return conn


class TestOneDeliveryPath:
    def test_parked_windowed_poll_is_answered_for_the_moved_window(self, cm):
        """A pan that lands while a ``poll?window=w`` is parked must shape
        the woken delta, exactly as it shapes an SSE/WS client's next
        push: the geometry key is resolved at delivery, not at parking."""
        from repro.data.grid import StructuredGrid
        from repro.data.octree import Octree
        from repro.web import SteeringWebClient
        from repro.window import WindowedDomainSource

        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("pan")
            rng = np.random.default_rng(5)
            tree = Octree(StructuredGrid(rng.random((33, 33, 33),
                                                    dtype=np.float32)),
                          leaf_cells=16)
            store.set_window_source(WindowedDomainSource(tree))
            store.publish_window_step(0)
            mover = SteeringWebClient(server.url, session="pan")
            mover.set_window((0, 0, 0), (17, 17, 17), lod=0, wid="w")
            conn = _park_poll(
                server,
                f"/api/v1/pan/poll?since={store.seq}&timeout=20&window=w")
            try:
                moved = mover.set_window((8, 8, 8), (25, 25, 25), lod=0,
                                         wid="w")["window"]
                store.publish_window_step(1)
                delta = json.loads(conn.getresponse().read())
            finally:
                conn.close()
            assert delta["window"] == moved
            assert delta["window"]["lo"] == [8, 8, 8]

    def test_swallowed_delivery_failure_is_counted_in_stats(self, cm):
        """A store that raises while framing costs its own watchers their
        connections — and shows up in ``/api/v1/stats`` instead of
        vanishing into the loop's ``except``."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            bad = client.manager.open_monitor("bad")
            good = client.manager.open_monitor("good")
            doomed = _park_poll(
                server, f"/api/v1/bad/poll?since={bad.seq}&timeout=20")
            healthy = _park_poll(
                server, f"/api/v1/good/poll?since={good.seq}&timeout=20",
                parked=2)

            def boom(*args, **kwargs):
                raise RuntimeError("frame cache exploded")

            bad.framed_delta_with_head = boom
            try:
                bad.publish_status("session", tick=1)
                good.publish_status("session", tick=1)
                assert healthy.getresponse().status == 200
                with pytest.raises((http.client.HTTPException, OSError)):
                    doomed.getresponse()
            finally:
                doomed.close()
                healthy.close()
            stats = server.stats()
            assert stats["delivery_errors"] == 1
            assert server.io_thread_count() == 1


class TestMalformedPipelinedRequest:
    def test_bad_content_length_behind_parked_poll_does_not_kill_server(self, cm):
        """A malformed request delivered through the herd-wake path
        (outside the selector callbacks) must not kill the IO loop."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("evil")
            cursor = store.seq
            evil = socket.create_connection(("127.0.0.1", server.port))
            evil.sendall(
                f"GET /api/v1/evil/poll?since={cursor}&timeout=20 "
                f"HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                + b"POST /api/v1/evil/steer HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: oops\r\n\r\n"
            )
            deadline = 100
            while server.scheduler.pending() < 1 and deadline:
                time.sleep(0.02)
                deadline -= 1
            assert server.scheduler.pending() == 1
            # the wake delivers the poll response, then hits the malformed
            # pipelined request during _process_input
            store.publish_status("session", tick=1)
            time.sleep(0.3)
            assert server.io_thread_count() == 1, "IO loop died on bad framing"
            # and the server still answers everyone else
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
            try:
                conn.request("GET", "/api/v1/evil/state")
                assert conn.getresponse().status == 200
            finally:
                conn.close()
                evil.close()


class TestOffLoopSessionCreation:
    def test_post_sessions_runs_on_worker_pool(self, cm):
        """POST /api/v1/sessions (CM configure) must not execute on the IO loop."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            assert server.io_thread_count() == 1
            assert server.worker_thread_count() == server.workers
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)
            try:
                body = json.dumps({
                    "simulator": "heat", "session_id": "offloop",
                    "n_cycles": 40, "sim_kwargs": {"shape": (10, 10, 10)},
                    "push_every": 2,
                })
                conn.request("POST", "/api/v1/sessions", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                created = json.loads(resp.read().decode("utf-8"))
                assert created == {"ok": True, "session": "offloop"}
                # the session is real: it publishes images we can poll
                ajax = SteeringWebClient(server.url, session="offloop")
                props = ajax.wait_for_component("image", polls=40, timeout=2.0)
                assert props["version"] >= 1
                # thread count unchanged: the heavy route reused pool threads
                assert server.io_thread_count() == 1
                assert server.worker_thread_count() == server.workers
            finally:
                conn.close()
            client.stop_all()

    def test_parked_polls_wake_while_session_creation_in_flight(self, cm):
        """A heavy POST /api/v1/sessions must not delay other clients' wakes."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("fastlane")
            cursor = store.seq
            # park a poll, then fire a session creation at the server
            poll_conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30.0
            )
            poll_conn.request("GET", f"/api/v1/fastlane/poll?since={cursor}&timeout=20")
            deadline = 100
            while server.scheduler.pending() < 1 and deadline:
                time.sleep(0.02)
                deadline -= 1
            assert server.scheduler.pending() == 1
            create_conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60.0
            )
            try:
                create_conn.request(
                    "POST", "/api/v1/sessions",
                    body=json.dumps({
                        "simulator": "heat", "session_id": "heavy",
                        "n_cycles": 30, "sim_kwargs": {"shape": (16, 16, 16)},
                    }),
                    headers={"Content-Type": "application/json"},
                )
                # while the worker configures "heavy", a publish must wake
                # the parked poll promptly through the (free) IO loop
                t0 = time.monotonic()
                store.publish_status("session", tick=1)
                resp = poll_conn.getresponse()
                delta = json.loads(resp.read().decode("utf-8"))
                wake_seconds = time.monotonic() - t0
                assert delta["version"] > cursor
                assert wake_seconds < 2.0, (
                    f"wake took {wake_seconds:.3f}s while a session creation "
                    "was in flight — heavy route is blocking the IO loop"
                )
                created = json.loads(create_conn.getresponse().read().decode("utf-8"))
                assert created["ok"] is True
            finally:
                poll_conn.close()
                create_conn.close()
            client.stop_all()

    def test_malformed_creation_body_is_answered_inline(self, cm):
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
            try:
                conn.request("POST", "/api/v1/sessions", body=b"{not json",
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 400
                assert "error" in json.loads(resp.read().decode("utf-8"))
            finally:
                conn.close()

    def test_duplicate_session_creation_reports_error(self, cm):
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            client.manager.open_monitor("taken")
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)
            try:
                conn.request("POST", "/api/v1/sessions",
                             body=json.dumps({"session_id": "taken",
                                              "sim_kwargs": {"shape": (8, 8, 8)}}),
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 400
                assert "already exists" in json.loads(
                    resp.read().decode("utf-8")
                )["error"]["message"]
            finally:
                conn.close()


class TestConcurrentLongPollHttp:
    def test_burst_publishes_observed_in_order_by_all_clients(self, cm):
        """Satellite: concurrent pollers during a publish burst each see a
        strictly increasing version sequence with no lost wakeups."""
        client = SteeringClient(cm)
        n_clients, n_publishes = 10, 60
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("burst")
            base = store.seq
            start = threading.Barrier(n_clients + 1)
            errors: list[str] = []
            finals: list[int] = []

            def poller(idx: int):
                ajax = SteeringWebClient(server.url, session="burst")
                ajax.since = base
                start.wait()
                last = base
                while last < base + n_publishes:
                    diff = ajax.poll(timeout=5.0)
                    if diff["version"] < last:
                        errors.append(f"client {idx}: version went backwards")
                        return
                    if diff["timeout"] and diff["components"]:
                        errors.append(f"client {idx}: timeout with data")
                        return
                    seqs = [c["version"] for c in diff["components"]]
                    if any(s <= last for s in seqs):
                        errors.append(f"client {idx}: stale component in delta")
                        return
                    last = diff["version"]
                finals.append(last)

            threads = [
                threading.Thread(target=poller, args=(i,), name=f"bench-client-{i}")
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            start.wait()
            for i in range(n_publishes):
                store.publish_status("session", tick=i)
            for t in threads:
                t.join(timeout=30.0)
            assert errors == []
            assert len(finals) == n_clients
            assert all(v >= base + n_publishes for v in finals)


class TestSteeringChangesImages:
    def test_steered_run_produces_different_images(self, cm):
        """Monitor, steer, observe: the whole point of the system."""
        client = SteeringClient(cm)
        client.start(
            simulator="heat",
            n_cycles=30,
            sim_kwargs={"shape": (12, 12, 12)},
        )
        first = client.wait_for_image(since=0, timeout=20.0)
        client.steer(source_x=0.15, source_strength=60.0)
        later = client.wait_for_image(since=first.version + 5, timeout=30.0)
        client.stop()
        from repro.viz.image import decode_fixed_size

        img_a = decode_fixed_size(first.blob).pixels
        img_b = decode_fixed_size(later.blob).pixels
        assert not np.array_equal(img_a, img_b)
