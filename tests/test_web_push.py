"""End-to-end tests for the push transports (SSE + WebSocket).

Covers the tentpole surface over real loopback sockets: SSE chunked
streams with Last-Event-ID resume, the RFC 6455 handshake / data /
ping-pong / close paths, binary image frames, per-transport ``/api/v1/stats``
counters, eviction farewells and client auto-reconnect.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import threading
import time

import pytest

from repro.costmodel.calibration import default_calibration
from repro.errors import WebServerError
from repro.net import build_paper_testbed
from repro.steering import CentralManager, SteeringClient
from repro.viz.image import decode_fixed_size
from repro.web import AjaxWebServer, SteeringWebClient
from repro.wire import (
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    parse_response_head,
    parse_ws_frames,
    ws_accept_key,
    ws_client_frame,
)


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


@pytest.fixture()
def quiet_server(cm):
    """A server with no session yet — tests publish by hand."""
    client = SteeringClient(cm)
    server = AjaxWebServer(client, port=0)
    server.start()
    yield server, client
    server.stop()


@pytest.fixture()
def heat_server(cm):
    """A live heat session publishing real image deltas."""
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


def _drain_until(gen, pred, attempts=40):
    """Pull deltas from a stream generator until ``pred`` matches one."""
    for _ in range(attempts):
        delta = next(gen)
        if pred(delta):
            return delta
    raise AssertionError("stream never produced the expected delta")


class TestSSEStream:
    def test_sse_delivers_publishes_without_reparking(self, quiet_server):
        server, client = quiet_server
        store = client.manager.open_monitor("ssefeed")
        store.publish_status("session", tick=0)  # backlog before connect
        wc = SteeringWebClient(server.url, session="ssefeed")
        gen = wc.events(transport="sse", timeout=2.0)
        try:
            first = _drain_until(gen, lambda d: d.get("components"))
            assert first["version"] >= 1
            registered_after_connect = server.scheduler.registered_total
            versions = [first["version"]]
            for tick in range(1, 6):
                store.publish_status("session", tick=tick)
                delta = _drain_until(gen, lambda d: d.get("components"))
                versions.append(delta["version"])
            assert versions == sorted(versions)
            assert len(set(versions)) == len(versions), "duplicate delivery"
            # the defining push property: no long-poll re-park per event
            assert server.scheduler.registered_total == registered_after_connect
            assert server.subscribers() == 1
            # ...and pushed wakes feed the wake-latency gauge like polls do
            assert server.stats()["wakes_measured"] >= 5
        finally:
            gen.close()
        assert wc.since == store.seq
        assert wc.updates_received >= 6

    def test_sse_resumes_from_last_event_id(self, quiet_server):
        server, client = quiet_server
        store = client.manager.open_monitor("sseresume")
        for tick in range(4):
            store.publish_status("session", tick=tick)
        checkpoint = store.seq
        store.publish_status("session", tick=99)
        wc = SteeringWebClient(server.url, session="sseresume")
        wc.since = checkpoint  # simulate a client resuming mid-stream
        gen = wc.events(transport="sse", timeout=2.0)
        try:
            delta = _drain_until(gen, lambda d: d.get("components"))
            # nothing at or before the checkpoint may be replayed
            assert all(c["version"] > checkpoint for c in delta["components"])
            assert delta["components"][0]["props"]["tick"] == 99
        finally:
            gen.close()

    def test_sse_requires_http11(self, quiet_server):
        server, client = quiet_server
        client.manager.open_monitor("sse10")
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as s:
            s.sendall(b"GET /api/v1/sse10/stream HTTP/1.0\r\nHost: x\r\n\r\n")
            head = s.recv(65536)
        assert b"400" in head.split(b"\r\n", 1)[0]


class TestWebSocketStream:
    def _handshake(self, server, sid: str, query: str = "") -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        sock.sendall(
            (
                f"GET /api/v1/{sid}/ws{query} HTTP/1.1\r\nHost: x\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        buf = bytearray()
        while b"\r\n\r\n" not in buf:
            buf += sock.recv(65536)
        head = bytes(buf).split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 101")
        accept = [
            line.split(":", 1)[1].strip()
            for line in head.split("\r\n")
            if line.lower().startswith("sec-websocket-accept:")
        ]
        assert accept == [ws_accept_key(key)], "RFC 6455 accept key mismatch"
        self._leftover = bytearray(bytes(buf).split(b"\r\n\r\n", 1)[1])
        return sock

    def _read_control_frame(self, sock, buf, opcode, timeout=5.0):
        """Next control frame of ``opcode`` kind, skipping data frames
        (the stream may interleave pushed deltas at any time)."""
        sock.settimeout(timeout)
        while True:
            for got, payload in parse_ws_frames(buf, require_mask=False):
                if got == opcode:
                    return payload
            chunk = sock.recv(65536)
            if not chunk:
                raise AssertionError("server closed WS before expected frame")
            buf += chunk

    def test_ws_text_deltas_over_client(self, quiet_server):
        server, client = quiet_server
        store = client.manager.open_monitor("wsfeed")
        wc = SteeringWebClient(server.url, session="wsfeed")
        gen = wc.events(transport="ws", timeout=2.0)
        try:
            store.publish_status("session", tick=1)
            delta = _drain_until(gen, lambda d: d.get("components"))
            assert delta["components"][0]["id"] == "session"
            registered = server.scheduler.registered_total
            store.publish_status("session", tick=2)
            _drain_until(gen, lambda d: d.get("components"))
            assert server.scheduler.registered_total == registered
        finally:
            gen.close()

    def test_ws_ping_pong_roundtrip(self, quiet_server):
        server, client = quiet_server
        client.manager.open_monitor("wsping")
        sock = self._handshake(server, "wsping")
        try:
            sock.sendall(ws_client_frame(b"are-you-there", WS_PING))
            pong = self._read_control_frame(sock, self._leftover, WS_PONG)
            assert pong == b"are-you-there"
        finally:
            sock.close()

    def test_ws_close_handshake(self, quiet_server):
        server, client = quiet_server
        client.manager.open_monitor("wsclose")
        sock = self._handshake(server, "wsclose")
        try:
            sock.sendall(ws_client_frame(b"\x03\xe8", WS_CLOSE))  # 1000
            echo = self._read_control_frame(sock, self._leftover, WS_CLOSE)
            assert echo == b"\x03\xe8"
            sock.settimeout(5.0)
            assert sock.recv(1) == b"", "server must close after close echo"
        finally:
            sock.close()
        deadline = time.monotonic() + 5.0
        while server.subscribers() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.subscribers() == 0

    def test_ws_upgrade_without_key_is_rejected(self, quiet_server):
        server, client = quiet_server
        client.manager.open_monitor("wsbad")
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as s:
            s.sendall(
                b"GET /api/v1/wsbad/ws HTTP/1.1\r\nHost: x\r\n"
                b"Upgrade: websocket\r\nConnection: Upgrade\r\n\r\n"
            )
            head = s.recv(65536)
        assert b"400" in head.split(b"\r\n", 1)[0]

    def test_ws_unknown_images_mode_is_rejected(self, quiet_server):
        server, client = quiet_server
        client.manager.open_monitor("wsimg")
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as s:
            s.sendall(
                (
                    "GET /api/v1/wsimg/ws?images=telepathy HTTP/1.1\r\nHost: x\r\n"
                    "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n\r\n"
                ).encode("latin-1")
            )
            head = s.recv(65536)
        assert b"400" in head.split(b"\r\n", 1)[0]

    def test_ws_base64_images_mode_answers_the_400_envelope(self, quiet_server):
        # ``images=b64`` (blobs base64-inlined in text frames) was a mode
        # once; it is now as unknown as any other.
        server, client = quiet_server
        client.manager.open_monitor("wsb64")
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as s:
            s.sendall(
                b"GET /api/v1/wsb64/ws?images=b64 HTTP/1.1\r\nHost: x\r\n"
                b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
                b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n")
            buf = bytearray()
            while (head := parse_response_head(buf)) is None:
                buf += s.recv(65536)
            status, headers = head
            while len(buf) < int(headers["content-length"]):
                buf += s.recv(65536)
        assert status == 400
        assert json.loads(buf)["error"] == {
            "code": "bad_request", "message": "unknown images mode 'b64'"}

    def test_ws_binary_frames_carry_raw_image_blob(self, heat_server):
        server, _ = heat_server
        wc = SteeringWebClient(server.url)
        gen = wc.events(transport="ws", timeout=3.0, images="binary")
        try:
            delta = _drain_until(
                gen,
                lambda d: any(
                    c["id"] == "image" and isinstance(c["props"].get("blob"), bytes)
                    for c in d.get("components", [])
                ),
                attempts=80,
            )
        finally:
            gen.close()
        comp = next(c for c in delta["components"] if c["id"] == "image")
        blob = comp["props"]["blob"]
        # the blob is the fixed-size image file, raw — not base64 text
        img = decode_fixed_size(blob)
        assert img.width > 0 and img.height > 0


class TestStatsTransports:
    def test_stats_counts_per_transport_delivery(self, quiet_server):
        server, client = quiet_server
        store = client.manager.open_monitor("statsfeed")
        wc_sse = SteeringWebClient(server.url, session="statsfeed")
        wc_ws = SteeringWebClient(server.url, session="statsfeed")
        sse = wc_sse.events(transport="sse", timeout=2.0)
        ws = wc_ws.events(transport="ws", timeout=2.0)
        io_threads_before = server.io_thread_count()
        try:
            store.publish_status("session", tick=1)
            _drain_until(sse, lambda d: d.get("components"))
            _drain_until(ws, lambda d: d.get("components"))
            wc_sse.poll(timeout=0.1)  # one long poll for the third column
            stats = server.stats()
            transports = stats["transports"]
            assert set(transports) == {"longpoll", "sse", "ws"}
            assert transports["sse"]["active"] == 1
            assert transports["ws"]["active"] == 1
            assert transports["sse"]["delivered"] >= 1
            assert transports["ws"]["delivered"] >= 1
            assert transports["longpoll"]["delivered"] >= 1
            for name in ("longpoll", "sse", "ws"):
                assert transports[name]["bytes_sent"] > 0
            assert stats["subscribers"] == 2
            # persistent streams ride the same selector loop: zero new threads
            assert server.io_thread_count() == io_threads_before
        finally:
            sse.close()
            ws.close()


class TestEvictionFarewell:
    def test_evicted_session_says_goodbye_to_streams(self, cm):
        client = SteeringClient(cm)
        server = AjaxWebServer(client, port=0, housekeeping_interval=0.1)
        server.start()
        try:
            client.manager.open_monitor("doomed")
            client.manager.idle_timeout = 0.3
            wc = SteeringWebClient(
                server.url, session="doomed", backoff_base=0.01, max_retries=1
            )
            gen = wc.events(transport="sse", timeout=0.5)
            # the stream ends with a farewell, then the reconnect attempt
            # finds the session gone and surfaces the protocol error
            with pytest.raises(WebServerError):
                for _ in range(60):
                    next(gen)
            gen.close()
            assert wc.reconnects >= 1
            assert server.subscribers() == 0
        finally:
            client.manager.idle_timeout = 600.0
            server.stop()


class TestClientReconnect:
    def test_poll_retries_transient_connection_errors(self, quiet_server):
        server, client = quiet_server
        store = client.manager.open_monitor("flaky")
        store.publish_status("session", tick=1)
        wc = SteeringWebClient(server.url, session="flaky", backoff_base=0.01)
        real_get = wc._get
        failures = {"left": 2}

        def flaky_get(path, timeout=None):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ConnectionError("injected transient failure")
            return real_get(path, timeout=timeout)

        wc._get = flaky_get
        delta = wc.poll(timeout=1.0)
        assert delta["version"] >= 1
        assert wc.reconnects == 2

    def test_stream_reconnects_after_drop_and_resumes(self, quiet_server):
        server, client = quiet_server
        store = client.manager.open_monitor("dropfeed")
        store.publish_status("session", tick=1)
        wc = SteeringWebClient(server.url, session="dropfeed", backoff_base=0.01)
        real_stream = wc._stream
        dropped = {"done": False}

        def dropping_stream(transport, timeout=5.0, images=None):
            if not dropped["done"]:
                dropped["done"] = True
                raise ConnectionError("injected mid-stream drop")
            return real_stream(transport, timeout=timeout, images=images)

        wc._stream = dropping_stream
        gen = wc.events(transport="sse", timeout=2.0)
        try:
            delta = _drain_until(gen, lambda d: d.get("components"))
            assert delta["version"] >= 1
            assert wc.reconnects >= 1, "drop must be counted as a reconnect"
        finally:
            gen.close()

    def test_poll_gives_up_after_max_retries(self, cm):
        wc = SteeringWebClient(
            "http://127.0.0.1:9", session="nobody",  # port 9: discard, refused
            max_retries=2, backoff_base=0.01,
        )
        with pytest.raises(ConnectionError):
            wc.poll(timeout=0.1)
        assert wc.reconnects == 2


class TestUnifiedEventsAPI:
    def test_all_transports_deliver_the_heat_image(self, heat_server):
        server, _ = heat_server
        versions = {}
        for transport in ("longpoll", "sse", "ws"):
            wc = SteeringWebClient(server.url)
            props = wc.wait_for_component(
                "image", polls=40, timeout=2.0, transport=transport
            )
            versions[transport] = props["version"]
        assert all(v >= 1 for v in versions.values())

    def test_events_generator_rejects_unknown_transport(self, heat_server):
        server, _ = heat_server
        wc = SteeringWebClient(server.url)
        with pytest.raises(WebServerError, match="transport"):
            next(wc.events(transport="carrier-pigeon"))


class TestPushDeltasMatchPollDeltas:
    def test_sse_and_poll_agree_on_content(self, quiet_server):
        """Same store, same cursor: the pushed frame must deserialize to
        exactly the delta a long poll would have returned."""
        server, client = quiet_server
        store = client.manager.open_monitor("parity")
        store.publish_status("session", tick=7, note="push-parity")
        polled = json.loads(
            SteeringWebClient(server.url, session="parity")
            ._get(f"/api/v1/parity/poll?since=0&timeout=0.1").decode("utf-8")
        )
        wc = SteeringWebClient(server.url, session="parity")
        gen = wc.events(transport="sse", timeout=2.0)
        try:
            pushed = _drain_until(gen, lambda d: d.get("components"))
        finally:
            gen.close()
        pushed = {k: v for k, v in pushed.items() if k != "timeout"}
        polled = {k: v for k, v in polled.items() if k != "timeout"}
        assert pushed == polled
