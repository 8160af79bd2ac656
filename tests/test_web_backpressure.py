"""Slow-client backpressure over real loopback HTTP.

The shared-delta fan-out write path must keep three promises when one
client stops reading mid-response:

* other waiters' wakes are delivered promptly (the stalled socket only
  parks memoryviews in its own queue, never blocking the IO loop),
* shared frame buffers are not corrupted — fast clients keep receiving
  byte-correct responses while the slow one's backlog grows,
* a backlog past the per-connection write budget disconnects the slow
  client (counted in ``slow_client_disconnects``) instead of growing
  without bound.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from repro.costmodel.calibration import default_calibration
from repro.net import build_paper_testbed
from repro.steering import CentralManager, SteeringClient
from repro.web import AjaxWebServer
from repro.web.client import read_response


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


class TestSlowClientBackpressure:
    def test_stalled_reader_does_not_block_other_wakes(self, cm):
        """One parked poller that never reads must not delay the herd."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("herd")
            cursor = store.seq
            # the stalled client: parks a poll, then never reads the response
            stalled = socket.create_connection(("127.0.0.1", server.port))
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.sendall(
                f"GET /api/v1/herd/poll?since={cursor}&timeout=20 "
                f"HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            # healthy clients park behind the same cursor
            healthy = []
            for _ in range(5):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10.0
                )
                conn.request("GET", f"/api/v1/herd/poll?since={cursor}&timeout=20")
                healthy.append(conn)
            deadline = 100
            while server.scheduler.pending() < 6 and deadline:
                time.sleep(0.02)
                deadline -= 1
            assert server.scheduler.pending() == 6
            try:
                t0 = time.monotonic()
                store.publish_status("session", tick=1, payload="x" * 2000)
                for conn in healthy:
                    delta = json.loads(conn.getresponse().read().decode("utf-8"))
                    assert delta["version"] > cursor
                    assert delta["components"][0]["props"]["tick"] == 1
                elapsed = time.monotonic() - t0
                assert elapsed < 2.0, (
                    f"healthy wakes took {elapsed:.3f}s behind a stalled reader"
                )
            finally:
                stalled.close()
                for conn in healthy:
                    conn.close()

    def test_slow_client_disconnected_past_write_budget(self, cm):
        """Backlog beyond the write budget drops the connection, counted."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0, write_budget=512 * 1024) as server:
            store = client.manager.open_monitor("budget")
            store.publish_status("session", blob="y" * 100_000)
            slow = socket.create_connection(("127.0.0.1", server.port))
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            # pipeline ~12 MB of ~100 KB responses without ever reading:
            # the kernel send buffer (tcp_wmem caps it at a few MB) fills
            # and the server-side backlog passes the 512 KB budget
            request = b"GET /api/v1/budget/poll?since=0&timeout=0 HTTP/1.1\r\nHost: x\r\n\r\n"
            try:
                slow.sendall(request * 120)
            except OSError:
                pass  # server may cut us off mid-send — that's the point
            deadline = 200
            while server.slow_client_disconnects < 1 and deadline:
                time.sleep(0.02)
                deadline -= 1
            assert server.slow_client_disconnects >= 1
            slow.close()
            # the abuse left the server fully functional: a fresh client
            # gets the same (shared) frame immediately
            fresh = socket.create_connection(("127.0.0.1", server.port))
            fresh.settimeout(10.0)
            buf = bytearray()
            try:
                fresh.sendall(
                    b"GET /api/v1/budget/poll?since=0&timeout=0 "
                    b"HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                delta = json.loads(read_response(fresh, buf)[2])
                blobs = [
                    c["props"]["blob"] for c in delta["components"]
                    if "blob" in c["props"]
                ]
                assert blobs == ["y" * 100_000]
            finally:
                fresh.close()

    def test_stalled_reader_reaped_after_keepalive_window(self, cm):
        """A reader stalled mid-response below the write budget must still
        be dropped once it makes no progress for the keep-alive window."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0, keepalive_timeout=0.5,
                           housekeeping_interval=0.1) as server:
            store = client.manager.open_monitor("reap")
            # a response too big for the kernel buffers but far below the
            # 8 MB write budget leaves a pending backlog on the server
            store.publish_status("session", blob="y" * 6_000_000)
            stalled = socket.create_connection(("127.0.0.1", server.port))
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.sendall(
                b"GET /api/v1/reap/poll?since=0&timeout=0 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            deadline = 200  # ~4 s for the 0.5 s idle window + sweep
            while server.slow_client_disconnects < 1 and deadline:
                time.sleep(0.02)
                deadline -= 1
            assert server.slow_client_disconnects >= 1
            stalled.close()

    def test_shared_frames_stay_intact_while_a_client_stalls(self, cm):
        """A stalled reader sharing frames with fast readers must not
        corrupt what the fast readers receive."""
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            store = client.manager.open_monitor("intact")
            base = store.seq  # skip the monitor's initial meta event
            # stalled client parks and never reads
            stalled = socket.create_connection(("127.0.0.1", server.port))
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.sendall(
                f"GET /api/v1/intact/poll?since={base}&timeout=20 "
                f"HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            fast = socket.create_connection(("127.0.0.1", server.port))
            buf = bytearray()
            try:
                since = base
                for tick in range(1, 21):
                    fast.sendall(
                        f"GET /api/v1/intact/poll?since={since}&timeout=5 "
                        f"HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                    )
                    time.sleep(0.002)
                    store.publish_status("session", tick=tick, pad="z" * 512)
                    delta = json.loads(read_response(fast, buf)[2])
                    assert delta["version"] >= since + 1
                    ticks = [
                        c["props"]["tick"] for c in delta["components"]
                        if "tick" in c["props"]
                    ]
                    assert ticks, f"no tick in delta at cursor {since}"
                    assert ticks[-1] == tick
                    assert all(
                        c["props"].get("pad", "z" * 512) == "z" * 512
                        for c in delta["components"]
                    )
                    since = delta["version"]
            finally:
                stalled.close()
                fast.close()
