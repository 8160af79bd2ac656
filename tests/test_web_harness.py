"""The concurrency harness's browser stand-in, over real loopback sockets.

``repro.experiments.web_concurrency.Viewer`` is what every timed bench
under ``benchmarks/`` counts with; these tests hold its counting — not
its timing — to the server: every transport sees the same events, a
dropped stream resumes from its cursor, a vanished session is an error
and not a completed poll, a paced reader is paced, and it reads a stream
through the very decoder ``SteeringWebClient`` reads it through.  The
last class pins each result's artifact shape to the committed
``BENCH_web_concurrency.json``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.web_concurrency as harness
import repro.web.client as web_client
from repro.costmodel.calibration import default_calibration
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.errors import WebServerError
from repro.experiments.web_concurrency import (
    Viewer,
    run_adaptive_delivery,
    run_obs_overhead,
    run_transport_compare,
    run_web_concurrency,
    run_window_streaming,
)
from repro.net import build_paper_testbed
from repro.steering import CentralManager, SteeringClient
from repro.steering.manager import SessionManager
from repro.viz.image import Image
from repro.web import AjaxWebServer, SteeringWebClient
from repro.window import WindowedDomainSource

N_EVENTS = 12

#: name -> the Viewer keyword arguments of that kind of stand-in
KINDS = {
    "longpoll": {"transport": "longpoll"},
    "sse": {"transport": "sse"},
    "ws": {"transport": "ws"},
    "ws+binary": {"transport": "ws", "images": "binary"},
    "windowed-poll": {"transport": "longpoll", "window": "w"},
}


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


@pytest.fixture()
def feed(cm):
    """A live server with one monitor channel ``feed`` whose 33^3 domain
    has a 17^3 window ``w`` registered on it."""
    client = SteeringClient(cm, manager=SessionManager(cm, file_size=64 * 1024))
    with AjaxWebServer(client, port=0) as server:
        store = client.manager.open_monitor("feed")
        values = np.random.default_rng(5).random((33,) * 3, dtype=np.float32)
        store.set_window_source(
            WindowedDomainSource(Octree(StructuredGrid(values), leaf_cells=16)))
        SteeringWebClient(server.url, session="feed").set_window(
            (0, 0, 0), (17, 17, 17), wid="w")
        yield server, store


def _image(shade: int) -> Image:
    px = np.full((24, 24, 4), shade, dtype=np.uint8)
    px[:, :, 3] = 255
    return Image(px)


def _publish(store, first: int, count: int) -> None:
    """``count`` events, each its own component (so however the server
    coalesces wakes, a viewer that misses or repeats one miscounts)."""
    for i in range(first, first + count):
        store.publish_status(f"probe{i}", t_pub=time.monotonic())
        time.sleep(0.01)


def _watch(server, run, tail: float = 0.4, **spec) -> Viewer:
    """Run ``run()`` while one viewer of ``spec`` watches; the settled viewer."""
    stop, gate = threading.Event(), threading.Barrier(2)
    viewer = Viewer(server.port, spec.pop("sid", "feed"), stop, gate, **spec)
    viewer.start()
    gate.wait()
    try:
        run()
        time.sleep(tail)  # the end of the stream reaches the viewer
    finally:
        stop.set()
        viewer.join(timeout=10.0)
    assert not viewer.is_alive()
    return viewer


class TestEveryTransportCountsTheSame:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_the_log_once_the_same_cursor_one_sample_per_stamped_event(
            self, feed, kind):
        server, store = feed

        def run():
            _publish(store, 0, N_EVENTS // 2)
            store.publish_image(_image(7), cycle=1, meta={"t_pub": time.monotonic()})
            store.publish_window_step(1)
            _publish(store, N_EVENTS // 2, N_EVENTS // 2)

        viewer = _watch(server, run, **KINDS[kind])
        # No component was published twice, so a poll from 0 now lists
        # what any viewer must have counted, in however many wakes.
        log = SteeringWebClient(server.url, session="feed").poll(timeout=0)
        assert viewer.errors == 0 and viewer.dropped == 0
        assert viewer.since == store.seq == log["version"]
        assert viewer.events == len(log["components"]) >= N_EVENTS + 2
        assert len(viewer.latencies) == N_EVENTS + 1  # the probes + the image
        assert all(0.0 <= sample < 5.0 for sample in viewer.latencies)
        assert viewer.polls >= viewer.wakes > 0
        if kind == "windowed-poll":
            assert viewer.bricks_fetched > 0
        else:
            assert viewer.bricks_fetched == 0
        # only the ws+bin payload carries the 64 KiB container inline
        assert (viewer.bytes_received > 64 * 1024) == (kind == "ws+binary")


class TestDroppedStream:
    @pytest.mark.parametrize("transport", ["sse", "ws"])
    def test_reopens_from_the_cursor_with_one_error_and_no_duplicate(
            self, feed, transport):
        server, store = feed
        before = store.seq

        def run():
            _publish(store, 0, 5)
            time.sleep(0.3)
            # the server drops every connection it holds
            for handler in list(server._loop._handlers):
                handler.sock.shutdown(socket.SHUT_RDWR)
            time.sleep(0.3)
            _publish(store, 5, 5)

        viewer = _watch(server, run, transport=transport)
        assert viewer.errors == 1
        assert viewer.since == store.seq == before + 10
        assert len(viewer.latencies) == 10  # each stamped event once


class TestErrorsAreCounted:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_a_vanished_session_is_errors_not_completed_polls(self, feed, kind):
        server, _store = feed
        viewer = _watch(server, lambda: None, tail=0.05, sid="nobody", **KINDS[kind])
        assert viewer.polls == 0 and viewer.events == 0
        assert viewer.errors > 0

    def test_a_payload_that_does_not_parse_is_one_error_not_a_dead_thread(self):
        viewer = Viewer(1, "feed", threading.Event(), threading.Barrier(1),
                        transport="ws", images="binary")
        viewer._skip_until = 0.0
        viewer._raw = [(1.0, 40, b'{"version": 3, "components": [{"id": "a"}]}'),
                       (1.0, 4, b""), (1.0, 9, b"[1, 2, 3]")]
        viewer._settle()
        assert (viewer.polls, viewer.events, viewer.since, viewer.errors) == (1, 1, 3, 2)
        # a ws+bin frame whose length prefix lies is refused on arrival
        viewer._decode = lambda: ([b"\x00\x00\x00\x32{}"], False)
        with pytest.raises(WebServerError, match="truncated"):
            viewer._keep(2.0)

    def test_options_that_do_not_combine_are_refused(self):
        stop, gate = threading.Event(), threading.Barrier(1)
        for spec in ({"transport": "carrier-pigeon"},
                     {"transport": "longpoll", "pace": 1e5},
                     {"transport": "sse", "images": "binary"},
                     {"transport": "ws", "window": "w"}):
            with pytest.raises(ValueError):
                Viewer(1, "feed", stop, gate, **spec)


class TestPacedViewer:
    def test_drains_no_faster_than_its_pace(self, feed):
        server, store = feed
        pace = 400_000.0
        started = []

        def run():
            started.append(time.monotonic())
            for shade in range(6):  # 6 x 64 KiB containers inline
                store.publish_image(_image(shade), cycle=shade)
                time.sleep(0.02)
            time.sleep(1.0)

        viewer = _watch(server, run, transport="ws", images="binary", pace=pace)
        assert viewer.errors == 0
        assert viewer.bytes_received > 64 * 1024  # it was actually loaded
        # n receives, n - 1 sleeps before the last one is stamped
        assert viewer.bytes_received / (viewer.last_rx - started[0]) <= 1.05 * pace


class TestOneDecoder:
    @pytest.mark.parametrize("transport,images", [
        ("sse", None), ("ws", None), ("ws", "binary")])
    def test_client_and_viewer_see_byte_identical_payloads(
            self, feed, monkeypatch, transport, images):
        server, store = feed
        real = web_client.open_stream
        seen = {"client": [], "viewer": []}

        def tapping(log):
            def opener(*args, **kwargs):
                sock, buf, decode = real(*args, **kwargs)

                def tapped():
                    payloads, ended = decode()
                    log.extend(payloads)
                    return payloads, ended

                return sock, buf, tapped
            return opener

        monkeypatch.setattr(harness, "open_stream", tapping(seen["viewer"]))
        monkeypatch.setattr(web_client, "open_stream", tapping(seen["client"]))
        store.publish_image(_image(3), cycle=1)
        _publish(store, 0, 3)
        stream = SteeringWebClient(server.url, session="feed").events(
            transport, timeout=2.0, images=images)

        def run():
            assert next(stream)["components"]  # the backlog, as one delta
            time.sleep(0.2)
            store.publish_status("late", tick=1)  # both are parked on one cursor
            assert next(stream)["components"]

        try:
            viewer = _watch(server, run, transport=transport, images=images)
        finally:
            stream.close()
        assert viewer.errors == 0
        assert len(seen["client"]) == 2
        assert seen["viewer"] == seen["client"]
        assert all(type(payload) is bytes for payload in seen["viewer"])
        if images:
            assert len(seen["client"][0]) > 64 * 1024  # the blob rode along


class TestArtifactShape:
    """``to_dict()`` of each result against the committed artifact: the
    sections stay comparable across PRs because their keys do not move."""

    @pytest.fixture(scope="class")
    def committed(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_web_concurrency.json"
        return json.loads(path.read_text())

    @staticmethod
    def _shape(section: dict) -> dict:
        """Key sets, one level into cells / the on-off pair."""
        return {
            "keys": set(section),
            "cells": [set(cell) for cell in section.get("cells", [])[:1]],
            "pair": [set(section[side]) for side in ("off", "on") if side in section],
        }

    def test_sweeps(self, cm, committed):
        sweep = run_web_concurrency((1,), (1, 2), duration=0.2, cm=cm)
        top = {k: committed[k] for k in
               ("experiment", "session_counts", "client_counts", "cells")}
        assert self._shape(sweep.to_dict()) == self._shape(top)
        assert self._shape(sweep.to_dict()) == self._shape(committed["large_herd"])
        assert sweep.cell(1, 2).clients == 2 and sweep.cell(clients=1).clients == 1
        with pytest.raises(KeyError):
            sweep.cell(4, 2)
        compare = run_transport_compare(client_counts=(2,), sessions=1,
                                        duration=0.2, publish_hz=20.0, cm=cm)
        assert self._shape(compare.to_dict()) == self._shape(
            committed["transport_compare"])
        assert compare.cell("ws", 2).transport == "ws"
        assert [c.errors for c in compare.cells] == [0, 0, 0]
        pair = run_obs_overhead(sessions=1, clients=2, duration=0.3, cm=cm)
        assert self._shape(pair.to_dict()) == self._shape(committed["obs_overhead"])
        assert pair.on.obs_enabled and not pair.off.obs_enabled
        assert pair.to_dict()["p99_ratio"] == round(pair.p99_ratio, 3)
        for result in (sweep, compare, pair):
            assert result.title in result.to_table()

    def test_flat_records(self, cm, committed):
        adaptive = run_adaptive_delivery(fast_clients=2, slow_clients=1,
                                         duration=0.5, cm=cm)
        assert set(adaptive.to_dict()) == set(committed["adaptive_delivery"])
        assert adaptive.errors == 0 and adaptive.fast_events > 0
        window = run_window_streaming(clients=2, steps=4, domain_cells=33,
                                      pans=1, cm=cm)
        assert set(window.to_dict()) == set(committed["window_streaming"])
        assert window.errors == 0 and window.steps == 4
        assert window.windowed_byte_fraction < 1.0
        for result in (adaptive, window):
            assert "errors" in result.to_table()
