"""Durable ops tier: metrics store, session journal, replay, dashboard.

Unit coverage for :mod:`repro.obs` (atomic writes, flattening, rings,
SQLite store, journal fidelity) plus end-to-end HTTP tests for the
``/dashboard`` + ``/api/v1/metrics*`` + ``/api/v1/replay`` surface and the
stats identities the server must keep with replay sessions live.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import time

import numpy as np
import pytest

from repro.costmodel.calibration import default_calibration
from repro.errors import WebServerError
from repro.net import build_paper_testbed
from repro.obs import (
    Observability,
    ObsStore,
    SessionJournal,
    atomic_write_bytes,
    atomic_write_json,
    flatten_stats,
    merge_json_file,
    process_diagnostics,
)
from repro.obs.journal import step_replays
from repro.obs.metrics import MetricsRecorder, SeriesRing
from repro.steering import CentralManager, SteeringClient
from repro.steering.events import EventSequenceStore
from repro.viz.image import Image
from repro.web import AjaxWebServer, SteeringWebClient
from repro.wire import FRAME_JSON, FRAME_SSE, FRAME_WS


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


def _image(seed: int, size: int = 8) -> Image:
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 255, size=(size, size, 4), dtype=np.uint8)
    pixels[..., 3] = 255
    return Image(pixels)


# -- atomic write helpers ------------------------------------------------------------


class TestAtomicWrites:
    def test_bytes_roundtrip_and_no_temp_litter(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"first")
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"
        # The fsync'd temp file must be renamed away, never left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_json_roundtrip_preserves_order_when_asked(self, tmp_path):
        target = tmp_path / "artifact.json"
        payload = {"zebra": 1, "aardvark": 2}
        atomic_write_json(target, payload, sort_keys=False)
        text = target.read_text()
        assert text.index("zebra") < text.index("aardvark")
        assert json.loads(text) == payload

    def test_merge_layers_updates_over_existing(self, tmp_path):
        target = tmp_path / "bench.json"
        atomic_write_json(target, {"grid": [1, 2], "shard_scaling": {"a": 1}})
        merged = merge_json_file(target, {"shard_scaling": {"b": 2}})
        assert merged == {"grid": [1, 2], "shard_scaling": {"b": 2}}
        assert json.loads(target.read_text()) == merged

    def test_merge_survives_corrupt_existing_file(self, tmp_path):
        target = tmp_path / "bench.json"
        target.write_text("{truncated")
        merged = merge_json_file(target, {"fresh": True})
        assert merged == {"fresh": True}
        assert json.loads(target.read_text()) == {"fresh": True}


# -- flattening + process diagnostics ------------------------------------------------


class TestFlattenStats:
    def test_nested_dicts_lists_bools(self):
        flat = flatten_stats({
            "bytes_sent": 7,
            "adaptive": True,
            "label": "ignored",
            "none": None,
            "tiers": [4, 0, 1],
            "executor": {"executor_queue_depth": 2},
            "shards": [{"bytes_sent": 3}, {"bytes_sent": 4}],
        })
        assert flat["bytes_sent"] == 7.0
        assert flat["adaptive"] == 1.0
        assert "label" not in flat and "none" not in flat
        assert flat["tiers.2"] == 1.0
        assert flat["executor.executor_queue_depth"] == 2.0
        assert flat["shards.0.bytes_sent"] == 3.0
        assert flat["shards.1.bytes_sent"] == 4.0

    def test_process_diagnostics_without_psutil(self):
        diag = process_diagnostics()
        assert diag["threads"] >= 1.0
        assert diag["cpu_seconds"] > 0.0
        # /proc is available on the CI hosts; keep the assertions
        # conditional so the suite still passes on exotic platforms.
        if os.path.exists("/proc/self/statm"):
            assert diag["rss_bytes"] > 0.0
            assert diag["open_fds"] >= 3.0


class TestRecorder:
    def test_ring_is_bounded(self):
        ring = SeriesRing(capacity=4)
        for i in range(10):
            ring.append(float(i), float(i))
        assert len(ring.points) == 4
        assert ring.window(0.0)[0] == (6.0, 6.0)
        assert ring.window(8.0) == [(8.0, 8.0), (9.0, 9.0)]

    def test_sample_and_history_window(self):
        rec = MetricsRecorder(process_diag=False)
        for i in range(5):
            rec.sample({"bytes_sent": i * 10}, wall=100.0 + i)
        hist = rec.history(["bytes_sent"], since=102.0)
        assert hist["bytes_sent"] == [[102.0, 20.0], [103.0, 30.0], [104.0, 40.0]]
        assert rec.stats()["samples_taken"] == 5

    def test_history_downsamples_with_step(self):
        rec = MetricsRecorder(process_diag=False)
        for i in range(10):
            rec.sample({"v": i}, wall=100.0 + i)
        hist = rec.history(["v"], step=5.0)
        # One point per 5-second bucket, the last value in each wins.
        assert [p[1] for p in hist["v"]] == [4.0, 9.0]

    def test_min_interval_rate_limits(self):
        rec = MetricsRecorder(process_diag=False, min_interval=10.0)
        assert rec.sample({"v": 1}, wall=100.0) > 0
        assert rec.sample({"v": 2}, wall=101.0) == 0
        assert rec.sample({"v": 3}, wall=111.0) > 0
        assert rec.stats()["samples_taken"] == 2

    def test_proc_series_recorded(self):
        rec = MetricsRecorder()
        rec.sample({"bytes_sent": 1})
        names = rec.series_names()
        assert "proc.threads" in names and "proc.cpu_seconds" in names


# -- SQLite store --------------------------------------------------------------------


class TestObsStore:
    def test_samples_roundtrip_and_meta_sidecar(self, tmp_path):
        db = tmp_path / "obs.sqlite"
        store = ObsStore(db)
        try:
            store.enqueue_samples([("s", 1.0, 10.0), ("s", 2.0, 20.0)])
            assert store.flush()
            assert store.read_samples("s") == [(1.0, 10.0), (2.0, 20.0)]
            assert store.read_samples("s", since=1.5) == [(2.0, 20.0)]
            assert store.series_names() == ["s"]
        finally:
            store.close()
        meta = json.loads((tmp_path / "obs.sqlite.meta.json").read_text())
        assert meta["schema_version"] >= 1

    def test_retention_prunes_oldest_samples(self, tmp_path):
        store = ObsStore(tmp_path / "obs.sqlite", retention_rows=5)
        try:
            store.enqueue_samples([("s", float(i), float(i)) for i in range(9)])
            assert store.flush()
            rows = store.read_samples("s")
            assert len(rows) == 5
            assert rows[0][0] == 4.0  # oldest timestamps pruned first
            assert store.stats()["samples_pruned"] == 4
        finally:
            store.close()

    def test_blob_lru_respects_byte_budget(self, tmp_path):
        store = ObsStore(tmp_path / "obs.sqlite", blob_budget_bytes=2048)
        try:
            store.enqueue_blob("old", b"x" * 1024)
            assert store.flush()
            store.enqueue_blob("mid", b"y" * 1024)
            store.enqueue_blob("new", b"z" * 1024)
            assert store.flush()
            assert store.read_blob("old") is None  # least recently used
            assert store.read_blob("new") == b"z" * 1024
            assert store.stats()["blob_evictions"] >= 1
        finally:
            store.close()

    def test_journal_events_roundtrip(self, tmp_path):
        store = ObsStore(tmp_path / "obs.sqlite")
        row = {"seq": 1, "ts": 5.0, "kind": "status", "component": "session",
               "cycle": 3, "props": {"state": "running"}, "digest": None}
        try:
            store.enqueue_event("run", row)
            assert store.flush()
            assert store.read_events("run") == [row]
            assert store.journal_sids() == ["run"]
        finally:
            store.close()

    def test_reopen_resumes_history(self, tmp_path):
        db = tmp_path / "obs.sqlite"
        store = ObsStore(db)
        store.enqueue_samples([("s", 1.0, 1.0)])
        assert store.flush()
        store.close()
        reopened = ObsStore(db)
        try:
            assert reopened.read_samples("s") == [(1.0, 1.0)]
            reopened.enqueue_samples([("s", 2.0, 2.0)])
            assert reopened.flush()
            assert reopened.read_samples("s") == [(1.0, 1.0), (2.0, 2.0)]
        finally:
            reopened.close()

    def test_caps_validated(self, tmp_path):
        with pytest.raises(WebServerError):
            ObsStore(tmp_path / "obs.sqlite", retention_rows=0)

    def test_single_writer_thread(self, tmp_path):
        store = ObsStore(tmp_path / "obs.sqlite")
        try:
            assert store.stats()["writer_threads"] == 0  # lazy start
            store.enqueue_samples([("s", 1.0, 1.0)])
            assert store.flush()
            assert store.stats()["writer_threads"] == 1
        finally:
            store.close()


# -- session journal + replay fidelity -----------------------------------------------


def _journaled_run(journal: SessionJournal, sid: str = "run",
                   images: int = 3) -> EventSequenceStore:
    store = EventSequenceStore(file_size=64 * 1024, capacity=64,
                               image_capacity=8)
    journal.attach(sid, store)
    store.publish_status("session", 0, state="running")
    for cycle in range(images):
        store.publish_image(_image(cycle), cycle=cycle)
        store.publish_status("session", cycle, state="running", cycle=cycle)
    store.publish_status("session", images, state="finished")
    return store


class TestJournalReplay:
    def test_replay_serves_byte_identical_frames(self):
        journal = SessionJournal()
        store = _journaled_run(journal)
        replay, skipped = journal.rehydrate("run")
        assert skipped == 0
        assert replay.seq == store.seq
        # Every cursor, every framing: the replayed store must emit the
        # exact bytes the live store would — the whole point of keeping
        # original seqs is that clients cannot tell replay from live.
        for since in range(store.seq + 1):
            for framing in (FRAME_JSON, FRAME_SSE, FRAME_WS):
                assert (replay.framed_delta(since, framing)
                        == store.framed_delta(since, framing)), (since, framing)

    def test_replay_preserves_image_blobs(self):
        journal = SessionJournal()
        store = _journaled_run(journal)
        replay, _ = journal.rehydrate("run")
        record = store.image_record()
        assert replay.image_blob(record.version) == store.image_blob(record.version)

    def test_evicted_blobs_replay_meta_only(self):
        journal = SessionJournal(blob_budget_bytes=1)  # evict all but newest
        store = _journaled_run(journal, images=3)
        assert journal.blob_evictions >= 2
        replay, skipped = journal.rehydrate("run")
        assert skipped >= 2
        # Meta rows still restored at their original seqs: the JSON
        # delta (which carries meta, not bytes) stays seq-for-seq.
        assert replay.seq == store.seq
        assert (replay.framed_delta(0, FRAME_JSON)
                == store.framed_delta(0, FRAME_JSON))

    def test_event_and_session_caps(self):
        journal = SessionJournal(event_cap=2, session_cap=2)
        _journaled_run(journal, sid="a", images=2)
        assert len(journal.rows("a")) == 2  # oldest rows dropped
        assert journal.events_dropped > 0
        _journaled_run(journal, sid="b", images=1)
        _journaled_run(journal, sid="c", images=1)
        assert journal.sessions() == ["b", "c"]  # LRU session dropped
        with pytest.raises(WebServerError):
            journal.rows("a")

    def test_unknown_session_raises(self):
        with pytest.raises(WebServerError, match="no journal"):
            SessionJournal().rows("ghost")

    def test_replay_survives_restart_via_sqlite(self, tmp_path):
        db = tmp_path / "obs.sqlite"
        first = ObsStore(db)
        journal = SessionJournal(store=first)
        store = _journaled_run(journal)
        expect = store.framed_delta(0, FRAME_JSON)
        assert first.flush()
        first.close()
        # A fresh process: empty in-memory journal, same SQLite file.
        cold = SessionJournal(store=ObsStore(db))
        try:
            replay, skipped = cold.rehydrate("run")
            assert skipped == 0
            assert replay.framed_delta(0, FRAME_JSON) == expect
        finally:
            cold.store.close()


class TestReplayCursor:
    """The paced replay, stepped by hand: a fake ``now``, no loop, no sleep."""

    def test_paced_steps_restore_one_row_per_interval(self):
        journal = SessionJournal()
        store = _journaled_run(journal)
        cursor = journal.replay("run", store.file_size, interval=0.5, now=100.0)
        assert cursor.events.seq == 0 and cursor.next_due == 100.5
        assert cursor.step(100.4) is False and cursor.events.seq == 0
        assert cursor.step(100.5) is False and cursor.events.seq == 1
        assert cursor.step(101.6) is False and cursor.events.seq == 3  # caught up
        assert cursor.next_due == 102.0
        assert cursor.step(1e9) is True and cursor.events.seq == store.seq

    def test_paced_replay_ends_byte_identical_to_instant_rehydrate(self):
        journal = SessionJournal()
        store = _journaled_run(journal)
        instant, _ = journal.rehydrate("run", store.file_size)
        cursor = journal.replay("run", store.file_size, interval=0.25, now=0.0)
        now = 0.0
        while not cursor.step(now):
            now += 0.25
        assert cursor.skipped == 0
        for since in range(store.seq + 1):
            for framing in (FRAME_JSON, FRAME_SSE, FRAME_WS):
                paced = cursor.events.framed_delta(since, framing)
                assert paced == instant.framed_delta(since, framing), (since, framing)
                assert paced == store.framed_delta(since, framing), (since, framing)

    def test_blob_outside_the_byte_budget_restores_meta_only_and_is_counted(self):
        journal = SessionJournal(blob_budget_bytes=1)  # evict all but newest
        store = _journaled_run(journal, images=3)
        cursor = journal.replay("run", store.file_size, interval=1.0)
        assert cursor.step(1e9) is True
        assert cursor.skipped == journal.blob_evictions >= 2
        assert (cursor.events.framed_delta(0, FRAME_JSON)
                == store.framed_delta(0, FRAME_JSON))
        assert journal.rehydrate("run", store.file_size)[1] == cursor.skipped

    def test_a_bad_row_ends_that_replay_and_no_other(self):
        journal = SessionJournal()
        store = _journaled_run(journal, sid="good")
        _journaled_run(journal, sid="bad")
        good = journal.replay("good", store.file_size, interval=1.0)
        bad = journal.replay("bad", store.file_size, interval=1.0)
        bad.rows[1] = {"kind": "status"}  # the second row cannot be restored
        replays = [bad, good]
        step_replays(replays, 1.0)
        assert replays == [bad, good] and bad.events.seq == good.events.seq == 1
        step_replays(replays, 2.0)
        assert replays == [good]  # the bad replay is over, at the row before
        assert bad.events.seq == 1 and bad.step(1e9) is True
        step_replays(replays, 1e9)
        assert replays == [] and good.events.seq == store.seq
        # Stepped alone the same row raises: an instant rehydrate reports it.
        alone = journal.replay("bad", store.file_size)
        alone.rows[1] = {"kind": "status"}
        with pytest.raises(KeyError):
            alone.step()


class TestObservabilityFacade:
    def test_in_memory_bundle(self):
        with Observability() as obs:
            assert obs.store is None
            assert obs.flush() is True
            stats = obs.stats()
            assert stats["durable"] is False
            assert set(stats) == {"recorder", "journal", "durable"}

    def test_durable_bundle_wires_store_through(self, tmp_path):
        with Observability(db_path=tmp_path / "obs.sqlite") as obs:
            obs.recorder.sample({"v": 1}, wall=50.0)
            assert obs.flush()
            stats = obs.stats()
            assert stats["durable"] is True
            assert stats["store"]["rows_written"] >= 1


# -- HTTP surface --------------------------------------------------------------------


def _raw_get(port: int, path: str) -> tuple[int, bytes, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read(), resp.getheader("Content-Type", "")
    finally:
        conn.close()


@pytest.fixture()
def obs_server(cm):
    """A short heat run behind a server with recording on."""
    client = SteeringClient(cm)
    server = AjaxWebServer(client, port=0, obs=True,
                           housekeeping_interval=0.1)
    server.start()
    client.start(
        simulator="heat",
        technique="isosurface",
        n_cycles=24,
        sim_kwargs={"shape": (8, 8, 8)},
        push_every=2,
    )
    yield server, client
    try:
        client.stop_all()
    finally:
        server.stop()


def _wait_static(port: int, sid: str, deadline_s: float = 30.0) -> bytes:
    """Wait for ``sid`` to finish publishing; its full since=0 frame."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        _, body, _ = _raw_get(port, "/api/v1/sessions")
        entry = json.loads(body).get(sid)
        if entry is not None and not entry.get("running", True):
            _, frame, _ = _raw_get(port, f"/api/v1/{sid}/poll?since=0&timeout=0")
            return frame
        time.sleep(0.2)
    raise AssertionError(f"session {sid} never finished")


class TestObsHttp:
    def test_stats_satellites_and_obs_block(self, obs_server):
        server, _ = obs_server
        web = SteeringWebClient(server.url, session="session0")
        web.wait_for_component("image", polls=60, timeout=3.0)
        stats = web.server_stats()
        assert stats["timestamp"] == pytest.approx(time.time(), abs=30.0)
        assert 0.0 < stats["uptime_s"] < 300.0
        assert len(stats["tier_bytes_saved"]) == len(stats["tiers"])
        assert stats["bytes_saved"] == sum(stats["tier_bytes_saved"])
        assert stats["obs"]["durable"] is False
        assert stats["wake_ewma_ms"] >= 0.0
        assert stats["replays_active"] == 0
        assert stats["scheduler"]["parked"] == stats["parked_polls"]

    def test_metrics_endpoints(self, obs_server):
        server, _ = obs_server
        web = SteeringWebClient(server.url, session="session0")
        web.wait_for_component("image", polls=60, timeout=3.0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if web.metrics()["recorder"]["samples_taken"] > 0:
                break
            time.sleep(0.1)
        metrics = web.metrics()
        assert metrics["recorder"]["samples_taken"] > 0
        assert "bytes_sent" in metrics["series"]
        hist = web.metrics_history(["bytes_sent"])
        points = hist["series"]["bytes_sent"]
        assert points and all(len(p) == 2 for p in points)
        assert hist["now"] >= points[-1][0] - 1.0

    def test_metrics_404_when_obs_disabled(self, cm):
        client = SteeringClient(cm)
        with AjaxWebServer(client, port=0) as server:
            status, body, _ = _raw_get(server.port, "/api/v1/metrics")
            assert status == 404
            assert b"observability disabled" in body

    def test_dashboard_renders_cold_and_self_contained(self, obs_server):
        server, _ = obs_server
        status, body, ctype = _raw_get(server.port, "/dashboard")
        assert status == 200
        assert ctype.startswith("text/html")
        html = body.decode("utf-8")
        assert "canvas" in html  # sparkline cards are built client-side
        assert "/api/v1/metrics/history" in html
        # Dependency-free: the page must not reference any third-party
        # asset — no external URLs of any scheme.
        assert not re.search(r"https?://", html)

    def test_replay_roundtrip_byte_identical(self, obs_server):
        server, _ = obs_server
        original = _wait_static(server.port, "session0")
        web = SteeringWebClient(server.url, session="session0")
        replayer = web.replay()
        sid = replayer.session
        assert sid == "replay-session0"
        _, replayed, _ = _raw_get(server.port,
                                  f"/api/v1/{sid}/poll?since=0&timeout=0")
        assert replayed == original
        # Read-only: steering the replay must be refused.
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10.0)
        try:
            conn.request("POST", f"/api/v1/{sid}/steer",
                         body=json.dumps({"alpha": 2.0}).encode("utf-8"),
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_paced_replay_converges_to_identical(self, obs_server):
        server, _ = obs_server
        original = _wait_static(server.port, "session0")
        web = SteeringWebClient(server.url, session="session0")
        replayer = web.replay(target="paced", rate_hz=500.0)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            _, body, _ = _raw_get(
                server.port, f"/api/v1/{replayer.session}/poll?since=0&timeout=0")
            if body == original:
                break
            time.sleep(0.1)
        else:
            raise AssertionError("paced replay never caught up")
        assert web.server_stats()["io_threads"] == 1  # server healthy afterwards

    def test_stats_sums_hold_with_replay_live(self, obs_server):
        server, _ = obs_server
        _wait_static(server.port, "session0")
        web = SteeringWebClient(server.url, session="session0")
        replayer = web.replay(target="sum-check")
        replayer.poll(timeout=2.0)
        web.poll(timeout=0.1)
        stats = web.server_stats()
        assert stats["polls_served"] >= 2
        assert stats["bytes_saved"] == sum(stats["tier_bytes_saved"])
        assert stats["bytes_sent"] >= sum(
            t["bytes_sent"] for t in stats["transports"].values())
        assert stats["replays_active"] == 0  # an unpaced replay pumps nothing

    def test_replay_of_unknown_session_is_client_error(self, obs_server):
        server, _ = obs_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10.0)
        try:
            conn.request("POST", "/api/v1/replay/ghost", body=b"{}")
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestObsRestart:
    def test_history_and_replay_survive_server_restart(self, cm, tmp_path):
        db = os.fspath(tmp_path / "ops.sqlite")
        client = SteeringClient(cm)
        server = AjaxWebServer(client, port=0, obs=db,
                               housekeeping_interval=0.1)
        server.start()
        try:
            client.start(
                simulator="heat",
                technique="isosurface",
                n_cycles=16,
                sim_kwargs={"shape": (8, 8, 8)},
                push_every=2,
            )
            original = _wait_static(server.port, "session0")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if server.obs.recorder.samples_taken > 0:
                    break
                time.sleep(0.1)
            assert server.obs.flush()
        finally:
            try:
                client.stop_all()
            finally:
                server.stop()

        # A brand-new server process-equivalent on the same database.
        cold_client = SteeringClient(cm)
        cold = AjaxWebServer(cold_client, port=0, obs=db,
                             housekeeping_interval=5.0)
        cold.start()
        try:
            web = SteeringWebClient(cold.url)
            hist = web.metrics_history(["bytes_sent"])
            assert hist["series"]["bytes_sent"]  # pre-restart samples
            replayer = web.replay(session="session0")
            _, replayed, _ = _raw_get(
                cold.port,
                f"/api/v1/{replayer.session}/poll?since=0&timeout=0")
            assert replayed == original
        finally:
            cold.stop()
