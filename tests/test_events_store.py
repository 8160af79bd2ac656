"""Tests for the unified per-session event-sequence store."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WebServerError
from repro.steering.events import EventSequenceStore
from repro.viz.image import Image, decode_fixed_size


def tiny_image(shade: int = 128) -> Image:
    px = np.full((8, 8, 4), shade, dtype=np.uint8)
    px[:, :, 3] = 255
    return Image(px)


class TestEventSequence:
    def test_seq_is_monotonic_across_kinds(self):
        store = EventSequenceStore()
        s1 = store.publish_status("session", simulator="heat")
        s2 = store.publish_image(tiny_image(), cycle=1)
        s3 = store.publish_steering({"alpha": 0.2})
        assert (s1, s2, s3) == (1, 2, 3)
        assert store.seq == 3

    def test_delta_returns_only_newer_events(self):
        store = EventSequenceStore()
        store.publish_status("session", a=1)
        cursor = store.seq
        store.publish_image(tiny_image(), cycle=2)
        delta = store.delta(cursor)
        assert [c["id"] for c in delta["components"]] == ["image"]
        assert delta["version"] == cursor + 1
        assert delta["dropped"] == 0
        assert delta["timeout"] is False

    def test_snapshot_merges_component_state(self):
        store = EventSequenceStore()
        store.publish_status("session", simulator="heat")
        store.publish_status("session", loop="A-B-C")
        store.publish_image(tiny_image(), cycle=5)
        snap = store.snapshot()
        by_id = {c["id"]: c for c in snap["components"]}
        assert by_id["session"]["props"]["simulator"] == "heat"
        assert by_id["session"]["props"]["loop"] == "A-B-C"
        assert by_id["image"]["props"]["cycle"] == 5

    def test_ring_eviction_reports_dropped(self):
        store = EventSequenceStore(capacity=4)
        for i in range(10):
            store.publish_status("session", tick=i)
        delta = store.delta(0)
        # 10 events total, ring keeps 4 -> 6 are gone for a since=0 poller
        assert delta["dropped"] == 6
        assert len(delta["components"]) == 4
        fresh = store.delta(store.seq)
        assert fresh["dropped"] == 0 and fresh["timeout"] is True

    def test_image_encoded_once_and_blob_shared(self):
        store = EventSequenceStore()
        v = store.publish_image(tiny_image(60), cycle=1)
        blobs = [store.image_blob() for _ in range(5)]
        assert all(b is blobs[0] for b in blobs)  # the same cached object
        assert store.encode_count == 1
        pngs = [store.image_png(v) for _ in range(5)]
        assert all(p is pngs[0] for p in pngs)
        assert store.png_encode_count == 1
        assert decode_fixed_size(blobs[0]).width == 8

    def test_image_by_version_and_eviction(self):
        store = EventSequenceStore(image_capacity=2)
        v1 = store.publish_image(tiny_image(10), cycle=1)
        v2 = store.publish_image(tiny_image(20), cycle=2)
        v3 = store.publish_image(tiny_image(30), cycle=3)
        assert store.image_record(v3).cycle == 3
        assert store.image_record(v2).cycle == 2
        with pytest.raises(WebServerError, match="no longer retained"):
            store.image_blob(v1)
        assert store.dropped_images == 1

    def test_listeners_fire_outside_lock(self):
        store = EventSequenceStore()
        seen = []

        def listener(seq):
            # re-entering the store must not deadlock
            seen.append((seq, store.seq))

        store.add_listener(listener)
        store.publish_status("session", a=1)
        store.publish_image(tiny_image())
        assert [s for s, _ in seen] == [1, 2]


def _notify(cond: threading.Condition) -> None:
    with cond:
        cond.notify_all()


class TestConcurrentPollCorrectness:
    def test_no_lost_wakeups_and_strictly_increasing_versions(self):
        """Satellite: N pollers during a publish burst each observe a
        strictly increasing version sequence and miss nothing."""
        store = EventSequenceStore(capacity=4096)
        n_pollers, n_publishes = 8, 300
        start = threading.Barrier(n_pollers + 1)
        errors: list[str] = []
        observed: list[list[int]] = [[] for _ in range(n_pollers)]

        woken = threading.Condition()
        store.add_listener(lambda seq: _notify(woken))

        def poller(idx: int):
            start.wait()
            since = 0
            while since < n_publishes:
                with woken:  # park on the publish listener, as a waiter does
                    woken.wait_for(lambda: store.seq > since, timeout=10.0)
                delta = store.delta(since)
                if delta["timeout"]:
                    errors.append(f"poller {idx} lost a wakeup at {since}")
                    return
                if delta["version"] <= since:
                    errors.append(f"poller {idx} version went backwards")
                    return
                seqs = [c["version"] for c in delta["components"]]
                if seqs != sorted(seqs) or (seqs and seqs[0] <= since):
                    errors.append(f"poller {idx} non-monotonic delta {seqs}")
                    return
                observed[idx].extend(seqs)
                since = delta["version"]

        threads = [threading.Thread(target=poller, args=(i,)) for i in range(n_pollers)]
        for t in threads:
            t.start()
        start.wait()
        for i in range(n_publishes):
            store.publish_status("session", tick=i)
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []
        for seqs in observed:
            assert seqs == sorted(set(seqs))  # strictly increasing
            assert seqs[-1] == n_publishes  # everyone saw the final event


class TestPublishStatusProps:
    def test_props_may_use_keys_colliding_with_parameter_names(self):
        """component/cycle are positional-only, so props may reuse them."""
        store = EventSequenceStore()
        store.publish_status("session", **{"component": "x", "cycle": 9})
        by_id = {c["id"]: c for c in store.snapshot()["components"]}
        assert by_id["session"]["props"] == {"component": "x", "cycle": 9}

    def test_monitor_meta_with_colliding_keys(self):
        from repro.net import build_paper_testbed
        from repro.steering.central_manager import CentralManager
        from repro.steering.manager import SessionManager
        from repro.costmodel.calibration import default_calibration

        topo, roles = build_paper_testbed(with_cross_traffic=False)
        cm = CentralManager(topo, roles, calibration=default_calibration(0))
        manager = SessionManager(cm)
        events = manager.open_monitor("m", meta={"cycle": 3, "component": "c"})
        assert events.seq == 1  # the initial meta event published fine


class TestDeltaFrameCache:
    def test_frame_encoded_once_per_window(self):
        """The encode-once wake path: N waiters at one cursor, 1 encode."""
        store = EventSequenceStore()
        store.publish_status("session", tick=1)
        frames = [store.framed_delta(0) for _ in range(50)]
        assert all(f is frames[0] for f in frames)  # the same cached bytes
        assert store.json_encodes == 1
        assert json.loads(frames[0]) == store.delta(0)

    def test_distinct_cursors_get_distinct_frames(self):
        store = EventSequenceStore()
        store.publish_status("session", a=1)
        store.publish_status("session", b=2)
        f0 = store.framed_delta(0)
        f1 = store.framed_delta(1)
        assert store.json_encodes == 2
        assert len(json.loads(f0)["components"]) == 2
        assert len(json.loads(f1)["components"]) == 1

    def test_publish_invalidates_window(self):
        store = EventSequenceStore()
        store.publish_status("session", tick=1)
        first = store.framed_delta(0)
        store.publish_status("session", tick=2)
        second = store.framed_delta(0)
        assert first is not second
        assert store.json_encodes == 2
        assert json.loads(second)["version"] == 2

    def test_timeout_frame_is_shared_too(self):
        store = EventSequenceStore()
        store.publish_status("session", tick=1)
        head = store.seq
        frames = [store.framed_delta(head) for _ in range(10)]
        assert all(f is frames[0] for f in frames)
        assert store.json_encodes == 1
        delta = json.loads(frames[0])
        assert delta["timeout"] is True and delta["components"] == []

    def test_cache_is_bounded(self):
        store = EventSequenceStore(frame_cache_size=4)
        store.publish_status("session", tick=1)
        for since in range(64):
            store.framed_delta(since)
        assert len(store._frames.cache) <= 4
        assert store.json_encodes == 64
        # re-asking for an evicted window re-encodes rather than failing
        assert json.loads(store.framed_delta(0))["version"] == 1

    def test_cache_is_byte_bounded_but_serves_large_frames(self):
        from repro.steering.frames import DeltaFrameCache

        cache = DeltaFrameCache(capacity=16, byte_limit=1000)
        big = b"x" * 900
        cache.put((0, 1), big)
        cache.put((1, 2), big)  # over the byte limit -> (0, 1) evicted
        assert cache.get((0, 1)) is None
        assert cache.get((1, 2)) is big  # the newest frame always survives
        assert cache.bytes <= 1000

    def test_frames_match_delta_under_concurrent_publishes(self):
        store = EventSequenceStore(capacity=4096)
        stop = threading.Event()

        def publisher():
            n = 0
            while not stop.is_set():
                n += 1
                store.publish_status("session", tick=n)

        t = threading.Thread(target=publisher)
        t.start()
        try:
            for _ in range(300):
                since = max(0, store.seq - 2)
                delta = json.loads(store.framed_delta(since))
                assert delta["version"] >= since
                for comp in delta["components"]:
                    assert comp["version"] > since
        finally:
            stop.set()
            t.join(timeout=10.0)


class TestComponentCardinalityBound:
    def test_snapshot_component_count_is_bounded(self):
        store = EventSequenceStore(component_limit=4)
        for i in range(10):
            store.publish_status(f"widget{i}", value=i)
        snap = store.snapshot()
        assert len(snap["components"]) == 4
        assert snap["dropped_components"] == 6
        assert store.dropped_components == 6
        # the survivors are the most recently updated components
        assert {c["id"] for c in snap["components"]} == {
            "widget6", "widget7", "widget8", "widget9"
        }

    def test_least_recently_updated_is_evicted_first(self):
        store = EventSequenceStore(component_limit=2)
        store.publish_status("a", x=1)
        store.publish_status("b", x=2)
        store.publish_status("a", x=3)  # refresh a; b is now the oldest
        store.publish_status("c", x=4)
        ids = {c["id"] for c in store.snapshot()["components"]}
        assert ids == {"a", "c"}

    def test_evicted_component_revives_on_republish(self):
        store = EventSequenceStore(component_limit=2)
        store.publish_status("a", x=1)
        store.publish_status("b", x=2)
        store.publish_status("c", x=3)  # evicts a
        store.publish_status("a", x=9)  # revives a, evicts b
        by_id = {c["id"]: c for c in store.snapshot()["components"]}
        assert set(by_id) == {"c", "a"}
        assert by_id["a"]["props"] == {"x": 9}

    def test_event_ring_unaffected_by_component_eviction(self):
        store = EventSequenceStore(component_limit=2, capacity=256)
        for i in range(8):
            store.publish_status(f"w{i}", value=i)
        delta = store.delta(0)
        assert len(delta["components"]) == 8  # the log still has every event
        assert delta["dropped"] == 0

    def test_component_limit_validated(self):
        with pytest.raises(WebServerError):
            EventSequenceStore(component_limit=0)


class TestPollDemandClock:
    def test_fresh_store_counts_as_recently_polled(self):
        store = EventSequenceStore()
        assert store.in_demand(5.0)

    def test_poll_paths_touch_the_demand_clock(self):
        store = EventSequenceStore()
        store.publish_status("session", x=1)
        store._last_poll -= 100.0  # simulate a long-stalled consumer
        assert not store.in_demand(5.0)
        store.delta(0)
        assert store.in_demand(5.0)
        store._last_poll -= 100.0
        store.framed_delta(0)
        assert store.in_demand(5.0)
        store._last_poll -= 100.0
        store.snapshot()
        assert store.in_demand(5.0)

    def test_png_cached_returns_none_until_encoded(self):
        store = EventSequenceStore()
        store.publish_image(tiny_image(), cycle=1)
        assert store.png_cached() is None
        png = store.image_png()
        assert png[:8] == b"\x89PNG\r\n\x1a\n"
        assert store.png_cached() == png
        assert store.png_encode_count == 1


class TestTieredDelivery:
    def test_delta_carries_its_tier(self):
        store = EventSequenceStore()
        store.publish_status("session", a=1)
        store.publish_image(tiny_image(), cycle=1)
        assert store.delta(0)["tier"] == 0
        d = store.delta(0, tier=1)
        assert d["tier"] == 1
        image = next(c for c in d["components"] if c["id"] == "image")
        assert image["props"]["tier"] == 1
        # tier 0 deltas are byte-identical to the pre-adaptive shape
        base = next(c for c in store.delta(0)["components"] if c["id"] == "image")
        assert "tier" not in base["props"]

    def test_snapshot_tier_keeps_only_newest_image(self):
        store = EventSequenceStore()
        store.publish_image(tiny_image(10), cycle=1)
        store.publish_image(tiny_image(20), cycle=2)
        store.publish_image(tiny_image(30), cycle=3)
        d = store.delta(0, tier=3)
        images = [c for c in d["components"] if c["id"] == "image"]
        assert len(images) == 1
        assert images[0]["props"]["cycle"] == 3
        assert d["skipped_images"] == 2
        # full-quality tier still replays every frame
        full = store.delta(0)
        assert len([c for c in full["components"] if c["id"] == "image"]) == 3
        assert "skipped_images" not in full

    def test_tier_blob_downscaled_and_encoded_once_per_scale(self):
        store = EventSequenceStore()
        v = store.publish_image(tiny_image(60), cycle=1)
        half = [store.image_blob(v, tier=1) for _ in range(5)]
        assert all(b is half[0] for b in half)
        assert decode_fixed_size(half[0]).width == 4
        assert store.tier_encode_count == 1
        # tiers 2 and 3 share scale 4 -> one more encode, shared blob
        quarter = store.image_blob(v, tier=2)
        snap = store.image_blob(v, tier=3)
        assert snap is quarter
        assert decode_fixed_size(quarter).width == 2
        assert store.tier_encode_count == 2
        # the full-quality path is untouched
        assert store.image_blob(v) is store.image_record(v).blob
        assert store.encode_count == 1

    def test_tier_png_cached_per_scale(self):
        store = EventSequenceStore()
        v = store.publish_image(tiny_image(90), cycle=1)
        p1 = store.image_png(v, tier=1)
        assert store.image_png(v, tier=1) is p1
        assert store.png_cached(v, tier=1) is p1
        assert store.png_cached(v, tier=2) is None
        p2 = store.image_png(v, tier=2)
        assert p2 is not p1
        assert store.png_encode_count == 2

    def test_frames_shared_within_a_tier_distinct_across(self):
        store = EventSequenceStore()
        store.publish_image(tiny_image(), cycle=1)
        f0 = [store.framed_delta(0, tier=0) for _ in range(20)]
        f1 = [store.framed_delta(0, tier=1) for _ in range(20)]
        assert all(f is f0[0] for f in f0)
        assert all(f is f1[0] for f in f1)
        assert f0[0] is not f1[0]
        assert store.json_encodes == 2  # one per (window, tier) group
        assert json.loads(f1[0])["tier"] == 1

    def test_wrapped_framings_share_the_tier_json_base(self):
        from repro.wire import FRAME_SSE

        store = EventSequenceStore()
        store.publish_status("session", tick=1)
        store.framed_delta(0, FRAME_SSE, tier=2)
        assert store.json_encodes == 1
        store.framed_delta(0, FRAME_SSE, tier=2)
        assert store.json_encodes == 1  # SSE wrap cached, base cached
        store.framed_delta(0, tier=2)
        assert store.json_encodes == 1  # raw JSON reuses the same base

    def test_tier_hopping_client_cannot_grow_the_cache(self):
        """Satellite (b): the enlarged key space stays per-store bounded."""
        store = EventSequenceStore(frame_cache_size=8)
        store.publish_status("session", tick=1)
        for i in range(200):
            store.framed_delta(i % 3, tier=i % 4)
        assert len(store._frames.cache) <= 8
        assert store._frames.cache.evictions > 0
        # evicted windows are re-encoded on demand, never an error
        assert json.loads(store.framed_delta(0, tier=3))["tier"] == 3

    def test_bad_tier_values_clamp(self):
        store = EventSequenceStore()
        store.publish_image(tiny_image(), cycle=1)
        assert store.delta(0, tier=-5)["tier"] == 0
        assert store.delta(0, tier=99)["tier"] == 3


class TestDeltaWalksBackFromTheHead:
    """``_delta_locked`` stops at the cursor instead of scanning the ring."""

    _OPS = st.lists(st.one_of(
        st.tuples(st.just("status"), st.integers(0, 3)),    # component index
        st.tuples(st.just("image"), st.integers(0, 255)),   # shade
        st.tuples(st.just("restore"), st.integers(1, 40)),  # jump seq forward by
    ), max_size=40)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 12), ops=_OPS,
           sinces=st.lists(st.integers(-5, 400), min_size=1, max_size=8))
    def test_same_delta_as_the_full_ring_scan(self, capacity, ops, sinces):
        store = EventSequenceStore(capacity=capacity, file_size=1024)
        for op, arg in ops:
            if op == "status":
                store.publish_status(f"c{arg}", tick=store.seq)
            elif op == "image":
                store.publish_image(tiny_image(arg), cycle=store.seq)
            else:  # a journal replay re-appends at a seq of its choosing
                store.restore_event("status", "session", 0, {"restored": arg},
                                    seq=store.seq + arg)
        ring = list(store._events)
        seqs = [e.seq for e in ring]
        assert seqs == sorted(set(seqs)) and len(ring) <= capacity
        # ...including cursors older than the ring, at and past the head.
        for since in {*sinces, 0, store.seq - 1, store.seq, store.seq + 1,
                      *(s - 1 for s in seqs[:2])}:
            delta = store.delta(since)
            assert delta["components"] == [
                e.to_component() for e in ring if e.seq > since]
            first = seqs[0] if seqs else store.seq + 1
            assert delta["dropped"] == max(0, min(first - 1, store.seq) - since)
            assert delta["timeout"] is (store.seq <= since)
            assert delta["version"] == store.seq
