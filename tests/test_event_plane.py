"""The event plane's three units, each alone, and the pin that holds them together.

``steering/events.py`` is the store, ``steering/frames.py`` the frame
plane, ``steering/images.py`` the image ring.  The frame plane runs here
against a stub delta source and the image ring against a bare
:class:`Image` — no store, no socket — and one parametrised test over
every framing x tier x windowed / unwindowed holds the composition to
the bytes: a cache miss, a cache hit and a journal-rehydrated store
serve the same frame.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.adaptive.tiers import TIER_LADDER
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.errors import DataFormatError, WebServerError
from repro.obs.journal import SessionJournal
from repro.steering import images as images_module
from repro.steering.events import EventSequenceStore
from repro.steering.frames import DeltaFrameCache, FramePlane
from repro.steering.images import ImageRing
from repro.viz.image import Image, decode_fixed_size, encode_fixed_size
from repro.window import WindowCursor, WindowedDomainSource
from repro.wire import (
    FRAME_JSON,
    FRAME_SSE,
    FRAME_WS,
    FRAME_WS_BINARY,
    FRAMINGS,
    decode_binary_delta,
    decode_chunks,
    parse_ws_frames,
    split_sse_events,
)

TIERS = [spec.index for spec in TIER_LADDER]


def _noise(seed: int, n: int = 32) -> Image:
    px = np.random.default_rng(seed).integers(0, 255, (n, n, 4), dtype=np.uint8)
    px[:, :, 3] = 255
    return Image(px)


# -- the image ring, against a bare Image ------------------------------------------

class TestImageRing:
    def _ring(self, capacity: int = 2, file_size: int = 16 * 1024) -> ImageRing:
        return ImageRing(capacity, file_size, threading.RLock())

    def _publish(self, ring: ImageRing, seq: int, image: Image | None,
                 blob: bytes | None = None) -> None:
        blob = blob or encode_fixed_size(image, ring.file_size)
        with ring._lock:
            ring.append_locked(seq, seq, blob, {}, image)

    def test_one_trim_and_two_lookups(self):
        ring = self._ring(capacity=2)
        with pytest.raises(WebServerError, match="no image yet"):
            ring.record_locked()
        assert ring.find_locked() is None
        for seq in (3, 5, 9):
            self._publish(ring, seq, _noise(seq))
        assert ring.dropped_images == 1
        assert ring.find_locked(3) is None
        assert ring.find_locked(5).seq == 5
        assert ring.record_locked().version == ring.find_locked().seq == 9
        with pytest.raises(WebServerError, match="version 3 no longer retained"):
            ring.record_locked(3)
        with pytest.raises(WebServerError, match=">= 1"):
            ImageRing(0, 1024, threading.RLock())

    def test_each_variant_is_encoded_once_from_the_published_pixels(self):
        ring, image = self._ring(), _noise(1)
        self._publish(ring, 1, image)
        record = ring.record_locked(1)
        assert ring.blob(record) is record.blob and ring.tier_encode_count == 0
        half = [ring.blob(record, 2) for _ in range(3)]
        assert all(blob is half[0] for blob in half) and ring.tier_encode_count == 1
        assert len(half[0]) == ring.file_size // 4
        assert np.array_equal(decode_fixed_size(half[0]).pixels,
                              image.downscale(2).pixels)
        assert ring.png_cached(record, 2) is None
        png = ring.png(record, 2)
        assert ring.png(record, 2) is png is ring.png_cached(record, 2)
        assert png == image.downscale(2).to_png_bytes()
        assert ring.png(record) == image.to_png_bytes()
        # a PNG is encoded from pixels alone: no container on its account
        assert (ring.tier_encode_count, ring.png_encode_count) == (1, 2)

    @pytest.mark.parametrize("scale", sorted({spec.scale for spec in TIER_LADDER}))
    def test_a_restored_record_serves_what_the_live_one_does(self, scale):
        live, restored, image = self._ring(), self._ring(), _noise(2)
        self._publish(live, 1, image)
        self._publish(restored, 1, None, blob=live.record_locked(1).blob)
        assert restored.record_locked(1).image is None
        for variant in (ImageRing.blob, ImageRing.png):
            assert (variant(restored, restored.record_locked(1), scale)
                    == variant(live, live.record_locked(1), scale))

    def test_same_png_even_when_the_small_container_falls_back(self, monkeypatch):
        # The edge PR 17 left: a downscaled frame that will not fit any
        # container is served as the full blob; the PNG at that scale must
        # still be the downscaled pixels, live and restored alike.
        live, restored, image = self._ring(), self._ring(), _noise(3)
        self._publish(live, 1, image)
        self._publish(restored, 1, None, blob=live.record_locked(1).blob)

        def refuse(small, size):
            raise DataFormatError("does not fit")

        monkeypatch.setattr(images_module, "encode_fixed_size", refuse)
        for ring in (live, restored):
            record = ring.record_locked(1)
            assert ring.blob(record, 2) is record.blob  # incompressible: full
            assert ring.png(record, 2) == image.downscale(2).to_png_bytes()


# -- the frame plane, against a stub delta source ------------------------------------

class StubSource:
    """A delta source with no log: the delta is a function of its arguments."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.head = 1
        self.built = 0

    def head_locked(self) -> int:
        return self.head

    def delta_locked(self, since, tier, skipped_out, window) -> dict:
        self.built += 1
        components = [{"id": "image", "version": v, "props": {"version": v}}
                      for v in range(since + 1, self.head + 1)]
        if tier == 3 and len(components) > 1:  # a snapshot tier keeps the newest
            skipped_out.extend(c["version"] for c in components[:-1])
            components = components[-1:]
        return {"version": self.head, "components": components, "tier": tier,
                "window": window}


class TestFramePlane:
    def _plane(self, cache_size: int = 16) -> tuple[FramePlane, StubSource, ImageRing]:
        source = StubSource()
        ring = ImageRing(4, 4096, source.lock)
        return FramePlane(ring, source.lock, cache_size), source, ring

    def test_a_mixed_herd_at_one_cursor_costs_one_encode_and_ws_bin_one_more(self):
        plane, source, _ = self._plane()
        herd = [plane.framed_delta_with_head(source, 0, framing, 0, None)
                for framing in (FRAME_JSON, FRAME_JSON, FRAME_SSE, FRAME_WS)]
        assert (plane.json_encodes, source.built) == (1, 1)
        assert herd[0][0] is herd[1][0] and {head for _, head in herd} == {1}
        base = herd[0][0]
        [chunk], ended = decode_chunks(bytearray(herd[2][0]))
        assert not ended and split_sse_events(bytearray(chunk)) == [(1, base)]
        assert parse_ws_frames(bytearray(herd[3][0]), False) == [(1, base)]
        frame, _ = plane.framed_delta_with_head(source, 0, FRAME_WS_BINARY, 0, None)
        assert (plane.json_encodes, source.built) == (2, 2)
        [(opcode, payload)] = parse_ws_frames(bytearray(b"".join(frame)), False)
        assert opcode == 2 and decode_binary_delta(payload) == json.loads(base)

    def test_wrapping_first_caches_the_json_base_too(self):
        plane, source, _ = self._plane()
        plane.framed_delta_with_head(source, 0, FRAME_SSE, 2, ("w",))
        plane.framed_delta_with_head(source, 0, FRAME_JSON, 2, ("w",))
        plane.framed_delta_with_head(source, 0, FRAME_WS, 2, ("w",))
        assert (plane.json_encodes, source.built) == (1, 1)
        plane.framed_delta_with_head(source, 0, FRAME_JSON, 2, ("other",))
        plane.framed_delta_with_head(source, 0, FRAME_JSON, 1, ("w",))
        assert plane.json_encodes == 3  # a window or a tier is its own group

    def test_the_head_that_was_framed_is_the_head_returned(self):
        plane, source, _ = self._plane()
        first, head = plane.framed_delta_with_head(source, 0, FRAME_JSON, 0, None)
        source.head = 2
        second, moved = plane.framed_delta_with_head(source, 0, FRAME_JSON, 0, None)
        assert (head, moved) == (1, 2) and first is not second
        assert json.loads(second)["version"] == 2

    def test_binary_frames_inline_the_tier_blob_and_report_what_it_saved(self):
        plane, source, ring = self._plane()
        image = _noise(4, n=16)
        full = encode_fixed_size(image, ring.file_size)
        source.head = 3
        with source.lock:
            for seq in (1, 3):  # version 2 has left the ring: meta only
                ring.append_locked(seq, 0, full, {}, image)
        frame, head = plane.framed_delta_with_head(source, 0, FRAME_WS_BINARY, 1, None)
        [(_, payload)] = parse_ws_frames(bytearray(b"".join(frame)), False)
        got = {c["version"]: c["props"] for c in decode_binary_delta(payload)["components"]}
        small = ring.blob(ring.find_locked(1), 2)
        assert got[1]["blob"] == got[3]["blob"] == small and "blob" not in got[2]
        # the frame gathers the ring's own blobs: it holds no copy of them
        assert frame[1:] == (small, ring.blob(ring.find_locked(3), 2))
        assert frame[1] is small
        assert plane.cache.saved_for(
            (0, head, FRAME_WS_BINARY, 1, None)) == 2 * (len(full) - len(small))
        # a snapshot tier elides versions 1 and 2: the full blob of the one
        # still retained is what a tier-0 client would have been sent
        plane.framed_delta_with_head(source, 0, FRAME_JSON, 3, None)
        assert plane.cache.saved_for((0, head, FRAME_JSON, 3, None)) == len(full)
        assert plane.cache.saved_for((0, head, FRAME_JSON, 0, None)) == 0

    def test_bounded_by_entries_and_unknown_framings_refused(self):
        plane, source, _ = self._plane(cache_size=4)
        for since in range(-20, 0):
            plane.framed_delta_with_head(source, since, FRAME_JSON, since % 4, None)
        assert len(plane.cache) <= 4 and plane.cache.evictions >= 16
        before = plane.json_encodes
        plane.framed_delta_with_head(source, -20, FRAME_JSON, 0, None)  # evicted: re-encoded
        assert plane.json_encodes == before + 1
        with pytest.raises(WebServerError, match="unknown delta framing"):
            plane.framed_delta_with_head(source, 0, "ws+b64", 0, None)
        with pytest.raises(WebServerError):
            DeltaFrameCache(capacity=0)


# -- the composition: miss == hit == rehydrated, for every kind of frame -------------------

@pytest.fixture(scope="module")
def run():
    """A journaled live run over a windowed domain, and its rehydrated copy."""
    vals = np.random.default_rng(7).random((33, 33, 33), dtype=np.float32)
    source = WindowedDomainSource(Octree(StructuredGrid(vals), leaf_cells=16))
    source.set_cursor("w", WindowCursor((0, 0, 0), (17, 17, 17), 0))
    journal = SessionJournal()

    def live() -> EventSequenceStore:
        store = EventSequenceStore(file_size=16 * 1024)
        store.set_window_source(source)
        return store

    store = live()
    journal.attach("run", store)
    store.publish_status("session", 0, state="running")
    for cycle in range(3):
        store.publish_image(_noise(cycle), cycle=cycle, meta={"iso": 0.5})
        store.publish_steering({"alpha": cycle}, cycle)
        store.publish_window_step(cycle)
    replay, skipped = journal.rehydrate("run", file_size=store.file_size)
    assert skipped == 0 and replay.seq == store.seq
    replay.set_window_source(source)  # the domain is shared; events are replayed
    return store, replay, source.window_key("w")


@pytest.mark.parametrize("windowed", [False, True], ids=["whole", "windowed"])
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("framing", FRAMINGS)
def test_miss_hit_and_rehydrated_frames_are_the_same_bytes(run, framing, tier, windowed):
    store, replay, wkey = run
    window = wkey if windowed else None
    for since in (0, 4, store.seq):
        before = store.json_encodes
        miss = store.framed_delta_with_head(since, framing, tier, window)
        hit = store.framed_delta_with_head(since, framing, tier, window)
        assert hit[0] is miss[0] and hit[1] == miss[1] == store.seq
        assert store.json_encodes - before <= 1
        assert replay.framed_delta_with_head(since, framing, tier, window) == miss
        assert (replay.frame_saved(since, miss[1], framing, tier, window)
                == store.frame_saved(since, miss[1], framing, tier, window))
    if windowed:
        delta = store.delta(0, tier, window)
        assert delta["bricks"] and delta["window"]["lod"] == 0


def test_a_mixed_herd_costs_one_encode_and_ws_bin_one_beside_it():
    store = EventSequenceStore(file_size=16 * 1024)
    store.publish_image(_noise(0), cycle=0)
    for framing in (FRAME_JSON, FRAME_JSON, FRAME_SSE, FRAME_WS):  # poll + SSE + WS
        store.framed_delta(0, framing)
    assert store.json_encodes == 1
    store.framed_delta(0, FRAME_WS_BINARY)
    assert store.json_encodes == 2


@pytest.mark.parametrize("tier", TIERS)
def test_tier_pngs_and_blobs_are_identical_live_and_restored(run, tier):
    store, replay, _ = run
    version = store.image_record().version
    assert replay.image_record(version).image is None
    assert replay.image_png(version, tier) == store.image_png(version, tier)
    assert replay.image_blob(version, tier) == store.image_blob(version, tier)
    assert replay.png_cached(version, tier) == store.png_cached(version, tier)


def test_the_record_is_appended_under_the_lock_that_appends_its_event():
    # A listener runs right after the event is visible: the blob for the
    # version it is told about must already be retained.
    store = EventSequenceStore(file_size=16 * 1024)
    seen: list[tuple[int, int]] = []
    store.add_listener(
        lambda seq: seen.append((seq, len(store.image_blob(seq)))))
    store.publish_image(_noise(5), cycle=1)
    assert seen == [(1, store.file_size)]


# -- one store, two publishing threads: one order for everything -------------------

def test_publishes_from_two_threads_are_announced_in_seq_order():
    # ``POST steer`` publishes on the IO thread while the session thread
    # publishes images.  Hold the steering announce open on its listener
    # until the image publish has either finished (nothing orders the two)
    # or been kept waiting: every listener, tap and journal row must then
    # see seq 1 before seq 2, and the journal must rehydrate.
    store = EventSequenceStore(file_size=16 * 1024)
    journal = SessionJournal()
    journal.attach("s", store)
    seen: list[int] = []
    steering_announced = threading.Event()
    image_done = threading.Event()

    def listener(seq: int) -> None:
        if seq == 1:
            steering_announced.set()
            image_done.wait(timeout=0.5)
        seen.append(seq)

    store.add_listener(listener)

    def publish_image() -> None:
        steering_announced.wait()
        store.publish_image(_noise(1), cycle=1)
        image_done.set()

    imager = threading.Thread(target=publish_image)
    imager.start()
    store.publish_steering({"wind_speed": 5.0})
    imager.join(timeout=5)
    assert not imager.is_alive()
    assert seen == [1, 2]
    assert [row["seq"] for row in journal.rows("s")] == [1, 2]
    replay, skipped = journal.rehydrate("s", file_size=store.file_size)
    assert (replay.seq, skipped) == (2, 0)
    assert replay.framed_delta(0) == store.framed_delta(0)


def test_a_reader_never_sees_an_event_whose_announce_is_in_flight():
    # A viewer that is not parked may poll while a listener of the newest
    # event is still running; its delta waits for that announce to end.
    store = EventSequenceStore(file_size=16 * 1024)
    in_listener, release, read = threading.Event(), threading.Event(), threading.Event()
    frames: list[bytes] = []

    def listener(seq: int) -> None:
        in_listener.set()
        release.wait(timeout=5)

    store.add_listener(listener)
    publisher = threading.Thread(target=store.publish_steering, args=({"alpha": 1},))
    publisher.start()
    assert in_listener.wait(timeout=5)
    reader = threading.Thread(target=lambda: (frames.append(store.framed_delta(0)), read.set()))
    reader.start()
    assert not read.wait(timeout=0.2)  # blocked behind the announce
    release.set()
    for thread in (publisher, reader):
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert [c["version"] for c in json.loads(frames[0])["components"]] == [1]


def test_a_listener_may_publish_to_its_own_store():
    store = EventSequenceStore(file_size=16 * 1024)
    seen: list[int] = []

    def listener(seq: int) -> None:
        seen.append(seq)
        if seq == 1:
            store.publish_status("echo", 0, of=seq)  # re-enters the publish lock

    store.add_listener(listener)
    publisher = threading.Thread(target=store.publish_steering, args=({"alpha": 1},))
    publisher.start()
    publisher.join(timeout=5)
    assert not publisher.is_alive()
    assert seen == [1, 2] and store.seq == 2
    assert store.snapshot()["components"][-1] == {"id": "echo", "props": {"of": 1}, "version": 2}
    store.publish_status("after", 0)  # the lock was released by the other thread
    assert seen == [1, 2, 3]
