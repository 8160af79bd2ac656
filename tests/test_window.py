"""Sliding-window plane: bricks, cursors, prefetch, window-keyed deltas."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive.controller import AdaptiveDeliveryController
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.errors import ConfigurationError
from repro.net.measurement import PathEstimate
from repro.steering.events import EventSequenceStore
from repro.window import (
    BrickCache,
    WindowCursor,
    WindowView,
    WindowedDomainSource,
    decode_brick_payload,
    encode_brick_payload,
)


@pytest.fixture(scope="module")
def tree() -> Octree:
    rng = np.random.default_rng(7)
    vals = rng.random((65, 65, 65), dtype=np.float32)
    return Octree(StructuredGrid(vals), leaf_cells=16)


class TestBrickTiling:
    def test_lod0_bricks_tile_the_domain_seamlessly(self, tree):
        vals = tree.grid.values
        seen = np.full(vals.shape, np.nan, dtype=np.float32)
        for brick in tree.bricks(0):
            seen[brick.slices()] = tree.brick_values(brick)
        np.testing.assert_array_equal(seen, vals)

    def test_coarse_lod_samples_on_one_global_lattice(self, tree):
        lod = tree.max_lod
        step = 2 ** lod
        expect = tree.grid.values[::step, ::step, ::step]
        got = np.full(expect.shape, np.nan, dtype=np.float32)
        for brick in tree.bricks(lod):
            o = tuple(off // step for off in brick.offset)
            block = tree.brick_values(brick)
            got[o[0]:o[0] + block.shape[0],
                o[1]:o[1] + block.shape[1],
                o[2]:o[2] + block.shape[2]] = block
        np.testing.assert_array_equal(got, expect)

    def test_payload_roundtrip(self, tree):
        brick = tree.bricks(1)[3]
        payload = encode_brick_payload(brick, tree.brick_values(brick), 42)
        dec = decode_brick_payload(payload)
        assert dec["brick"] == brick.index
        assert dec["version"] == 42
        assert dec["step"] == brick.step
        np.testing.assert_array_equal(dec["values"], tree.brick_values(brick))


class TestWindowEdgeCases:
    def test_roi_fully_outside_domain_yields_no_bricks(self, tree):
        source = WindowedDomainSource(tree)
        metas = source.set_cursor(
            "w", WindowCursor((200, 200, 200), (300, 300, 300), 0))
        assert metas == []
        assert source.window_bytes(((200,) * 3, (300,) * 3, 0)) == 0
        assert tree.bricks_in((-50, -50, -50), (0, 0, 0), 0) == []

    def test_lod_clamped_at_leaf_depth(self, tree):
        source = WindowedDomainSource(tree)
        source.set_cursor("w", WindowCursor((0, 0, 0), (65, 65, 65), 99))
        assert source.cursor("w").lod == tree.max_lod
        source.set_cursor("w", WindowCursor((0, 0, 0), (65, 65, 65), -3))
        assert source.cursor("w").lod == 0

    def test_payload_rejects_out_of_range_bricks(self, tree):
        source = WindowedDomainSource(tree)
        with pytest.raises(ConfigurationError):
            source.payload(tree.max_lod + 1, 0)
        with pytest.raises(ConfigurationError):
            source.payload(0, len(tree.bricks(0)))

    def test_window_view_places_bricks_on_the_lattice(self, tree):
        cursor = WindowCursor((0, 0, 0), (33, 33, 33), 0)
        source = WindowedDomainSource(tree)
        metas = source.set_cursor("w", cursor)
        view = WindowView(cursor)
        for meta in metas:
            view.apply(decode_brick_payload(
                source.payload(meta["lod"], meta["brick"])))
        assert view.coverage == 1.0
        np.testing.assert_array_equal(view.values,
                                      tree.grid.values[0:33, 0:33, 0:33])


class TestPrefetch:
    def test_steady_pan_hits_prefetched_bricks(self, tree):
        source = WindowedDomainSource(tree)
        hits_before = source.cache.prefetch_hits
        cursor = WindowCursor((0, 0, 0), (17, 17, 17), 0)
        source.set_cursor("w", cursor)
        for _ in range(3):
            cursor = cursor.shifted((16, 0, 0))
            metas = source.set_cursor("w", cursor)
            for meta in metas:
                source.payload(meta["lod"], meta["brick"])
        stats = source.cache.stats()
        assert stats["prefetch_issued"] >= 1
        assert stats["prefetch_hits"] > hits_before
        assert stats["prefetch_hit_rate"] >= 0.5

    def test_cache_budget_is_enforced(self, tree):
        cache = BrickCache(max_bytes=1 << 14)
        payload = b"x" * (1 << 13)
        for i in range(8):
            cache.put(("k", i), payload)
        assert cache.bytes <= cache.max_bytes
        assert cache.evictions >= 1


class TestWindowedDeltas:
    def _store_with_source(self, tree):
        store = EventSequenceStore()
        source = WindowedDomainSource(tree)
        store.set_window_source(source)
        return store, source

    def test_delta_announces_only_intersecting_bricks(self, tree):
        store, source = self._store_with_source(tree)
        source.set_cursor("w", WindowCursor((0, 0, 0), (17, 17, 17), 0))
        store.publish_window_step(0)
        wkey = source.window_key("w")
        delta = store.delta(0, window=wkey)
        assert delta["window"] == {"lo": [0, 0, 0], "hi": [17, 17, 17], "lod": 0}
        announced = {m["brick"] for m in delta["bricks"]}
        expected = {b.index for b in tree.bricks_in((0, 0, 0), (17, 17, 17), 0)}
        assert announced == expected
        assert len(announced) < len(tree.bricks(0))

    def test_since_cursor_filters_stale_bricks(self, tree):
        store, source = self._store_with_source(tree)
        source.set_cursor("w", WindowCursor((0, 0, 0), (65, 65, 65), 0))
        first = store.publish_window_step(0)
        # Second step touches only the low corner brick.
        store.publish_window_step(1, ((0, 0, 0), (8, 8, 8)))
        wkey = source.window_key("w")
        delta = store.delta(first, window=wkey)
        assert {m["brick"] for m in delta["bricks"]} == {0}

    def test_identical_windows_share_one_json_encode(self, tree):
        store, source = self._store_with_source(tree)
        source.set_cursor("a", WindowCursor((0, 0, 0), (17, 17, 17), 0))
        source.set_cursor("b", WindowCursor((0, 0, 0), (17, 17, 17), 0))
        source.set_cursor("c", WindowCursor((32, 32, 32), (49, 49, 49), 0))
        store.publish_window_step(0)
        before = store.json_encodes
        same = [store.framed_delta(0, window=source.window_key(w))
                for w in ("a", "b", "a", "b")]
        assert len({id(f) for f in same}) == 1  # one shared buffer
        assert store.json_encodes == before + 1
        store.framed_delta(0, window=source.window_key("c"))
        assert store.json_encodes == before + 2


class TestLodLadder:
    def test_decide_lod_coarsens_under_slow_links(self):
        controller = AdaptiveDeliveryController(staleness_budget=0.05)
        fast = PathEstimate(1e9, 0.0, 1.0, 8)  # epb is bytes/second
        slow = PathEstimate(1e4, 0.0, 1.0, 8)
        wbytes = 4 << 20
        assert controller.decide_lod(fast, 0, 0, 3, wbytes) == 0
        assert controller.decide_lod(slow, 0, 0, 3, wbytes) > 0
        # never refines past the client's requested level
        assert controller.decide_lod(fast, 2, 2, 3, wbytes) == 2

    def test_decide_lod_keeps_current_without_estimate(self):
        controller = AdaptiveDeliveryController()
        assert controller.decide_lod(None, 1, 0, 3, 1 << 20) == 1
        assert controller.decide_lod(
            PathEstimate(1e9, 0.0, 1.0, 8), 1, 0, 3, 0) == 1
