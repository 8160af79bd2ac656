"""Sliding-window plane: bricks, cursors, prefetch, window-keyed deltas."""

from __future__ import annotations

import http.client
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive.controller import AdaptiveDeliveryController
from repro.costmodel.calibration import default_calibration
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.errors import ConfigurationError, DataFormatError
from repro.net import build_paper_testbed
from repro.net.measurement import PathEstimate
from repro.steering import CentralManager, SteeringClient
from repro.steering.events import EventSequenceStore
from repro.web.server import AjaxWebServer, _WorkerPool
from repro.window import (
    BrickCache,
    WindowCursor,
    WindowView,
    WindowedDomainSource,
    decode_brick_payload,
    encode_brick_payload,
)
from repro.window.source import MAX_WINDOWS


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


_HEADER = struct.Struct("<4sBBHI3i3iI")  # the RBK1 header, spelled independently
_SMALL_OR_ANY = st.integers(-3, 6) | st.integers(-2**31, 2**31 - 1)


def _valid_geometry(dec: dict, body_len: int) -> bool:
    step, shape, offset = dec["step"], dec["shape"], dec["offset"]
    return (step >= 1 and min(shape) >= 1 and min(offset) >= 0
            and dec["values"].shape == tuple(-(-s // step) for s in shape)
            and 4 * dec["values"].size == body_len)


class TestBrickDecodeProperty:
    """``decode_brick_payload`` trusts nothing a lying server sends: it
    returns geometry an octree could have produced, or raises
    ``DataFormatError`` — never another exception type."""

    @given(dims=st.tuples(*[st.integers(2, 40)] * 3),
           leaf=st.sampled_from([2, 4, 8, 16]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_encoded_bricks_round_trip_and_every_prefix_is_refused(
            self, dims, leaf, data):
        vals = np.arange(np.prod(dims), dtype=np.float32).reshape(dims)
        tree = Octree(StructuredGrid(vals), leaf_cells=leaf)
        lod = data.draw(st.integers(0, tree.max_lod))
        brick = data.draw(st.sampled_from(tree.bricks(lod)))
        values = tree.brick_values(brick)
        payload = encode_brick_payload(brick, values, 9)
        dec = decode_brick_payload(payload)
        assert (dec["lod"], dec["step"], dec["brick"], dec["version"]) == (
            brick.lod, brick.step, brick.index, 9)
        assert (dec["offset"], dec["shape"]) == (tuple(brick.offset), tuple(brick.shape))
        np.testing.assert_array_equal(dec["values"], values)
        assert _valid_geometry(dec, len(payload) - _HEADER.size)
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(DataFormatError):
            decode_brick_payload(payload[:cut])

    @given(fmt=st.sampled_from([1, 1, 1, 0, 2]), lod=st.integers(0, 255),
           step=st.integers(0, 4) | st.integers(0, 2**16 - 1),
           index=st.integers(0, 2**32 - 1),
           offset=st.tuples(*[_SMALL_OR_ANY] * 3), shape=st.tuples(*[_SMALL_OR_ANY] * 3),
           version=st.integers(0, 2**32 - 1),
           body=st.none() | st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_header_decodes_to_possible_geometry_or_is_refused(
            self, fmt, lod, step, index, offset, shape, version, body):
        if body is None:  # the body length the header claims, when small
            n = 1
            for s in shape:
                n *= -(-s // step) if step > 0 else 1
            body = bytes(4 * n) if 0 <= n <= 1024 else b""
        buf = _HEADER.pack(b"RBK1", fmt, lod, step, index, *offset, *shape,
                           version) + body
        try:
            dec = decode_brick_payload(buf)
        except DataFormatError:
            return
        assert _valid_geometry(dec, len(body))

    @given(buf=st.binary(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_are_refused_or_possible(self, buf):
        try:
            dec = decode_brick_payload(b"RBK1" + buf)
        except DataFormatError:
            return
        assert _valid_geometry(dec, len(buf) + 4 - _HEADER.size)

    @pytest.mark.parametrize("step, offset, shape, body", [
        (0, (0, 0, 0), (2, 2, 2), bytes(32)),        # stride 0: was ZeroDivisionError
        (1, (0, 0, 0), (-1, -1, 1), bytes(4)),       # negative extents: was ValueError
        (2, (0, 0, 0), (-1, 2, 2), b""),             # accepted an empty brick
        (1, (-5, -7, -2**31), (1, 1, 1), bytes(4)),  # accepted a negative offset
    ])
    def test_impossible_geometry_is_a_format_error(self, step, offset, shape, body):
        buf = _HEADER.pack(b"RBK1", 1, 0, step, 0, *offset, *shape, 0) + body
        with pytest.raises(DataFormatError):
            decode_brick_payload(buf)


class TestWindowRegistryBound:
    """A wid is the client's choice, so the registry is an LRU of
    ``MAX_WINDOWS`` windows per source."""

    def test_registry_keeps_the_most_recently_used_windows(self, tree):
        source = WindowedDomainSource(tree)
        cursor = WindowCursor((0, 0, 0), (17, 17, 17), 0)
        for i in range(2000):
            source.set_cursor(f"w{i}", cursor)
        assert source.stats()["windows"] == MAX_WINDOWS
        assert source.cursor("w0") is None and source.window_key("w975") is None
        held = [f"w{i}" for i in range(2000 - MAX_WINDOWS, 2000)]
        assert all(source.cursor(wid) == cursor for wid in held)

    def test_an_evicted_window_forgets_its_pan(self, tree):
        source = WindowedDomainSource(tree)
        source.set_cursor("p", WindowCursor((0, 0, 0), (17, 17, 17), 0))
        source.set_cursor("p", WindowCursor((16, 0, 0), (33, 17, 17), 0))
        for i in range(MAX_WINDOWS):
            source.set_cursor(f"w{i}", WindowCursor((0, 0, 0), (17, 17, 17), 0))
        assert source.cursor("p") is None
        issued = source.cache.prefetch_issued
        # Registered anew, then re-sent in place: a held window would
        # prefetch along its remembered +x pan here, a new one has none.
        source.set_cursor("p", WindowCursor((32, 0, 0), (49, 17, 17), 0))
        source.set_cursor("p", WindowCursor((32, 0, 0), (49, 17, 17), 0))
        assert source.cache.prefetch_issued == issued


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


def _random_tree(shape, leaf: int) -> Octree:
    values = np.random.default_rng(11).random(shape, dtype=np.float32)
    return Octree(StructuredGrid(values), leaf_cells=leaf)


_SHAPES = st.tuples(*[st.integers(1, 20)] * 3)


class TestThinBoxes:
    """A box one sample thick on an axis is a slab of real samples: its
    window must fill and a step touching it must dirty the brick holding it."""

    @settings(max_examples=80, deadline=None)
    @given(shape=_SHAPES, leaf=st.integers(1, 16), data=st.data())
    def test_every_in_domain_box_is_covered_by_its_announced_bricks(
            self, shape, leaf, data):
        tree = _random_tree(shape, leaf)
        source = WindowedDomainSource(tree)
        lo = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
        hi = tuple(data.draw(st.integers(l + 1, n)) for l, n in zip(lo, shape))
        for lod in range(tree.max_lod + 1):
            metas = source.set_cursor("w", WindowCursor(lo, hi, lod))
            view = WindowView(source.cursor("w"))
            for meta in metas:
                view.apply(decode_brick_payload(
                    source.payload(meta["lod"], meta["brick"])))
            assert view.coverage == 1.0, (lo, hi, lod)
            step = 1 << lod
            first = [-(-l // step) * step for l in lo]
            np.testing.assert_array_equal(view.values, tree.grid.values[
                first[0]:hi[0]:step, first[1]:hi[1]:step, first[2]:hi[2]:step])

    @settings(max_examples=80, deadline=None)
    @given(shape=_SHAPES, leaf=st.integers(1, 16), data=st.data())
    def test_a_one_sample_dirty_box_dirties_the_brick_holding_it(
            self, shape, leaf, data):
        tree = _random_tree(shape, leaf)
        source = WindowedDomainSource(tree)
        sample = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
        source.mark_step(7, (sample, tuple(s + 1 for s in sample)))
        for lod in range(tree.max_lod + 1):
            dirty = source.bricks_for(((0, 0, 0), shape, lod), since=0)
            assert len(dirty) == 1 and dirty[0]["version"] == 7, (sample, lod)
            assert all(o <= s < o + n for s, o, n in
                       zip(sample, dirty[0]["offset"], dirty[0]["shape"]))


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
            cache.put(("k", i), 0, payload)
        assert cache.bytes <= cache.max_bytes
        assert cache.evictions >= 1

    def test_a_new_version_replaces_the_superseded_entry(self, tree):
        source = WindowedDomainSource(tree)
        metas = source.set_cursor("w", WindowCursor((0, 0, 0), (33, 33, 33), 0))
        rounds = 200
        for version in range(1, rounds + 1):
            source.mark_step(version, ((0, 0, 0), (8, 8, 8)))
            for meta in source.set_cursor("w", source.cursor("w")):
                source.payload(meta["lod"], meta["brick"])
        stats = source.cache.stats()
        assert stats["entries"] == len(metas) == 8
        assert stats["bytes"] == sum(meta["bytes"] for meta in metas)
        assert stats["evictions"] == 0
        # every round: the dirtied brick misses, the seven others hit
        assert stats["misses"] == len(metas) + rounds - 1
        assert stats["hits"] == (rounds - 1) * (len(metas) - 1)


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


class TestBrickRouteOnTheLoop:
    def test_brick_fetches_never_reach_the_worker_pool(self, tree, monkeypatch):
        """A hit, a miss, an unknown brick and a malformed ``lod`` are all
        answered by the IO loop: with the worker pool refusing work, a
        route that still handed its fetch to a worker would cost the
        connection."""
        def refuse(pool, fn):
            raise AssertionError("GET brick was handed to the worker pool")

        monkeypatch.setattr(_WorkerPool, "submit", refuse)
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        client = SteeringClient(
            CentralManager(topo, roles, calibration=default_calibration()))
        with AjaxWebServer(client, port=0) as server:
            source = WindowedDomainSource(tree)
            client.manager.open_monitor("dom").set_window_source(source)
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=10.0)

            def get(query: str):
                conn.request("GET", f"/api/v1/dom/brick?{query}")
                response = conn.getresponse()
                return response.status, response.read()

            try:
                brick = tree.bricks(1)[3]
                for hit in (False, True):  # the miss encodes, the hit reuses it
                    before = source.cache.stats()
                    status, body = get("lod=1&id=3")
                    after = source.cache.stats()
                    assert status == 200
                    assert (after["hits"] - before["hits"],
                            after["misses"] - before["misses"]) == (hit, not hit)
                    np.testing.assert_array_equal(
                        decode_brick_payload(body)["values"],
                        tree.brick_values(brick))
                status, body = get(f"lod=0&id={len(tree.bricks(0))}")
                assert (status, json.loads(body)["error"]["code"]) == (404, "not_found")
                status, body = get("lod=x&id=0")
                assert (status, json.loads(body)["error"]["code"]) == (400, "bad_request")
            finally:
                conn.close()
            assert server.io_thread_count() == 1
