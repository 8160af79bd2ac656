"""The image encoders and the frames that carry their output, byte for byte.

Socket-free.  The fixed-size container stores its pixels when they fit
and deflates them when it must — its pad hides the payload's size — and
everything a client can observe is pinned here: the container is exactly
``file_size`` bytes and decodes to the published pixels whichever arm
wrote it (and whichever commit: a level-1 container built the old way
still decodes), the stored arm is taken exactly when the raw pixels fit,
the decoder refuses a lying stored stream as it refuses a lying deflated
one, the browser PNG is byte-identical to the row-join encoder it
replaced (kept below as the oracle), a PNG is the same whether the store
still holds the pixels or only a journal-restored container, and the
``ws+bin`` frame and its decoder keep their layout.
"""

from __future__ import annotations

import binascii
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DataFormatError, WebServerError
from repro.steering import images as images_module
from repro.steering.events import EventSequenceStore
from repro.viz.image import Image, decode_fixed_size, encode_fixed_size
from repro.wire import (FRAME_WS_BINARY, WS_BINARY, decode_binary_delta,
                        parse_ws_frames, ws_server_frame)

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


# -- oracles: the encoders and the decoder as they were before this change -----

def png_row_join(image: Image) -> bytes:
    """``Image.to_png_bytes`` with its scanlines joined row by row."""

    def chunk(tag: bytes, data: bytes) -> bytes:
        crc = binascii.crc32(tag + data) & 0xFFFFFFFF
        return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", crc)

    h, w = image.pixels.shape[0], image.pixels.shape[1]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 6, 0, 0, 0)
    raw = b"".join(b"\x00" + image.pixels[row].tobytes() for row in range(h))
    return (_PNG_SIGNATURE + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6)) + chunk(b"IEND", b""))


def stored_stream(data: bytes, block: int = 65535) -> bytes:
    """``data`` as a zlib stream of stored blocks (RFC 1950 + RFC 1951 §3.2.4),
    concatenated the slow way: what the container's stored arm must hold."""
    out = b"\x78\x01"
    starts = range(0, len(data), block) or [0]
    for start in starts:
        chunk = data[start:start + block]
        out += struct.pack("<BHH", start == starts[-1], len(chunk),
                           len(chunk) ^ 0xFFFF) + chunk
    return out + struct.pack(">I", zlib.adler32(data))


def stored_payload(image: Image) -> bytes:
    return (struct.pack("<HH", image.width, image.height)
            + stored_stream(image.pixels.tobytes()))


def decode_binary_delta_copying(payload: bytes) -> dict:
    """``decode_binary_delta`` slicing the blob section, then each blob."""
    if len(payload) < 4:
        raise WebServerError("binary delta shorter than its length prefix")
    json_len = struct.unpack_from(">I", payload, 0)[0]
    if 4 + json_len > len(payload):
        raise WebServerError("binary delta JSON header is truncated")
    delta = json.loads(payload[4:4 + json_len].decode("utf-8"))
    blob_section = payload[4 + json_len:]
    for comp in delta.get("components", ()):
        props = comp.get("props", {})
        if "blob_offset" in props:
            start = props.pop("blob_offset")
            length = props.pop("blob_len")
            props["blob"] = blob_section[start:start + length]
    return delta


# -- inputs --------------------------------------------------------------------

def _noise(h: int, w: int, seed: int = 0) -> Image:
    rng = np.random.default_rng(seed)
    return Image(rng.integers(0, 256, (h, w, 4), dtype=np.uint8))


def _gradient(h: int, w: int) -> Image:
    yy, xx = np.mgrid[0:h, 0:w]
    px = np.stack([xx * 7 % 256, yy * 5 % 256, (xx + yy) % 256,
                   np.full_like(xx, 255)], axis=2)
    return Image(px.astype(np.uint8))


@st.composite
def _images(draw) -> Image:
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["blank", "gradient", "noise"]))
    if kind == "blank":
        return Image.blank(w, h, color=draw(st.tuples(*[st.integers(0, 255)] * 4)))
    if kind == "gradient":
        return _gradient(h, w)
    return _noise(h, w, draw(st.integers(0, 2**16)))


@pytest.fixture(scope="module")
def bowshock_frame() -> Image:
    """A frame as the steering loop publishes it: mostly background."""
    from repro.sims.registry import create_simulation
    from repro.viz.camera import OrthoCamera
    from repro.viz.isosurface import extract_isosurface
    from repro.viz.render import render_mesh

    sim = create_simulation("bowshock", shape=(24, 16, 16))
    sim.run(100)
    grid = sim.get_field("pressure")
    mesh = extract_isosurface(grid, grid.vmin + 0.5 * (grid.vmax - grid.vmin))
    camera = OrthoCamera.framing(*grid.bounds(), width=192, height=192)
    frame = render_mesh(mesh, camera, max_triangles=60_000)
    assert 0.02 < frame.nonblank_fraction(background=tuple(frame.pixels[0, 0, :3])) < 0.9
    return frame


def _png_chunks(png: bytes) -> list[tuple[bytes, bytes]]:
    """(tag, data) of every chunk, each CRC checked."""
    assert png[:8] == _PNG_SIGNATURE
    chunks, at = [], 8
    while at < len(png):
        (length,) = struct.unpack_from(">I", png, at)
        tag, data = png[at + 4:at + 8], png[at + 8:at + 8 + length]
        (crc,) = struct.unpack_from(">I", png, at + 8 + length)
        assert crc == binascii.crc32(tag + data) & 0xFFFFFFFF
        chunks.append((tag, data))
        at += 12 + length
    assert at == len(png)
    return chunks


@settings(max_examples=200, deadline=None)
@given(h=st.integers(1, 50), w=st.integers(1, 50),
       color=st.tuples(*[st.integers(0, 255)] * 4))
def test_blank_fills_the_bytes_of_the_broadcast_colour(h, w, color):
    """``Image.blank``'s one 32-bit fill == assigning the 4-byte colour per pixel."""
    want = np.empty((h, w, 4), dtype=np.uint8)
    want[:] = np.asarray(color, dtype=np.uint8)
    got = Image.blank(w, h, color).pixels
    assert got.dtype == np.uint8 and got.shape == (h, w, 4)
    assert got.tobytes() == want.tobytes()


# -- the fixed-size container --------------------------------------------------

def _payload(blob: bytes) -> bytes:
    """The container's payload; everything after it must be the zero pad."""
    assert type(blob) is bytes and blob[:4] == b"RIMG"
    (length,) = struct.unpack_from("<I", blob, 4)
    assert blob.count(0, 8 + length) == len(blob) - 8 - length
    return blob[8:8 + length]


class TestFixedSizeContainer:
    @settings(max_examples=120, deadline=None)
    @given(image=_images(), slack=st.integers(0, 4096))
    def test_round_trip_at_any_size_that_fits(self, image, slack):
        stored, deflated = stored_payload(image), image.to_png_like_bytes()
        file_size = 8 + min(len(stored), len(deflated)) + slack
        blob = encode_fixed_size(image, file_size)
        assert len(blob) == file_size
        # The rule, and nothing but the rule: stored iff the raw pixels fit.
        fits = 8 + len(stored) <= file_size
        assert _payload(blob) == (stored if fits else deflated)
        back = decode_fixed_size(blob)
        assert back.pixels.dtype == np.uint8
        assert np.array_equal(back.pixels, image.pixels)

    @settings(max_examples=60, deadline=None)
    @given(image=_images())
    def test_one_byte_short_of_an_exact_fit_raises(self, image):
        exact = 8 + min(len(stored_payload(image)), len(image.to_png_like_bytes()))
        blob = encode_fixed_size(image, exact)
        assert len(blob) == exact == 8 + len(_payload(blob))  # no pad at all
        assert np.array_equal(decode_fixed_size(blob).pixels, image.pixels)
        with pytest.raises(DataFormatError, match="fixed file size"):
            encode_fixed_size(image, exact - 1)

    @pytest.mark.parametrize("kind", ["blank", "gradient", "noise", "bowshock"])
    def test_a_192_frame_is_stored_whatever_it_shows(self, kind, bowshock_frame):
        image = {"blank": Image.blank(192, 192), "gradient": _gradient(192, 192),
                 "noise": _noise(192, 192), "bowshock": bowshock_frame}[kind]
        blob = encode_fixed_size(image)
        assert len(blob) == 256 * 1024
        payload = _payload(blob)
        assert payload == stored_payload(image)
        # Read off the wire: zlib header, then three stored blocks.
        assert len(payload) == 4 + 2 + 3 * 5 + 147_456 + 4
        assert payload[4:6] == b"\x78\x01"
        at, lens = 6, []
        for final in (0, 0, 1):
            flag, n, inverse = struct.unpack_from("<BHH", payload, at)
            assert (flag, inverse) == (final, n ^ 0xFFFF)  # BTYPE 00, BFINAL
            lens.append(n)
            at += 5 + n
        assert lens == [65535, 65535, 147_456 - 2 * 65535]
        assert zlib.decompress(payload[4:]) == image.pixels.tobytes()
        assert np.array_equal(decode_fixed_size(blob).pixels, image.pixels)

    @pytest.mark.parametrize("tier,scale", [(1, 2), (2, 4)])
    def test_tier_containers_are_stored_too(self, bowshock_frame, tier, scale):
        # The container shrinks by scale**2 exactly as the pixels do.
        store = EventSequenceStore()
        v = store.publish_image(bowshock_frame, cycle=1)
        blob = store.image_blob(v, tier=tier)
        small = bowshock_frame.downscale(scale)
        assert len(blob) == 256 * 1024 // scale**2
        assert _payload(blob) == stored_payload(small)
        assert _payload(store.image_blob(v)) == stored_payload(bowshock_frame)
        assert (store.encode_count, store.tier_encode_count) == (1, 1)

    def test_a_viewport_too_big_to_store_is_deflated(self, bowshock_frame):
        big = Image(np.tile(bowshock_frame.pixels, (2, 2, 1))[:256, :256])
        assert big.nbytes == 256 * 1024  # the pixels alone fill the container
        blob = encode_fixed_size(big)
        assert len(blob) == 256 * 1024
        assert _payload(blob) == big.to_png_like_bytes()
        assert np.array_equal(decode_fixed_size(blob).pixels, big.pixels)
        with pytest.raises(DataFormatError, match="fixed file size"):
            encode_fixed_size(_noise(256, 256))  # nothing to squeeze out

    def test_a_small_file_size_is_deflated(self, bowshock_frame):
        blob = encode_fixed_size(bowshock_frame, 16 * 1024)
        assert len(blob) == 16 * 1024
        assert _payload(blob) == bowshock_frame.to_png_like_bytes()
        assert np.array_equal(decode_fixed_size(blob).pixels, bowshock_frame.pixels)

    @pytest.mark.parametrize("make", [lambda: Image.blank(64, 48),
                                      lambda: _gradient(70, 33),
                                      lambda: Image.blank(256, 128)],
                             ids=["one-block", "gradient", "exactly-two-blocks-worth"])
    def test_exact_fit_boundary_on_both_arms(self, make):
        image = make()
        stored, deflated = stored_payload(image), image.to_png_like_bytes()
        assert len(deflated) < len(stored) - 1
        for file_size, want in [(8 + len(stored) + 1, stored),
                                (8 + len(stored), stored),
                                (8 + len(stored) - 1, deflated),
                                (8 + len(deflated) + 1, deflated),
                                (8 + len(deflated), deflated)]:
            blob = encode_fixed_size(image, file_size)
            assert len(blob) == file_size and _payload(blob) == want
            assert np.array_equal(decode_fixed_size(blob).pixels, image.pixels)
        with pytest.raises(DataFormatError, match="fixed file size"):
            encode_fixed_size(image, 8 + len(deflated) - 1)

    def test_noise_does_not_compress_and_still_fits_the_default(self):
        image = _noise(192, 192)
        assert len(zlib.compress(image.pixels, 1)) > image.nbytes
        blob = encode_fixed_size(image)
        assert len(blob) == 256 * 1024
        assert struct.unpack("<I", blob[4:8])[0] == image.nbytes + 4 + 2 + 15 + 4
        assert np.array_equal(decode_fixed_size(blob).pixels, image.pixels)

    def test_non_contiguous_pixels_encode_as_their_copy(self):
        for base, file_size, arm in [(_noise(16, 24), 4096, stored_payload),
                                     (_gradient(16, 24), 240, Image.to_png_like_bytes)]:
            view = Image(base.pixels[::2, ::3])
            assert not view.pixels.flags.c_contiguous
            blob = encode_fixed_size(view, file_size)
            assert _payload(blob) == arm(view)
            assert np.array_equal(decode_fixed_size(blob).pixels, view.pixels)
            assert view.to_png_bytes() == png_row_join(view)

    @pytest.mark.parametrize("shape", [(1, 65_536, 4), (65_536, 1, 4)])
    @pytest.mark.parametrize("file_size", [1 << 20, 1024], ids=["stored", "deflated"])
    def test_a_side_over_65535_pixels_is_a_format_error(self, shape, file_size):
        # "<HH" cannot say it; struct.error used to escape publish_image.
        image = Image(np.zeros(shape, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="65535"):
            encode_fixed_size(image, file_size)
        with pytest.raises(DataFormatError, match="65535"):
            image.to_png_like_bytes()
        store = EventSequenceStore(file_size=file_size)
        with pytest.raises(DataFormatError, match="65535"):
            store.publish_image(image)
        assert store.seq == 0 and store.encode_count == 0
        widest = Image(np.zeros((1, 65_535, 4), dtype=np.uint8))
        assert decode_fixed_size(encode_fixed_size(widest, 1 << 20)).width == 65_535

    @settings(max_examples=60, deadline=None)
    @given(image=_images(), slack=st.integers(0, 300))
    def test_a_level_1_container_built_the_old_way_still_decodes(self, image, slack):
        # What a journal written before the stored arm holds.
        stream = zlib.compress(np.ascontiguousarray(image.pixels), 1)
        old = _container(image.width, image.height, stream,
                         file_size=12 + len(stream) + slack)
        assert np.array_equal(decode_fixed_size(old).pixels, image.pixels)

    def test_a_journaled_level_1_frame_serves_the_same_png(self, bowshock_frame):
        stream = zlib.compress(bowshock_frame.pixels, 1)
        replay = EventSequenceStore()
        replay.restore_event("image", "image", 3, {"version": 5, "cycle": 3},
                             seq=5, blob=_container(192, 192, stream))
        assert replay.image_png(5) == png_row_join(bowshock_frame)
        assert replay.image_png(5, tier=1) == png_row_join(bowshock_frame.downscale(2))
        assert replay.encode_count == 0


def _container(width: int, height: int, stream: bytes,
               file_size: int = 256 * 1024) -> bytes:
    payload = struct.pack("<HH", width, height) + stream
    blob = b"RIMG" + struct.pack("<I", len(payload)) + payload
    assert len(blob) <= file_size
    return blob.ljust(file_size, b"\x00")


class TestBoundedInflate:
    """The decoder's checks, on streams a deflater wrote."""

    stream = staticmethod(zlib.compress)

    def _refused_within(self, bomb: bytes, limit: int) -> None:
        assert len(bomb) == 256 * 1024
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError):
                decode_fixed_size(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_deflate_bomb_is_refused_without_being_inflated(self):
        # 200 MiB of zeros deflate to ~200 KiB: fits the default container.
        deflater = zlib.compressobj(9)
        mib = bytes(1 << 20)
        stream = b"".join(deflater.compress(mib) for _ in range(200))
        stream += deflater.flush()
        # unbounded, it allocated 438 MiB
        self._refused_within(_container(1, 1, stream), 4 << 20)

    def test_stream_longer_than_the_header_declares(self):
        stream = self.stream(bytes(4 * 4 * 4 + 1))
        with pytest.raises(DataFormatError):
            decode_fixed_size(_container(4, 4, stream))

    def test_stream_shorter_than_the_header_declares(self):
        stream = self.stream(bytes(4 * 4 * 4 - 1))
        with pytest.raises(DataFormatError):
            decode_fixed_size(_container(4, 4, stream))

    @pytest.mark.parametrize("cut", [1, 4, 5])
    def test_truncated_stream(self, cut):
        # Cutting the adler32 trailer leaves every pixel inflated but the
        # stream unfinished; cutting deeper loses pixels too.
        stream = self.stream(_noise(8, 8).pixels.tobytes())
        with pytest.raises(DataFormatError):
            decode_fixed_size(_container(8, 8, stream[:-cut]))

    @pytest.mark.parametrize("junk", [b"\x00", b"junk", bytes(300)],
                             ids=["nul", "text", "300-nuls"])
    def test_bytes_after_the_stream(self, junk):
        image = _noise(8, 8)
        stream = self.stream(image.pixels.tobytes())
        assert np.array_equal(
            decode_fixed_size(_container(8, 8, stream)).pixels, image.pixels)
        with pytest.raises(DataFormatError):
            decode_fixed_size(_container(8, 8, stream + junk))

    def test_corrupt_stream(self):
        with pytest.raises(DataFormatError, match="corrupt"):
            decode_fixed_size(_container(2, 2, b"not a zlib stream"))

    def test_empty_image_round_trips(self):
        empty = Image(np.zeros((0, 5, 4), dtype=np.uint8))
        blob = encode_fixed_size(empty, 64)
        # Stored: one final block of no bytes, adler32 of nothing.
        assert _payload(blob) == (b"\x05\0\0\0" b"\x78\x01"
                                  b"\x01\0\0\xff\xff" b"\0\0\0\x01")
        back = decode_fixed_size(blob)
        assert back.pixels.shape == (0, 5, 4)
        deflated = decode_fixed_size(encode_fixed_size(empty, 8 + 4 + 8))
        assert deflated.pixels.shape == (0, 5, 4)


class TestBoundedInflateStored(TestBoundedInflate):
    """The same checks on hand-built stored streams: a copy can lie too."""

    stream = staticmethod(stored_stream)

    def test_deflate_bomb_is_refused_without_being_inflated(self):
        # A stored stream cannot expand, but it can declare 1 x 1 around
        # 200 kB; the decoder must stop after the five bytes it agreed to.
        self._refused_within(_container(1, 1, stored_stream(bytes(200_000))),
                             4 << 20)

    @pytest.mark.parametrize("block", [1, 7, 255, 256, 65535])
    def test_any_block_size_decodes(self, block):
        image = _noise(8, 8)
        stream = stored_stream(image.pixels.tobytes(), block)
        assert np.array_equal(
            decode_fixed_size(_container(8, 8, stream)).pixels, image.pixels)

    @pytest.mark.parametrize("at", [2, 5, 20, -1], ids=[
        "no-such-block-type", "len-nlen-disagree", "pixel-changed", "adler32-off"])
    def test_corrupt_stream(self, at):
        stream = bytearray(stored_stream(_noise(8, 8).pixels.tobytes()))
        stream[at] ^= 0x06
        with pytest.raises(DataFormatError, match="corrupt"):
            decode_fixed_size(_container(8, 8, bytes(stream)))


# -- the browser PNG -----------------------------------------------------------

class TestPngBytes:
    @settings(max_examples=80, deadline=None)
    @given(image=_images())
    def test_identical_to_the_row_join_encoder(self, image):
        assert image.to_png_bytes() == png_row_join(image)

    def test_bowshock_and_blank_frames(self, bowshock_frame):
        for image in (bowshock_frame, bowshock_frame.downscale(2),
                      Image.blank(192, 192), _noise(192, 192)):
            assert image.to_png_bytes() == png_row_join(image)

    def test_chunks_are_valid_and_idat_holds_the_pixels(self, bowshock_frame):
        chunks = _png_chunks(bowshock_frame.to_png_bytes())
        assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
        assert chunks[0][1] == struct.pack(">IIBBBBB", 192, 192, 8, 6, 0, 0, 0)
        rows = np.frombuffer(zlib.decompress(chunks[1][1]), dtype=np.uint8)
        rows = rows.reshape(192, 1 + 192 * 4)
        assert not rows[:, 0].any()  # filter type 0 on every scanline
        assert np.array_equal(rows[:, 1:].reshape(192, 192, 4),
                              bowshock_frame.pixels)


# -- image_png: from the retained pixels, or from a restored container ---------

def _restored_copy(store: EventSequenceStore, version: int) -> EventSequenceStore:
    """What a journal replay rebuilds: the event and its blob, no pixels."""
    record = store.image_record(version)
    replay = EventSequenceStore(file_size=store.file_size)
    replay.restore_event(
        "image", "image", record.cycle,
        {"version": version, "cycle": record.cycle, **record.meta},
        seq=version, blob=record.blob)
    assert replay.image_record(version).image is None
    return replay


class TestImagePng:
    @pytest.mark.parametrize("tier,scale", [(0, 1), (1, 2), (2, 4)])
    def test_live_and_restored_records_give_the_same_png(
            self, bowshock_frame, tier, scale):
        live = EventSequenceStore()
        live.publish_status("session", started=True)
        v = live.publish_image(bowshock_frame, cycle=3, meta={"iso": 0.5})
        replay = _restored_copy(live, v)
        png = live.image_png(v, tier=tier)
        assert png == replay.image_png(v, tier=tier)
        assert png == png_row_join(bowshock_frame.downscale(scale))
        for store in (live, replay):
            assert store.image_png(v, tier=tier) is store.png_cached(v, tier=tier)
            assert store.png_encode_count == 1
            assert store.tier_encode_count == 0  # a PNG needs no container
            assert store.encode_count == (1 if store is live else 0)

    def test_live_record_is_not_inflated(self, bowshock_frame, monkeypatch):
        store = EventSequenceStore()
        v = store.publish_image(bowshock_frame, cycle=1)

        def refuse(blob):
            raise AssertionError("inflated a container whose pixels are retained")

        monkeypatch.setattr(images_module, "decode_fixed_size", refuse)
        assert store.image_png(v) == png_row_join(bowshock_frame)
        assert store.image_png(v, tier=1) == png_row_join(bowshock_frame.downscale(2))
        assert store.png_encode_count == 2
        assert store.tier_encode_count == 0  # a PNG needs no container


# -- the ws+bin frame and its decoder ------------------------------------------

def _expected_binary_frame(store: EventSequenceStore, since: int) -> bytes:
    """The frame built the long way: payload first, then header + payload."""
    delta = store.delta(since)
    blobs, offset = [], 0
    for comp in delta["components"]:
        if comp["id"] == "image":
            blob = store.image_blob(comp["version"])
            comp["props"]["blob_offset"] = offset
            comp["props"]["blob_len"] = len(blob)
            blobs.append(blob)
            offset += len(blob)
    base = json.dumps(delta).encode("utf-8")
    return ws_server_frame(
        struct.pack(">I", len(base)) + base + b"".join(blobs), WS_BINARY)


class TestBinaryFrame:
    @pytest.mark.parametrize("file_size,images,header_len", [
        (1024, 0, 2),          # a timeout delta: payload < 126
        (1024, 2, 4),          # two 1 KiB blobs: payload < 65,536
        (256 * 1024, 1, 10),   # the default container: payload >= 65,536
        (256 * 1024, 3, 10),
    ])
    def test_equals_header_plus_joined_payload(self, file_size, images, header_len):
        store = EventSequenceStore(file_size=file_size)
        for i in range(images):
            store.publish_image(_gradient(8, 8 + i), cycle=i)
            store.publish_status("session", tick=i)
        since = 0 if images else store.seq
        frame = store.framed_delta(since, FRAME_WS_BINARY)
        assert frame == _expected_binary_frame(store, since)
        assert frame[0] == 0x80 | WS_BINARY
        payload_len = len(frame) - header_len
        assert header_len == (2 if payload_len < 126
                              else 4 if payload_len < 65536 else 10)
        [(opcode, payload)] = parse_ws_frames(bytearray(frame), require_mask=False)
        assert opcode == WS_BINARY and len(payload) == payload_len
        delta = decode_binary_delta(payload)
        got = [c for c in delta["components"] if c["id"] == "image"]
        assert len(got) == images
        for comp in got:
            assert comp["props"]["blob"] == store.image_blob(comp["version"])

    def test_ws_server_frame_header_edges(self):
        for length, header in [
            (0, b"\x82\x00"), (125, b"\x82\x7d"),
            (126, b"\x82\x7e\x00\x7e"), (65535, b"\x82\x7e\xff\xff"),
            (65536, b"\x82\x7f" + struct.pack(">Q", 65536)),
        ]:
            payload = bytes(length)
            assert ws_server_frame(payload, WS_BINARY) == header + payload


def _binary_payload(blobs: list[bytes], extra: bytes = b"") -> bytes:
    components, offset = [{"id": "session", "props": {"tick": 1}, "version": 1}], 0
    for i, blob in enumerate(blobs):
        components.append({"id": "image", "version": 2 + i, "props": {
            "version": 2 + i, "blob_offset": offset, "blob_len": len(blob)}})
        offset += len(blob)
    base = json.dumps({"version": 1 + len(blobs), "components": components,
                       "dropped": 0, "timeout": False, "tier": 0}).encode()
    return struct.pack(">I", len(base)) + base + b"".join(blobs) + extra


class TestDecodeBinaryDelta:
    @settings(max_examples=100, deadline=None)
    @given(blobs=st.lists(st.binary(max_size=300), max_size=3),
           extra=st.binary(max_size=8))
    def test_same_delta_as_the_copying_decoder(self, blobs, extra):
        payload = _binary_payload(blobs, extra)
        delta = decode_binary_delta(payload)
        assert delta == decode_binary_delta_copying(payload)
        got = [c["props"]["blob"] for c in delta["components"] if c["id"] == "image"]
        assert got == blobs
        assert all(type(blob) is bytes for blob in got)
        for comp in delta["components"]:
            assert "blob_offset" not in comp["props"]
            assert "blob_len" not in comp["props"]

    def test_blob_pointing_past_the_section_raises(self):
        # A slice would forgive it: b"abcd" for a blob declared six long.
        payload = _binary_payload([b"abcdef"])
        assert decode_binary_delta(payload)["components"][1]["props"]["blob"] == b"abcdef"
        assert decode_binary_delta_copying(
            payload[:-2])["components"][1]["props"]["blob"] == b"abcd"
        with pytest.raises(WebServerError, match="blob pointer"):
            decode_binary_delta(payload[:-2])

    def test_truncations_raise(self):
        payload = _binary_payload([b"xyz"])
        with pytest.raises(WebServerError, match="length prefix"):
            decode_binary_delta(payload[:3])
        (json_len,) = struct.unpack_from(">I", payload)
        with pytest.raises(WebServerError, match="truncated"):
            decode_binary_delta(payload[:4 + json_len - 1])

    def test_decodes_what_the_store_frames(self):
        store = EventSequenceStore()
        frame = _noise(32, 32)
        v = store.publish_image(frame, cycle=1)
        wire = bytearray(store.framed_delta(0, FRAME_WS_BINARY))
        [(_, payload)] = parse_ws_frames(wire, require_mask=False)
        [comp] = decode_binary_delta(payload)["components"]
        assert comp["version"] == v
        assert len(comp["props"]["blob"]) == store.file_size
        assert np.array_equal(decode_fixed_size(comp["props"]["blob"]).pixels,
                              frame.pixels)
