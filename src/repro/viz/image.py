"""Framebuffer images and the fixed-size file encoding.

The Ajax front end "saves the received images as fixed-size files that
are to be delivered to the browser through the object exchange mechanism
of XMLHttpRequest" (Section 2).  :func:`encode_fixed_size` implements
that container: a header with the true payload length, the pixels as one
zlib stream, zero padding up to the fixed size.

Two encoders, one rule: *compression effort only where the compressed
size reaches the wire*.  The container is padded to ``file_size``
whatever its payload holds, so it *stores when it fits and deflates when
it must* (at :data:`_CONTAINER_DEFLATE_LEVEL`, the fastest) — chosen from
``image.nbytes`` and ``file_size`` alone; any inflater reads both.  The
browser PNG (:meth:`Image.to_png_bytes`) travels at its compressed size
and is encoded at most once per (version, scale), so it keeps level 6.
"""

from __future__ import annotations

import binascii
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DataFormatError

__all__ = ["Image", "encode_fixed_size", "decode_fixed_size"]

_FIXED_MAGIC = b"RIMG"
_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: Deflate level of the fixed-size container's payload when the pixels do
#: not fit uncompressed.  The pad swallows whatever a level saves, so all
#: a client can observe is the time.  ``zlib.compress`` (1.2.13) of
#: 192x192 RGBA frames, 147,456 raw bytes, one pinned CPU, levels
#: interleaved over 31 rounds; bow-shock rows are the bench's own frames
#: (``capture_frames``, 8 frames, seeds 7/11/23):
#:
#: ========== ==================== ================ ================
#: level      bow shock            linear gradient  uniform noise
#: ========== ==================== ================ ================
#: 0 (stored) 0.07-0.08 ms, 147 kB 0.09 ms, 147 kB  0.09 ms, 147 kB
#: 1          0.30-0.32 ms, 3.6 kB 2.9 ms, 100.1 kB 3.1 ms, 147.5 kB
#: 2          0.30-0.32 ms, 3.6 kB 3.2 ms, 100.1 kB 2.8 ms, 147.5 kB
#: 3          0.31-0.33 ms, 3.5 kB 3.3 ms, 100.1 kB 2.9 ms, 147.5 kB
#: 6          0.62-0.68 ms, 2.6 kB 3.6 ms, 100.0 kB 3.2 ms, 147.5 kB
#: ========== ==================== ================ ================
#:
#: On the frames the server publishes, levels 1-3 are within 2 % of each
#: other (level 1 has the lowest minimum on all three seeds) at half the
#: time of level 6, and the 1 kB they give up is padded away.  Content
#: that barely compresses costs ten times as much at any level; on the
#: gradient level 1 is the fastest by 8-12 %, noise ties.  So: level 1
#: when deflating — and no deflate at all when the raw pixels fit: the
#: stored row (measured later, on a host where level 1 read 0.33-0.42 ms)
#: is a copy plus an adler32, whatever the content.
_CONTAINER_DEFLATE_LEVEL = 1

#: A stored block's LEN is a u16 (RFC 1951 section 3.2.4).  The blocks are
#: written here rather than by ``zlib.compress(px, 0)``, whose output is a
#: second full copy before the container's.  ``encode_fixed_size`` of the
#: bench's frames, 41 interleaved rounds, median us [quartiles]: level 1
#: 481 [473-491]; ``compress(px, 0)`` + one join 104 [99-109]; own blocks
#: + one join 87 [84-90], of which the adler32 is 64.
_STORED_BLOCK = 65_535
#: The pad is sliced from here: no allocation and no memset per frame.
_ZEROS = memoryview(bytes(256 * 1024))


@dataclass
class Image:
    """RGBA framebuffer, uint8, shape (H, W, 4)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 4:
            raise ConfigurationError(f"pixels must be (H, W, 4), got {px.shape}")
        self.pixels = px.astype(np.uint8, copy=False)

    @classmethod
    def blank(cls, width: int, height: int, color=(0, 0, 0, 255)) -> "Image":
        px = np.empty((height, width, 4), dtype=np.uint8)
        # One 32-bit word per pixel: the colour's four bytes in memory order.
        px.reshape(-1).view(np.uint32).fill(np.asarray(color, np.uint8).view(np.uint32)[0])
        return cls(px)

    @classmethod
    def from_float(cls, rgba: np.ndarray) -> "Image":
        """From float RGBA in [0, 1]."""
        return cls((np.clip(rgba, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8))

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.pixels.nbytes)

    def downscale(self, factor: int) -> "Image":
        """A ``factor``-x linearly downsampled copy (stride subsampling).

        The adaptive delivery tiers use this to shrink a frame to
        ``1/factor**2`` of its pixels before re-encoding for a
        bandwidth-constrained client; stride subsampling keeps the
        operation allocation-light on the serving path.  ``factor=1``
        returns ``self`` unchanged.
        """
        if factor < 1:
            raise ConfigurationError(f"downscale factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        return Image(np.ascontiguousarray(self.pixels[::factor, ::factor]))

    def nonblank_fraction(self, background=(0, 0, 0)) -> float:
        """Fraction of pixels differing from the background colour."""
        bg = np.asarray(background, dtype=np.uint8)
        diff = np.any(self.pixels[:, :, :3] != bg, axis=2)
        return float(diff.mean())

    def to_ppm_bytes(self) -> bytes:
        """Binary PPM (P6) without the alpha channel."""
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.pixels[:, :, :3].tobytes()

    def to_png_bytes(self) -> bytes:
        """Encode as a real PNG (RGBA, 8-bit) using stdlib zlib only.

        Minimal but standards-compliant: IHDR + one IDAT (filter 0 per
        scanline) + IEND, so actual browsers in the Ajax demo can render
        the monitoring images.  Level 6: unlike the container's, these
        compressed bytes are what the browser downloads.
        """

        def chunk(tag: bytes, data: bytes) -> bytes:
            crc = binascii.crc32(tag + data) & 0xFFFFFFFF
            return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", crc)

        h, w = self.pixels.shape[0], self.pixels.shape[1]
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 6, 0, 0, 0)  # 8-bit RGBA
        # Scanlines: a zero filter-type byte, then the row's RGBA bytes.
        raw = np.zeros((h, 1 + 4 * w), dtype=np.uint8)
        raw[:, 1:] = self.pixels.reshape(h, 4 * w)
        return (
            _PNG_SIGNATURE
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6))
            + chunk(b"IEND", b"")
        )

    def _shape_header(self) -> bytes:
        """``<HH`` width and height: all the container's header can say."""
        if max(self.width, self.height) > 0xFFFF:
            raise DataFormatError(
                f"a {self.width}x{self.height} image exceeds the container's "
                "65535-pixel limit per side")
        return struct.pack("<HH", self.width, self.height)

    def to_png_like_bytes(self) -> bytes:
        """zlib-compressed raw RGBA with a tiny shape header.

        Not a real PNG, but the compact lossless payload of the
        fixed-size container when the raw pixels do not fit it; deflated
        at :data:`_CONTAINER_DEFLATE_LEVEL` because the container's pad
        hides its size.
        """
        return self._shape_header() + zlib.compress(
            np.ascontiguousarray(self.pixels), _CONTAINER_DEFLATE_LEVEL)

    @classmethod
    def from_png_like_bytes(cls, blob: bytes) -> "Image":
        """Inverse of :meth:`to_png_like_bytes`, stored or deflated.

        The header says how many bytes the pixels take, so the stream is
        inflated to at most one byte more than that: a payload that
        inflates further, stops short of its end marker or carries bytes
        after it raises :class:`DataFormatError` without ever being
        expanded in memory.
        """
        if len(blob) < 4:
            raise DataFormatError("image blob too short")
        w, h = struct.unpack_from("<HH", blob)
        expected = w * h * 4
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(memoryview(blob)[4:], expected + 1)
        except zlib.error as exc:
            raise DataFormatError(f"corrupt image payload: {exc}") from exc
        if len(raw) != expected:
            raise DataFormatError(
                f"image payload is not the {expected} bytes its header declares")
        if not inflater.eof:
            raise DataFormatError("image payload ends before its deflate stream does")
        if inflater.unused_data:
            raise DataFormatError("bytes follow the image payload's deflate stream")
        return cls(np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 4).copy())


def encode_fixed_size(image: Image, file_size: int = 256 * 1024) -> bytes:
    """Encode ``image`` into an exactly ``file_size``-byte container.

    ``RIMG``, u32 payload length, u16 width, u16 height, one zlib stream,
    zero pad.  The stream is *stored* (RFC 1951 section 3.2.4) when the
    raw pixels fit — a size known before a byte is touched — and deflated
    otherwise.  Raises :class:`DataFormatError` when neither fits (caller
    should raise ``file_size`` or shrink the viewport).
    """
    raw = image.nbytes
    starts = range(0, raw, _STORED_BLOCK) or (0,)
    if 12 + 2 + 5 * len(starts) + raw + 4 <= file_size:
        # reshape, not memoryview.cast: a (0, w, 4) array cannot be cast.
        px = memoryview(np.ascontiguousarray(image.pixels).reshape(-1))
        # 78 01: the RFC 1950 header zlib itself writes at level 0.
        parts = [image._shape_header(), b"\x78\x01"]
        for start in starts:
            n = min(_STORED_BLOCK, raw - start)
            parts += (struct.pack("<BHH", start + n == raw, n, n ^ 0xFFFF),
                      px[start:start + n])
        parts.append(struct.pack(">I", zlib.adler32(px)))
    else:
        parts = [image.to_png_like_bytes()]
    length = sum(map(len, parts))
    pad = file_size - 8 - length
    if pad < 0:
        raise DataFormatError(
            f"image needs {8 + length} bytes but fixed file size is {file_size}"
        )
    # One join: the container is the only copy made of the pixels.
    return b"".join((_FIXED_MAGIC, struct.pack("<I", length), *parts,
                     _ZEROS[:pad] if pad <= len(_ZEROS) else bytes(pad)))


def decode_fixed_size(blob: bytes) -> Image:
    """Inverse of :func:`encode_fixed_size`."""
    if len(blob) < 8 or blob[:4] != _FIXED_MAGIC:
        raise DataFormatError("not a fixed-size image container")
    (length,) = struct.unpack_from("<I", blob, 4)
    if 8 + length > len(blob):
        raise DataFormatError("truncated fixed-size image container")
    return Image.from_png_like_bytes(memoryview(blob)[8 : 8 + length])
