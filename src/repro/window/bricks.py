"""On-wire format for sliding-window brick payloads.

One brick payload is a fixed little-endian header followed by the
brick's strided samples as ``<f4``.  The header carries enough geometry
(lod, offset, full-resolution shape, stride) for a client to place the
payload on the global per-LOD sample lattice without any other state,
plus the publish ``version`` the samples reflect so a client can drop
stale fetches.

This module is the only place that knows the byte layout;
:mod:`repro.wire` re-exports :func:`decode_brick_payload` for
client-side symmetry with the other wire formats.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.data.octree import Brick
from repro.errors import DataFormatError

__all__ = [
    "BRICK_MAGIC",
    "brick_payload_bytes",
    "decode_brick_payload",
    "encode_brick_payload",
]

BRICK_MAGIC = b"RBK1"

# magic, format version, lod, stride, brick index, offset[3], shape[3],
# publish version.
_HEADER = struct.Struct("<4sBBHI3i3iI")


def brick_payload_bytes(brick: Brick) -> int:
    """Exact on-wire size of ``brick``'s payload (header + samples)."""
    return _HEADER.size + 4 * brick.payload_samples


def encode_brick_payload(brick: Brick, values, version: int) -> bytes:
    """Serialize ``values`` (the brick's strided samples) for the wire."""
    data = np.ascontiguousarray(values, dtype="<f4")
    if data.shape != brick.payload_shape:
        raise DataFormatError(
            f"brick payload shape {data.shape} != expected {brick.payload_shape}"
        )
    head = _HEADER.pack(
        BRICK_MAGIC,
        1,
        brick.lod,
        brick.step,
        brick.index,
        *brick.offset,
        *brick.shape,
        int(version),
    )
    return head + data.tobytes()


def decode_brick_payload(buf: bytes) -> dict:
    """Parse one brick payload into geometry fields + a numpy array."""
    if len(buf) < _HEADER.size:
        raise DataFormatError("brick payload truncated before header")
    magic, fmt, lod, step, index, ox, oy, oz, sx, sy, sz, version = _HEADER.unpack_from(
        buf
    )
    if magic != BRICK_MAGIC:
        raise DataFormatError("bad brick payload magic")
    if fmt != 1:
        raise DataFormatError(f"unsupported brick payload format {fmt}")
    # Every brick the octree encodes has a stride >= 1, extents >= 1 and
    # a non-negative offset; a header claiming otherwise is lying.
    if step < 1:
        raise DataFormatError(f"brick payload stride {step} < 1")
    shape = (sx, sy, sz)
    if min(shape) < 1 or min(ox, oy, oz) < 0:
        raise DataFormatError(
            f"impossible brick geometry: offset {(ox, oy, oz)}, shape {shape}")
    payload_shape = tuple((s + step - 1) // step for s in shape)
    n = payload_shape[0] * payload_shape[1] * payload_shape[2]
    body = buf[_HEADER.size :]
    if len(body) != 4 * n:
        raise DataFormatError(
            f"brick payload body is {len(body)} bytes, expected {4 * n}"
        )
    values = np.frombuffer(body, dtype="<f4").reshape(payload_shape)
    return {
        "lod": lod,
        "step": step,
        "brick": index,
        "offset": (ox, oy, oz),
        "shape": shape,
        "version": version,
        "values": values,
    }
