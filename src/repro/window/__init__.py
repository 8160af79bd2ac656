"""Sliding-window delivery plane (Mundani et al., see PAPERS.md).

Clients steer a :class:`WindowCursor` — a region-of-interest box plus a
level of detail — over the octree of an out-of-core domain.  The server
side (:class:`WindowedDomainSource`) intersects each cursor with the
octree, announces only the intersecting bricks through the event delta
stream, serves their payloads from an encode-once byte-budget
:class:`BrickCache`, and prefetches along the observed pan direction.
The client side (:class:`WindowView`) reassembles strided brick
payloads into one seamless window array.

The package deliberately never imports :mod:`repro.web`; the web tier
imports *us* (``repro/wire.py`` re-exports the payload decoder), which
keeps the dependency graph acyclic.
"""

from repro.window.bricks import (
    BRICK_MAGIC,
    decode_brick_payload,
    encode_brick_payload,
)
from repro.window.cursor import WindowCursor, WindowView
from repro.window.source import BrickCache, WindowedDomainSource

__all__ = [
    "BRICK_MAGIC",
    "BrickCache",
    "WindowCursor",
    "WindowView",
    "WindowedDomainSource",
    "decode_brick_payload",
    "encode_brick_payload",
]
