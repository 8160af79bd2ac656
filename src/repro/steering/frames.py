"""The frame plane: a delta, serialized and framed once per window.

One of the three units of the event plane (the store is
:mod:`repro.steering.events`, the image ring
:mod:`repro.steering.images`).  A publish that wakes N waiters parked at
one cursor pays one ``json.dumps`` per (framing, tier, window) group and
all N connections share the immutable frame (:class:`DeltaFrameCache`);
``json_encodes`` makes the encode-once wake path testable.  The SSE and
WS text framings *wrap* the shared JSON frame — a herd mixing pollers
and subscribers rides one encode, each transport paying only its
(memoized) header bytes — while ``ws+bin`` carries image blobs raw after
its own JSON header (a quarter fewer bytes than base64 in JSON) and
honestly costs its own encode, still one per window.

The plane serializes what a *delta source* builds: ``head_locked()``
(the newest sequence number) and ``delta_locked(since, tier,
skipped_out, window)`` (the delta dict; image versions a snapshot tier
elided are appended to ``skipped_out``), both called under the lock the
plane is given — the source's own, so head, delta and cache lookup are
one critical section.  The source is passed per call, not held, so the
store that owns a plane (ring and pixels with it) is freed by its last
reference, not by a cycle collection.  The byte formats are
:mod:`repro.wire`'s.
"""

from __future__ import annotations

import json

from repro.adaptive.tiers import TIER_LADDER
from repro.errors import WebServerError
from repro.lru import ByteBudgetLRU
from repro.wire import (
    FRAME_JSON,
    FRAME_SSE,
    FRAME_WS,
    FRAME_WS_BINARY,
    FRAMINGS,
    sse_event_chunk,
    ws_binary_frame,
    ws_server_frame,
)

__all__ = ["DeltaFrameCache", "FramePlane"]


def _frame_size(frame: bytes | tuple) -> int:
    """Wire bytes of a frame: ``bytes``, or a ``ws+bin`` gather tuple."""
    return len(frame) if type(frame) is bytes else sum(map(len, frame))


class DeltaFrameCache:
    """Bounded LRU of serialized delta frames.

    Keys are ``(since, head_seq, framing, tier, window)`` windows: a
    delta — components past ``since``, the ``dropped`` gap count, the
    ``timeout`` flag, the tier's image variant selection, the sliding
    window's brick announce list — is a pure function of its key, so the
    encoded bytes can be shared by every waiter parked at the same
    cursor in the same (framing, tier, window-geometry) group.  The cache is
    tiny by design: on a herd wake nearly all waiters share a handful of
    keys, and stragglers at older cursors (or clients hopping between
    tiers) each add one entry that the LRU bound reclaims as the head
    advances.  The entry/byte caps are *per store across every (framing,
    tier) variant* — the enlarged key space changes what gets cached,
    never how much; ``evictions`` counts reclaimed entries so the bound
    is observable.
    """

    __slots__ = ("capacity", "byte_limit", "_frames")

    def __init__(self, capacity: int = 16,
                 byte_limit: int = 8 * 1024 * 1024) -> None:
        if capacity < 1:
            raise WebServerError("frame cache capacity must be >= 1")
        if byte_limit < 1:
            raise WebServerError("frame cache byte limit must be >= 1")
        self.capacity = int(capacity)
        self.byte_limit = int(byte_limit)
        # key -> (frame, bytes it saved vs tier-0 delivery).  Bounded by
        # entries AND bytes (the newest frame always stays, so large
        # deltas are still served shared — they just do not pin the
        # cache's memory once the herd has moved on).
        self._frames = ByteBudgetLRU(self.byte_limit, self.capacity,
                                     size=lambda item: _frame_size(item[0]))

    bytes = property(lambda self: self._frames.bytes)
    evictions = property(lambda self: self._frames.evictions)

    def get(self, key: tuple) -> bytes | tuple | None:
        item = self._frames.get(key)
        return None if item is None else item[0]

    def put(self, key: tuple, frame: bytes | tuple, saved: int = 0) -> None:
        self._frames.put(key, (frame, saved))

    def saved_for(self, key: tuple) -> int:
        """Bytes a tiered frame saved vs tier-0 delivery of its window."""
        item = self._frames.peek(key)
        return 0 if item is None else item[1]

    def __len__(self) -> int:
        return len(self._frames)


class FramePlane:
    """Encode-once framed deltas of a delta source, over an image ring."""

    __slots__ = ("_images", "_lock", "cache", "json_encodes")

    def __init__(self, images, lock, cache_size: int = 16) -> None:
        self._images = images
        self._lock = lock
        self.cache = DeltaFrameCache(cache_size)
        self.json_encodes = 0

    def framed_delta_with_head(self, source, since: int, framing: str, tier: int,
                               window: tuple | None) -> tuple[bytes | tuple, int]:
        """``source``'s delta past ``since`` pre-framed for one wire
        transport, plus the head seq the frame covers.  A ``ws+bin``
        frame is :func:`repro.wire.ws_binary_frame`'s gather tuple, so the
        cache shares the image ring's blobs instead of a copy of each.

        The push path advances each subscriber's cursor to exactly the
        head that was serialized — reading the head separately could
        under-advance past a racing publish and re-deliver its events.
        ``tier`` is already on the ladder.  ``window`` (a window-geometry
        key, see :meth:`repro.window.WindowCursor.key`) extends the cache
        key: clients sharing one window geometry share one encode per
        wake, exactly like clients sharing a tier — distinct geometries
        honestly cost their own encode.
        """
        if framing not in FRAMINGS:
            raise WebServerError(f"unknown delta framing {framing!r}")
        pending: list[tuple] = []  # (image component, its ring record)
        skipped_versions: list[int] = []
        with self._lock:
            head = source.head_locked()
            key = (since, head, framing, tier, window)
            frame = self.cache.get(key)
            if frame is not None:
                return frame, head
            json_key = (since, head, FRAME_JSON, tier, window)
            base = (self.cache.get(json_key)
                    if framing in (FRAME_SSE, FRAME_WS) else None)
            if base is not None:
                delta = None
                # Wrapped framing reusing a cached JSON base: inherit the
                # base window's savings so the gauge stays per-delivery.
                saved = self.cache.saved_for(json_key)
            else:
                delta = source.delta_locked(
                    since, tier, skipped_versions, window)
                if framing == FRAME_WS_BINARY:
                    # A push subscriber has no request/response channel to
                    # fetch ``/api/v1/<sid>/image?v=N`` over, so the blob
                    # rides in the delta.  Only the pairing happens under
                    # the lock; blobs already evicted from the image ring
                    # are skipped — the meta event still arrives, exactly
                    # like the poll path.
                    for comp in delta["components"]:
                        record = (self._images.find_locked(comp["version"])
                                  if comp["id"] == "image" else None)
                        if record is not None:
                            pending.append((comp, record))
                # Snapshot tier elided these image events entirely; the
                # payload a tier-0 client would have received for them
                # (full blob each) is the capacity-planning saving.
                saved = 0
                for version in skipped_versions:
                    record = self._images.find_locked(version)
                    if record is not None:
                        saved += len(record.blob)
        # Serialize (and tier-encode inline blobs) outside the lock so
        # publishers never block behind a large encode; a racing caller
        # of the same window may duplicate the encode (counted
        # honestly), the cache keeps one winner.
        blobs: list[bytes] = []
        if delta is not None:
            # Inline blobs travel as ``blob_offset``/``blob_len`` pointers
            # into the raw section the binary frame appends to the JSON.
            scale = TIER_LADDER[tier].scale
            offset = 0
            for comp, record in pending:
                blob = self._images.blob(record, scale)
                saved += len(record.blob) - len(blob)
                comp["props"]["blob_offset"] = offset
                comp["props"]["blob_len"] = len(blob)
                blobs.append(blob)
                offset += len(blob)
            base = json.dumps(delta).encode("utf-8")
        if framing == FRAME_JSON:
            frame = base
        elif framing == FRAME_SSE:
            frame = sse_event_chunk(base, head)
        elif framing == FRAME_WS:
            frame = ws_server_frame(base)
        else:
            frame = ws_binary_frame(base, blobs)
        with self._lock:
            if delta is not None:
                self.json_encodes += 1
                if framing in (FRAME_SSE, FRAME_WS):
                    # The wrapped framings share the JSON bytes: cache them
                    # under their own key too so a mixed herd never re-encodes.
                    self.cache.put(json_key, base, saved=saved)
            self.cache.put(key, frame, saved=saved)
        return frame, head
