"""Per-session monotonic event-sequence store.

This unifies the two versioning schemes the seed grew in parallel (the
front end's image-ring versions and the web tier's UI-component diffs)
into one store per session.  Every observable change (a new image, a
status/meta update, a steering action) is appended as a
:class:`SessionEvent` with a single monotonically increasing sequence
number, and a poll returns the delta of events past a client's cursor.

Three properties matter at scale:

* **Shared-encode caching** — an image is encoded into its fixed-size
  container exactly once, at publish time; the cached blob (and a lazily
  cached PNG) is then served to every client that asks for that version.
  ``encode_count`` / ``png_encode_count`` make the once-per-version
  guarantee testable.
* **Shared delta frames** — a poll response is fully determined by the
  ``(since, head_seq, framing, tier)`` window it covers, so the
  serialized JSON bytes are memoized in a small :class:`DeltaFrameCache`.
  When a publish wakes N waiters parked at the same cursor, one
  ``json.dumps`` is paid per (framing, tier) group and all N connections
  share the immutable frame; ``json_encodes`` makes the encode-once wake
  path testable the same way ``encode_count`` does for images.  The
  cache also memoizes *framed* variants of the same window
  (:meth:`framed_delta`): the chunked SSE ``data:`` wrapper and the
  WebSocket frame header are computed once per delta alongside the JSON
  encode, so a herd of push subscribers shares one pre-framed buffer
  exactly like a herd of woken pollers shares one JSON frame.  The
  WebSocket binary variant (``FRAME_WS_BINARY``) carries image blobs
  raw after the JSON header instead of base64-inlined in it, cutting
  image-event bytes on the wire by the base64 overhead (~33%).  The
  enlarged key space is bounded per store: entry- and byte-capped LRU
  with an ``evictions`` counter, so a client hopping across delivery
  tiers recycles cache slots instead of growing the cache.
* **Tiered image encodes** — the adaptive delivery plane
  (:mod:`repro.adaptive`) assigns slow clients a delivery tier from the
  fixed :data:`~repro.adaptive.tiers.TIER_LADDER`.  A tier > 0 delta
  serves the same events but with image payloads downscaled by the
  tier's factor (encoded lazily, once per (version, scale), counted in
  ``tier_encode_count``) and — for snapshot tiers — only the *newest*
  image event, with the elided ones counted in ``skipped_images``.
  Every delta carries its ``tier`` so clients know what they got.
* **Gap detection** — the event log is a bounded ring.  A slow poller
  whose cursor has fallen off the tail receives ``dropped`` (the number
  of events it can never see) instead of a silent gap, and can resync
  from :meth:`snapshot`.  The merged component view behind
  :meth:`snapshot` is bounded too: past ``component_limit`` distinct
  component ids, the least-recently-updated component is evicted and
  counted in ``dropped_components``.

Publish never blocks on pollers: waiters are woken through the store's
condition variable and through registered listeners (the web tier's
long-poll scheduler), both O(1) amortised per publish.
"""

from __future__ import annotations

import base64
import json
import struct
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Any, Callable

from repro.adaptive.tiers import TIER_LADDER, clamp_tier
from repro.errors import DataFormatError, WebServerError
from repro.viz.image import Image, decode_fixed_size, encode_fixed_size

__all__ = [
    "SessionEvent",
    "DeltaFrameCache",
    "EventSequenceStore",
    "FRAME_JSON",
    "FRAME_SSE",
    "FRAME_WS",
    "FRAME_WS_B64",
    "FRAME_WS_BINARY",
    "WS_TEXT",
    "WS_BINARY",
    "WS_CLOSE",
    "WS_PING",
    "WS_PONG",
    "ws_server_frame",
    "sse_event_chunk",
    "sse_comment_chunk",
]

# -- wire framing (shared by the store's memoization and the web tier) --------
#
# The framing byte-math lives here, next to the encode-once core, so the
# pre-framed buffers can be memoized per (since, head) window alongside
# the JSON encode.  The web tier (and its clients) import these rather
# than duplicating the formats; nothing here imports the web package, so
# the steering->web layering stays acyclic.

FRAME_JSON = "json"          # plain JSON delta (long-poll body)
FRAME_SSE = "sse"            # chunked-transfer SSE event carrying the delta
FRAME_WS = "ws"              # WebSocket text frame carrying the delta
FRAME_WS_B64 = "ws+b64"      # WS text frame, image blobs base64-inlined
FRAME_WS_BINARY = "ws+bin"   # WS binary frame, image blobs appended raw

FRAMINGS = (FRAME_JSON, FRAME_SSE, FRAME_WS, FRAME_WS_B64, FRAME_WS_BINARY)

WS_TEXT = 0x1
WS_BINARY = 0x2
WS_CLOSE = 0x8
WS_PING = 0x9
WS_PONG = 0xA


def _ws_server_header(length: int, opcode: int) -> bytes:
    """The unmasked frame header announcing ``length`` payload bytes."""
    if length < 126:
        return bytes((0x80 | opcode, length))
    if length < 65536:
        return bytes((0x80 | opcode, 126)) + struct.pack(">H", length)
    return bytes((0x80 | opcode, 127)) + struct.pack(">Q", length)


def ws_server_frame(payload: bytes, opcode: int = WS_TEXT) -> bytes:
    """One complete unmasked (server->client) RFC 6455 frame."""
    return _ws_server_header(len(payload), opcode) + payload


def sse_event_chunk(payload: bytes, event_id: int | None = None) -> bytes:
    """One SSE event (``id:`` + ``data:`` lines) as an HTTP/1.1 chunk.

    ``payload`` must be newline-free (compact JSON is).  The ``id`` line
    carries the head sequence so a dropped client resumes with
    ``Last-Event-ID`` exactly like a poller resumes with ``since``.
    """
    if event_id is not None:
        event = b"id: %d\ndata: %s\n\n" % (event_id, payload)
    else:
        event = b"data: %s\n\n" % payload
    return b"%x\r\n%s\r\n" % (len(event), event)


def sse_comment_chunk(text: bytes = b"keep-alive") -> bytes:
    """An SSE comment line as an HTTP chunk (heartbeat; clients ignore it)."""
    event = b": %s\n\n" % text
    return b"%x\r\n%s\r\n" % (len(event), event)


@dataclass(frozen=True, slots=True)
class SessionEvent:
    """One entry in a session's event sequence."""

    seq: int
    kind: str  # "image" | "status" | "steering"
    component: str  # UI component the event maps onto ("image", "session", ...)
    cycle: int = 0
    props: dict = field(default_factory=dict)

    def to_component(self) -> dict:
        """The partial-update shape the Ajax page consumes."""
        return {"id": self.component, "props": dict(self.props), "version": self.seq}


class _ImageRecord:
    """Cached encodings for one published image version.

    ``blob`` is the tier-0 (full quality) fixed-size container, encoded
    eagerly at publish time.  ``image`` retains the published pixels so
    delivery tiers can encode downscaled variants lazily — once per
    (version, scale), cached in ``_tier_blobs``/``_tier_pngs`` under the
    record lock.  Memory stays bounded by the store's ``image_capacity``
    ring exactly as before; a retained record just carries its pixels
    alongside its container.
    """

    __slots__ = ("seq", "cycle", "blob", "meta", "image",
                 "_tier_blobs", "_tier_pngs", "_png", "_png_lock")

    def __init__(self, seq: int, cycle: int, blob: bytes, meta: dict,
                 image: Image | None = None) -> None:
        self.seq = seq
        self.cycle = cycle
        self.blob = blob
        self.meta = meta
        self.image = image
        self._tier_blobs: dict[int, bytes] = {}  # scale -> container
        self._tier_pngs: dict[int, bytes] = {}  # scale -> PNG
        self._png: bytes | None = None
        self._png_lock = threading.Lock()

    @property
    def version(self) -> int:
        """Image versions ARE event sequence numbers (the unified scheme)."""
        return self.seq


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

    __slots__ = ("capacity", "byte_limit", "bytes", "_frames", "_saved",
                 "hits", "misses", "evictions")

    def __init__(self, capacity: int = 16,
                 byte_limit: int = 8 * 1024 * 1024) -> None:
        if capacity < 1:
            raise WebServerError("frame cache capacity must be >= 1")
        if byte_limit < 1:
            raise WebServerError("frame cache byte limit must be >= 1")
        self.capacity = int(capacity)
        self.byte_limit = int(byte_limit)
        self.bytes = 0
        self._frames: OrderedDict[tuple, bytes] = OrderedDict()
        self._saved: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> bytes | None:
        frame = self._frames.get(key)
        if frame is None:
            self.misses += 1
            return None
        self._frames.move_to_end(key)
        self.hits += 1
        return frame

    def put(self, key: tuple, frame: bytes, saved: int = 0) -> None:
        old = self._frames.pop(key, None)
        if old is not None:
            self.bytes -= len(old)
        self._frames[key] = frame
        self.bytes += len(frame)
        if saved:
            self._saved[key] = saved
        else:
            self._saved.pop(key, None)
        # Bounded by entries AND bytes (the newest frame always stays, so
        # large deltas are still served shared — they just do not pin the
        # cache's memory once the herd has moved on).
        while len(self._frames) > self.capacity or (
            self.bytes > self.byte_limit and len(self._frames) > 1
        ):
            victim, evicted = self._frames.popitem(last=False)
            self.bytes -= len(evicted)
            self._saved.pop(victim, None)
            self.evictions += 1

    def saved_for(self, key: tuple) -> int:
        """Bytes a tiered frame saved vs tier-0 delivery of its window."""
        return self._saved.get(key, 0)

    def __len__(self) -> int:
        return len(self._frames)


class EventSequenceStore:
    """Thread-safe bounded event log with one monotonic sequence number."""

    def __init__(
        self,
        file_size: int = 256 * 1024,
        capacity: int = 256,
        image_capacity: int = 8,
        component_limit: int = 256,
        frame_cache_size: int = 16,
    ) -> None:
        if capacity < 1 or image_capacity < 1:
            raise WebServerError("event store capacities must be >= 1")
        if component_limit < 1:
            raise WebServerError("component limit must be >= 1")
        self.file_size = int(file_size)
        self.capacity = int(capacity)
        self.image_capacity = int(image_capacity)
        self.component_limit = int(component_limit)
        self._cond = threading.Condition()
        self._seq = 0
        self._events: deque[SessionEvent] = deque()
        self._images: deque[_ImageRecord] = deque()
        self._components: dict[str, dict] = {}
        self._component_seq: dict[str, int] = {}
        self._listeners: list[Callable[[int], None]] = []
        self._taps: list[Callable[[SessionEvent, bytes | None], None]] = []
        self._demand_probes: list[Callable[[], bool]] = []
        self._window_source = None  # repro.window.WindowedDomainSource | None
        self._frame_cache = DeltaFrameCache(frame_cache_size)
        # Poll-demand clock: starts "recently polled" so a fresh session
        # is scheduled hot until its consumers demonstrably stall.
        self._last_poll = time.monotonic()
        self.encode_count = 0
        self.png_encode_count = 0
        self.tier_encode_count = 0
        self.json_encodes = 0
        self.dropped_events = 0
        self.dropped_images = 0
        self.dropped_components = 0

    # -- introspection -----------------------------------------------------------

    @property
    def seq(self) -> int:
        with self._cond:
            return self._seq

    # ``version`` kept as an alias so event seq numbers read like the old
    # per-store image versions at call sites and in poll responses.
    version = seq

    def component_count(self) -> int:
        """Distinct components in the merged snapshot view."""
        with self._cond:
            return len(self._components)

    def attach_demand_probe(self, fn: Callable[[], bool]) -> None:
        """Register a live-demand source consulted by :meth:`recently_polled`.

        The web tier attaches the long-poll scheduler's parked-waiter
        count for this session: a *parked* poll reads nothing from the
        store while it waits, so without the probe a watched-but-quiet
        session would decay to "stalled" mid-park and be demoted to the
        executor's cold queue — the exact self-reinforcing inversion the
        backpressure feature must not produce.
        """
        with self._cond:
            self._demand_probes.append(fn)

    def live_demand(self) -> int:
        """Watchers on this session right now, summed over probes.

        The primary backpressure signal: the web tier's probe reports
        its scheduler's watcher count (parked polls plus push
        streams) for this session, so
        "is anyone watching" is a live count, not an inference from how
        recently a poll happened to complete.  Boolean probes coerce to
        0/1; a broken probe contributes nothing rather than flapping the
        schedule.
        """
        with self._cond:
            probes = list(self._demand_probes)
        total = 0
        for fn in probes:
            try:
                total += int(fn() or 0)
            except Exception:
                pass
        return total

    def recently_polled(self, window: float = 5.0) -> bool:
        """True if any consumer is reading (or parked on) this session.

        The executor's backpressure probe: a session nobody has polled
        (delta, frame, long poll, snapshot or image fetch) within
        ``window`` seconds — and on which no registered demand probe
        reports a live waiter — has stalled consumers and is
        deprioritized, so stepping it never delays sessions someone is
        actually watching.
        """
        if time.monotonic() - self._last_poll <= window:
            return True
        with self._cond:
            probes = list(self._demand_probes)
        for fn in probes:
            try:
                if fn():
                    return True
            except Exception:
                pass  # a broken probe must not flap the schedule
        return False

    def add_listener(self, fn: Callable[[int], None]) -> None:
        """Call ``fn(seq)`` after every publish (outside the store lock)."""
        with self._cond:
            self._listeners.append(fn)

    def attach_tap(self, fn: Callable[[SessionEvent, bytes | None], None]) -> None:
        """Call ``fn(event, blob)`` after every publish, outside the lock.

        Taps are the journal's capture point: they see the appended
        event verbatim (plus the encoded blob for image events) on the
        publisher's thread, after listeners.  A failing tap is isolated
        — observability must never break publishing.
        """
        with self._cond:
            self._taps.append(fn)

    def _fire_taps(self, event: SessionEvent, blob: bytes | None,
                   taps: list) -> None:
        for fn in taps:
            try:
                fn(event, blob)
            except Exception:
                pass

    # -- publishing --------------------------------------------------------------

    def _append_locked(self, kind: str, component: str, cycle: int,
                       props: dict) -> SessionEvent:
        # Caller holds self._cond; returns the new event.  Single home for
        # the append invariant (seq, ring trim, merged component view).
        self._seq += 1
        event = SessionEvent(self._seq, kind, component, cycle, props)
        self._events.append(event)
        while len(self._events) > self.capacity:
            self._events.popleft()
            self.dropped_events += 1
        # Pop + reinsert keeps the dict in least-recently-updated-first
        # order, making the cardinality bound below an O(1) eviction of
        # the front key (never the component just written).
        merged = self._components.pop(component, None)
        if merged is None:
            merged = {}
        merged.update(props)
        self._components[component] = merged
        self._component_seq[component] = self._seq
        while len(self._components) > self.component_limit:
            victim = next(iter(self._components))
            del self._components[victim]
            del self._component_seq[victim]
            self.dropped_components += 1
        return event

    def _append(self, kind: str, component: str, cycle: int, props: dict) -> int:
        # Caller must NOT hold self._cond.
        with self._cond:
            event = self._append_locked(kind, component, cycle, props)
            listeners = list(self._listeners)
            taps = list(self._taps)
            self._cond.notify_all()
        for fn in listeners:
            fn(event.seq)
        self._fire_taps(event, None, taps)
        return event.seq

    def publish_image(self, image: Image, cycle: int = 0, meta: dict | None = None) -> int:
        """Encode ``image`` once, cache the blob, append an image event."""
        blob = encode_fixed_size(image, self.file_size)  # outside the lock
        meta = dict(meta or {})
        # Append the image record under the same lock as the event so the
        # blob for version v exists before any poller can learn about v.
        with self._cond:
            self.encode_count += 1
            seq = self._seq + 1  # the seq _append_locked is about to assign
            record = _ImageRecord(seq, cycle, blob, meta, image=image)
            self._images.append(record)
            while len(self._images) > self.image_capacity:
                self._images.popleft()
                self.dropped_images += 1
            event = self._append_locked(
                "image", "image", cycle, {"version": seq, "cycle": cycle, **meta}
            )
            listeners = list(self._listeners)
            taps = list(self._taps)
            self._cond.notify_all()
        for fn in listeners:
            fn(seq)
        self._fire_taps(event, blob, taps)
        return seq

    def restore_event(self, kind: str, component: str, cycle: int,
                      props: dict, *, seq: int | None = None,
                      blob: bytes | None = None) -> int:
        """Re-append a journaled event, preserving its original sequence.

        The replay path: a rehydrated store must serve byte-identical
        delta frames, so the event's ``seq`` and ``props`` are restored
        verbatim (``seq`` may only move forward — replays are
        append-only like live publishes).  For image events the
        journaled blob re-enters the image ring as-is — no re-encode,
        ``encode_count`` untouched — and a ``None`` blob restores the
        meta event alone, exactly the view a live client has after the
        blob left the ring.  Listeners fire (paced replays wake parked
        waiters through the normal publish path) but taps do not: a
        replayed session is never re-journaled.
        """
        props = dict(props)
        with self._cond:
            if seq is not None:
                if seq <= self._seq:
                    raise WebServerError(
                        f"cannot restore seq {seq}: store already at {self._seq}"
                    )
                self._seq = seq - 1
            if kind == "image" and blob is not None:
                meta = {k: v for k, v in props.items()
                        if k not in ("version", "cycle")}
                record = _ImageRecord(self._seq + 1, cycle, blob, meta)
                self._images.append(record)
                while len(self._images) > self.image_capacity:
                    self._images.popleft()
                    self.dropped_images += 1
            event = self._append_locked(kind, component, cycle, props)
            listeners = list(self._listeners)
            self._cond.notify_all()
        for fn in listeners:
            fn(event.seq)
        return event.seq

    def publish_status(self, component: str = "session", cycle: int = 0, /,
                       **props: Any) -> int:
        """Append a status/meta event (session config, loop description...).

        ``component`` and ``cycle`` are positional-only so arbitrary
        (user-supplied) prop maps may legally contain those key names.
        """
        return self._append("status", component, cycle, dict(props))

    def publish_steering(self, params: dict, cycle: int = 0) -> int:
        """Record a steering action so every monitor sees the new params."""
        return self._append("steering", "params", cycle, dict(params))

    # -- sliding-window domain ----------------------------------------------------

    def set_window_source(self, source) -> None:
        """Attach a :class:`~repro.window.WindowedDomainSource`.

        Once attached, deltas built for a window key carry a ``bricks``
        announce list and :meth:`publish_window_step` stamps the bricks
        a simulation step touched.
        """
        with self._cond:
            self._window_source = source

    def window_source(self):
        with self._cond:
            return self._window_source

    def publish_window_step(self, cycle: int = 0, box=None, /, **props: Any) -> int:
        """Append a domain-step event, stamping intersecting bricks dirty.

        ``box`` is the ``(lo, hi)`` sample region the step changed
        (``None`` = whole domain).  The bricks are stamped with the
        event's sequence number *under the store lock, before the event
        is appended*, so any delta built after the head advances already
        sees the new brick versions — a client can never observe the
        event without its announce list.
        """
        with self._cond:
            seq = self._seq + 1  # the seq _append_locked is about to assign
            source = self._window_source
            if source is not None:
                # Lock order store._cond -> source._lock, same as the
                # delta path; the source never calls back into the store.
                source.mark_step(seq, box)
            event = self._append_locked(
                "brick", "domain", cycle, {"version": seq, "cycle": cycle, **props}
            )
            listeners = list(self._listeners)
            taps = list(self._taps)
            self._cond.notify_all()
        for fn in listeners:
            fn(event.seq)
        self._fire_taps(event, None, taps)
        return event.seq

    # -- polling -----------------------------------------------------------------

    def _delta_locked(self, since: int, tier: int = 0,
                      skipped_out: list[int] | None = None,
                      window: tuple | None = None) -> dict:
        first = self._events[0].seq if self._events else self._seq + 1
        dropped = max(0, min(first - 1, self._seq) - since)
        # The ring is seq-ascending: walk back from the head to the cursor
        # instead of scanning all ``capacity`` events for the new one or two.
        components = [e.to_component() for e in takewhile(
            lambda e: e.seq > since, reversed(self._events))][::-1]
        skipped = 0
        if tier and TIER_LADDER[tier].snapshot_only:
            # Snapshot tier: a client this slow can never display the
            # intermediate frames in time — keep only the newest image
            # event and account for the elided ones.
            newest = None
            for comp in components:
                if comp["id"] == "image":
                    newest = comp
            if newest is not None:
                kept = []
                for comp in components:
                    if comp["id"] == "image" and comp is not newest:
                        skipped += 1
                        if skipped_out is not None:
                            skipped_out.append(comp["version"])
                        continue
                    kept.append(comp)
                components = kept
        if tier:
            for comp in components:
                if comp["id"] == "image":
                    comp["props"]["tier"] = tier
        delta = {
            "version": self._seq,
            "components": components,
            "dropped": dropped,
            "timeout": self._seq <= since,
            "tier": tier,
        }
        if skipped:
            delta["skipped_images"] = skipped
        if window is not None and self._window_source is not None:
            # The sliding-window announce: bricks this window intersects
            # whose stamped version is past the client's cursor.  Fetched
            # under the store lock (lock order store._cond ->
            # source._lock) so the list is consistent with ``version``.
            lo, hi, lod = window
            delta["window"] = {"lo": list(lo), "hi": list(hi), "lod": lod}
            delta["bricks"] = self._window_source.bricks_for(window, since)
        return delta

    def delta(self, since: int, tier: int = 0,
              window: tuple | None = None) -> dict:
        """Events past ``since`` (non-blocking), with gap accounting."""
        self._last_poll = time.monotonic()
        with self._cond:
            return self._delta_locked(since, clamp_tier(tier), window=window)

    def _inline_delta_locked(
        self, since: int, tier: int,
        skipped_out: list[int] | None = None,
        window: tuple | None = None,
    ) -> tuple[dict, list[tuple[dict, _ImageRecord]]]:
        """Delta plus the (component, record) pairs needing inline blobs.

        A push subscriber has no request/response channel to fetch
        ``/api/v1/<sid>/image?v=N`` over, so the blob rides in the delta.
        Only the pairing happens under the store lock; the caller
        attaches the (possibly tier-encoded) blobs outside it via
        :meth:`_attach_blobs`, so publishers never block behind an image
        encode.  Blobs already evicted from the image ring are skipped —
        the meta event still arrives, exactly like the poll path.
        """
        delta = self._delta_locked(since, tier, skipped_out, window)
        by_seq = {record.seq: record for record in self._images}
        pending: list[tuple[dict, _ImageRecord]] = []
        for comp in delta["components"]:
            record = by_seq.get(comp["version"]) if comp["id"] == "image" else None
            if record is not None:
                pending.append((comp, record))
        return delta, pending

    def _attach_blobs(
        self,
        pending: list[tuple[dict, _ImageRecord]],
        tier: int,
        b64: bool,
    ) -> tuple[list[bytes], int]:
        """Fill inline-blob props; returns raw blobs for the binary frame
        plus the payload bytes the tier saved vs inlining the full blobs.

        ``b64=True`` inlines each blob as ``blob_b64`` in the component
        JSON (the legacy base64-in-JSON shape); ``b64=False`` records
        ``blob_offset``/``blob_len`` into a raw blob section the caller
        appends after the JSON in the binary frame.  Caller must NOT
        hold the store lock (tier encodes happen here).
        """
        blobs: list[bytes] = []
        offset = 0
        saved = 0
        for comp, record in pending:
            blob = self._record_tier_blob(record, tier)
            if tier:
                diff = len(record.blob) - len(blob)
                saved += diff * 4 // 3 if b64 else diff
            if b64:
                comp["props"]["blob_b64"] = base64.b64encode(blob).decode("ascii")
            else:
                comp["props"]["blob_offset"] = offset
                comp["props"]["blob_len"] = len(blob)
                blobs.append(blob)
                offset += len(blob)
        return blobs, max(0, saved)

    def delta_frame(self, since: int, tier: int = 0,
                    window: tuple | None = None) -> bytes:
        """Serialized JSON delta past ``since``, encoded once per window.

        The response bytes for a ``(since, head_seq, tier)`` window are
        memoized, so a publish that wakes N waiters parked at the same
        cursor costs one ``json.dumps`` per tier group — the returned
        ``bytes`` object is immutable and safe to share across N
        connection write queues without copying.  ``json_encodes``
        counts actual encodes.
        """
        return self.framed_delta(since, FRAME_JSON, tier, window)

    def framed_delta(self, since: int, framing: str = FRAME_JSON,
                     tier: int = 0, window: tuple | None = None) -> bytes:
        """The delta past ``since``, pre-framed for one wire transport.

        Every framing of a ``(since, head_seq, tier)`` window is
        memoized in the same :class:`DeltaFrameCache`, keyed ``(since,
        head, framing, tier)``.  The SSE and WS text framings *wrap* the
        shared JSON frame — when a herd mixes pollers and subscribers at
        one tier, they all ride one ``json.dumps`` and each transport
        pays only its (memoized) header bytes.  The inline-image
        framings (``ws+b64``, ``ws+bin``) carry different JSON and
        honestly cost their own encode, still one per window however
        many subscribers share it.

        ``window`` (a window-geometry key, see
        :meth:`repro.window.WindowCursor.key`) extends the cache key:
        clients sharing one window geometry share one encode per wake,
        exactly like clients sharing a tier — distinct geometries
        honestly cost their own encode.
        """
        return self.framed_delta_with_head(since, framing, tier, window)[0]

    def framed_delta_with_head(self, since: int, framing: str = FRAME_JSON,
                               tier: int = 0,
                               window: tuple | None = None) -> tuple[bytes, int]:
        """:meth:`framed_delta` plus the head seq the frame covers.

        The push path advances each subscriber's cursor to exactly the
        head that was serialized — reading ``seq`` separately could
        under-advance past a racing publish and re-deliver its events.
        """
        if framing not in FRAMINGS:
            raise WebServerError(f"unknown delta framing {framing!r}")
        tier = clamp_tier(tier)
        self._last_poll = time.monotonic()
        pending: list[tuple[dict, _ImageRecord]] = []
        skipped_versions: list[int] = []
        saved = 0
        with self._cond:
            head = self._seq
            key = (since, head, framing, tier, window)
            frame = self._frame_cache.get(key)
            if frame is not None:
                return frame, head
            base = (self._frame_cache.get((since, head, FRAME_JSON, tier, window))
                    if framing in (FRAME_SSE, FRAME_WS) else None)
            if framing in (FRAME_WS_B64, FRAME_WS_BINARY):
                delta, pending = self._inline_delta_locked(
                    since, tier, skipped_versions, window)
            elif base is None:
                delta = self._delta_locked(since, tier, skipped_versions, window)
            else:
                delta = None
                # Wrapped framing reusing a cached JSON base: inherit the
                # base window's savings so the gauge stays per-delivery.
                saved = self._frame_cache.saved_for(
                    (since, head, FRAME_JSON, tier, window))
            if skipped_versions:
                # Snapshot tier elided these image events entirely; the
                # payload a tier-0 client would have received for them
                # (full blob each) is the capacity-planning saving.
                by_seq = {r.seq: len(r.blob) for r in self._images}
                raw = sum(by_seq.get(v, 0) for v in skipped_versions)
                saved += raw * 4 // 3 if framing == FRAME_WS_B64 else raw
        # Serialize (and tier-encode inline blobs) outside the lock so
        # publishers never block behind a large encode; a racing caller
        # of the same window may duplicate the encode (counted
        # honestly), the cache keeps one winner.
        encoded = 0
        blobs: list[bytes] = []
        if delta is not None:
            if pending:
                blobs, inline_saved = self._attach_blobs(
                    pending, tier, b64=framing == FRAME_WS_B64)
                saved += inline_saved
            base = json.dumps(delta).encode("utf-8")
            encoded = 1
        if framing == FRAME_JSON:
            frame = base
        elif framing == FRAME_SSE:
            frame = sse_event_chunk(base, head)
        elif framing == FRAME_WS:
            frame = ws_server_frame(base, WS_TEXT)
        elif framing == FRAME_WS_B64:
            frame = ws_server_frame(base, WS_TEXT)
        else:  # FRAME_WS_BINARY: [u32 json length][json][raw blobs]
            # One join: the frame is the only copy made of each 256 KiB blob.
            length = 4 + len(base) + sum(map(len, blobs))
            frame = b"".join((_ws_server_header(length, WS_BINARY),
                              struct.pack(">I", len(base)), base, *blobs))
        with self._cond:
            self.json_encodes += encoded
            if encoded and framing in (FRAME_SSE, FRAME_WS):
                # The wrapped framings share the JSON bytes: cache them
                # under their own key too so a mixed herd never re-encodes.
                self._frame_cache.put((since, head, FRAME_JSON, tier, window),
                                      base, saved=saved)
            self._frame_cache.put(key, frame, saved=saved)
        return frame, head

    def frame_saved(self, since: int, head: int, framing: str,
                    tier: int = 0, window: tuple | None = None) -> int:
        """Bytes the tiered frame for this window saved vs tier 0.

        The per-tier ``bytes_saved`` gauge's source: downscaled inline
        blobs count their size difference (scaled by the base64 factor
        for the b64 framing), snapshot-elided image events count the
        full blob a tier-0 client would have received.  Computed when
        the frame is built, read per delivery from the cache entry.
        """
        with self._cond:
            return self._frame_cache.saved_for(
                (since, head, framing, clamp_tier(tier), window))

    def frame_cache_stats(self) -> dict:
        with self._cond:
            return {
                "size": len(self._frame_cache),
                "hits": self._frame_cache.hits,
                "misses": self._frame_cache.misses,
                "evictions": self._frame_cache.evictions,
                "json_encodes": self.json_encodes,
                "tier_encodes": self.tier_encode_count,
            }

    def wait_delta(self, since: int, timeout: float | None = None) -> dict:
        """Long-poll: block until the sequence passes ``since`` or timeout.

        The delta — including the ``timeout`` flag — is computed while the
        condition lock is still held, so a publish racing the wakeup can
        never produce a "timed out" response that carries events, nor a
        fresh response whose version window misses the racing publish.
        """
        self._last_poll = time.monotonic()
        with self._cond:
            if self._seq <= since:
                self._cond.wait_for(lambda: self._seq > since, timeout=timeout)
            return self._delta_locked(since)

    def snapshot(self) -> dict:
        """Merged per-component state (full page load / gap resync)."""
        self._last_poll = time.monotonic()
        with self._cond:
            return {
                "version": self._seq,
                "components": [
                    {"id": cid, "props": dict(props), "version": self._component_seq[cid]}
                    for cid, props in self._components.items()
                ],
                "dropped_components": self.dropped_components,
            }

    # -- image delivery ----------------------------------------------------------

    def latest_image(self) -> _ImageRecord | None:
        with self._cond:
            return self._images[-1] if self._images else None

    def image_record(self, version: int | None = None) -> _ImageRecord:
        """The cached record for ``version`` (default: latest)."""
        self._last_poll = time.monotonic()  # image fetches are demand too
        with self._cond:
            if not self._images:
                raise WebServerError("no image yet")
            if version is None:
                return self._images[-1]
            for record in reversed(self._images):
                if record.seq == version:
                    return record
        raise WebServerError(f"image version {version} no longer retained")

    def _record_tier_blob(self, record: _ImageRecord, tier: int) -> bytes:
        """The fixed-size container for ``record`` at ``tier``.

        Tier 0 (scale 1) is the eagerly-encoded publish-time blob;
        deeper tiers encode a downscaled variant lazily, once per
        (version, scale) — tiers sharing a scale share the blob — into a
        proportionally smaller container (``file_size / scale**2``,
        grown toward ``file_size`` if a pathological payload does not
        compress).  Caller must not hold the store lock.
        """
        spec = TIER_LADDER[tier]
        if spec.scale == 1:
            return record.blob
        with record._png_lock:
            blob = record._tier_blobs.get(spec.scale)
            if blob is not None:
                return blob
            image = record.image
            if image is None:
                image = decode_fixed_size(record.blob)
            small = image.downscale(spec.scale)
            size = max(1024, self.file_size // (spec.scale * spec.scale))
            while True:
                try:
                    blob = encode_fixed_size(small, size)
                    break
                except DataFormatError:
                    if size >= self.file_size:
                        blob = record.blob  # incompressible: serve full
                        break
                    size = min(self.file_size, size * 2)
            record._tier_blobs[spec.scale] = blob
        with self._cond:
            self.tier_encode_count += 1
        return blob

    def image_blob(self, version: int | None = None, tier: int = 0) -> bytes:
        """The fixed-size container; tier 0 encoded once at publish time,
        deeper tiers encoded lazily once per (version, scale)."""
        return self._record_tier_blob(self.image_record(version), clamp_tier(tier))

    def png_cached(self, version: int | None = None,
                   tier: int = 0) -> bytes | None:
        """The cached PNG for ``version``, or ``None`` on a cold cache.

        Lets the web tier answer warm requests inline and route the
        cold-cache re-encode (the expensive path) off its IO loop.
        Raises if the version is no longer retained, like
        :meth:`image_record`.
        """
        record = self.image_record(version)
        spec = TIER_LADDER[clamp_tier(tier)]
        if spec.scale == 1:
            return record._png
        with record._png_lock:
            return record._tier_pngs.get(spec.scale)

    def image_png(self, version: int | None = None, tier: int = 0) -> bytes:
        """Browser PNG for ``version``; encoded at most once per scale."""
        record = self.image_record(version)
        spec = TIER_LADDER[clamp_tier(tier)]
        # A live record still holds the published pixels; only a
        # journal-restored one (``image is None``) inflates its container.
        image = record.image
        if spec.scale == 1:
            with record._png_lock:
                if record._png is None:
                    if image is None:
                        image = decode_fixed_size(record.blob)
                    record._png = image.to_png_bytes()
                    with self._cond:
                        self.png_encode_count += 1
                return record._png
        blob = self._record_tier_blob(record, spec.index)
        with record._png_lock:
            png = record._tier_pngs.get(spec.scale)
            if png is None:
                small = (decode_fixed_size(blob) if image is None
                         else image.downscale(spec.scale))
                png = small.to_png_bytes()
                record._tier_pngs[spec.scale] = png
                with self._cond:
                    self.png_encode_count += 1
            return png

    def wait_image(self, since: int = 0, timeout: float | None = None) -> _ImageRecord | None:
        """Block until an image newer than seq ``since`` exists."""
        self._last_poll = time.monotonic()
        with self._cond:
            ok = self._cond.wait_for(
                lambda: bool(self._images) and self._images[-1].seq > since,
                timeout=timeout,
            )
            return self._images[-1] if ok else None
