"""Per-session monotonic event-sequence store.

This unifies the two versioning schemes the seed grew in parallel (the
front end's image-ring versions and the web tier's UI-component diffs)
into one store per session.  Every observable change (a new image, a
status/meta update, a steering action) is appended as a
:class:`SessionEvent` with a single monotonically increasing sequence
number, and a poll returns the delta of events past a client's cursor.

The event plane is three units.  This module is the **store**: the
bounded event ring and its sequence number, the merged component view,
the demand clock and the one publish path.  It owns the lock and lends
it to the two units it composes — the **image ring**
(:mod:`repro.steering.images`: each image encoded once at publish time,
tier containers and PNGs once per scale) and the **frame plane**
(:mod:`repro.steering.frames`: a delta serialized and framed once per
``(since, head_seq, framing, tier, window)`` however many waiters share
it).  What the log itself guarantees:

* **Tiered deltas** — the adaptive delivery plane
  (:mod:`repro.adaptive`) assigns slow clients a delivery tier from the
  fixed :data:`~repro.adaptive.tiers.TIER_LADDER`.  A tier > 0 delta
  serves the same events but marks image payloads with the tier (the
  downscaled variants come from the image ring) and — for snapshot
  tiers — keeps only the *newest* image event, the elided ones counted
  in ``skipped_images``.  Every delta carries its ``tier`` so clients
  know what they got.
* **Gap detection** — the event log is a bounded ring.  A slow poller
  whose cursor has fallen off the tail receives ``dropped`` (the number
  of events it can never see) instead of a silent gap, and can resync
  from :meth:`snapshot`.  The merged component view behind
  :meth:`snapshot` is bounded too: past ``component_limit`` distinct
  component ids, the least-recently-updated component is evicted and
  counted in ``dropped_components``.

Publish never blocks on pollers: waiters are woken through the store's
condition variable and through registered listeners (the web tier's
long-poll scheduler), both O(1) amortised per publish.  A publish holds
the publish lock from its append to the end of its announce, and deltas
and snapshots take it too: listeners, taps and readers see seq n, fully
announced, before n + 1.  Lock order: publish lock -> _cond -> window source.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Any, Callable

from repro.adaptive.tiers import TIER_LADDER, clamp_tier
from repro.errors import WebServerError
from repro.steering.frames import FramePlane
from repro.steering.images import ImageRecord, ImageRing
from repro.viz.image import Image, encode_fixed_size

from repro.wire import (
    FRAME_JSON,
    FRAME_SSE,
    FRAME_WS,
    FRAME_WS_BINARY,
    WS_BINARY,
    WS_PING,
    WS_PONG,
    ws_server_frame,
)

# The byte formats live in :mod:`repro.wire`; its names are listed here
# because ``bench/`` imports them from this module.  Nothing under
# ``src/`` or ``examples/`` does.
__all__ = [
    "SessionEvent",
    "EventSequenceStore",
    "FRAME_JSON",
    "FRAME_SSE",
    "FRAME_WS",
    "FRAME_WS_BINARY",
    "WS_BINARY",
    "WS_PING",
    "WS_PONG",
    "ws_server_frame",
]


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
        if capacity < 1:
            raise WebServerError("event store capacity must be >= 1")
        if component_limit < 1:
            raise WebServerError("component limit must be >= 1")
        self.file_size = int(file_size)
        self.capacity = int(capacity)
        self.component_limit = int(component_limit)
        self._cond = threading.Condition()
        self._publishing = threading.RLock()  # re-entrant: listeners may publish
        self._seq = 0
        self._events: deque[SessionEvent] = deque()
        self._components: dict[str, dict] = {}
        self._component_seq: dict[str, int] = {}
        # Rebound, never mutated: a publisher iterates the tuple it read
        # while another thread registers, and copies nothing per publish.
        self._listeners: tuple[Callable[[int], None], ...] = ()
        self._taps: tuple[Callable[[SessionEvent, bytes | None], None], ...] = ()
        self._demand_probes: tuple[Callable[[], bool], ...] = ()
        self._window_source = None  # repro.window.WindowedDomainSource | None
        self._images = ImageRing(image_capacity, self.file_size, self._cond)
        self._frames = FramePlane(self._images, self._cond, frame_cache_size)
        # Poll-demand clock: starts "recently polled" so a fresh session
        # is scheduled hot until its consumers demonstrably stall.
        self._last_poll = time.monotonic()
        self.encode_count = 0
        self.dropped_events = 0
        self.dropped_components = 0

    # -- introspection -----------------------------------------------------------

    @property
    def seq(self) -> int:
        with self._cond:
            return self._seq

    # ``version`` kept as an alias so event seq numbers read like the old
    # per-store image versions at call sites and in poll responses.
    version = seq

    # The counters the other two units keep, read where they always were.
    json_encodes = property(lambda self: self._frames.json_encodes)
    tier_encode_count = property(lambda self: self._images.tier_encode_count)
    png_encode_count = property(lambda self: self._images.png_encode_count)
    dropped_images = property(lambda self: self._images.dropped_images)

    def component_count(self) -> int:
        """Distinct components in the merged snapshot view."""
        with self._cond:
            return len(self._components)

    def attach_demand_probe(self, fn: Callable[[], bool]) -> None:
        """Register a live-demand source consulted by :meth:`in_demand`.

        The web tier attaches the long-poll scheduler's watcher count
        (parked polls plus push streams) for this session: a *parked*
        poll reads nothing from the store while it waits, so without the
        probe a watched-but-quiet session would decay to "stalled"
        mid-park and be demoted to the executor's cold queue — the exact
        self-reinforcing inversion the backpressure feature must not
        produce.
        """
        with self._cond:
            self._demand_probes += (fn,)

    def in_demand(self, grace: float = 5.0) -> bool:
        """True if any consumer is reading (or parked on) this session.

        The executor's backpressure question, asked once per slice: a
        session nobody has polled (delta, frame, long poll, snapshot or
        image fetch) within ``grace`` seconds — the short allowance for
        clients between polls — and on which no demand probe reports a
        live watcher has stalled consumers and is deprioritized, so
        stepping it never delays sessions someone is actually watching.
        """
        if time.monotonic() - self._last_poll <= grace:
            return True
        for fn in self._demand_probes:
            try:
                if fn():
                    return True
            except Exception:
                pass  # a broken probe must not flap the schedule
        return False

    def add_listener(self, fn: Callable[[int], None]) -> None:
        """Call ``fn(seq)`` after every publish, in seq order, on the
        publisher's thread: outside the store lock, inside the publish lock
        (other threads' publishes wait for it; ``fn`` may publish itself)."""
        with self._cond:
            self._listeners += (fn,)

    def attach_tap(self, fn: Callable[[SessionEvent, bytes | None], None]) -> None:
        """Call ``fn(event, blob)`` after every publish, outside the lock.

        Taps are the journal's capture point: they see the appended
        event verbatim (plus the encoded blob for image events) on the
        publisher's thread, after listeners and inside the publish lock,
        so a journal's rows are in seq order.  A failing tap is isolated
        — observability must never break publishing.
        """
        with self._cond:
            self._taps += (fn,)

    # -- publishing --------------------------------------------------------------

    def _append_locked(self, kind: str, component: str, cycle: int,
                       props: dict) -> SessionEvent:
        # Caller holds self._cond; returns the new event.  Single home for
        # the append invariant (seq, ring trim, merged component view) and
        # for waking the condition's waiters.
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
        self._cond.notify_all()
        return event

    def _announce(self, event: SessionEvent, blob: bytes | None = None,
                  journal: bool = True) -> int:
        # The one publish epilogue.  Caller holds self._publishing, NOT
        # self._cond: listeners re-enter the store and taps write to disk.
        for fn in self._listeners:
            fn(event.seq)
        if journal:
            for fn in self._taps:
                try:
                    fn(event, blob)
                except Exception:
                    pass
        return event.seq

    def _append(self, kind: str, component: str, cycle: int, props: dict) -> int:
        # Caller must NOT hold self._cond.
        with self._publishing:
            with self._cond:
                event = self._append_locked(kind, component, cycle, props)
            return self._announce(event)

    def publish_image(self, image: Image, cycle: int = 0, meta: dict | None = None) -> int:
        """Encode ``image`` once, cache the blob, append an image event."""
        blob = encode_fixed_size(image, self.file_size)  # outside the lock
        meta = dict(meta or {})
        # Append the image record under the same lock as the event so the
        # blob for version v exists before any poller can learn about v.
        with self._publishing:
            with self._cond:
                self.encode_count += 1
                seq = self._seq + 1  # the seq _append_locked is about to assign
                self._images.append_locked(seq, cycle, blob, meta, image)
                event = self._append_locked(
                    "image", "image", cycle, {"version": seq, "cycle": cycle, **meta}
                )
            return self._announce(event, blob)

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
        with self._publishing:
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
                    self._images.append_locked(self._seq + 1, cycle, blob, meta)
                event = self._append_locked(kind, component, cycle, props)
            return self._announce(event, journal=False)

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
        with self._publishing:
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
            return self._announce(event)

    # -- polling -----------------------------------------------------------------

    def head_locked(self) -> int:
        """The newest sequence number (the frame plane's delta source)."""
        return self._seq

    def delta_locked(self, since: int, tier: int = 0,
                     skipped_out: list[int] | None = None,
                     window: tuple | None = None) -> dict:
        """The delta past ``since``; caller holds the store lock (the
        frame plane's delta source, and :meth:`delta` itself)."""
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
        with self._publishing, self._cond:
            return self.delta_locked(since, clamp_tier(tier), window=window)

    def framed_delta(self, since: int, framing: str = FRAME_JSON,
                     tier: int = 0, window: tuple | None = None) -> bytes:
        """The delta past ``since``, pre-framed for one wire transport.

        Memoized per ``(since, head_seq, framing, tier, window)`` by the
        frame plane: a publish that wakes N waiters parked at the same
        cursor costs one ``json.dumps`` per group, and the returned
        ``bytes`` object is immutable and safe to share across N
        connection write queues without copying.  A ``ws+bin`` frame is
        joined from its gather tuple here, a copy per call; the serving
        path takes :meth:`framed_delta_with_head` and queues the tuple.
        """
        frame = self.framed_delta_with_head(since, framing, tier, window)[0]
        return frame if type(frame) is bytes else b"".join(frame)

    def framed_delta_with_head(self, since: int, framing: str = FRAME_JSON,
                               tier: int = 0,
                               window: tuple | None = None) -> tuple[bytes | tuple, int]:
        """:meth:`framed_delta` plus the head seq the frame covers (see
        :meth:`repro.steering.frames.FramePlane.framed_delta_with_head`)."""
        self._last_poll = time.monotonic()
        with self._publishing:
            return self._frames.framed_delta_with_head(
                self, since, framing, clamp_tier(tier), window)

    def frame_saved(self, since: int, head: int, framing: str,
                    tier: int = 0, window: tuple | None = None) -> int:
        """Bytes the tiered frame for this window saved vs tier 0.

        The per-tier ``bytes_saved`` gauge's source: downscaled inline
        blobs count their size difference, snapshot-elided image events
        count the full blob a tier-0 client would have received.
        Computed when the frame is built, read per delivery from the
        cache entry.
        """
        with self._cond:
            return self._frames.cache.saved_for(
                (since, head, framing, clamp_tier(tier), window))

    def snapshot(self) -> dict:
        """Merged per-component state (full page load / gap resync)."""
        self._last_poll = time.monotonic()
        with self._publishing, self._cond:
            return {
                "version": self._seq,
                "components": [
                    {"id": cid, "props": dict(props), "version": self._component_seq[cid]}
                    for cid, props in self._components.items()
                ],
                "dropped_components": self.dropped_components,
            }

    # -- image delivery ----------------------------------------------------------

    def image_record(self, version: int | None = None) -> ImageRecord:
        """The cached record for ``version`` (default: latest)."""
        self._last_poll = time.monotonic()  # image fetches are demand too
        with self._cond:
            return self._images.record_locked(version)

    def image_blob(self, version: int | None = None, tier: int = 0) -> bytes:
        """The fixed-size container; tier 0 encoded once at publish time,
        deeper tiers encoded lazily once per (version, scale)."""
        return self._images.blob(self.image_record(version),
                                 TIER_LADDER[clamp_tier(tier)].scale)

    def png_cached(self, version: int | None = None,
                   tier: int = 0) -> bytes | None:
        """The cached PNG for ``version``, or ``None`` on a cold cache.

        Lets the web tier answer warm requests inline and route the
        cold-cache re-encode (the expensive path) off its IO loop.
        Raises if the version is no longer retained, like
        :meth:`image_record`.
        """
        return self._images.png_cached(self.image_record(version),
                                       TIER_LADDER[clamp_tier(tier)].scale)

    def image_png(self, version: int | None = None, tier: int = 0) -> bytes:
        """Browser PNG for ``version``; encoded at most once per scale."""
        return self._images.png(self.image_record(version),
                                TIER_LADDER[clamp_tier(tier)].scale)

    def wait_image(self, since: int = 0, timeout: float | None = None) -> ImageRecord | None:
        """Block until an image newer than seq ``since`` exists."""
        self._last_poll = time.monotonic()

        def newer() -> ImageRecord | None:
            record = self._images.find_locked()
            return record if record is not None and record.seq > since else None

        with self._cond:
            return self._cond.wait_for(newer, timeout=timeout)
