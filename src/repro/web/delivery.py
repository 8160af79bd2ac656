"""The one delivery path: group -> frame once -> enqueue N -> finish.

Every woken :class:`~repro.web.longpoll.Subscriber` — popped by a
publish, expired by the deadline wheel, dropped with its session, or
answerable the moment it was built — reaches its connection through
:meth:`Delivery.deliver`.  Long-poll, SSE and WebSocket differ only in
the framing the record names and in what happens after the frame is
queued: a poll's response ends (the record detaches and the connection
parses its next request), a stream's cursor advances.

Nothing here touches a socket: the IO loop hands in its enqueue / close /
resume callables and the manager's ``events`` lookup, so the path runs
against stub connections and a real ``EventSequenceStore``.  A
connection must offer ``closed``, ``subscriber``, ``keep_alive``,
``close_after``, ``inbuf``, the ``window_source`` / ``window_wid`` /
``lod_bias`` triple and ``_send_error``.
"""

from __future__ import annotations

import time

from repro.adaptive.tiers import MAX_TIER
from repro.errors import ReproError
from repro.wire import CHUNKED_END, WS_CLOSE, sse_comment_chunk, ws_server_frame

__all__ = ["TRANSPORTS", "Delivery"]

TRANSPORTS = ("longpoll", "sse", "ws")


class Delivery:
    """The IO loop's wake path and its accounting (loop thread only)."""

    def __init__(self, events, enqueue, close, resume, remove, render_head) -> None:
        self._events = events  # sid -> EventSequenceStore, ReproError if gone
        self._enqueue = enqueue  # (conn, buffers): queue by reference + flush
        self._close = close  # (conn)
        self._resume = resume  # (conn): parse the input a parked poll held back
        self._remove = remove  # (record): scheduler deregistration
        self._render_head = render_head
        self.polls_served = 0
        self.delivery_errors = 0  # groups whose delivery raised (members closed)
        # Per-tier downscale savings: full-tier bytes minus sent bytes,
        # accumulated per delivered delta.
        self.tier_bytes_saved = [0] * (MAX_TIER + 1)
        # EWMA of publish-wake -> frame-queued latency, sampled on every
        # record a publish woke, whatever its transport.
        self.wake_ewma_ms = 0.0
        self.wakes_measured = 0
        # Per-transport accounting (events + payload bytes).
        # ``bytes_sent`` counts every payload byte the transport queued
        # — deltas AND heartbeat/farewell/control frames — so it
        # reconciles against the loop's raw ``bytes_sent`` (which adds
        # only HTTP response heads on top).
        self.transports = {
            t: {"delivered": 0, "bytes_sent": 0, "heartbeats": 0, "farewells": 0}
            for t in TRANSPORTS
        }

    def count_tx(self, transport: str, nbytes: int,
                 kind: str | None = "delivered") -> None:
        """Account ``nbytes`` of payload to ``transport``.

        ``kind`` names the event counter to bump ("delivered",
        "heartbeats", "farewells"); ``None`` counts bytes only (control
        frames like WS pong/close echoes).
        """
        counters = self.transports[transport]
        if kind is not None:
            counters[kind] += 1
        counters["bytes_sent"] += nbytes

    def _note_wake(self, seconds: float) -> None:
        ms = seconds * 1000.0
        if self.wakes_measured == 0:
            self.wake_ewma_ms = ms
        else:
            self.wake_ewma_ms = 0.9 * self.wake_ewma_ms + 0.1 * ms
        self.wakes_measured += 1

    def deliver(self, batch) -> None:
        """Answer every live record of ``batch``.

        Records sharing ``(session, cursor, framing, tier, window)`` share
        one frame — a publish waking N watchers costs one encode per
        group plus N queue-appends and N vectored writes.  A group whose
        delivery raises is counted and its connections closed; the other
        groups of the batch are still served.
        """
        groups: dict[tuple, dict] = {}
        for rec in batch:
            conn = rec.handle
            if conn.closed or conn.subscriber is not rec:
                continue  # hung up, or an earlier delivery answered it
            if conn.window_source is not None and conn.window_wid is not None:
                # Resolve the geometry now, not at registration: cursor
                # moves and LOD demotions land while the record waits,
                # and identical geometries must share one frame group.
                rec.window = conn.window_source.window_key(
                    conn.window_wid, conn.lod_bias)
            group = (rec.key, rec.since, rec.framing, rec.tier, rec.window)
            groups.setdefault(group, {})[rec] = None  # a stream may queue twice
        stores: dict[str, object] = {}
        for group, members in groups.items():
            try:
                self._deliver_group(stores, *group, members)
            except Exception:  # one bad group must not kill the IO loop
                self.delivery_errors += 1
                for rec in members:
                    self._close(rec.handle)

    def _deliver_group(self, stores, sid, since, framing, tier, window,
                       members) -> None:
        store = stores.get(sid)
        if store is None:
            try:
                store = stores[sid] = self._events(sid)
            except ReproError as exc:  # session evicted while they waited
                for rec in members:
                    self._farewell(rec, str(exc))
                return
        if store.seq <= since:
            # Nothing new.  A stream was woken twice for one publish; a
            # poll is here because its deadline passed (or it asked for
            # timeout=0) and gets the empty {"timeout": true} delta.
            members = [rec for rec in members if rec.deadline is not None]
            if not members:
                return
        frame, head = store.framed_delta_with_head(since, framing, tier, window)
        # ws+bin is a gather tuple: its head, then the image ring's blobs.
        parts = frame if type(frame) is tuple else (frame,)
        size = sum(map(len, parts))
        saved = store.frame_saved(since, head, framing, tier, window) if tier else 0
        now = time.monotonic()
        responses: dict[bool, bytes] = {}
        for rec in members:
            conn = rec.handle
            self.tier_bytes_saved[tier] += saved
            if rec.woken_at:
                self._note_wake(now - rec.woken_at)
            self.count_tx(rec.transport, size)
            if rec.deadline is None:
                rec.since = head  # advance to exactly what was framed
                self._enqueue(conn, parts)
                continue
            conn.subscriber = None
            self.polls_served += 1
            if not conn.keep_alive:
                conn.close_after = True
            # One render shared by the herd: header + frame in a single
            # immutable buffer every connection references.
            response = responses.get(conn.keep_alive)
            if response is None:
                response = responses[conn.keep_alive] = self._render_head(
                    200, "application/json", len(frame),
                    conn.keep_alive) + frame
            self._enqueue(conn, (response,))
            if not conn.closed and conn.inbuf:
                self._resume(conn)  # a pipelined request was waiting

    def _farewell(self, rec, reason: str) -> None:
        """The record's session is gone: end the exchange by transport."""
        conn = rec.handle
        self._remove(rec)
        conn.subscriber = None
        if rec.deadline is not None:
            conn._send_error(404, "not_found", reason)
            if not conn.closed and conn.inbuf:
                self._resume(conn)
            return
        conn.close_after = True
        if rec.transport == "ws":
            goodbye = (ws_server_frame(b"\x03\xe8", WS_CLOSE),)  # 1000 normal
        else:
            goodbye = (sse_comment_chunk(b"session closed"), CHUNKED_END)
        self.count_tx(rec.transport, sum(len(b) for b in goodbye),
                      kind="farewells")
        self._enqueue(conn, goodbye)
