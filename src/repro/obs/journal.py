"""Per-session event journal: persist published events, replay them later.

Every :class:`~repro.steering.events.EventSequenceStore` the session
manager creates gets a *tap*: after each publish (outside the store
lock) the journal records the event row verbatim — status and steering
events always; image events keep their meta row always while the encoded
blob is stored content-addressed (blake2b digest) under a byte-budget
LRU, so identical frames are stored once and a long run cannot grow the
blob pool unboundedly.  With an :class:`~repro.obs.store.ObsStore`
attached the same rows ride the store's single writer thread to SQLite,
which is what makes replay survive eviction *and* server restart.

Replay is a :class:`ReplayCursor`: a fresh ``EventSequenceStore`` that
the journaled rows are re-appended into with their **original sequence
numbers** (``EventSequenceStore.restore_event`` preserves seq and props
verbatim), so the rebuilt store serves a byte-identical JSON delta
sequence through the existing long-poll/SSE/WS surface.  Image rows
whose blob fell out of the byte budget are restored meta-only and
counted — the replay response reports them as ``skipped_images``.
:meth:`SessionJournal.rehydrate` steps a cursor to its end at once; a
paced replay is the same cursor stepped by the web tier's IO loop, one
row per interval (:func:`step_replays`), so it costs zero threads.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time

from repro.errors import WebServerError
from repro.lru import ByteBudgetLRU
from repro.steering.events import EventSequenceStore, SessionEvent

__all__ = ["SessionJournal", "ReplayCursor", "step_replays"]


def _digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class ReplayCursor:
    """One journaled session being restored, row by row, into ``events``.

    ``interval`` seconds separate two rows (0 restores everything at the
    first step) and ``now`` is the clock reading the pacing starts from;
    the caller owns the clock and hands its reading to :meth:`step`.
    Each restore fires the store's listeners, so connected clients are
    woken through the normal publish path and can scrub the run "live".
    """

    __slots__ = ("events", "rows", "journal", "interval", "next_due",
                 "pos", "skipped")

    def __init__(self, journal: "SessionJournal", rows: list[dict],
                 events: EventSequenceStore, interval: float = 0.0,
                 now: float = 0.0) -> None:
        self.journal = journal
        self.rows = rows
        self.events = events
        self.interval = float(interval)
        self.next_due = now + self.interval
        self.pos = 0
        self.skipped = 0  # image rows whose blob left the byte budget

    def step(self, now: float = math.inf) -> bool:
        """Restore every row due at ``now``; True once the replay is over.

        A row that cannot be restored ends the replay (the cursor reads
        as finished) and the error propagates to the caller.
        """
        try:
            while self.pos < len(self.rows) and self.next_due <= now:
                row = self.rows[self.pos]
                self.pos += 1
                self.next_due += self.interval
                blob = self.journal.blob(row["digest"])  # None for a digest of None
                if blob is None and row["kind"] == "image":
                    self.skipped += 1  # left the byte budget: restored meta-only
                self.events.restore_event(
                    row["kind"], row["component"], row["cycle"], row["props"],
                    seq=row["seq"], blob=blob)
        except Exception:
            self.pos = len(self.rows)
            raise
        return self.pos >= len(self.rows)


def step_replays(cursors: list[ReplayCursor], now: float) -> None:
    """Step every paced replay to ``now``; finished ones leave ``cursors``.

    The list is edited in place, one ``remove`` per finished cursor, so
    a worker thread may ``append`` a new replay while the IO loop steps.
    """
    for cursor in list(cursors):
        try:
            done = cursor.step(now)
        except Exception:  # a bad row ends this replay and no other
            done = True
        if done:
            cursors.remove(cursor)


class SessionJournal:
    """Bounded in-memory journal with optional SQLite durability."""

    def __init__(
        self,
        store=None,
        blob_budget_bytes: int = 32 * 1024 * 1024,
        event_cap: int = 4096,
        session_cap: int = 64,
    ) -> None:
        if event_cap < 1 or session_cap < 1 or blob_budget_bytes < 1:
            raise WebServerError("journal caps must be >= 1")
        self.store = store
        self.blob_budget_bytes = int(blob_budget_bytes)
        self.event_cap = int(event_cap)
        self.session_cap = int(session_cap)
        self._lock = threading.Lock()
        # sid -> its rows, the least recently recorded session dropped first.
        self._events = ByteBudgetLRU(max_entries=self.session_cap,
                                     size=lambda _rows: 0)
        # digest -> blob, content-addressed under the byte budget.
        self._blobs = ByteBudgetLRU(max_bytes=self.blob_budget_bytes)
        self.events_recorded = 0
        self.blobs_recorded = 0
        self.events_dropped = 0

    blob_evictions = property(lambda self: self._blobs.evictions)
    sessions_dropped = property(lambda self: self._events.evictions)

    # -- capture -----------------------------------------------------------------

    def attach(self, sid: str, events: EventSequenceStore) -> int:
        """Tap ``events`` so every publish lands in this journal.

        Must run before the session's first publish so journaled seqs
        are contiguous from 1 — the session manager attaches right
        after constructing the store.  Returns how many rows an earlier
        run under the same id already holds here.
        """
        with self._lock:
            held = len(self._register_locked(sid))
        events.attach_tap(
            lambda event, blob, sid=sid: self.record(sid, event, blob))
        return held

    def forget(self, sid: str, keep: int = 0) -> None:
        """Drop the in-memory rows ``sid`` gained past the ``keep`` that
        :meth:`attach` found (its creation was refused); rows already
        queued for SQLite age out under the store's retention."""
        with self._lock:
            rows = self._events.peek(sid)
            if rows is not None:
                del rows[keep:]
                if not rows:
                    self._events.pop(sid)

    def _register_locked(self, sid: str) -> list:
        rows = self._events.get(sid)
        if rows is None:
            rows = []
            self._events.put(sid, rows)
        return rows

    def record(self, sid: str, event: SessionEvent,
               blob: bytes | None = None) -> None:
        """Append one published event (the tap; runs on the publisher)."""
        digest = None
        if blob is not None:
            digest = _digest(blob)
            self._put_blob(digest, blob)
        row = {
            "seq": event.seq,
            "ts": time.time(),
            "kind": event.kind,
            "component": event.component,
            "cycle": event.cycle,
            "props": dict(event.props),
            "digest": digest,
        }
        with self._lock:
            rows = self._register_locked(sid)
            rows.append(row)
            if len(rows) > self.event_cap:
                del rows[0]
                self.events_dropped += 1
            self.events_recorded += 1
        if self.store is not None:
            self.store.enqueue_event(sid, row)

    def _put_blob(self, digest: str, blob: bytes) -> None:
        with self._lock:
            known = self._blobs.get(digest) is not None
            if not known:
                self._blobs.put(digest, blob)
                self.blobs_recorded += 1
        if self.store is not None and not known:
            self.store.enqueue_blob(digest, blob)

    # -- queries -----------------------------------------------------------------

    def sessions(self) -> list[str]:
        with self._lock:
            names = set(self._events)
        if self.store is not None:
            names.update(self.store.journal_sids())
        return sorted(names)

    def rows(self, sid: str) -> list[dict]:
        """The journaled rows for ``sid`` (memory first, then SQLite)."""
        with self._lock:
            rows = self._events.peek(sid)
            if rows:
                return list(rows)
        if self.store is not None:
            self.store.flush()
            rows = self.store.read_events(sid)
            if rows:
                return rows
        raise WebServerError(f"no journal for session {sid!r}")

    def blob(self, digest: str | None) -> bytes | None:
        if digest is None:
            return None
        with self._lock:
            blob = self._blobs.get(digest)
            if blob is not None:
                return blob
        if self.store is not None:
            return self.store.read_blob(digest)
        return None

    # -- replay ------------------------------------------------------------------

    def replay(self, sid: str, file_size: int = 256 * 1024,
               interval: float = 0.0, now: float = 0.0) -> ReplayCursor:
        """A cursor over ``sid``'s rows and a fresh, still empty store
        sized so every journaled row stays retained."""
        rows = self.rows(sid)  # raises WebServerError if unknown
        images = sum(1 for row in rows if row["kind"] == "image")
        events = EventSequenceStore(
            file_size=file_size,
            capacity=max(len(rows), 1) + 16,
            image_capacity=max(images, 1),
        )
        return ReplayCursor(self, rows, events, interval, now)

    def rehydrate(self, sid: str,
                  file_size: int = 256 * 1024) -> tuple[EventSequenceStore, int]:
        """Rebuild ``sid``'s event store from the journal.

        Returns ``(store, skipped_images)`` where ``skipped_images``
        counts image events restored meta-only because their blob fell
        out of the byte budget (clients fetching those versions get the
        same "no longer retained" answer a live slow poller gets).
        """
        cursor = self.replay(sid, file_size)
        cursor.step()
        return cursor.events, cursor.skipped

    def stats(self) -> dict:
        with self._lock:
            return {
                "sessions": len(self._events),
                "events_recorded": self.events_recorded,
                "blobs_recorded": self.blobs_recorded,
                "blob_bytes": self._blobs.bytes,
                "blob_evictions": self.blob_evictions,
                "events_dropped": self.events_dropped,
                "sessions_dropped": self.sessions_dropped,
            }
