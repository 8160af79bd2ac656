"""Non-blocking delivery scheduling: subscriber records + deadline wheel.

The seed parked one server thread per outstanding long poll — N idle
browsers cost N blocked threads.  Here every client waiting for events
is a :class:`Subscriber`: ~100 bytes of record (session key, cursor,
framing, opaque connection handle) in a :class:`LongPollScheduler`.
Thousands of idle watchers therefore cost zero threads — the scheduler
owns no threads at all; it is a passive, thread-safe registry the IO
loop and publisher threads rendezvous on.

The record's ``deadline`` is the only thing that tells the transports
apart here.  A parked long poll has one: the first publish past its
cursor pops it (:meth:`LongPollScheduler.notify`), or the deadline heap
does (:meth:`LongPollScheduler.expire_due`, which also bounds the IO
loop's select timeout), and the connection re-parks with a fresh
request.  A push stream (SSE, WebSocket) has ``deadline=None`` and *stays
registered* across publishes: :meth:`LongPollScheduler.push_targets`
returns (without removing) every stream behind the new head, and the IO
loop advances its cursor in place as frames go out — zero re-parks, zero
request parsing per event — until the connection closes or the session
is dropped.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any

__all__ = ["Subscriber", "LongPollScheduler"]


class Subscriber:
    """One client waiting for events: where, since when, framed how.

    ``since`` is the delivery cursor; for a stream it is advanced *in
    place* by the owning IO loop as frames go out (only that loop
    touches it after registration, so no lock is needed on the hot
    path).  ``transport`` names the wire transport for accounting
    ("longpoll", "sse", "ws"); ``framing`` names the delta encoding the
    event store should hand back (see
    :meth:`EventSequenceStore.framed_delta`).  ``tier`` is the delivery
    tier the adaptive controller currently assigns this connection and
    ``window`` its sliding-window geometry key (None = whole domain) —
    both written only by the owning IO loop, and together with
    ``(key, since, framing)`` they name the frame group the record
    shares at delivery.  ``deadline`` (monotonic seconds) marks a
    one-shot parked poll; None marks a persistent stream.
    """

    __slots__ = ("id", "key", "since", "handle", "transport", "framing",
                 "tier", "window", "deadline", "done", "woken_at")

    def __init__(self, key: str, since: int, handle: Any, transport: str,
                 framing: str, tier: int = 0, window: tuple | None = None,
                 deadline: float | None = None) -> None:
        self.id = 0  # assigned by LongPollScheduler.add
        self.key = key
        self.since = since
        self.handle = handle  # opaque: the server stores the connection here
        self.transport = transport
        self.framing = framing
        self.tier = tier
        self.window = window
        self.deadline = deadline
        self.done = False  # popped, removed or dropped; heap entries may linger
        # Stamped (monotonic) by the publish wake path so the IO loop
        # can gauge wake->delivery latency for the ops dashboard.
        self.woken_at = 0.0


class LongPollScheduler:
    """Condition-variable-style registry of subscribers plus a deadline wheel.

    All methods are thread-safe.  ``notify`` / ``push_targets`` are
    called from publisher threads (via event-store listeners);
    ``expire_due`` / ``next_deadline`` from the IO loop.  Records are
    handed back to the caller, which owns delivering the response — the
    scheduler never touches sockets.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_key: dict[str, dict[int, Subscriber]] = {}
        self._heap: list[tuple[float, int, Subscriber]] = []
        self._ids = itertools.count(1)
        self.registered_total = 0
        self.notified_total = 0
        self.expired_total = 0
        self.subscribed_total = 0
        self.pushed_total = 0

    def add(self, record: Subscriber) -> Subscriber:
        """Register a caller-built record (parked if it has a deadline)."""
        with self._lock:
            record.id = next(self._ids)
            self._by_key.setdefault(record.key, {})[record.id] = record
            if record.deadline is None:
                self.subscribed_total += 1
            else:
                heapq.heappush(self._heap, (record.deadline, record.id, record))
                self.registered_total += 1
            return record

    def register(self, key: str, since: int, deadline: float, handle: Any = None,
                 window: tuple | None = None) -> Subscriber:
        """Park a poll: it will be returned by ``notify`` or ``expire_due``."""
        return self.add(Subscriber(key, since, handle, "longpoll", "json",
                                   0, window, deadline))

    def subscribe(self, key: str, since: int, handle: Any = None,
                  transport: str = "sse", framing: str = "json",
                  tier: int = 0, window: tuple | None = None) -> Subscriber:
        """Register a persistent push stream on ``key``.

        Unlike :meth:`register`, the record survives publishes: it is
        returned by every :meth:`push_targets` call whose head passes
        its cursor until :meth:`remove` or :meth:`drop_key` takes it out.
        """
        return self.add(Subscriber(key, since, handle, transport, framing,
                                   tier, window))

    def remove(self, record: Subscriber) -> bool:
        """Take a record out (connection closed); False if already gone."""
        with self._lock:
            return self._remove_locked(record)

    def _remove_locked(self, record: Subscriber) -> bool:
        if record.done:
            return False
        record.done = True  # lazy deletion: the heap entry expires harmlessly
        bucket = self._by_key.get(record.key)
        if bucket is not None:
            bucket.pop(record.id, None)
            if not bucket:
                del self._by_key[record.key]
        return True

    def notify(self, key: str, seq: int) -> list[Subscriber]:
        """Publisher hook: pop every parked poll on ``key`` with cursor < ``seq``."""
        with self._lock:
            bucket = self._by_key.get(key)
            if not bucket:
                return []
            ready = [r for r in bucket.values()
                     if r.deadline is not None and r.since < seq]
            for record in ready:
                self._remove_locked(record)
            self.notified_total += len(ready)
            return ready

    def push_targets(self, key: str, seq: int) -> list[Subscriber]:
        """Publisher hook: every live stream on ``key`` behind ``seq``.

        Streams are returned *without* being removed — delivery
        advances each cursor in place on the owning IO loop.  Reading
        ``since`` here races that advance benignly: a stale read only
        re-queues a stream whose delivery re-check will no-op.
        """
        with self._lock:
            bucket = self._by_key.get(key)
            if not bucket:
                return []
            targets = [r for r in bucket.values()
                       if r.deadline is None and r.since < seq]
            self.pushed_total += len(targets)
            return targets

    def drop_key(self, key: str) -> list[Subscriber]:
        """Pop every record on ``key`` (session evicted/closed)."""
        with self._lock:
            bucket = self._by_key.pop(key, None)
            if not bucket:
                return []
            records = list(bucket.values())
            for record in records:
                record.done = True
            return records

    def expire_due(self, now: float) -> list[Subscriber]:
        """Pop every parked poll whose deadline has passed (the wheel tick)."""
        expired: list[Subscriber] = []
        with self._lock:
            while self._heap and self._heap[0][0] <= now:
                _, _, record = heapq.heappop(self._heap)
                if self._remove_locked(record):  # else: notified or removed
                    expired.append(record)
            self.expired_total += len(expired)
        return expired

    def next_deadline(self) -> float | None:
        """Earliest live deadline (the IO loop's select timeout bound)."""
        with self._lock:
            while self._heap and self._heap[0][2].done:
                heapq.heappop(self._heap)  # drain lazily-deleted entries
            return self._heap[0][0] if self._heap else None

    def _count(self, parked: bool, key: str | None = None) -> int:
        """Records with (``parked``) or without a deadline, on one key or all."""
        with self._lock:
            buckets = (self._by_key.values() if key is None
                       else (self._by_key.get(key, {}),))
            return sum((r.deadline is not None) is parked
                       for bucket in buckets for r in bucket.values())

    def pending(self) -> int:
        """Parked polls on every key."""
        return self._count(True)

    def pending_for(self, key: str) -> int:
        return self._count(True, key)

    def subscribers(self) -> int:
        """Live push streams on every key."""
        return self._count(False)

    def subscribers_for(self, key: str) -> int:
        return self._count(False, key)

    def watchers_for(self, key: str) -> int:
        """Every record on ``key``, parked or streaming (the demand probe)."""
        with self._lock:
            return len(self._by_key.get(key, ()))

    def subscriber_counts(self) -> dict[str, int]:
        """Live records by transport (for per-transport stats)."""
        counts: dict[str, int] = {}
        with self._lock:
            for bucket in self._by_key.values():
                for record in bucket.values():
                    counts[record.transport] = counts.get(record.transport, 0) + 1
        return counts

    def stats(self) -> dict:
        """Lifetime counters plus current parked count (for /api/v1/stats)."""
        return {
            "parked": self.pending(),
            "subscribers": self.subscribers(),
            "registered_total": self.registered_total,
            "notified_total": self.notified_total,
            "expired_total": self.expired_total,
            "subscribed_total": self.subscribed_total,
            "pushed_total": self.pushed_total,
        }
