"""Server side of the sliding window: cursor registry + brick cache.

:class:`WindowedDomainSource` wraps an :class:`~repro.data.octree.Octree`
and answers the three questions the web tier asks:

* which bricks does window ``W`` intersect, newer than sequence ``S``?
  (:meth:`bricks_for` — drives the ``bricks`` list in event deltas),
* give me brick ``(lod, index)``'s payload bytes (:meth:`payload` —
  encode-once through a byte-budget LRU shared by every client),
* client ``wid`` moved its cursor (:meth:`set_cursor` — records the pan
  direction and prefetch-encodes the bricks the *next* pan step will
  reveal, so steady pans hit warm cache).

Thread safety: one :class:`threading.RLock` guards all state.  The
event store calls :meth:`mark_step` while holding its own condition
lock, so the global lock order is ``store._cond -> source._lock``; this
module never calls back into the store, which keeps that order acyclic.
"""

from __future__ import annotations

import threading

from repro.data.octree import Brick, Octree
from repro.errors import ConfigurationError
from repro.lru import ByteBudgetLRU
from repro.window.bricks import brick_payload_bytes, encode_brick_payload
from repro.window.cursor import WindowCursor

__all__ = ["BrickCache", "MAX_WINDOWS", "WindowedDomainSource"]

# Windows one source remembers; past it the least recently used goes.
MAX_WINDOWS = 1024


class BrickCache:
    """Byte-budget LRU of encoded brick payloads with prefetch accounting.

    One entry per brick ``key``, holding the payload of one ``version``:
    a fetch asks for the brick's current version, so putting a newer
    version replaces the entry instead of leaving the old payload to
    take budget from live bricks until LRU eviction.  A get for any
    other version than the held one is a miss.

    Entries carry a ``prefetched`` flag; when a real fetch lands on a
    flagged entry it counts as one prefetch hit and the flag clears, so
    ``prefetch_hits / prefetch_issued`` is the fraction of speculative
    encodes that later saved a client a cold encode.
    """

    def __init__(self, max_bytes: int = 32 << 20) -> None:
        if max_bytes < 1:
            raise ConfigurationError("brick cache budget must be >= 1 byte")
        self.max_bytes = max_bytes
        # key -> [version, bytes, prefetched]
        self._entries = ByteBudgetLRU(max_bytes, size=lambda entry: len(entry[1]))
        self.hits = 0
        self.misses = 0
        self.prefetch_issued = 0
        self.prefetch_hits = 0

    bytes = property(lambda self: self._entries.bytes)
    evictions = property(lambda self: self._entries.evictions)

    def get(self, key: tuple, version: int) -> bytes | None:
        entry = self._entries.peek(key)
        if entry is None or entry[0] != version:
            self.misses += 1  # a version mismatch leaves recency alone
            return None
        self._entries.get(key)  # a hit is now the most recently used
        self.hits += 1
        if entry[2]:
            self.prefetch_hits += 1
            entry[2] = False
        return entry[1]

    def put(self, key: tuple, version: int, payload: bytes, *,
            prefetched: bool = False) -> None:
        if self.holds(key, version):
            return
        # A superseded version is replaced: nothing asks for it again.
        self._entries.put(key, [version, payload, prefetched])
        if prefetched:
            self.prefetch_issued += 1

    def holds(self, key: tuple, version: int) -> bool:
        """Whether ``key``'s entry is the payload of ``version``."""
        entry = self._entries.peek(key)
        return entry is not None and entry[0] == version

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        issued = self.prefetch_issued
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "prefetch_issued": issued,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_hit_rate": (self.prefetch_hits / issued) if issued else 0.0,
        }


class WindowedDomainSource:
    """Sliding-window view over one octree, shared by all its clients."""

    def __init__(
        self,
        octree: Octree,
        *,
        cache_bytes: int = 32 << 20,
        prefetch_limit: int = 64,
    ) -> None:
        self.octree = octree
        self.cache = BrickCache(cache_bytes)
        self.prefetch_limit = prefetch_limit
        self._lock = threading.RLock()
        # wid -> (cursor, its last non-zero pan vector or None).  A wid is
        # whatever a client sends, so the registry is bounded: the least
        # recently used window is forgotten and reads as an unknown wid.
        self._windows = ByteBudgetLRU(max_entries=MAX_WINDOWS, size=lambda _: 0)
        # (lod, index) -> newest publish seq whose step touched the brick.
        self._versions: dict[tuple[int, int], int] = {}
        self._base_version = 0

    # -- cursors -----------------------------------------------------------------

    def clamp(self, cursor: WindowCursor) -> WindowCursor:
        """``cursor`` at an LOD the octree has: what :meth:`set_cursor` stores."""
        return cursor.with_lod(self.octree.clamp_lod(cursor.lod))

    def set_cursor(self, wid: str, cursor: WindowCursor) -> list[dict]:
        """Register/move ``wid``'s window; returns the announce list of
        bricks the new window intersects (so a panning client learns
        newly visible bricks without waiting for a publish)."""
        cursor = self.clamp(cursor)
        with self._lock:
            prev, pan = self._windows.peek(wid, (None, None))
            delta = None
            if prev is not None and prev.lod == cursor.lod:
                delta = tuple(n - p for n, p in zip(cursor.lo, prev.lo))
                if any(delta):
                    pan = delta
                else:
                    delta = pan
            self._windows.put(wid, (cursor, pan))
            metas = [self._meta(b) for b in self._bricks_in(cursor.key())]
            if delta is not None and any(delta):
                self._prefetch_locked(cursor, delta)
        return metas

    def cursor(self, wid: str) -> WindowCursor | None:
        """``wid``'s cursor (now its most recently used window), or None."""
        with self._lock:
            held = self._windows.get(wid)
        return None if held is None else held[0]

    def window_key(self, wid: str, lod_bias: int = 0) -> tuple | None:
        """Canonical cache key for ``wid``'s window, optionally coarsened
        by ``lod_bias`` levels (the staleness-budget demotion path)."""
        cur = self.cursor(wid)
        if cur is None:
            return None
        return cur.with_lod(self.octree.clamp_lod(cur.lod + lod_bias)).key()

    # -- publish-side dirty stamping ----------------------------------------------

    def mark_step(self, version: int, box=None) -> None:
        """Stamp every brick (or those touching ``box``) dirty at
        ``version``.  Called by the event store *before* it appends the
        corresponding event, so any delta built after the head advances
        already sees the stamps."""
        with self._lock:
            for lod in range(self.octree.max_lod + 1):
                if box is None:
                    bricks = self.octree.bricks(lod)
                else:
                    bricks = self.octree.bricks_in(box[0], box[1], lod)
                for b in bricks:
                    self._versions[(lod, b.index)] = version

    # -- delta-side queries --------------------------------------------------------

    def bricks_for(self, window_key: tuple, since: int) -> list[dict]:
        """Announce list: bricks in the window newer than ``since``."""
        with self._lock:
            return [
                self._meta(b)
                for b in self._bricks_in(window_key)
                if self._version(b) > since
            ]

    def window_bytes(self, window_key: tuple) -> int:
        """Total on-wire payload bytes of the window's bricks."""
        with self._lock:
            return sum(brick_payload_bytes(b) for b in self._bricks_in(window_key))

    def payload(self, lod: int, index: int) -> bytes:
        """Encoded payload for brick ``(lod, index)`` at its current
        version — encode-once via the shared cache."""
        with self._lock:
            brick = self._brick(lod, index)
            key = (brick.lod, brick.index)
            version = self._version(brick)
            cached = self.cache.get(key, version)
            if cached is not None:
                return cached
            payload = encode_brick_payload(
                brick, self.octree.brick_values(brick), version
            )
            self.cache.put(key, version, payload)
            return payload

    # -- internals -----------------------------------------------------------------

    def _bricks_in(self, window_key: tuple) -> list[Brick]:
        lo, hi, lod = window_key
        return self.octree.bricks_in(lo, hi, lod)

    def _brick(self, lod: int, index: int) -> Brick:
        if lod < 0 or lod > self.octree.max_lod:
            raise ConfigurationError(f"lod {lod} outside 0..{self.octree.max_lod}")
        bricks = self.octree.bricks(lod)
        if index < 0 or index >= len(bricks):
            raise ConfigurationError(f"brick {index} outside 0..{len(bricks) - 1}")
        return bricks[index]

    def _version(self, brick: Brick) -> int:
        return self._versions.get((brick.lod, brick.index), self._base_version)

    def _meta(self, brick: Brick) -> dict:
        return {
            "lod": brick.lod,
            "brick": brick.index,
            "offset": list(brick.offset),
            "shape": list(brick.shape),
            "step": brick.step,
            "version": self._version(brick),
            "bytes": brick_payload_bytes(brick),
        }

    def _prefetch_locked(self, cursor: WindowCursor, delta) -> None:
        """Speculatively encode the bricks one more pan step will reveal."""
        ahead = cursor.shifted(delta)
        issued = 0
        for brick in self._bricks_in(ahead.key()):
            if issued >= self.prefetch_limit:
                break
            key = (brick.lod, brick.index)
            version = self._version(brick)
            if self.cache.holds(key, version):
                continue
            payload = encode_brick_payload(
                brick, self.octree.brick_values(brick), version
            )
            self.cache.put(key, version, payload, prefetched=True)
            issued += 1

    def stats(self) -> dict:
        with self._lock:
            out = self.cache.stats()
            out["windows"] = len(self._windows)
            out["max_lod"] = self.octree.max_lod
        return out
