"""One bounded LRU map for every in-memory cache of the serving tier.

"Evict the least recently used until under budget, but never the entry
just put" is written here once.  A caller keeps only its own accounting
(a frame's savings, a brick's version and prefetch flag, a journal
digest) in the value it stores.

The map takes no lock: every caller already holds its own around it.
"""

from __future__ import annotations

import math
from collections import OrderedDict

__all__ = ["ByteBudgetLRU"]


class ByteBudgetLRU:
    """LRU map bounded by total value size, entry count, or both.

    ``size(value)`` is read once, when the value is put, so ``bytes`` is
    the sum of the sizes the held values had when they were put (a value
    that grows in place, like a journal's row list, does not move it).
    A bound of ``None`` is no bound.  :meth:`put` evicts from the least
    recently used end until the map is within both bounds, but never the
    entry it just put — one oversized value is still held, alone.
    ``evictions`` counts the entries a bound reclaimed; :meth:`pop` and a
    replacing :meth:`put` are not evictions.
    """

    __slots__ = ("max_bytes", "max_entries", "_size", "_map", "bytes",
                 "evictions")

    def __init__(self, max_bytes: int | None = None,
                 max_entries: int | None = None, size=len) -> None:
        self.max_bytes = math.inf if max_bytes is None else max_bytes
        self.max_entries = math.inf if max_entries is None else max_entries
        self._size = size
        self._map: OrderedDict = OrderedDict()  # key -> (value, size at put)
        self.bytes = 0
        self.evictions = 0

    def get(self, key, default=None):
        """The value under ``key``, now the most recently used."""
        item = self._map.get(key)
        if item is None:
            return default
        self._map.move_to_end(key)
        return item[0]

    def peek(self, key, default=None):
        """The value under ``key``, its recency left as it was."""
        item = self._map.get(key)
        return default if item is None else item[0]

    def put(self, key, value) -> None:
        """Hold ``value`` as the most recently used, then evict."""
        old = self._map.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        nbytes = self._size(value)
        self._map[key] = (value, nbytes)
        self.bytes += nbytes
        while len(self._map) > 1 and (len(self._map) > self.max_entries
                                      or self.bytes > self.max_bytes):
            _, (_, evicted) = self._map.popitem(last=False)
            self.bytes -= evicted
            self.evictions += 1

    def pop(self, key, default=None):
        """Remove ``key``; its value, or ``default`` if it was not held."""
        item = self._map.pop(key, None)
        if item is None:
            return default
        self.bytes -= item[1]
        return item[0]

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self):
        """Keys, least recently used first."""
        return iter(self._map)
