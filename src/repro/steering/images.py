"""The image ring: the last few published frames and their encodings.

One of the three units of the event plane (the store is
:mod:`repro.steering.events`, the frame plane
:mod:`repro.steering.frames`).  A published image is encoded into its
fixed-size container exactly once, at publish time; every other encoding
— the downscaled containers the delivery tiers ship, the browser PNGs —
is derived lazily, once per (version, scale), from the same pixels: the
published ones, or, for a record a journal replay restored without them,
the inflated full container.  So a live record and its restored copy
serve the same bytes at every scale by construction.

The ring shares its owner's lock: ``*_locked`` methods expect the caller
to hold it, the others must be called without it — encodes happen here
and publishers must never wait behind one.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import DataFormatError, WebServerError
from repro.viz.image import Image, decode_fixed_size, encode_fixed_size

__all__ = ["ImageRecord", "ImageRing"]


class ImageRecord:
    """Cached encodings for one published image version.

    ``blob`` is the full-quality fixed-size container, encoded eagerly
    at publish time.  ``image`` retains the published pixels (None on a
    journal-restored record).  ``blobs`` / ``pngs`` map a linear
    downscale factor to the container / PNG at that scale, filled under
    ``lock`` on first use; ``blobs`` is seeded with ``{1: blob}``.
    Memory stays bounded by the ring's capacity: a retained record just
    carries its pixels and variants alongside its container.
    """

    __slots__ = ("seq", "cycle", "blob", "meta", "image", "blobs", "pngs", "lock")

    def __init__(self, seq: int, cycle: int, blob: bytes, meta: dict,
                 image: Image | None = None) -> None:
        self.seq = seq
        self.cycle = cycle
        self.blob = blob
        self.meta = meta
        self.image = image
        self.blobs: dict[int, bytes] = {1: blob}  # scale -> container
        self.pngs: dict[int, bytes] = {}  # scale -> PNG
        self.lock = threading.Lock()

    @property
    def version(self) -> int:
        """Image versions ARE event sequence numbers (the unified scheme)."""
        return self.seq


class ImageRing:
    """The newest ``capacity`` image records, oldest evicted first."""

    __slots__ = ("capacity", "file_size", "_lock", "_records",
                 "dropped_images", "tier_encode_count", "png_encode_count")

    def __init__(self, capacity: int, file_size: int, lock) -> None:
        if capacity < 1:
            raise WebServerError("image ring capacity must be >= 1")
        self.capacity = int(capacity)
        self.file_size = int(file_size)
        self._lock = lock
        self._records: deque[ImageRecord] = deque()
        self.dropped_images = 0
        self.tier_encode_count = 0
        self.png_encode_count = 0

    # -- the ring (caller holds the lock) ----------------------------------------

    def append_locked(self, seq: int, cycle: int, blob: bytes, meta: dict,
                      image: Image | None = None) -> None:
        """Retain version ``seq``; ``image=None`` is a journaled blob
        re-entering as-is (no pixels, no re-encode)."""
        self._records.append(ImageRecord(seq, cycle, blob, meta, image))
        while len(self._records) > self.capacity:
            self._records.popleft()
            self.dropped_images += 1

    def find_locked(self, version: int | None = None) -> ImageRecord | None:
        """The retained record for ``version`` (None: the newest), or
        None once it left the ring."""
        if version is None:
            return self._records[-1] if self._records else None
        for record in reversed(self._records):
            if record.seq == version:
                return record
        return None

    def record_locked(self, version: int | None = None) -> ImageRecord:
        """:meth:`find_locked`, raising for a record that is not there."""
        record = self.find_locked(version)
        if record is None:
            raise WebServerError(
                f"image version {version} no longer retained" if self._records
                else "no image yet")
        return record

    # -- variants (caller must NOT hold the lock) --------------------------------

    def _variant(self, record: ImageRecord, cache: dict[int, bytes], scale: int,
                 encode) -> bytes:
        """``cache[scale]``, encoded from the record's pixels on first
        use.  A hit takes no lock (entries are only added; a dict read is
        atomic): the IO loop serving the publish-time blob never waits
        behind a worker encoding another variant of the record."""
        data = cache.get(scale)
        if data is None:
            with record.lock:
                data = cache.get(scale)
                if data is None:
                    # A live record still holds the published pixels; only
                    # a journal-restored one inflates its container.
                    image = record.image
                    if image is None:
                        image = decode_fixed_size(record.blob)
                    data = cache[scale] = encode(record, image.downscale(scale), scale)
        return data

    def _container(self, record: ImageRecord, small: Image, scale: int) -> bytes:
        with self._lock:
            self.tier_encode_count += 1
        # A proportionally smaller container (file_size / scale**2),
        # grown toward file_size if a pathological payload does not
        # compress.
        size = max(1024, self.file_size // (scale * scale))
        while True:
            try:
                return encode_fixed_size(small, size)
            except DataFormatError:
                if size >= self.file_size:
                    return record.blob  # incompressible: serve full
                size = min(self.file_size, size * 2)

    def _png(self, record: ImageRecord, small: Image, scale: int) -> bytes:
        with self._lock:
            self.png_encode_count += 1
        return small.to_png_bytes()

    def blob(self, record: ImageRecord, scale: int = 1) -> bytes:
        """The fixed-size container at ``1/scale``: the publish-time
        blob at scale 1, a downscaled one encoded once per (version,
        scale) past it — tiers sharing a scale share the blob."""
        return self._variant(record, record.blobs, scale, self._container)

    def png(self, record: ImageRecord, scale: int = 1) -> bytes:
        """Browser PNG at ``1/scale``; encoded at most once per scale."""
        return self._variant(record, record.pngs, scale, self._png)

    def png_cached(self, record: ImageRecord, scale: int = 1) -> bytes | None:
        """The cached PNG, or None on a cold cache (no lock, as a hit
        in :meth:`_variant`: the IO loop asking never waits for the
        worker that is encoding it)."""
        return record.pngs.get(scale)
