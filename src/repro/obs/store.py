"""WAL-mode SQLite persistence for metrics samples and session journals.

One :class:`ObsStore` owns one database file and exactly **one** writer
thread.  Producers (the metrics recorder sampling on the IO loop's
housekeeping tick, the session journal's publish tap) never touch
SQLite — they enqueue plain tuples on a lock-free queue and return, so
capture stays on the serving plane's existing threads.  The writer
drains the queue in batched transactions, enforcing the retention caps
(row cap for time-series samples, byte-budget LRU for image blobs) that
keep the file bounded exactly like the BENCH artifact discipline keeps
repo artifacts bounded.

Reads open short-lived read-only connections per call — WAL mode lets
them proceed concurrently with the writer — and are expected to run on
the web tier's worker pool, never on the IO loop.

A JSON sidecar (``<db>.meta.json``) records the schema version and
retention configuration via the fsync-hardened atomic writer shared
with the benchmark artifacts.
"""

from __future__ import annotations

import json
import os
import queue
import sqlite3
import threading
import time

from repro.errors import WebServerError

from .atomic import atomic_write_json

__all__ = ["ObsStore"]

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS samples (
    series TEXT NOT NULL,
    ts     REAL NOT NULL,
    value  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_samples_series_ts ON samples (series, ts);
CREATE TABLE IF NOT EXISTS journal_events (
    sid       TEXT    NOT NULL,
    seq       INTEGER NOT NULL,
    ts        REAL    NOT NULL,
    kind      TEXT    NOT NULL,
    component TEXT    NOT NULL,
    cycle     INTEGER NOT NULL,
    props     TEXT    NOT NULL,
    digest    TEXT,
    PRIMARY KEY (sid, seq)
);
CREATE TABLE IF NOT EXISTS journal_blobs (
    digest    TEXT PRIMARY KEY,
    blob      BLOB NOT NULL,
    nbytes    INTEGER NOT NULL,
    last_used REAL NOT NULL
);
"""


class _Barrier:
    """A flush marker: the writer sets the event once it is applied."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class ObsStore:
    """Single-writer SQLite store for samples, journal rows and blobs."""

    def __init__(
        self,
        path: str | os.PathLike,
        retention_rows: int = 500_000,
        blob_budget_bytes: int = 64 * 1024 * 1024,
        batch_max: int = 1024,
    ) -> None:
        if retention_rows < 1 or blob_budget_bytes < 1:
            raise WebServerError("obs store retention caps must be >= 1")
        self.path = os.fspath(path)
        self.retention_rows = int(retention_rows)
        self.blob_budget_bytes = int(blob_budget_bytes)
        self.batch_max = int(batch_max)
        self._q: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._closed = False
        # Writer-thread-owned counters, mirrored for stats() under _lock.
        self.rows_written = 0
        self.events_written = 0
        self.blobs_written = 0
        self.blob_evictions = 0
        self.samples_pruned = 0
        self.batches = 0
        self.write_errors = 0
        # Create the schema synchronously so reads that race the first
        # write (or arrive on a fresh restart before any sample lands)
        # see the tables instead of a missing file.
        conn = self._connect()
        try:
            conn.executescript(_SCHEMA)
            conn.commit()
        finally:
            conn.close()
        atomic_write_json(self.path + ".meta.json", {
            "schema_version": SCHEMA_VERSION,
            "retention_rows": self.retention_rows,
            "blob_budget_bytes": self.blob_budget_bytes,
        })

    # -- connections -------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=10.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    # -- producer API (any thread; never blocks on SQLite) -----------------------

    def enqueue_samples(self, rows: list[tuple[str, float, float]]) -> None:
        """Queue ``(series, ts, value)`` rows for the writer thread."""
        if self._closed:
            return
        self._q.put(("samples", rows))
        self._ensure_thread()

    def enqueue_event(self, sid: str, row: dict) -> None:
        """Queue one journal event row (``row`` as built by the journal)."""
        if self._closed:
            return
        self._q.put(("event", sid, row))
        self._ensure_thread()

    def enqueue_blob(self, digest: str, blob: bytes) -> None:
        """Queue one content-addressed image blob."""
        if self._closed:
            return
        self._q.put(("blob", digest, blob))
        self._ensure_thread()

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until everything queued before this call is committed."""
        if self._closed:
            return True
        barrier = _Barrier()
        self._q.put(("flush", barrier))
        self._ensure_thread()
        return barrier.event.wait(timeout)

    def _ensure_thread(self) -> None:
        if self._thread is not None:
            return
        with self._lock:
            if self._thread is None and not self._closed:
                self._thread = threading.Thread(
                    target=self._writer_loop, name="obs-writer", daemon=True
                )
                self._thread.start()

    # -- the single writer thread ------------------------------------------------

    def _writer_loop(self) -> None:
        conn = self._connect()
        try:
            sample_rows = conn.execute(
                "SELECT COUNT(*) FROM samples").fetchone()[0]
            blob_bytes = conn.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM journal_blobs"
            ).fetchone()[0]
            while True:
                try:
                    op = self._q.get(timeout=0.5)
                except queue.Empty:
                    if self._closed:
                        break
                    continue
                batch = [op]
                while len(batch) < self.batch_max:
                    try:
                        batch.append(self._q.get_nowait())
                    except queue.Empty:
                        break
                barriers: list[_Barrier] = []
                stop = False
                try:
                    now = time.time()
                    for item in batch:
                        kind = item[0]
                        if kind == "samples":
                            conn.executemany(
                                "INSERT INTO samples (series, ts, value) "
                                "VALUES (?, ?, ?)", item[1])
                            sample_rows += len(item[1])
                            self.rows_written += len(item[1])
                        elif kind == "event":
                            _, sid, row = item
                            conn.execute(
                                "INSERT OR REPLACE INTO journal_events "
                                "(sid, seq, ts, kind, component, cycle, "
                                " props, digest) "
                                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                                (sid, row["seq"], row["ts"], row["kind"],
                                 row["component"], row["cycle"],
                                 json.dumps(row["props"]), row["digest"]))
                            self.events_written += 1
                        elif kind == "blob":
                            _, digest, blob = item
                            cur = conn.execute(
                                "UPDATE journal_blobs SET last_used = ? "
                                "WHERE digest = ?", (now, digest))
                            if cur.rowcount == 0:
                                conn.execute(
                                    "INSERT INTO journal_blobs "
                                    "(digest, blob, nbytes, last_used) "
                                    "VALUES (?, ?, ?, ?)",
                                    (digest, blob, len(blob), now))
                                blob_bytes += len(blob)
                                self.blobs_written += 1
                        elif kind == "flush":
                            barriers.append(item[1])
                        elif kind == "stop":
                            stop = True
                    # Retention inside the same transaction: the caps
                    # hold at every commit point, not eventually.
                    if sample_rows > self.retention_rows:
                        excess = sample_rows - self.retention_rows
                        conn.execute(
                            "DELETE FROM samples WHERE rowid IN ("
                            "SELECT rowid FROM samples ORDER BY ts "
                            "LIMIT ?)", (excess,))
                        sample_rows -= excess
                        self.samples_pruned += excess
                    while blob_bytes > self.blob_budget_bytes:
                        victim = conn.execute(
                            "SELECT digest, nbytes FROM journal_blobs "
                            "ORDER BY last_used LIMIT 1").fetchone()
                        if victim is None:
                            break
                        conn.execute(
                            "DELETE FROM journal_blobs WHERE digest = ?",
                            (victim[0],))
                        blob_bytes -= victim[1]
                        self.blob_evictions += 1
                    conn.commit()
                    self.batches += 1
                except sqlite3.Error:
                    self.write_errors += 1
                    try:
                        conn.rollback()
                    except sqlite3.Error:
                        pass
                for barrier in barriers:
                    barrier.event.set()
                if stop:
                    break
        finally:
            try:
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass
            conn.close()

    # -- reader API (any thread; short-lived connections) ------------------------

    def read_samples(
        self,
        series: str,
        since: float = 0.0,
        until: float | None = None,
        limit: int = 100_000,
    ) -> list[tuple[float, float]]:
        conn = self._connect()
        try:
            if until is None:
                cur = conn.execute(
                    "SELECT ts, value FROM samples "
                    "WHERE series = ? AND ts >= ? ORDER BY ts LIMIT ?",
                    (series, since, limit))
            else:
                cur = conn.execute(
                    "SELECT ts, value FROM samples "
                    "WHERE series = ? AND ts >= ? AND ts < ? "
                    "ORDER BY ts LIMIT ?",
                    (series, since, until, limit))
            return [(row[0], row[1]) for row in cur]
        finally:
            conn.close()

    def series_names(self) -> list[str]:
        conn = self._connect()
        try:
            cur = conn.execute("SELECT DISTINCT series FROM samples")
            return sorted(row[0] for row in cur)
        finally:
            conn.close()

    def read_events(self, sid: str) -> list[dict]:
        conn = self._connect()
        try:
            cur = conn.execute(
                "SELECT seq, ts, kind, component, cycle, props, digest "
                "FROM journal_events WHERE sid = ? ORDER BY seq", (sid,))
            return [
                {"seq": row[0], "ts": row[1], "kind": row[2],
                 "component": row[3], "cycle": row[4],
                 "props": json.loads(row[5]), "digest": row[6]}
                for row in cur
            ]
        finally:
            conn.close()

    def read_blob(self, digest: str) -> bytes | None:
        conn = self._connect()
        try:
            row = conn.execute(
                "SELECT blob FROM journal_blobs WHERE digest = ?",
                (digest,)).fetchone()
            return bytes(row[0]) if row is not None else None
        finally:
            conn.close()

    def journal_sids(self) -> list[str]:
        conn = self._connect()
        try:
            cur = conn.execute("SELECT DISTINCT sid FROM journal_events")
            return sorted(row[0] for row in cur)
        finally:
            conn.close()

    # -- lifecycle ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "rows_written": self.rows_written,
            "events_written": self.events_written,
            "blobs_written": self.blobs_written,
            "blob_evictions": self.blob_evictions,
            "samples_pruned": self.samples_pruned,
            "batches": self.batches,
            "write_errors": self.write_errors,
            "writer_threads": 1 if self._thread is not None else 0,
        }

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        thread = self._thread
        if thread is not None:
            self._q.put(("stop",))
            thread.join(timeout)
