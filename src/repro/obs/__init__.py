"""Durable ops tier: metrics history, session event journal, replay.

``/api/v1/stats`` is a point-in-time snapshot; this package is its memory.
:class:`Observability` bundles the three pieces the web tier wires up:

* :class:`~repro.obs.metrics.MetricsRecorder` — samples every counter
  surface into ring buffers on the IO loop's housekeeping tick (0 capture
  threads) with optional SQLite drain.
* :class:`~repro.obs.journal.SessionJournal` — taps every session's
  EventSequenceStore so finished/evicted sessions can be replayed
  through the full delta/long-poll/SSE/WS surface.
* :class:`~repro.obs.store.ObsStore` — one WAL-mode SQLite file, one
  writer thread, retention-capped, shared by both.

Construct with ``db_path=None`` for in-memory-only observability (rings
and journal caps still apply; nothing survives the process), or point
``db_path`` at a file to get restart-surviving metrics history and
replay.
"""

from __future__ import annotations

import os

from .atomic import atomic_write_bytes, atomic_write_json, merge_json_file
from .journal import SessionJournal
from .metrics import MetricsRecorder, flatten_stats, process_diagnostics
from .store import ObsStore

__all__ = [
    "Observability",
    "MetricsRecorder",
    "SessionJournal",
    "ObsStore",
    "atomic_write_bytes",
    "atomic_write_json",
    "merge_json_file",
    "flatten_stats",
    "process_diagnostics",
]


class Observability:
    """Facade bundling recorder + journal (+ optional SQLite store)."""

    def __init__(
        self,
        db_path: str | os.PathLike | None = None,
        ring_capacity: int = 512,
        sample_min_interval: float = 0.0,
        blob_budget_bytes: int = 32 * 1024 * 1024,
        retention_rows: int = 500_000,
        journal_event_cap: int = 4096,
        journal_session_cap: int = 64,
    ) -> None:
        self.store = (
            ObsStore(db_path, retention_rows=retention_rows,
                     blob_budget_bytes=blob_budget_bytes)
            if db_path is not None else None
        )
        self.recorder = MetricsRecorder(
            store=self.store,
            ring_capacity=ring_capacity,
            min_interval=sample_min_interval,
        )
        self.journal = SessionJournal(
            store=self.store,
            blob_budget_bytes=blob_budget_bytes,
            event_cap=journal_event_cap,
            session_cap=journal_session_cap,
        )

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until queued writes are committed (no-op without SQLite)."""
        if self.store is not None:
            return self.store.flush(timeout)
        return True

    def stats(self) -> dict:
        out = {
            "recorder": self.recorder.stats(),
            "journal": self.journal.stats(),
            "durable": self.store is not None,
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    def close(self, timeout: float = 10.0) -> None:
        if self.store is not None:
            self.store.close(timeout)

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
