"""Time-series capture of every counter surface the server exposes.

:class:`MetricsRecorder` turns the nested ``/api/v1/stats`` payload into
flat dotted series (``transports.ws.bytes_sent``, ``executor.
executor_queue_depth``, ``tiers.2`` ...) plus psutil-style process
diagnostics sourced from ``/proc`` and the stdlib — the container bakes
no third-party packages, so RSS/CPU/FD/thread gauges are read directly
from ``/proc/self`` with a ``resource`` fallback on non-Linux hosts.

Capture costs **zero new threads**: the IO loop's existing housekeeping
tick calls :meth:`MetricsRecorder.sample`, which appends to per-series
in-memory ring buffers and (optionally) enqueues the same rows on an
:class:`~repro.obs.store.ObsStore` whose single writer thread owns all
SQLite traffic.  :meth:`history` answers the dashboard's windowed
queries from the rings and transparently stitches in older rows from
SQLite, so a restarted server resumes its history instead of starting a
blank chart.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

__all__ = ["MetricsRecorder", "SeriesRing", "flatten_stats",
           "process_diagnostics"]


class SeriesRing:
    """Bounded in-memory history of one series: (ts, value) pairs."""

    __slots__ = ("points",)

    def __init__(self, capacity: int) -> None:
        self.points: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, ts: float, value: float) -> None:
        self.points.append((ts, value))

    def window(self, since: float = 0.0) -> list[tuple[float, float]]:
        return [p for p in self.points if p[0] >= since]


def flatten_stats(stats: dict, prefix: str = "",
                  out: dict[str, float] | None = None) -> dict[str, float]:
    """Flatten a nested stats payload into dotted numeric series.

    Dicts recurse with ``parent.child`` names; lists index as
    ``parent.N`` (the per-tier gauge); bools
    coerce to 0/1; strings and ``None`` are skipped — a counter surface
    is numbers, everything else is labels.
    """
    if out is None:
        out = {}
    for key, value in stats.items():
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            out[name] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            out[name] = float(value)
        elif isinstance(value, dict):
            flatten_stats(value, name + ".", out)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, bool):
                    out[f"{name}.{i}"] = 1.0 if item else 0.0
                elif isinstance(item, (int, float)):
                    out[f"{name}.{i}"] = float(item)
                elif isinstance(item, dict):
                    flatten_stats(item, f"{name}.{i}.", out)
    return out


_PAGE_SIZE = 4096
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):
    pass


def process_diagnostics() -> dict[str, float]:
    """RSS / CPU / FD / thread gauges without psutil.

    Linux reads ``/proc/self``; elsewhere the ``resource`` module
    supplies a peak-RSS approximation and CPU time comes from
    ``os.times()`` everywhere.  Missing sources are simply omitted —
    the recorder never fails a housekeeping tick over a diagnostic.
    """
    out: dict[str, float] = {"threads": float(threading.active_count())}
    times = os.times()
    out["cpu_seconds"] = times.user + times.system
    try:
        with open("/proc/self/statm", "rb") as fh:
            out["rss_bytes"] = float(
                int(fh.read().split()[1]) * _PAGE_SIZE)
    except (OSError, ValueError, IndexError):
        try:
            import resource
            # ru_maxrss is KiB on Linux, bytes on macOS; either way it
            # is a usable high-water mark when /proc is unavailable.
            out["rss_bytes"] = float(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
        except Exception:
            pass
    try:
        out["open_fds"] = float(len(os.listdir("/proc/self/fd")))
    except OSError:
        pass
    return out


class MetricsRecorder:
    """Ring-buffered (and optionally SQLite-drained) stats sampler."""

    def __init__(
        self,
        store=None,
        ring_capacity: int = 512,
        min_interval: float = 0.0,
        process_diag: bool = True,
    ) -> None:
        self.store = store
        self.ring_capacity = int(ring_capacity)
        self.min_interval = float(min_interval)
        self.process_diag = bool(process_diag)
        self._lock = threading.Lock()
        self._rings: dict[str, SeriesRing] = {}
        self._last_sample = 0.0
        self.samples_taken = 0
        self.sample_cost_ms = 0.0  # EWMA of capture cost, observability on itself

    # -- capture (called from the IO loop's housekeeping tick) ------------------

    def sample(self, stats: dict, wall: float | None = None) -> int:
        """Record one flattened snapshot; returns series touched (0 if
        rate-limited by ``min_interval``)."""
        start = time.monotonic()
        ts = time.time() if wall is None else wall
        if self.min_interval and ts - self._last_sample < self.min_interval:
            return 0
        self._last_sample = ts
        flat = flatten_stats(stats)
        if self.process_diag:
            for key, value in process_diagnostics().items():
                flat[f"proc.{key}"] = value
        with self._lock:
            for name, value in flat.items():
                ring = self._rings.get(name)
                if ring is None:
                    ring = self._rings[name] = SeriesRing(self.ring_capacity)
                ring.append(ts, value)
            self.samples_taken += 1
            cost_ms = (time.monotonic() - start) * 1000.0
            self.sample_cost_ms = (
                cost_ms if self.samples_taken == 1
                else 0.8 * self.sample_cost_ms + 0.2 * cost_ms)
        if self.store is not None:
            self.store.enqueue_samples(
                [(name, ts, value) for name, value in flat.items()])
        return len(flat)

    # -- queries -----------------------------------------------------------------

    def series_names(self) -> list[str]:
        with self._lock:
            names = set(self._rings)
        if self.store is not None:
            names.update(self.store.series_names())
        return sorted(names)

    def history(
        self,
        series: list[str] | None = None,
        since: float = 0.0,
        step: float = 0.0,
        limit: int = 2000,
    ) -> dict[str, list[list[float]]]:
        """Windowed (optionally downsampled) points per requested series.

        Ring contents answer the hot window; when ``since`` reaches back
        past the ring's oldest retained point and a SQLite store is
        attached, the older prefix is read from disk — this is what lets
        a restarted server's dashboard resume its charts.
        """
        names = series if series else self.series_names()
        out: dict[str, list[list[float]]] = {}
        for name in names:
            with self._lock:
                ring = self._rings.get(name)
                points = ring.window(since) if ring is not None else []
                ring_start = (ring.points[0][0]
                              if ring is not None and ring.points else None)
            if self.store is not None and (
                ring_start is None or since < ring_start
            ):
                until = ring_start  # avoid double-counting the ring window
                disk = self.store.read_samples(name, since, until)
                points = disk + points
            if step > 0.0 and points:
                bucketed: dict[int, tuple[float, float]] = {}
                for ts, value in points:
                    bucketed[int(ts // step)] = (ts, value)
                points = [bucketed[b] for b in sorted(bucketed)]
            if len(points) > limit:
                points = points[-limit:]
            out[name] = [[ts, value] for ts, value in points]
        return out

    def stats(self) -> dict:
        with self._lock:
            return {
                "samples_taken": self.samples_taken,
                "series": len(self._rings),
                "sample_cost_ms": round(self.sample_cost_ms, 3),
            }
