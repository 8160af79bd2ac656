"""Shared machinery: the server under test, the measured window, the envelope.

Server, executor and load generator share one process (every bench in
this repository does); the generator is the main thread alone.  The serving
stack is built exactly as a user builds it: ``AjaxWebServer`` and
``SessionManager`` with their defaults.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench.reference import NOMINAL_S, kernel
from repro.costmodel.calibration import default_calibration
from repro.net.testbed import build_paper_testbed
from repro.steering.central_manager import CentralManager
from repro.steering.client import SteeringClient
from repro.web.server import AjaxWebServer

__all__ = ["BENCH_DIR", "REPO_ROOT", "Recorder", "Testbed", "envelope",
           "percentile", "quartiles", "summarize", "trimmed_mean"]

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
API = "/api/v1"

#: The measured window is cut into this many equal time slices; a slice far
#: from the run's median marks the run as disturbed (reported, never used
#: to filter).
BLOCKS = 12
DISTURBED_SHARE = 0.25
#: Seconds of operations between two passes of the reference kernel.
REFERENCE_EVERY = 0.5


class Testbed:
    """The paper's testbed behind a live ``AjaxWebServer`` on loopback."""

    def __init__(self, calibration=None) -> None:
        topology, roles = build_paper_testbed(with_cross_traffic=False)
        started = time.perf_counter()
        self.calibration = (calibration if calibration is not None
                            else default_calibration(0))
        self.calibration_s = time.perf_counter() - started
        self.cm = CentralManager(topology, roles, calibration=self.calibration)
        self.client = SteeringClient(self.cm)
        self.manager = self.client.manager
        self.server = AjaxWebServer(self.client, port=0).start()
        self.port = self.server.port

    def close(self) -> None:
        self.client.stop_all()
        self.server.stop()


class Recorder:
    """Timings of the two operation classes inside one measured window.

    The collector is frozen and switched off for the window: a collection
    pause would land on whichever operation happened to allocate.

    Between operations the workload calls :meth:`reference` whenever
    :meth:`reference_due` says so (``steer_live`` does so from the session's
    thread, at a publish); the kernel's own wall and CPU time are excluded
    from the window.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)
        self.updates: list[tuple[float, float, bool]] = []  # (done, ms, ok)
        self.actions: list[tuple[float, float, bool]] = []
        # One mark per pass of the reference kernel, excluded from the window:
        # (wall before, wall after, cpu before, cpu after).
        self.marks: list[tuple[float, float, float, float]] = []
        self._conns: list = []

    def begin(self, conns: list) -> None:
        self._conns = conns
        gc.collect()
        gc.freeze()
        gc.disable()
        self.load_start = os.getloadavg()
        self._rx0 = sum(c.rx_bytes for c in conns)
        self._cpu0 = time.process_time()
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + self.seconds
        self._next_reference = self.t0  # the first pass is due at once

    def running(self) -> bool:
        return time.perf_counter() < self.deadline

    def reference_due(self) -> bool:
        return time.perf_counter() >= self._next_reference

    def reference(self) -> None:
        """Time the reference kernel once, outside the measured window."""
        cpu = time.process_time()
        started = time.perf_counter()
        kernel()
        now = time.perf_counter()
        self.marks.append((started - self.t0, now - self.t0,
                           cpu, time.process_time()))
        self._next_reference = now + REFERENCE_EVERY

    def update(self, started: float, done: float, ok: bool) -> None:
        self.updates.append((done - self.t0, (done - started) * 1e3, ok))

    def action(self, started: float, done: float, ok: bool) -> None:
        self.actions.append((done - self.t0, (done - started) * 1e3, ok))

    def end(self) -> None:
        if not self.marks:  # a window too short for the workload to ask
            self.reference()
        self.span = time.perf_counter() - self.t0
        self.wall = self.span - sum(m[1] - m[0] for m in self.marks)
        self.cpu = (time.process_time() - self._cpu0
                    - sum(m[3] - m[2] for m in self.marks))
        self.rx_bytes = sum(c.rx_bytes for c in self._conns) - self._rx0
        self.load_end = os.getloadavg()
        gc.enable()
        gc.unfreeze()


def trimmed_mean(values: list[float]) -> float:
    """The mean without the highest and the lowest tenth of the values.

    A pass of the reference kernel that the scheduler happened to interrupt
    would otherwise count thirty-fold (the kernel runs 3 % of the time).
    """
    cut = len(values) // 10
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of values already sorted."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _timing(samples: list[tuple[float, float, bool]], wall: float) -> dict:
    """Median, tail diagnostics and per-block medians of one op class."""
    ok = [(done, ms) for done, ms, good in samples if good]
    values = sorted(ms for _, ms in ok)
    blocks: list[list[float]] = [[] for _ in range(BLOCKS)]
    for done, ms in ok:
        blocks[min(BLOCKS - 1, int(done / wall * BLOCKS))].append(ms)
    return {
        "samples": len(values),
        "p50": statistics.median(values) if values else float("nan"),
        "p90": percentile(values, 0.90) if values else float("nan"),
        "p99": percentile(values, 0.99) if values else float("nan"),
        "quartiles": quartiles(values),
        "block_p50": [statistics.median(b) if b else None for b in blocks],
        "block_samples": [len(b) for b in blocks],
    }


def _off_median(values: list, centre: float) -> bool:
    return any(v is not None and abs(v - centre) > DISTURBED_SHARE * centre
               for v in values)


def summarize(rec: Recorder) -> dict:
    """The end-to-end metrics of one window plus its diagnostics.

    Timings are reported at reference speed (``bench/reference.py``): the two
    medians are scaled by the median time of the reference kernel, the rate
    and the CPU cost (totals over the window, so means) by its mean time.
    Each keeps the value as measured under ``raw``.
    """
    attempted = {"update": len(rec.updates), "action": len(rec.actions)}
    failed = {
        "update": sum(1 for *_, ok in rec.updates if not ok),
        "action": sum(1 for *_, ok in rec.actions if not ok),
    }
    done = attempted["update"] - failed["update"]
    update = _timing(rec.updates, rec.span)
    action = _timing(rec.actions, rec.span)
    rate = done / rec.wall
    cpu_ms = rec.cpu * 1e3 / max(done, 1)
    block_rate = [n * BLOCKS / rec.span for n in update["block_samples"]]
    reference_s = [m[1] - m[0] for m in rec.marks]
    speed = NOMINAL_S / statistics.median(reference_s)
    mean_speed = NOMINAL_S / trimmed_mean(reference_s)
    metrics = {
        "updates_per_s": {"value": rate / mean_speed, "unit": "1/s", "raw": rate},
        "update_ms_p50": {"value": update["p50"] * speed, "unit": "ms",
                          "raw": update["p50"], "samples": update["samples"]},
        "action_ms_p50": {"value": action["p50"] * speed, "unit": "ms",
                          "raw": action["p50"], "samples": action["samples"]},
        "cpu_ms_per_update": {"value": cpu_ms * mean_speed, "unit": "ms",
                              "raw": cpu_ms},
        "wire_bytes_per_update": {"value": rec.rx_bytes / max(done, 1), "unit": "B"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"},
    }
    return {
        "metrics": metrics,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failed_ops_share": sum(failed.values()) / max(sum(attempted.values()), 1),
        "host_speed": {"median": speed, "mean": mean_speed},
        "reference_ms": {"samples": len(reference_s),
                         "quartiles": [q * 1e3 for q in quartiles(reference_s)]},
        "measured_wall_s": rec.wall,
        "measured_cpu_s": rec.cpu,
        "update_ms": update,
        "action_ms": action,
        "block_updates_per_s": block_rate,
        "disturbed": (_off_median(block_rate, statistics.median(block_rate))
                      or _off_median(update["block_p50"], update["p50"])),
        "loadavg_start": rec.load_start,
        "loadavg_end": rec.load_end,
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess, no parents)."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in (REPO_ROOT / "src").rglob("*.py"))


def envelope(workload: str, seed: int, seconds: float, sizes: dict) -> dict:
    """What every run's JSON says about where and how it was measured."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "sizes": sizes,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "src_lines": _src_lines(),
    }
