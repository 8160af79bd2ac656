"""Executor-scaling experiment: session count vs process thread count.

Drives the full serving + publishing spine — SessionManager, the shared
SimulationExecutor and the non-blocking Ajax web server — with N
concurrent *stepping* sessions and records the peak process thread
count.  This is the publish-side twin of the web-concurrency
experiment: PR 1-2 decoupled client count from serving threads; the
shared executor decouples session count from simulation threads.

Sessions run as step-slices on the bounded executor pool; the peak
thread count must stay within ``baseline + 1 IO + web workers +
executor workers (+ slack)`` however many sessions step.

The executor counters are read over live HTTP (``GET /api/v1/stats``)
mid-run, so a cell also proves the monitoring surface works.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.costmodel.calibration import default_calibration
from repro.net.testbed import build_paper_testbed
from repro.steering.central_manager import CentralManager
from repro.steering.client import SteeringClient
from repro.steering.manager import SessionManager
from repro.web.server import AjaxWebServer

__all__ = [
    "BackendCompareCell",
    "BackendCompareResult",
    "ExecutorCell",
    "ExecutorScalingResult",
    "burn_cpu",
    "run_backend_compare",
    "run_executor_scaling",
]

SIM_KWARGS = {"shape": (8, 8, 8)}


@dataclass
class ExecutorCell:
    """One (mode, sessions) measurement; ``mode`` is always "executor"."""

    mode: str
    sessions: int
    cycles: int
    executor_workers: int
    web_workers: int
    baseline_threads: int
    max_threads: int
    thread_budget: int
    steps_executed: int
    sessions_completed: int
    deprioritized_steps: int
    max_queue_depth: int
    wall_seconds: float
    cycles_completed: int
    stats_http: dict = field(default_factory=dict)

    @property
    def extra_threads(self) -> int:
        """Peak threads beyond the quiesced baseline."""
        return self.max_threads - self.baseline_threads

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.__dataclass_fields__}
        out["extra_threads"] = self.extra_threads
        return out


@dataclass
class ExecutorScalingResult:
    cells: list[ExecutorCell] = field(default_factory=list)

    def cell(self, mode: str, sessions: int) -> ExecutorCell:
        for c in self.cells:
            if c.mode == mode and c.sessions == sessions:
                return c
        raise KeyError((mode, sessions))

    def to_dict(self) -> dict:
        return {
            "experiment": "executor_scaling",
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_table(self) -> str:
        lines = [
            "Shared simulation executor - sessions vs process threads",
            f"  {'mode':>10} {'sessions':>8} {'threads':>8} "
            f"{'extra':>6} {'budget':>7} {'steps':>7} {'depth':>6} "
            f"{'wall s':>7}",
        ]
        for c in self.cells:
            lines.append(
                f"  {c.mode:>10} {c.sessions:>8} "
                f"{c.max_threads:>8} {c.extra_threads:>6} {c.thread_budget:>7} "
                f"{c.steps_executed:>7} {c.max_queue_depth:>6} "
                f"{c.wall_seconds:>7.2f}"
            )
        return "\n".join(lines)


def _http_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request("GET", "/api/v1/stats")
        return json.loads(conn.getresponse().read().decode("utf-8"))
    finally:
        conn.close()


def run_executor_scaling(
    n_sessions: int = 50,
    cycles: int = 8,
    push_every: int = 4,
    executor_workers: int = 4,
    thread_slack: int = 2,
    cm: CentralManager | None = None,
) -> ExecutorCell:
    """Run one cell: N stepping sessions, peak-thread accounting.

    ``thread_budget`` is ``baseline + 1 IO thread + web workers +
    executor workers + thread_slack`` — the number the benchmark guard
    asserts the peak never exceeds.
    """
    if cm is None:
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        cm = CentralManager(topo, roles, calibration=default_calibration(0))
    baseline = threading.active_count()
    manager = SessionManager(
        cm,
        capacity=n_sessions + 8,
        executor_workers=executor_workers,
    )
    client = SteeringClient(cm, manager=manager)
    max_threads = baseline
    max_depth = 0
    stats_http: dict = {}

    def sample() -> None:
        nonlocal max_threads, max_depth
        max_threads = max(max_threads, threading.active_count())
        max_depth = max(max_depth, manager.executor_stats()["executor_queue_depth"])

    t0 = time.monotonic()
    with AjaxWebServer(client, port=0, housekeeping_interval=5.0) as server:
        budget = (
            baseline + 1 + server.workers + executor_workers + thread_slack
        )
        # Configure every session first, then start them together, so the
        # whole fleet is stepping concurrently when threads are sampled.
        sessions = [
            manager.create(
                f"sweep{i}",
                simulator="heat",
                sim_kwargs=dict(SIM_KWARGS),
                push_every=push_every,
            )
            for i in range(n_sessions)
        ]
        for session in sessions:
            session.start_background(cycles)
            sample()
        # Counters over live HTTP while the fleet is stepping.
        stats_http = _http_stats(server.port)
        sample()
        for session in sessions:
            while session.is_running():
                sample()
                time.sleep(0.01)
            session.join_background(timeout=120.0)
        sample()
        wall = time.monotonic() - t0
        executor_stats = manager.executor_stats()
        completed = sum(s.simulation.cycle for s in sessions)
        manager.close_all()
    return ExecutorCell(
        mode="executor",
        sessions=n_sessions,
        cycles=cycles,
        executor_workers=executor_workers,
        web_workers=AjaxWebServer.DEFAULT_WORKERS,
        baseline_threads=baseline,
        max_threads=max_threads,
        thread_budget=budget,
        steps_executed=executor_stats["steps_executed"],
        sessions_completed=executor_stats["sessions_completed"],
        deprioritized_steps=executor_stats["deprioritized_steps"],
        max_queue_depth=max_depth,
        wall_seconds=round(wall, 3),
        cycles_completed=completed,
        stats_http=stats_http,
    )


# ---------------------------------------------------------------------------
# Backend comparison: CPU-bound work on the threaded vs process executor.
# ---------------------------------------------------------------------------


def burn_cpu(n: int) -> int:
    """Pure-Python CPU-bound work unit (a 32-bit LCG walked ``n`` steps).

    Module-level so it pickles across the process executor's pipes; pure
    Python so it never releases the GIL — the workload where threads
    cannot scale and worker processes (one interpreter, one GIL each)
    can.
    """
    acc = 0
    for i in range(n):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return acc


@dataclass
class BackendCompareCell:
    """One executor backend's best-of-N wall time on a CPU-bound batch."""

    backend: str  # "thread" | "process"
    calls: int
    burn_iters: int
    workers: int
    wall_seconds: float
    worker_threads: int
    worker_processes: int

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class BackendCompareResult:
    calls: int
    burn_iters: int
    workers: int
    cells: list[BackendCompareCell] = field(default_factory=list)

    def cell(self, backend: str) -> BackendCompareCell:
        for c in self.cells:
            if c.backend == backend:
                return c
        raise KeyError(backend)

    @property
    def process_speedup(self) -> float:
        """Threaded wall time over process wall time (>1 = process wins)."""
        return self.cell("thread").wall_seconds / max(
            self.cell("process").wall_seconds, 1e-9
        )

    def to_dict(self) -> dict:
        return {
            "experiment": "executor_backend_compare",
            "calls": self.calls,
            "burn_iters": self.burn_iters,
            "workers": self.workers,
            # The speedup is only interpretable against the host's
            # parallelism: on one core both backends are bound by the
            # same cycles and the ratio hovers at ~1.0 by physics.
            "cpu_cores": os.cpu_count() or 1,
            "process_speedup": round(self.process_speedup, 3),
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_table(self) -> str:
        lines = [
            "Executor backends - CPU-bound batch, threads (one GIL) vs processes",
            f"  {'backend':>8} {'calls':>6} {'workers':>8} {'threads':>8} "
            f"{'procs':>6} {'wall s':>8}",
        ]
        for c in self.cells:
            lines.append(
                f"  {c.backend:>8} {c.calls:>6} {c.workers:>8} "
                f"{c.worker_threads:>8} {c.worker_processes:>6} "
                f"{c.wall_seconds:>8.3f}"
            )
        lines.append(f"  process speedup: {self.process_speedup:.2f}x")
        return "\n".join(lines)


def _time_backend(executor, calls: int, burn_iters: int) -> tuple[float, dict]:
    """Warm the pool, then time ``calls`` CPU-bound submissions to drain."""
    from functools import partial

    executor.submit_call(partial(burn_cpu, 1000), "warm").result(timeout=60.0)
    stats = executor.stats()
    t0 = time.monotonic()
    handles = [
        executor.submit_call(partial(burn_cpu, burn_iters), f"burn{i}")
        for i in range(calls)
    ]
    results = [h.result(timeout=300.0) for h in handles]
    wall = time.monotonic() - t0
    if len(set(results)) != 1:  # identical inputs must agree
        raise RuntimeError("backend returned wrong results for the burn batch")
    return wall, stats


def run_backend_compare(
    calls: int = 6,
    burn_iters: int = 1_500_000,
    workers: int = 2,
    repeats: int = 3,
) -> BackendCompareResult:
    """Race the threaded and process executors on a CPU-bound batch.

    The workload the process backend exists for: ``calls`` pure-Python
    burns that never release the GIL.  The threaded pool serializes them
    behind one interpreter lock (plus convoy overhead even on one core);
    the process pool runs one interpreter per worker.  Each backend gets
    ``repeats`` fresh pools and reports its best wall time — standard
    best-of-N for a wall-clock cell.  Worker thread/process budgets are
    captured mid-run for the benchmark's budget assertions.
    """
    from repro.steering.executor import SimulationExecutor
    from repro.steering.process_executor import ProcessSimulationExecutor

    result = BackendCompareResult(calls, burn_iters, workers)
    for name, cls in (("thread", SimulationExecutor),
                      ("process", ProcessSimulationExecutor)):
        best: float | None = None
        stats: dict = {}
        for _ in range(max(1, int(repeats))):
            executor = cls(workers=workers)
            try:
                wall, run_stats = _time_backend(executor, calls, burn_iters)
            finally:
                executor.shutdown(wait=True, timeout=30.0)
            if best is None or wall < best:
                best, stats = wall, run_stats
        result.cells.append(BackendCompareCell(
            backend=name,
            calls=calls,
            burn_iters=burn_iters,
            workers=workers,
            wall_seconds=round(best, 4),
            worker_threads=stats.get("worker_threads", -1),
            worker_processes=stats.get("worker_processes", -1),
        ))
    return result
