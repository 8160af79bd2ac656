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
    "ExecutorCell",
    "ExecutorScalingResult",
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
