"""Benchmark: shared simulation executor — sessions vs process threads.

The acceptance demo for the shared-executor refactor: 50 concurrent
*stepping* steering sessions against the live serving spine.  In
executor mode the total process thread count must stay within
``baseline + 1 IO thread + web workers + executor workers + slack``
— the publish-side twin of the web tier's "threads do not scale with
parked polls" guarantee.

Records the scaling table and the ``BENCH_executor.json`` artifact CI
uploads.  Set ``RICSA_BENCH_QUICK=1`` (CI) for fewer cycles per
session; the 50-session thread-count regression guard runs in both
modes.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.executor_scaling import (
    ExecutorScalingResult,
    run_executor_scaling,
)

from benchmarks.conftest import merge_json_artifact, record_report

QUICK = os.environ.get("RICSA_BENCH_QUICK", "") not in ("", "0")
SESSIONS = 50
CYCLES = 8 if QUICK else 24
PUSH_EVERY = 4
# Bounded by design, not by the host: the executor pool is a build-time
# constant even on single-core CI runners.
EXECUTOR_WORKERS = min(4, max(2, os.cpu_count() or 1))
THREAD_SLACK = 2


def _wait_for_lingering_threads(timeout: float = 60.0) -> None:
    """Let daemon simulation/executor threads from earlier tests die.

    Inside the full tier-1 session, sessions stopped without join
    (eviction semantics) and shared executors may still be winding
    down; their threads would inflate this benchmark's baseline.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lingering = [
            t for t in threading.enumerate()
            if t.is_alive() and t.name.startswith(("ricsa-sim-", "ricsa-web"))
        ]
        if not lingering:
            return
        lingering[0].join(timeout=min(1.0, max(0.0, deadline - time.monotonic())))


@pytest.fixture(scope="module")
def sweep() -> ExecutorScalingResult:
    _wait_for_lingering_threads()
    result = ExecutorScalingResult()
    result.cells.append(run_executor_scaling(
        n_sessions=SESSIONS, cycles=CYCLES, push_every=PUSH_EVERY,
        executor_workers=EXECUTOR_WORKERS, thread_slack=THREAD_SLACK,
    ))
    return result


class TestBenchExecutor:
    def test_bench_executor_scaling(self, benchmark, sweep):
        result = benchmark.pedantic(
            lambda: run_executor_scaling(
                n_sessions=10, cycles=CYCLES, push_every=PUSH_EVERY,
                executor_workers=EXECUTOR_WORKERS,
            ),
            rounds=1,
            iterations=1,
        )
        record_report(sweep.to_table())
        artifact = Path(__file__).resolve().parent.parent / "BENCH_executor.json"
        merge_json_artifact(artifact, sweep.to_dict())
        assert result.steps_executed > 0

    def test_thread_count_guard_at_50_sessions(self, benchmark, sweep):
        """The tentpole guard: 50 stepping sessions, bounded threads.

        Total process thread count must stay within the fixed budget
        ``baseline + 1 IO + web workers + executor workers + slack`` —
        a return to thread-per-session publishing blows this by ~50
        immediately.
        """
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        cell = sweep.cell("executor", SESSIONS)
        assert cell.max_threads <= cell.thread_budget, (
            f"{cell.sessions} stepping sessions drove the process to "
            f"{cell.max_threads} threads (budget {cell.thread_budget}: "
            f"baseline {cell.baseline_threads} + 1 IO + "
            f"{cell.web_workers} web workers + "
            f"{cell.executor_workers} executor workers + {THREAD_SLACK})"
        )

    def test_every_session_ran_to_completion(self, benchmark, sweep):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for cell in sweep.cells:
            assert cell.cycles_completed == SESSIONS * CYCLES, cell.mode
        # executor accounting is exact: one slice per simulation cycle
        executor_cell = sweep.cell("executor", SESSIONS)
        assert executor_cell.steps_executed == SESSIONS * CYCLES
        assert executor_cell.sessions_completed == SESSIONS

    def test_executor_counters_live_over_http(self, benchmark, sweep):
        """GET /api/v1/stats surfaced the executor mid-run."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        stats = sweep.cell("executor", SESSIONS).stats_http
        assert stats["io_threads"] == 1
        executor = stats["executor"]
        assert executor["workers"] == EXECUTOR_WORKERS
        assert executor["sessions_runnable"] > 0
        assert executor["executor_queue_depth"] >= 0
