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
    run_backend_compare,
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

# CPU-bound backend race: enough pure-Python work per call that pool
# overhead is noise, small enough that the 2-backend x best-of-3 cell
# stays a few seconds.
COMPARE_CALLS = 6
COMPARE_ITERS = 600_000 if QUICK else 1_500_000
COMPARE_WORKERS = 2
COMPARE_REPEATS = 3
# What this process may run on, not what the host has: a container
# pinned to 2 of 64 cores races like a 2-core box.
_USABLE_CPUS = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


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
        assert executor["backend"] == "thread"
        assert executor["workers"] == EXECUTOR_WORKERS
        assert executor["sessions_runnable"] > 0
        assert executor["executor_queue_depth"] >= 0


# ---------------------------------------------------------------------------
# Backend comparison: CPU-bound batch on the threaded vs process pool.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def backend_compare():
    _wait_for_lingering_threads()
    return run_backend_compare(
        calls=COMPARE_CALLS,
        burn_iters=COMPARE_ITERS,
        workers=COMPARE_WORKERS,
        repeats=COMPARE_REPEATS,
    )


class TestBenchBackendCompare:
    def test_bench_backend_compare(self, benchmark, backend_compare):
        result = benchmark.pedantic(
            lambda: run_backend_compare(
                calls=COMPARE_CALLS,
                burn_iters=COMPARE_ITERS,
                workers=COMPARE_WORKERS,
                repeats=1,
            ),
            rounds=1,
            iterations=1,
        )
        record_report(backend_compare.to_table())
        artifact = Path(__file__).resolve().parent.parent / "BENCH_executor.json"
        merge_json_artifact(
            artifact, {"backend_compare": backend_compare.to_dict()}
        )
        assert result.cells

    def test_backend_budgets_hold_mid_run(self, benchmark, backend_compare):
        """Threaded pool: ``workers`` threads, zero processes.  Process
        pool: ``workers`` child processes plus exactly one parent-side
        drain thread — that inversion IS the backend."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        threaded = backend_compare.cell("thread")
        assert threaded.worker_threads == COMPARE_WORKERS
        assert threaded.worker_processes == 0
        process = backend_compare.cell("process")
        assert process.worker_processes == COMPARE_WORKERS
        assert process.worker_threads == 1  # the drain thread

    def test_process_backend_wins_cpu_bound_batch(
        self, benchmark, backend_compare
    ):
        """The guard the process backend exists for: on a pure-Python
        CPU-bound batch the process pool must beat the threaded pool's
        wall time.  Threads serialize the burns behind one GIL; worker
        processes run one interpreter each and scale with cores — so
        the strict win needs >= 4 usable CPUs (CI runners have 4): with
        2 workers plus the parent's drain and pytest threads on 2 vCPUs
        the ratio read 0.93-1.30 across the repeats on record (PRs 15
        and 19), a coin flip.  Below that the guard degrades to "process
        overhead stays within 15% of threads", which still catches a
        backend whose pipes/marshalling cost real wall time.
        """
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        margin = 1.0 if _USABLE_CPUS >= 4 else 1.15
        wall_thread = backend_compare.cell("thread").wall_seconds
        wall_process = backend_compare.cell("process").wall_seconds
        # Best-of-N already smooths scheduler noise; a failing pair is
        # still re-measured fresh before declaring a regression.
        attempts = 3
        for attempt in range(attempts):
            if wall_process < wall_thread * margin or attempt == attempts - 1:
                break
            retry = run_backend_compare(
                calls=COMPARE_CALLS,
                burn_iters=COMPARE_ITERS,
                workers=COMPARE_WORKERS,
                repeats=COMPARE_REPEATS,
            )
            wall_thread = retry.cell("thread").wall_seconds
            wall_process = retry.cell("process").wall_seconds
        record_report(
            f"Executor backend race - CPU-bound: thread {wall_thread:.3f} s "
            f"vs process {wall_process:.3f} s "
            f"({wall_thread / max(wall_process, 1e-9):.2f}x, "
            f"{_USABLE_CPUS} usable CPUs)"
        )
        assert wall_process < wall_thread * margin, (
            f"process backend lost the CPU-bound race: {wall_process} s vs "
            f"thread {wall_thread} s (margin {margin}x on "
            f"{_USABLE_CPUS} usable CPUs; {COMPARE_CALLS} calls x "
            f"{COMPARE_ITERS} iters, {COMPARE_WORKERS} workers)"
        )
