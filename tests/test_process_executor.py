"""Lifecycle tests for the multiprocess SimulationExecutor backend.

The edges that matter: spec-only submission (closures cannot cross a
process boundary), pause/resume/cancel at slice boundaries, graceful
early stop, steering forwarded into the worker, and — the one threads
never face — a worker-process crash surfacing as a session error
instead of a hang.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.costmodel.calibration import default_calibration
from repro.errors import SteeringError
from repro.net import build_paper_testbed
from repro.steering import ProcessSimulationExecutor, SessionManager
from repro.steering.central_manager import CentralManager
from repro.steering.executor import STARVATION_LIMIT
from repro.steering.process_executor import _worker_main

SIM = {"simulator": "heat", "sim_kwargs": {"shape": (8, 8, 8)}, "push_every": 4}


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


@pytest.fixture()
def executor():
    ex = ProcessSimulationExecutor(workers=2)
    yield ex
    ex.shutdown(wait=True, timeout=10.0)


def make_manager(cm, **kwargs) -> SessionManager:
    kwargs.setdefault("executor_workers", 2)
    return SessionManager(cm, executor_backend="process", **kwargs)


def square(x: int) -> int:  # must be module-level: it crosses the pipe
    return x * x


def nap(seconds: float) -> bool:  # worker-blocking helper, module-level too
    time.sleep(seconds)
    return True


def wait_until(predicate, timeout: float = 15.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestCalls:
    def test_submit_call_round_trips_through_a_worker(self, executor):
        handle = executor.submit_call(square, "sq", 12)
        assert handle.result(timeout=30.0) == 144
        stats = executor.stats()
        assert stats["backend"] == "process"
        assert stats["worker_processes"] == 2

    def test_unpicklable_call_rejected_up_front(self, executor):
        with pytest.raises(SteeringError, match="picklable"):
            executor.submit_call(lambda: 1, "closure")

    def test_worker_side_error_surfaces_on_result(self, executor):
        handle = executor.submit_call(square, "bad", "not-a-number")
        with pytest.raises(SteeringError, match="worker process"):
            handle.result(timeout=30.0)

    def test_closure_submission_rejected(self, executor):
        with pytest.raises(SteeringError, match="picklable spec"):
            executor.submit("s1", lambda: False)

    def test_submit_after_shutdown_rejected(self):
        ex = ProcessSimulationExecutor(workers=1)
        ex.shutdown(wait=True)
        with pytest.raises(SteeringError, match="shut down"):
            ex.submit_call(square, "late", 2)

    def test_control_of_unknown_session_rejected(self, executor):
        for op in (executor.pause, executor.resume, executor.cancel):
            with pytest.raises(SteeringError, match="no active executor task"):
                op("ghost")


class TestManagerIntegration:
    def test_session_runs_in_worker_and_publishes_images(self, cm):
        manager = make_manager(cm)
        session = manager.create("proc-run", n_cycles=8, **SIM)
        session.join_background(timeout=60.0)
        # The worker's progress is mirrored onto the parent-side sim...
        assert session.simulation.cycle == 8
        # ...and the marshalled pushes travelled the normal viz path.
        assert len(session.loop_results) == 2  # 8 cycles / push_every=4
        assert session.events.seq >= 3  # status + image events landed
        stats = manager.executor_stats()
        assert stats["backend"] == "process"
        assert stats["steps_executed"] >= 8
        assert stats["sessions_completed"] == 1
        assert stats["worker_processes"] >= 1
        manager.close_all()
        assert manager.executor_stats()["worker_processes"] == 0

    def test_process_budget_constant_across_sessions(self, cm):
        manager = make_manager(cm)
        sessions = [
            manager.create(f"fleet{i}", n_cycles=4, **SIM) for i in range(6)
        ]
        executor = manager.executor
        assert executor.process_count() == 2  # 6 sessions, 2 processes
        for session in sessions:
            session.join_background(timeout=60.0)
        assert all(s.simulation.cycle == 4 for s in sessions)
        manager.close_all()

    def test_steering_reaches_the_worker_simulation(self, cm):
        manager = make_manager(cm)
        session = manager.create("steered", n_cycles=600, **SIM)
        assert wait_until(lambda: session._task.slices > 0)
        session.steer({"source_x": 0.2})
        # Local mirror staged it immediately (validation happened here)...
        assert session.simulation._pending.get("source_x") == pytest.approx(0.2)
        # ...and a bad update is rejected before crossing the pipe.
        with pytest.raises(Exception):
            session.steer({"no_such_param": 1.0})
        session.request_shutdown()  # graceful early stop, not a cancel
        session.join_background(timeout=60.0)
        assert not session._task.cancelled
        assert session.simulation.cycle < 600
        manager.close_all()


class TestSliceBoundaryControl:
    def test_pause_freezes_then_resume_completes(self, cm):
        manager = make_manager(cm)
        session = manager.create("pausable", n_cycles=800, **SIM)
        executor = manager.executor
        assert wait_until(lambda: session._task.slices > 0)
        executor.pause("pausable")

        def slices_settled() -> bool:
            before = session._task.slices
            time.sleep(0.2)  # in-flight progress messages drain
            return session._task.slices == before

        assert wait_until(slices_settled)
        frozen = session._task.slices
        time.sleep(0.3)
        assert session._task.slices == frozen
        assert frozen < 800
        executor.resume("pausable")
        session.join_background(timeout=120.0)
        assert session._task.slices == 800
        assert session.simulation.cycle == 800
        manager.close_all()

    def test_cancel_stops_at_slice_boundary(self, cm):
        manager = make_manager(cm)
        session = manager.create("doomed", n_cycles=5000, **SIM)
        executor = manager.executor
        assert wait_until(lambda: session._task.slices > 0)
        executor.cancel("doomed")
        session.join_background(timeout=60.0)  # must not raise or hang
        assert session._task.cancelled
        assert not session.is_running()
        assert session._task.slices < 5000
        assert manager.executor_stats()["sessions_cancelled"] == 1
        manager.close_all()

    def test_pause_before_any_slice_then_resume(self):
        ex = ProcessSimulationExecutor(workers=1)
        try:
            # Block the lone worker so the session cannot start yet: the
            # pause/resume pair is handled before its first slice.
            blocker = ex.submit_call(nap, "blocker", 1.0)
            spec = {"simulator": "heat", "sim_kwargs": {"shape": (8, 8, 8)},
                    "variable": None, "n_cycles": 3, "push_every": 8,
                    "params": {}}
            task = ex.submit("early", spec=spec)
            ex.pause("early")
            ex.resume("early")
            assert blocker.result(timeout=30.0) is True
            assert task.join(timeout=30.0)
            assert task.error is None
            assert not task.cancelled
        finally:
            ex.shutdown(wait=True, timeout=10.0)


class TestWorkerScheduling:
    def test_priority_flip_moves_a_session_behind_a_hot_one(self):
        """The worker loop run in-thread over a real pipe: every message is
        queued before it starts, so the slice order is the policy's alone."""
        parent, child = multiprocessing.Pipe(duplex=True)
        spec = {"simulator": "heat", "sim_kwargs": {"shape": (8, 8, 8)},
                "push_every": 1000}
        hot_cycles = STARVATION_LIMIT + 2
        parent.send(("submit", "flipped", {**spec, "n_cycles": 2}))
        parent.send(("submit", "hot", {**spec, "n_cycles": hot_cycles}))
        parent.send(("priority", "flipped", True))
        worker = threading.Thread(target=_worker_main, args=(child,), daemon=True)
        worker.start()
        order, done = [], set()
        while done != {"flipped", "hot"}:
            assert parent.poll(30.0), "worker went quiet"
            msg = parent.recv()
            if msg[0] == "progress":
                order.append((msg[1], msg[2]))  # (sid, ran cold)
            elif msg[0] == "done":
                assert msg[2] is None  # no error
                done.add(msg[1])
        parent.send(("shutdown",))
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        parent.close()
        # Submitted first, "flipped" would have led; cold, it waits for the
        # anti-starvation tick and then for the hot session to finish.
        assert order == (
            [("hot", False)] * STARVATION_LIMIT + [("flipped", True)]
            + [("hot", False)] * 2 + [("flipped", True)]
        )


class TestWorkerCrash:
    def test_killed_worker_surfaces_as_session_error_not_hang(self, cm):
        manager = make_manager(cm, executor_workers=1)
        session = manager.create("victim", n_cycles=100000, **SIM)
        executor = manager.executor
        assert wait_until(lambda: session._task.slices > 0)
        executor._handles[0].process.kill()  # simulate a segfaulted solver
        with pytest.raises(SteeringError, match="worker process .* died"):
            session.join_background(timeout=30.0)
        assert not session.is_running()
        assert executor.process_count() == 0
        manager.close_all()

    def test_calls_on_dead_worker_error_out(self):
        ex = ProcessSimulationExecutor(workers=1)
        try:
            assert ex.submit_call(square, "warm", 3).result(timeout=30.0) == 9
            ex._handles[0].process.kill()
            assert wait_until(lambda: ex.process_count() == 0, timeout=10.0)
            # The pool is unusable; a fresh submission reports that
            # instead of queueing into the void.
            with pytest.raises(SteeringError):
                ex.submit_call(square, "late", 4).result(timeout=10.0)
        finally:
            ex.shutdown(wait=True, timeout=10.0)
