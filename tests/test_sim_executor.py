"""Lifecycle tests for the shared SimulationExecutor.

The edges that matter in production: cancellation mid-step, shutdown
with steps still queued, pause/resume ordering, backpressure
deprioritization — and the hot/cold run-queue policy the pool drives.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.costmodel.calibration import default_calibration
from repro.errors import SimulationError, SteeringError
from repro.net import build_paper_testbed
from repro.steering import CentralManager, SessionManager, SimulationExecutor
from repro.steering.executor import STARVATION_LIMIT, RunQueue

SIM = {"simulator": "heat", "sim_kwargs": {"shape": (8, 8, 8)}, "push_every": 4}


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


@pytest.fixture()
def executor():
    ex = SimulationExecutor(workers=2)
    yield ex
    ex.shutdown(wait=True, timeout=5.0)


def counting_step(n_slices: int, record: list, gate: threading.Event | None = None):
    """A step function running ``n_slices`` slices, recording each."""

    def step() -> bool:
        if gate is not None:
            gate.wait(timeout=10.0)
        record.append(len(record) + 1)
        return len(record) < n_slices

    return step


class TestRunQueue:
    """The one scheduling policy (socket-, thread- and process-free)."""

    def test_hot_pops_before_cold_in_fifo_order(self):
        queue = RunQueue()
        queue.push("c1", cold=True)
        queue.push("h1")
        queue.push("c2", cold=True)
        queue.push("h2")
        assert len(queue) == 4
        assert [queue.pop() for _ in range(4)] == ["h1", "h2", "c1", "c2"]
        assert len(queue) == 0 and not queue

    def test_cold_item_runs_after_exactly_the_starvation_limit(self):
        queue = RunQueue()
        queue.push("cold", cold=True)
        popped = []
        for i in range(3 * STARVATION_LIMIT):
            queue.push(f"h{i}")  # hot work never runs out
        while "cold" not in popped:
            popped.append(queue.pop())
        assert popped == [f"h{i}" for i in range(STARVATION_LIMIT)] + ["cold"]
        # the streak restarts: the next cold item waits a full limit again
        queue.push("cold2", cold=True)
        again = [queue.pop() for _ in range(STARVATION_LIMIT + 1)]
        assert again[-1] == "cold2" and "cold2" not in again[:-1]

    def test_cold_runs_at_once_when_no_hot_work_exists(self):
        queue = RunQueue()
        queue.push("c", cold=True)
        assert queue.pop() == "c"

    def test_discard_removes_from_either_deque(self):
        queue = RunQueue()
        queue.push("h")
        queue.push("c", cold=True)
        queue.push("keep")
        queue.discard("h")
        queue.discard("c")
        queue.discard("never-queued")  # no-op, no raise
        assert len(queue) == 1
        assert queue.pop() == "keep"

    def test_drain_returns_everything_once(self):
        queue = RunQueue()
        queue.push("h1")
        queue.push("c1", cold=True)
        queue.push("h2")
        assert queue.drain() == ["h1", "h2", "c1"]
        assert len(queue) == 0
        assert queue.drain() == []


class TestBasicScheduling:
    def test_single_run_completes_and_counts(self, executor):
        record: list = []
        task = executor.submit("s1", counting_step(5, record))
        assert task.join(timeout=10.0)
        assert record == [1, 2, 3, 4, 5]
        stats = executor.stats()
        assert stats["steps_executed"] == 5
        assert stats["sessions_completed"] == 1
        assert stats["sessions_registered"] == 0

    def test_many_sessions_interleave_on_bounded_threads(self, executor):
        records = {f"s{i}": [] for i in range(12)}
        tasks = [
            executor.submit(sid, counting_step(4, rec))
            for sid, rec in records.items()
        ]
        for task in tasks:
            assert task.join(timeout=10.0)
        assert all(len(rec) == 4 for rec in records.values())
        # 12 sessions, exactly 2 worker threads — never one per session
        assert executor.thread_count() == 2

    def test_step_error_surfaces_on_task(self, executor):
        def bad_step():
            raise ValueError("boom")

        task = executor.submit("bad", bad_step)
        assert task.join(timeout=10.0)
        assert isinstance(task.error, ValueError)
        assert not task.cancelled

    def test_duplicate_session_id_rejected(self, executor):
        gate = threading.Event()
        executor.submit("dup", counting_step(3, [], gate))
        with pytest.raises(SteeringError, match="already has an active task"):
            executor.submit("dup", counting_step(3, []))
        gate.set()

    def test_control_of_unknown_session_rejected(self, executor):
        for op in (executor.pause, executor.resume, executor.cancel):
            with pytest.raises(SteeringError, match="no active executor task"):
                op("ghost")


class TestCancellation:
    def test_cancel_mid_step_stops_at_slice_boundary(self, executor):
        started = threading.Event()
        release = threading.Event()
        record: list = []

        def step() -> bool:
            record.append(1)
            started.set()
            release.wait(timeout=10.0)
            return True  # would run forever without the cancel

        task = executor.submit("mid", step)
        assert started.wait(timeout=10.0)
        executor.cancel("mid")  # task is RUNNING: cancel applies post-slice
        assert not task.finished
        release.set()
        assert task.join(timeout=10.0)
        assert task.cancelled
        assert len(record) == 1  # no further slice ran after the cancel

    def test_cancel_queued_session_never_runs(self, executor):
        # Saturate both workers so the victim stays queued.
        release = threading.Event()
        blockers = [
            executor.submit(f"blocker{i}", counting_step(1, [], release))
            for i in range(2)
        ]
        victim_record: list = []
        victim = executor.submit("victim", counting_step(3, victim_record))
        executor.cancel("victim")
        assert victim.join(timeout=10.0)
        assert victim.cancelled
        assert victim_record == []
        release.set()
        for task in blockers:
            assert task.join(timeout=10.0)

    def test_session_cancelled_mid_run_via_manager_path(self, cm):
        """A steering session cancelled on the executor unblocks joiners."""
        manager = SessionManager(cm, executor_workers=2)
        session = manager.create("doomed", n_cycles=500, **SIM)
        executor = manager.executor
        deadline = time.monotonic() + 10.0
        while session._task.slices == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        executor.cancel("doomed")
        session.join_background(timeout=10.0)  # must not raise or hang
        assert not session.is_running()
        assert session.simulation.cycle < 500
        manager.close_all()


class TestShutdown:
    def test_shutdown_with_queued_steps_releases_joiners(self):
        executor = SimulationExecutor(workers=1)
        release = threading.Event()
        blocker = executor.submit("blocker", counting_step(1, [], release))
        queued = [
            executor.submit(f"q{i}", counting_step(3, [])) for i in range(4)
        ]
        executor.shutdown(wait=False)
        # Queued (never-started) tasks are cancelled immediately...
        for task in queued:
            assert task.join(timeout=10.0)
            assert task.cancelled
        # ...and the running task retires at its slice boundary.
        release.set()
        assert blocker.join(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while executor.thread_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor.thread_count() == 0

    def test_submit_after_shutdown_rejected(self):
        executor = SimulationExecutor(workers=1)
        executor.shutdown(wait=True)
        with pytest.raises(SteeringError, match="shut down"):
            executor.submit("late", counting_step(1, []))


class TestPauseResume:
    def test_pause_holds_slices_until_resume(self, executor):
        first_slice = threading.Event()
        record: list = []

        def step() -> bool:
            record.append(len(record) + 1)
            first_slice.set()
            time.sleep(0.05)  # slow enough for pause() to land mid-run
            return len(record) < 10

        task = executor.submit("pr", step)
        assert first_slice.wait(timeout=10.0)
        executor.pause("pr")
        # Let the in-flight slice retire, then confirm progress stops.
        time.sleep(0.2)
        frozen = len(record)
        time.sleep(0.2)
        assert len(record) == frozen
        executor.resume("pr")
        assert task.join(timeout=10.0)
        assert len(record) == 10

    def test_pause_then_resume_before_any_slice(self):
        executor = SimulationExecutor(workers=1)
        try:
            release = threading.Event()
            executor.submit("blocker", counting_step(1, [], release))
            record: list = []
            task = executor.submit("early", counting_step(2, record))
            executor.pause("early")   # still queued: dequeued + parked
            executor.resume("early")  # requeued before ever running
            release.set()
            assert task.join(timeout=10.0)
            assert record == [1, 2]
        finally:
            executor.shutdown(wait=True)

    def test_resume_cancels_pending_pause_request(self, executor):
        gate = threading.Event()
        record: list = []

        def step() -> bool:
            record.append(1)
            gate.set()
            time.sleep(0.05)
            return len(record) < 3

        task = executor.submit("pp", step)
        assert gate.wait(timeout=10.0)
        executor.pause("pp")
        executor.resume("pp")  # lands before the slice boundary: no pause
        assert task.join(timeout=10.0)
        assert len(record) == 3


class TestBackpressure:
    def test_stalled_sessions_requeue_cold(self, executor):
        done = threading.Event()
        record: list = []

        def step() -> bool:
            record.append(1)
            if len(record) >= 4:
                done.set()
                return False
            return True

        executor.submit("stalled", step, backpressure=lambda: True)
        assert done.wait(timeout=10.0)
        # every requeue after the first pop went through the cold queue
        assert executor.stats()["deprioritized_steps"] >= 3

    def test_broken_backpressure_probe_does_not_strand_session(self, executor):
        def probe() -> bool:
            raise RuntimeError("probe exploded")

        task = executor.submit("fragile", counting_step(3, []),
                               backpressure=probe)
        assert task.join(timeout=10.0)
        assert task.error is None


class TestSteeringSessionIntegration:
    def test_default_session_runs_on_executor_not_thread(self, cm):
        manager = SessionManager(cm, executor_workers=2)
        session = manager.create("exec-mode", n_cycles=6, **SIM)
        assert session._task is not None
        session.join_background(timeout=30.0)
        assert session.simulation.cycle == 6
        stats = manager.executor_stats()
        assert stats["steps_executed"] >= 6
        assert stats["sessions_completed"] >= 1
        manager.close_all()

    def test_a_rejected_steer_leaves_the_run_alive(self, cm):
        manager = SessionManager(cm, executor_workers=2)
        session = manager.create("bad-steer", n_cycles=30, **SIM)
        seq = session.events.seq
        for bad in ({"no_such_parameter": 1}, {"alpha": 5.0}):
            with pytest.raises(SimulationError):
                session.steer(bad)
        assert session.steer({"alpha": "0.12"}) == {"alpha": 0.12}
        session.join_background(timeout=30.0)  # raises if the run died
        assert session.simulation.cycle == 30
        steering = [e for e in session.events.delta(seq)["components"]
                    if e["id"] == "params"]
        assert [e["props"] for e in steering] == [{"alpha": 0.12}]
        manager.close_all()

    def test_every_data_push_is_published(self, cm):
        from repro.steering.session import SteeringSession

        session = SteeringSession(
            cm, session_id="pushes", simulator="heat", sim_kwargs={"shape": (8, 8, 8)}
        )
        session.configure()
        grid = session.simulation.get_field(session.variable)
        published = session.events.seq
        for cycle in range(40):
            session._on_data_push(grid, cycle)
        assert session.events.seq == published + 40
        assert session.events.image_record().cycle == 39  # the newest push

    def test_executor_recreated_after_close_all(self, cm):
        manager = SessionManager(cm, executor_workers=2)
        first = manager.create("one", n_cycles=3, **SIM)
        first.join_background(timeout=30.0)
        manager.close_all()
        # a reused manager gets a fresh pool transparently
        second = manager.create("two", n_cycles=3, **SIM)
        second.join_background(timeout=30.0)
        assert second.simulation.cycle == 3
        manager.close_all()
