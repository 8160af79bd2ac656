"""Shared simulation executor: every session's steps on one bounded pool.

PR 1-2 pinned the *serving* side at a fixed thread budget (one selector
IO thread plus a small worker pool), but each steering session still ran
its own simulation thread — session count scaled process threads
linearly on the *publish* side.  This module removes that coupling the
same way interactive-steering frameworks that survive many concurrent
scenarios do: simulation work is scheduled on a bounded compute service,
not on per-client threads.

A session's run is decomposed into cooperative **step-slices** (one
``step -> publish`` unit per slice, see
:func:`~repro.steering.api.steered_cycle_slices`).  Sessions submit a
slice function; the executor round-robins runnable sessions across a
fixed set of ``workers`` threads (default ``os.cpu_count()``).  Because
a worker runs exactly one slice before requeueing the session, 50
concurrent sessions interleave fairly on N workers and the process
thread count stays ``N`` however many sessions are stepping.

Scheduling is priority-aware with two levels.  A runnable session whose
consumers are keeping up requeues onto the **hot** deque; a session
whose pollers are all stalled (its ``backpressure`` probe returns true —
for steering sessions, "nobody polled this session's event store
recently") requeues onto the **cold** deque and only runs when no hot
work exists, or on an anti-starvation tick every
:data:`STARVATION_LIMIT` hot pops.  Stepping a session nobody is watching
never delays one being watched.  That policy is :class:`RunQueue`.

Lifecycle: per-session :meth:`pause` / :meth:`resume` / :meth:`cancel`
take effect at slice boundaries (cooperative — a slice is never
interrupted mid-step), and :meth:`shutdown` cancels queued and paused
work so joiners are released instead of hanging.  Counters
(``steps_executed``, ``sessions_runnable``, ``executor_queue_depth``,
``deprioritized_steps``) are exposed through :meth:`stats` and surfaced
by the web tier's ``GET /api/v1/stats`` route.
"""

from __future__ import annotations

import os
import threading
from collections import deque

from repro.errors import SteeringError

__all__ = ["RunQueue", "SessionTask", "SimulationExecutor"]

# Task states.  RUNNABLE tasks sit on exactly one of the two run queues;
# RUNNING tasks are owned by a worker; PAUSED tasks are held aside in
# the registry; DONE/CANCELLED are terminal.
RUNNABLE = "runnable"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
CANCELLED = "cancelled"

#: Consecutive hot pops after which a waiting cold item gets one turn.
STARVATION_LIMIT = 4


class RunQueue:
    """Two-level run queue: hot before cold, plus an anti-starvation tick.

    ``pop`` serves the hot deque first; a cold item runs when no hot work
    exists, or after :data:`STARVATION_LIMIT` consecutive hot pops, so a
    fully loaded hot deque cannot park cold items forever.  Not
    thread-safe: the pool serialises access under its condition.
    """

    __slots__ = ("_hot", "_cold", "_hot_streak")

    def __init__(self) -> None:
        self._hot: deque = deque()
        self._cold: deque = deque()
        self._hot_streak = 0

    def __len__(self) -> int:
        return len(self._hot) + len(self._cold)

    def push(self, item, cold: bool = False) -> None:
        (self._cold if cold else self._hot).append(item)

    def discard(self, item) -> None:
        """Remove a queued item from whichever deque holds it (no-op if none)."""
        for queue in (self._hot, self._cold):
            try:
                queue.remove(item)
                return
            except ValueError:
                pass

    def pop(self):
        if self._cold and (
            not self._hot or self._hot_streak >= STARVATION_LIMIT
        ):
            self._hot_streak = 0
            return self._cold.popleft()
        self._hot_streak += 1
        return self._hot.popleft()

    def drain(self) -> list:
        """Empty both deques, returning everything that was queued."""
        items = [*self._hot, *self._cold]
        self._hot.clear()
        self._cold.clear()
        return items


class SessionTask:
    """One session's submitted run: slice function plus scheduling state.

    All mutable state is guarded by the owning executor's condition;
    readers outside the executor use the terminal ``done`` event and the
    immutable-after-finish ``state`` / ``error`` fields.
    """

    __slots__ = (
        "session_id", "_step", "_on_done", "_backpressure", "state",
        "pause_requested", "cancel_requested", "error", "done", "slices",
    )

    def __init__(self, session_id, step, on_done=None, backpressure=None) -> None:
        self.session_id = session_id
        self._step = step
        self._on_done = on_done
        self._backpressure = backpressure
        self.state = RUNNABLE
        self.pause_requested = False
        self.cancel_requested = False
        self.error: BaseException | None = None
        self.done = threading.Event()
        self.slices = 0

    @property
    def cancelled(self) -> bool:
        return self.state == CANCELLED

    @property
    def finished(self) -> bool:
        return self.done.is_set()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the run to finish; returns False on timeout."""
        return self.done.wait(timeout)

    def _fire_done(self) -> None:
        # Runs outside the executor lock, exactly once per task.
        if self._on_done is not None:
            try:
                self._on_done(self)
            except Exception:
                pass  # completion callbacks must never kill a worker
        self.done.set()


class SimulationExecutor:
    """Bounded, priority-aware pool running all sessions' step-slices."""

    def __init__(
        self,
        workers: int | None = None,
        name: str = "ricsa-sim-exec",
    ) -> None:
        if workers is not None and workers < 1:
            raise SteeringError("executor workers must be >= 1")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.name = name
        self._cond = threading.Condition()
        self._queue = RunQueue()
        self._tasks: dict[str, SessionTask] = {}
        self._threads: list[threading.Thread] = []
        self._active = 0  # tasks currently inside a worker's slice
        self._stop = False
        self.steps_executed = 0
        self.deprioritized_steps = 0
        self.sessions_completed = 0
        self.sessions_cancelled = 0

    # -- introspection -----------------------------------------------------------

    def is_shut_down(self) -> bool:
        with self._cond:
            return self._stop

    def thread_count(self) -> int:
        """Worker threads alive — bounded by ``workers``, never by sessions."""
        return sum(1 for t in self._threads if t.is_alive())

    #: Every key :meth:`stats` reports; the single source for the
    #: "executor not started yet" zero payload in ``/api/v1/stats``.
    STAT_KEYS = (
        "workers", "worker_threads", "steps_executed",
        "sessions_runnable", "executor_queue_depth", "sessions_registered",
        "deprioritized_steps", "sessions_completed", "sessions_cancelled",
    )

    def stats(self) -> dict:
        with self._cond:
            depth = len(self._queue)
            return {
                "workers": self.workers,
                "worker_threads": sum(1 for t in self._threads if t.is_alive()),
                "steps_executed": self.steps_executed,
                "sessions_runnable": depth + self._active,
                "executor_queue_depth": depth,
                "sessions_registered": len(self._tasks),
                "deprioritized_steps": self.deprioritized_steps,
                "sessions_completed": self.sessions_completed,
                "sessions_cancelled": self.sessions_cancelled,
            }

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        session_id: str,
        step,
        *,
        on_done=None,
        backpressure=None,
    ) -> SessionTask:
        """Register a session run; ``step()`` is called once per slice.

        ``step`` returns truthy while more slices remain and falsy when
        the run is complete.  ``backpressure()`` (optional) is probed at
        every requeue: truthy means "this session's consumers are
        stalled, deprioritize it".  ``on_done(task)`` fires exactly once, off the
        executor lock, when the run finishes, errors or is cancelled.
        """
        task = SessionTask(session_id, step, on_done=on_done,
                           backpressure=backpressure)
        with self._cond:
            if self._stop:
                raise SteeringError("simulation executor is shut down")
            if session_id in self._tasks:
                raise SteeringError(
                    f"session {session_id!r} already has an active task"
                )
            self._tasks[session_id] = task
            self._ensure_started_locked()
            self._enqueue_locked(task)
            self._cond.notify()
        return task

    # -- per-session control -----------------------------------------------------

    def _registered(self, session_id: str) -> SessionTask:
        task = self._tasks.get(session_id)
        if task is None:
            raise SteeringError(f"no active executor task for {session_id!r}")
        return task

    def pause(self, session_id: str) -> None:
        """Stop scheduling a session's slices until :meth:`resume`."""
        with self._cond:
            task = self._registered(session_id)
            if task.state == RUNNABLE:
                self._queue.discard(task)
                task.state = PAUSED
            elif task.state == RUNNING:
                task.pause_requested = True  # honoured at the slice boundary

    def resume(self, session_id: str) -> None:
        with self._cond:
            task = self._registered(session_id)
            task.pause_requested = False
            if task.state == PAUSED:
                self._enqueue_locked(task)
                self._cond.notify()

    def cancel(self, session_id: str) -> None:
        """Cancel a session's run at the next slice boundary.

        A queued or paused session is finished immediately; a session
        mid-slice finishes its current slice first (slices are never
        interrupted), then is retired without being requeued.
        """
        finished: SessionTask | None = None
        with self._cond:
            task = self._registered(session_id)
            task.cancel_requested = True
            if task.state == RUNNABLE:
                self._queue.discard(task)
                self._finish_locked(task, cancelled=True)
                finished = task
            elif task.state == PAUSED:
                self._finish_locked(task, cancelled=True)
                finished = task
            # RUNNING: the worker sees cancel_requested after the slice.
        if finished is not None:
            finished._fire_done()

    # -- shutdown ----------------------------------------------------------------

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop the pool; queued and paused runs are cancelled, not lost.

        Every outstanding task's ``done`` event is set (queued/paused
        ones immediately, running ones at their slice boundary), so a
        joiner can never hang on a shut-down executor.
        """
        with self._cond:
            self._stop = True
            pending = self._queue.drain() + [
                t for t in self._tasks.values() if t.state == PAUSED
            ]
            for task in pending:
                task.cancel_requested = True
                self._finish_locked(task, cancelled=True)
            self._cond.notify_all()
        for task in pending:
            task._fire_done()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)

    # -- queue mechanics (caller holds self._cond) -------------------------------

    def _ensure_started_locked(self) -> None:
        if self._threads:
            return
        self._threads = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"{self.name}-{i}")
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    def _enqueue_locked(self, task: SessionTask) -> None:
        task.state = RUNNABLE
        cold = False
        if task._backpressure is not None:
            try:
                cold = bool(task._backpressure())
            except Exception:
                cold = False  # a broken probe must not strand the session
        if cold:
            self.deprioritized_steps += 1
        self._queue.push(task, cold)

    def _finish_locked(self, task: SessionTask, cancelled: bool) -> None:
        task.state = CANCELLED if cancelled else DONE
        if cancelled:
            self.sessions_cancelled += 1
        else:
            self.sessions_completed += 1
        if self._tasks.get(task.session_id) is task:
            del self._tasks[task.session_id]

    # -- the worker loop ---------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stop and not self._queue:
                    self._cond.wait()
                if self._stop:
                    return
                task = self._queue.pop()
                task.state = RUNNING
                self._active += 1
            more = False
            error: BaseException | None = None
            try:
                more = bool(task._step())
            except BaseException as exc:  # surfaced via task.error / join
                error = exc
            finished = None
            with self._cond:
                self._active -= 1
                self.steps_executed += 1
                task.slices += 1
                if error is not None:
                    task.error = error
                if error is not None or not more or task.cancel_requested:
                    self._finish_locked(
                        task,
                        cancelled=task.cancel_requested and error is None and more,
                    )
                    finished = task
                elif self._stop:
                    # Shutdown raced this slice: retire rather than requeue.
                    task.cancel_requested = True
                    self._finish_locked(task, cancelled=True)
                    finished = task
                elif task.pause_requested:
                    task.pause_requested = False
                    task.state = PAUSED
                else:
                    self._enqueue_locked(task)
                    self._cond.notify()
            if finished is not None:
                finished._fire_done()
