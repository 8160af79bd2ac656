"""Multiprocess simulation executor: step-slices in worker processes.

The threaded :class:`~repro.steering.executor.SimulationExecutor`
decouples session count from thread count, but every slice still runs
under one GIL — CPU-bound simulations cannot use a second core however
many workers the pool has.  This backend keeps the same submit /
pause / resume / cancel surface and moves the slices into a small pool
of **worker processes**:

* Each worker owns a duplex pipe and N sessions (least-loaded
  assignment).  The *simulation state lives in the worker* — the parent
  never steps a process-backed simulation; it sends a picklable **spec**
  (simulator name + kwargs + initial params + cycle budget) and the
  worker instantiates and advances the sim itself, interleaving its
  sessions with the same hot/cold fairness the threaded backend uses.
* Every ``push_every``-th cycle the worker marshals the monitored field
  back (raw ``tobytes`` + shape/dtype, cheap for the fixed-size grids
  this system pushes) and the parent-side **sink** rebuilds the
  ``StructuredGrid`` and publishes through the session's normal
  visualization path into its ``EventSequenceStore`` — the serving plane
  cannot tell which backend stepped the data.
* Control (pause / resume / cancel / stop / steer / re-prioritize) is a
  message; workers handle control strictly **between slices**, so the
  slice-boundary semantics of the threaded backend hold by construction.
* One parent **drain thread** multiplexes every worker pipe with
  :func:`multiprocessing.connection.wait`; a worker that dies (killed,
  segfaulted sim) closes its pipe, and the drain thread converts that
  EOF into a ``SteeringError`` on each of its tasks — a crash surfaces
  on ``join_background`` instead of hanging a joiner.

The fork start method is preferred (cheap, inherits imports); platforms
without it fall back to spawn.  Process count is ``workers`` (default
``os.cpu_count()``), so the process-tree budget is as asserted as the
thread budget: 1 parent + ``workers`` children, however many sessions
run.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time

from repro.errors import SteeringError
from repro.steering.executor import (
    CANCELLED,
    DONE,
    PAUSED,
    RUNNABLE,
    RUNNING,
    CallHandle,
    RunQueue,
    SessionTask,
)

__all__ = ["ProcessTask", "ProcessSimulationExecutor"]


class ProcessTask(SessionTask):
    """Parent-side handle for one session run living in a worker process.

    The :class:`~repro.steering.executor.SessionTask` record (``state`` /
    ``error`` / ``slices`` / ``cancelled`` / ``finished`` / ``join``)
    plus what only a worker-resident run has: the event ``sink``, the
    owning worker and the priority that worker was last told.
    """

    __slots__ = ("_sink", "worker_index", "_was_cold")

    def __init__(self, session_id, sink=None, on_done=None,
                 backpressure=None, worker_index: int = -1) -> None:
        super().__init__(session_id, None, on_done=on_done,
                         backpressure=backpressure)
        self.state = RUNNING  # handed to its worker at construction
        self._sink = sink
        self.worker_index = worker_index
        self._was_cold = False  # last priority the worker was told


class _WorkerHandle:
    """Parent-side record of one worker process."""

    __slots__ = ("index", "process", "conn", "send_lock", "sids", "dead")

    def __init__(self, index, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn  # parent end of the duplex pipe
        self.send_lock = threading.Lock()  # submitters + drain thread both send
        self.sids: set[str] = set()
        self.dead = False

    def send(self, msg) -> None:
        with self.send_lock:
            self.conn.send(msg)


def _marshal_grid(grid) -> dict:
    """Flatten a StructuredGrid for the pipe (bytes + metadata, no pickle
    of the array object — one contiguous copy each way)."""
    values = grid.values
    return {
        "values": values.tobytes(),
        "shape": values.shape,
        "dtype": str(values.dtype),
        "spacing": tuple(grid.spacing),
        "origin": tuple(grid.origin),
        "name": grid.name,
    }


class _WorkerSession:
    """Worker-side state of one session: the live sim + its slice budget."""

    __slots__ = ("sid", "sim", "variable", "n_cycles", "push_every",
                 "ran", "cold", "paused", "stop_requested")

    def __init__(self, sid: str, spec: dict) -> None:
        from repro.sims.registry import create_simulation

        self.sid = sid
        self.sim = create_simulation(
            spec["simulator"], **(spec.get("sim_kwargs") or {})
        )
        params = spec.get("params") or {}
        if params:
            self.sim.apply_steering(params)
        self.variable = spec.get("variable") or self.sim.variables()[0]
        self.n_cycles = int(spec["n_cycles"])
        self.push_every = max(1, int(spec.get("push_every", 1)))
        self.ran = 0
        self.cold = False
        self.paused = False
        self.stop_requested = False

    def run_slice(self, conn) -> bool:
        """One cooperative slice: step once, maybe push the field.

        Returns True while more slices remain (same contract as the
        threaded backend's step closures).
        """
        self.sim.step()
        self.ran += 1
        if self.sim.cycle % self.push_every == 0:
            conn.send(("field", self.sid, self.sim.cycle,
                       _marshal_grid(self.sim.get_field(self.variable))))
        return self.ran < self.n_cycles and not self.stop_requested


def _worker_main(conn) -> None:
    """The worker process loop: control messages between slices, its
    sessions interleaved by the same :class:`RunQueue` policy the
    threaded executor uses."""
    sessions: dict[str, _WorkerSession] = {}
    queue = RunQueue()

    def finish(sid: str, error_repr: str | None, cancelled: bool) -> None:
        sess = sessions.pop(sid, None)
        queue.discard(sid)
        cycle = sess.sim.cycle if sess is not None else 0
        conn.send(("done", sid, error_repr, cancelled, cycle))

    while True:
        # Block when idle; between slices just drain what is pending.
        try:
            while conn.poll(0 if queue else None):
                msg = conn.recv()
                kind = msg[0]
                if kind == "shutdown":
                    conn.close()
                    return
                if kind == "submit":
                    _, sid, spec = msg
                    try:
                        sessions[sid] = _WorkerSession(sid, spec)
                        queue.push(sid, sessions[sid].cold)
                    except BaseException as exc:
                        conn.send(("done", sid, repr(exc), False, 0))
                elif kind == "call":
                    _, call_id, fn, args, kwargs = msg
                    try:
                        result = fn(*args, **kwargs)
                        conn.send(("call_done", call_id, result, None))
                    except BaseException as exc:
                        conn.send(("call_done", call_id, None, repr(exc)))
                elif kind == "pause":
                    sess = sessions.get(msg[1])
                    if sess is not None and not sess.paused:
                        queue.discard(sess.sid)
                        sess.paused = True
                elif kind == "resume":
                    sess = sessions.get(msg[1])
                    if sess is not None and sess.paused:
                        sess.paused = False
                        queue.push(sess.sid, sess.cold)
                elif kind == "cancel":
                    if msg[1] in sessions:
                        finish(msg[1], None, True)
                elif kind == "stop":
                    # Graceful early stop: the run retires at its next
                    # slice boundary as DONE (the SHUTDOWN-message analog).
                    sess = sessions.get(msg[1])
                    if sess is not None:
                        sess.stop_requested = True
                        if sess.paused:  # parked: no boundary will come
                            finish(sess.sid, None, False)
                elif kind == "steer":
                    sess = sessions.get(msg[1])
                    if sess is not None:
                        try:
                            sess.sim.apply_steering(msg[2])
                        except Exception as exc:
                            conn.send(("steer_failed", msg[1], repr(exc)))
                elif kind == "priority":
                    sess = sessions.get(msg[1])
                    if sess is not None and sess.cold != bool(msg[2]):
                        sess.cold = bool(msg[2])
                        if not sess.paused:
                            queue.discard(sess.sid)
                            queue.push(sess.sid, sess.cold)
        except (EOFError, OSError):
            return  # parent died: nothing left to report to
        if not queue:
            continue
        sid = queue.pop()
        sess = sessions[sid]
        try:
            more = sess.run_slice(conn)
        except BaseException as exc:
            conn.send(("progress", sid, sess.cold))
            finish(sid, repr(exc), False)
            continue
        try:
            conn.send(("progress", sid, sess.cold))
        except (BrokenPipeError, OSError):
            return
        if not more:
            finish(sid, None, False)
        elif not sess.paused:
            queue.push(sid, sess.cold)


class ProcessSimulationExecutor:
    """Process-pool backend of the simulation executor surface.

    Selected via ``SessionManager(executor_backend="process")``; the
    threaded :class:`~repro.steering.executor.SimulationExecutor`
    remains the default.  Submissions must carry a picklable ``spec``
    (closures cannot cross a process boundary); ``submit_call`` accepts
    any picklable callable.
    """

    backend = "process"

    def __init__(
        self,
        workers: int | None = None,
        name: str = "ricsa-sim-proc",
    ) -> None:
        if workers is not None and workers < 1:
            raise SteeringError("executor workers must be >= 1")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.name = name
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - no fork on this platform
            self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._handles: list[_WorkerHandle] = []
        self._tasks: dict[str, ProcessTask] = {}
        self._calls: dict[str, tuple[ProcessTask, list]] = {}
        self._drain: threading.Thread | None = None
        self._stop = False
        self._call_counter = 0
        self.steps_executed = 0
        self.deprioritized_steps = 0
        self.sessions_completed = 0
        self.sessions_cancelled = 0

    # -- introspection -----------------------------------------------------------

    def is_shut_down(self) -> bool:
        with self._lock:
            return self._stop

    def thread_count(self) -> int:
        """Parent-side threads: just the pipe drain thread."""
        return 1 if (self._drain is not None and self._drain.is_alive()) else 0

    def process_count(self) -> int:
        """Live worker processes — bounded by ``workers``, never sessions."""
        with self._lock:
            return sum(
                1 for h in self._handles
                if not h.dead and h.process.is_alive()
            )

    def stats(self) -> dict:
        with self._lock:
            registered = len(self._tasks)
            runnable = sum(
                1 for t in self._tasks.values() if t.state in (RUNNABLE, RUNNING)
            )
            return {
                "backend": self.backend,
                "workers": self.workers,
                "worker_threads": self.thread_count(),
                "worker_processes": sum(
                    1 for h in self._handles
                    if not h.dead and h.process.is_alive()
                ),
                "steps_executed": self.steps_executed,
                "sessions_runnable": runnable,
                "executor_queue_depth": runnable,
                "sessions_registered": registered,
                "deprioritized_steps": self.deprioritized_steps,
                "sessions_completed": self.sessions_completed,
                "sessions_cancelled": self.sessions_cancelled,
            }

    # -- pool plumbing -----------------------------------------------------------

    def _ensure_started_locked(self) -> None:
        if self._handles:
            return
        for i in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn,),
                daemon=True,
                name=f"{self.name}-{i}",
            )
            proc.start()
            child_conn.close()  # the worker holds its own end
            self._handles.append(_WorkerHandle(i, proc, parent_conn))
        self._drain = threading.Thread(
            target=self._drain_loop, daemon=True, name=f"{self.name}-drain"
        )
        self._drain.start()

    def _pick_worker_locked(self) -> _WorkerHandle:
        live = [h for h in self._handles if not h.dead]
        if not live:
            raise SteeringError("every executor worker process has died")
        return min(live, key=lambda h: len(h.sids))

    def _handle_for(self, task: ProcessTask) -> _WorkerHandle:
        return self._handles[task.worker_index]

    def _registered(self, session_id: str) -> ProcessTask:
        task = self._tasks.get(session_id)
        if task is None:
            raise SteeringError(f"no active executor task for {session_id!r}")
        return task

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        session_id: str,
        step=None,
        *,
        spec: dict | None = None,
        sink=None,
        on_done=None,
        backpressure=None,
    ) -> ProcessTask:
        """Register a session run described by a picklable ``spec``.

        ``spec`` carries ``simulator`` / ``sim_kwargs`` / ``params`` /
        ``variable`` / ``n_cycles`` / ``push_every``; the worker builds
        the simulation from it.  ``sink(kind, payload)`` receives
        marshalled worker events ("field", ...) on the drain thread.
        ``step`` closures are rejected — they cannot cross the process
        boundary; sessions pick the spec path when the executor's
        ``backend`` is "process".
        """
        if spec is None:
            raise SteeringError(
                "process executor needs a picklable spec; in-process step "
                "closures only run on the threaded SimulationExecutor"
            )
        with self._lock:
            if self._stop:
                raise SteeringError("simulation executor is shut down")
            if session_id in self._tasks:
                raise SteeringError(
                    f"session {session_id!r} already has an active task"
                )
            self._ensure_started_locked()
            handle = self._pick_worker_locked()
            task = ProcessTask(
                session_id, sink=sink, on_done=on_done,
                backpressure=backpressure, worker_index=handle.index,
            )
            self._tasks[session_id] = task
            handle.sids.add(session_id)
        try:
            handle.send(("submit", session_id, spec))
        except (ValueError, OSError, pickle.PicklingError) as exc:
            with self._lock:
                self._tasks.pop(session_id, None)
                handle.sids.discard(session_id)
            raise SteeringError(f"could not submit session spec: {exc!r}") from exc
        return task

    def submit_call(self, fn, label: str = "call", *args, **kwargs) -> CallHandle:
        """Run ``fn(*args, **kwargs)`` in a worker process.

        ``fn`` must be picklable (a module-level function); the returned
        handle matches the threaded backend's :class:`CallHandle`.
        """
        with self._lock:
            if self._stop:
                raise SteeringError("simulation executor is shut down")
            self._ensure_started_locked()
            self._call_counter += 1
            call_id = f"{label}#{self._call_counter}"
            handle = self._pick_worker_locked()
            task = ProcessTask(call_id, worker_index=handle.index)
            box: list = []
            self._calls[call_id] = (task, box)
        try:
            handle.send(("call", call_id, fn, args, kwargs))
        except (AttributeError, TypeError, pickle.PicklingError, OSError) as exc:
            with self._lock:
                self._calls.pop(call_id, None)
            raise SteeringError(
                f"executor call is not picklable: {exc!r}"
            ) from exc
        return CallHandle(task, box)

    # -- per-session control -----------------------------------------------------

    def pause(self, session_id: str) -> None:
        with self._lock:
            task = self._registered(session_id)
            task.state = PAUSED
            handle = self._handle_for(task)
        handle.send(("pause", session_id))

    def resume(self, session_id: str) -> None:
        with self._lock:
            task = self._registered(session_id)
            if task.state == PAUSED:
                task.state = RUNNING
            handle = self._handle_for(task)
        handle.send(("resume", session_id))

    def cancel(self, session_id: str) -> None:
        """Cancel at the next slice boundary (never mid-step)."""
        with self._lock:
            task = self._registered(session_id)
            handle = self._handle_for(task)
        handle.send(("cancel", session_id))

    def request_stop(self, session_id: str) -> None:
        """Graceful early stop: the run finishes (DONE, not cancelled) at
        its next slice boundary — the process-backend analog of the
        threaded path's SHUTDOWN bus message."""
        with self._lock:
            task = self._tasks.get(session_id)
            if task is None:
                return  # already finished: stop is idempotent
            handle = self._handle_for(task)
        handle.send(("stop", session_id))

    def steer(self, session_id: str, params: dict) -> None:
        """Forward a steering update to the worker owning the session."""
        with self._lock:
            task = self._tasks.get(session_id)
            if task is None:
                return  # run already finished; nothing to steer
            handle = self._handle_for(task)
        handle.send(("steer", session_id, dict(params)))

    # -- the drain thread --------------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    return
                conns = {
                    h.conn: h for h in self._handles
                    if not h.dead
                }
            if not conns:
                return
            try:
                ready = multiprocessing.connection.wait(
                    list(conns), timeout=0.25
                )
            except OSError:
                ready = []
            for conn in ready:
                handle = conns[conn]
                try:
                    while True:
                        self._on_message(handle, conn.recv())
                        if not conn.poll(0):
                            break
                except (EOFError, OSError):
                    self._on_worker_death(handle)

    def _on_message(self, handle: _WorkerHandle, msg) -> None:
        kind = msg[0]
        if kind == "field":
            _, sid, cycle, payload = msg
            task = self._tasks.get(sid)
            if task is not None and task._sink is not None:
                try:
                    task._sink("field", {"cycle": cycle, **payload})
                except Exception:
                    pass  # a broken sink must not kill the drain thread
        elif kind == "progress":
            _, sid, was_cold = msg
            task = self._tasks.get(sid)
            with self._lock:
                self.steps_executed += 1
                if was_cold:
                    self.deprioritized_steps += 1
            if task is not None:
                task.slices += 1
                self._maybe_reprioritize(handle, task)
        elif kind == "done":
            _, sid, error_repr, cancelled, cycle = msg
            finished = None
            with self._lock:
                task = self._tasks.pop(sid, None)
                if task is not None:
                    handle.sids.discard(sid)
                    if error_repr is not None:
                        task.error = SteeringError(
                            f"simulation failed in worker process: {error_repr}"
                        )
                    task.state = CANCELLED if cancelled else DONE
                    if cancelled:
                        self.sessions_cancelled += 1
                    else:
                        self.sessions_completed += 1
                    finished = task
            if finished is not None:
                if finished._sink is not None:
                    try:
                        finished._sink("done", {"cycle": cycle,
                                                "cancelled": cancelled})
                    except Exception:
                        pass
                finished._fire_done()
        elif kind == "call_done":
            _, call_id, result, error_repr = msg
            with self._lock:
                entry = self._calls.pop(call_id, None)
            if entry is not None:
                task, box = entry
                if error_repr is not None:
                    task.error = SteeringError(
                        f"executor call failed in worker process: {error_repr}"
                    )
                    task.state = DONE
                else:
                    box.append(result)
                    task.state = DONE
                task._fire_done()
        elif kind == "steer_failed":
            _, sid, error_repr = msg
            task = self._tasks.get(sid)
            if task is not None and task._sink is not None:
                try:
                    task._sink("steer_failed", {"error": error_repr})
                except Exception:
                    pass

    def _maybe_reprioritize(self, handle: _WorkerHandle, task: ProcessTask) -> None:
        """Re-evaluate the parent-side backpressure probe once per slice
        and tell the worker when the session's priority flips — the
        slice-granular analog of the threaded backend's requeue probe."""
        if task._backpressure is None:
            return
        try:
            cold = bool(task._backpressure())
        except Exception:
            cold = False  # a broken probe must not strand the session
        if cold != task._was_cold:
            task._was_cold = cold
            try:
                handle.send(("priority", task.session_id, cold))
            except (OSError, ValueError):
                pass  # worker going away; its death path reports the error

    def _on_worker_death(self, handle: _WorkerHandle) -> None:
        """Convert a dead worker pipe into errors on its outstanding work."""
        orphans: list[ProcessTask] = []
        with self._lock:
            if handle.dead:
                return
            handle.dead = True
            for sid in list(handle.sids):
                task = self._tasks.pop(sid, None)
                if task is not None:
                    orphans.append(task)
            handle.sids.clear()
            for call_id in [
                cid for cid, (t, _) in self._calls.items()
                if t.worker_index == handle.index
            ]:
                task, _ = self._calls.pop(call_id)
                orphans.append(task)
        code = handle.process.exitcode
        for task in orphans:
            task.error = SteeringError(
                f"worker process {handle.process.name!r} died "
                f"(exit code {code}) with session {task.session_id!r} active"
            )
            task.state = DONE
            task._fire_done()

    # -- shutdown ----------------------------------------------------------------

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop every worker; outstanding runs are cancelled, not lost."""
        with self._lock:
            if self._stop:
                return
            self._stop = True
            handles = list(self._handles)
            pending = list(self._tasks.values()) + [
                t for t, _ in self._calls.values()
            ]
            self._tasks.clear()
            self._calls.clear()
            for handle in handles:
                handle.sids.clear()
        for handle in handles:
            try:
                handle.send(("shutdown",))
            except (OSError, ValueError):
                pass
        for task in pending:
            task.state = CANCELLED
            with self._lock:
                self.sessions_cancelled += 1
            task._fire_done()
        if wait:
            deadline = time.monotonic() + timeout
            for handle in handles:
                handle.process.join(
                    timeout=max(0.1, deadline - time.monotonic())
                )
            for handle in handles:
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            if self._drain is not None:
                self._drain.join(timeout=timeout)
        for handle in handles:
            try:
                handle.conn.close()
            except OSError:
                pass
