"""SessionManager: many named steering sessions behind one service.

The seed hard-coded a single ``"session0"`` — one client object, one
session attribute, one image store.  The manager replaces that with a
registry of named :class:`~repro.steering.session.SteeringSession`s plus
lightweight monitor-only channels, giving the web tier a real lifecycle:

* ``create`` / ``get`` / ``attach`` / ``detach`` — attach bumps a
  refcount so an admin sweep never evicts a session a client holds open,
* capped capacity — creating past ``capacity`` first tries to evict an
  idle, unreferenced session, else refuses,
* idle eviction — ``evict_idle`` (called from the web server's
  housekeeping tick) stops and drops sessions nobody touched for
  ``idle_timeout`` seconds,
* per-session locks — ``locked(sid)`` serialises steering/view mutations
  per session without a global lock across sessions,
* a shared simulation executor — sessions created through the manager
  run their simulation loops as step-slices on one bounded
  :class:`~repro.steering.executor.SimulationExecutor` (lazily created,
  ``executor_workers`` threads), so 50 stepping sessions cost the same
  thread count as one.

Every session owns one :class:`~repro.steering.events.EventSequenceStore`,
the single versioning scheme images, status and steering events share.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import SteeringError, WebServerError
from repro.steering.central_manager import CentralManager
from repro.steering.events import EventSequenceStore
from repro.steering.executor import SimulationExecutor
from repro.steering.session import SteeringSession

__all__ = ["ManagedSession", "SessionManager"]


@dataclass
class ManagedSession:
    """Registry entry: the session plus its lifecycle bookkeeping."""

    session: SteeringSession
    created_at: float
    last_active: float
    refcount: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def running(self) -> bool:
        return self.session.is_running()


class SessionManager:
    """Owns the set of live sessions and their event stores."""

    def __init__(
        self,
        cm: CentralManager,
        capacity: int = 16,
        idle_timeout: float = 600.0,
        file_size: int = 256 * 1024,
        event_capacity: int = 256,
        clock=time.monotonic,
        executor: SimulationExecutor | None = None,
        executor_workers: int | None = None,
        journal=None,
    ) -> None:
        if capacity < 1:
            raise WebServerError("session capacity must be >= 1")
        self.cm = cm
        self.capacity = int(capacity)
        self.idle_timeout = float(idle_timeout)
        self.file_size = int(file_size)
        self.event_capacity = int(event_capacity)
        self._clock = clock
        self._sessions: dict[str, ManagedSession] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self.evictions = 0
        self.executor_workers = executor_workers
        self._executor = executor
        self._owns_executor = executor is None
        self._executor_lock = threading.Lock()
        # Observability: a SessionJournal-like object (attach(sid, events)
        # -> rows held, forget(sid, keep)) tapped into every store this
        # manager creates, before the first publish, so journaled
        # sequences are contiguous from 1.
        self.journal = journal

    def attach_journal(self, journal) -> None:
        """Install (or replace) the journal tapped into new sessions.

        Existing sessions' stores are tapped too, so a server wired with
        observability after the manager was built still journals the
        sessions already live (their earlier events are simply absent —
        the journal starts where the tap starts).
        """
        self.journal = journal
        if journal is None:
            return
        with self._lock:
            live = [(sid, e.session.events) for sid, e in self._sessions.items()]
        for sid, events in live:
            journal.attach(sid, events)

    # -- the shared executor -----------------------------------------------------

    @property
    def executor(self) -> SimulationExecutor:
        """The manager's simulation executor (lazily created).

        An executor this manager owns is recreated transparently after
        :meth:`close_all` shut it down, so a manager can be reused; an
        externally supplied executor is the caller's to manage.
        """
        with self._executor_lock:
            if self._executor is None or (
                self._owns_executor and self._executor.is_shut_down()
            ):
                self._executor = SimulationExecutor(
                    workers=self.executor_workers
                )
                self._owns_executor = True
            return self._executor

    def executor_stats(self) -> dict:
        """Executor counters for ``/api/v1/stats`` (zeros before first use)."""
        with self._executor_lock:
            executor = self._executor
        if executor is None:
            return dict.fromkeys(SimulationExecutor.STAT_KEYS, 0)
        return executor.stats()

    # -- creation ----------------------------------------------------------------

    def _next_id(self) -> str:
        self._counter += 1
        return f"session{self._counter - 1}"

    def _make_room_locked(self, now: float) -> None:
        if len(self._sessions) < self.capacity:
            return
        # Prefer evicting finished-or-idle sessions nobody holds open.
        victims = sorted(
            (m for m in self._sessions.values() if m.refcount == 0 and not m.running),
            key=lambda m: m.last_active,
        )
        if not victims:
            victims = sorted(
                (m for m in self._sessions.values() if m.refcount == 0),
                key=lambda m: m.last_active,
            )
        if not victims:
            raise WebServerError(
                f"session capacity {self.capacity} reached and every session is attached"
            )
        self._pop_locked(victims[0].session.session_id)

    def create(
        self,
        session_id: str | None = None,
        *,
        configure: bool = True,
        initial_params: dict | None = None,
        n_cycles: int | None = None,
        **session_kwargs,
    ) -> SteeringSession:
        """Create (and optionally configure/start) a new named session."""
        # Resolve the shared executor outside the registry lock (the
        # lazy-create path takes its own lock).
        session_kwargs.setdefault("executor", self.executor)
        now = self._clock()
        with self._lock:
            sid = session_id or self._next_id()
            if sid in self._sessions:
                raise WebServerError(f"session {sid!r} already exists")
            self._make_room_locked(now)
            events = EventSequenceStore(
                file_size=self.file_size, capacity=self.event_capacity
            )
            held = (self.journal.attach(sid, events)
                    if self.journal is not None else 0)
            session = SteeringSession(
                self.cm, events=events, session_id=sid, **session_kwargs
            )
            entry = self._sessions[sid] = ManagedSession(session, now, now)
        try:
            if configure:
                session.configure(initial_params=initial_params)
            if n_cycles is not None:
                session.start_background(n_cycles)
        except BaseException:
            # Refused: a session that never ran must not hold a registry
            # slot (or journal rows of its own) until the idle sweep.  An
            # earlier run journaled under the same id keeps its rows.
            with self._lock:
                if self._sessions.get(sid) is entry:
                    del self._sessions[sid]
            if self.journal is not None:
                self.journal.forget(sid, held)
            raise
        return session

    def open_monitor(self, session_id: str, meta: dict | None = None) -> EventSequenceStore:
        """Register a monitor-only channel: an event store with no simulation.

        Used by external producers (and the concurrency benchmark) that
        publish into the serving spine without running a steered solver.
        """
        now = self._clock()
        with self._lock:
            if session_id in self._sessions:
                raise WebServerError(f"session {session_id!r} already exists")
            self._make_room_locked(now)
            events = EventSequenceStore(
                file_size=self.file_size, capacity=self.event_capacity
            )
            if self.journal is not None:
                self.journal.attach(session_id, events)
            session = SteeringSession.monitor_only(session_id, events, meta=meta)
            self._sessions[session_id] = ManagedSession(session, now, now)
        return events

    def adopt_monitor(
        self, session_id: str, events: EventSequenceStore,
        meta: dict | None = None,
    ) -> SteeringSession:
        """Register a monitor session around an externally built store.

        The replay path: the store was rehydrated from the journal with
        its original sequence numbers, so adoption must neither re-tap
        it into the journal (a replay is never re-journaled) nor publish
        an announcement event (the sequence is already exact).  The
        resulting session is read-only by construction — ``steer`` and
        ``request_shutdown`` raise monitor-only errors.
        """
        now = self._clock()
        with self._lock:
            if session_id in self._sessions:
                raise WebServerError(f"session {session_id!r} already exists")
            self._make_room_locked(now)
            session = SteeringSession.monitor_only(
                session_id, events, meta=meta, announce=False
            )
            self._sessions[session_id] = ManagedSession(session, now, now)
        return session

    # -- lookup / attachment -----------------------------------------------------

    def _entry(self, session_id: str) -> ManagedSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise WebServerError(f"unknown session {session_id!r}") from None

    def get(self, session_id: str) -> SteeringSession:
        """Look up a session; refreshes its idle clock."""
        with self._lock:
            entry = self._entry(session_id)
            entry.last_active = self._clock()
            return entry.session

    def events(self, session_id: str) -> EventSequenceStore:
        return self.get(session_id).events

    def attach(self, session_id: str) -> SteeringSession:
        """Pin a session against eviction until :meth:`detach`."""
        with self._lock:
            entry = self._entry(session_id)
            entry.refcount += 1
            entry.last_active = self._clock()
            return entry.session

    def detach(self, session_id: str) -> None:
        with self._lock:
            entry = self._entry(session_id)
            if entry.refcount <= 0:
                raise SteeringError(f"session {session_id!r} is not attached")
            entry.refcount -= 1
            entry.last_active = self._clock()

    def touch(self, session_id: str) -> None:
        with self._lock:
            self._entry(session_id).last_active = self._clock()

    def locked(self, session_id: str):
        """Per-session mutation lock (steer / view / lifecycle)."""
        with self._lock:
            return self._entry(session_id).lock

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- registry view -----------------------------------------------------------

    def sessions(self) -> dict[str, dict]:
        """Summary of every live session (the ``/api/v1/sessions`` payload)."""
        now = self._clock()
        with self._lock:
            out = {}
            for sid, entry in self._sessions.items():
                s = entry.session
                out[sid] = {
                    **s.meta,
                    "version": s.events.seq,
                    "running": entry.running,
                    "attached": entry.refcount,
                    "idle_seconds": round(now - entry.last_active, 3),
                }
            return out

    # -- eviction / shutdown -----------------------------------------------------

    def _pop_locked(self, session_id: str) -> None:
        """Drop a session from the registry and request (async) shutdown.

        Eviction never joins the run — joining under the registry lock
        (or on the web server's IO thread) would stall every other
        session for seconds.  The run retires on its own at the slice
        boundary where it sees the shutdown message.
        """
        entry = self._sessions.pop(session_id)
        self.evictions += 1
        self._stop_session(entry.session, join=False)

    @staticmethod
    def _stop_session(session: SteeringSession, join: bool = True) -> None:
        try:
            if session.server is not None:
                session.request_shutdown()
                if join:
                    session.join_background(timeout=5.0)
        except Exception:
            pass  # eviction is best-effort; a wedged session must not wedge the sweep

    def evict_idle(self, max_idle: float | None = None) -> list[str]:
        """Drop unreferenced sessions idle longer than ``max_idle`` seconds."""
        limit = self.idle_timeout if max_idle is None else float(max_idle)
        now = self._clock()
        with self._lock:
            stale = [
                sid
                for sid, entry in self._sessions.items()
                if entry.refcount == 0 and now - entry.last_active > limit
            ]
            for sid in stale:
                self._pop_locked(sid)
        return stale

    def close(self, session_id: str, join: bool = True) -> None:
        """Stop and remove one session regardless of idle state."""
        with self._lock:
            entry = self._sessions.pop(session_id, None)
        if entry is None:
            raise WebServerError(f"unknown session {session_id!r}")
        self._stop_session(entry.session, join=join)

    def close_all(self) -> None:
        """Stop every session, then retire the owned executor's threads.

        The executor shutdown keeps the process clean between runs (a
        benchmark or test sweep creating many managers would otherwise
        accumulate idle daemon pools); the :attr:`executor` property
        recreates a fresh pool if this manager creates sessions again.
        """
        with self._lock:
            entries = list(self._sessions.values())
            self._sessions.clear()
        for entry in entries:
            self._stop_session(entry.session)
        with self._executor_lock:
            executor, owned = self._executor, self._owns_executor
        if owned and executor is not None:
            executor.shutdown(wait=True, timeout=5.0)
