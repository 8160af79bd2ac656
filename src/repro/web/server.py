"""The Ajax web server: the facade that binds the serving tier to a port.

The seed used ``ThreadingHTTPServer`` and parked one thread per
outstanding long poll.  This server is one selector loop over
non-blocking connections: a long poll with no fresh events becomes a
:class:`~repro.web.longpoll.Subscriber` record, publishes from
simulation threads wake the loop through its socketpair, and the thread
count is ``1 + workers + executor_workers`` however many sessions step
or clients park.  There is exactly one loop because parse, route, group,
frame and enqueue are Python bytecode under one GIL: K = 2 and 4 loops
measured a worse wake p99 than K = 1 at every herd size tried
(ARCHITECTURE.md, "One IO loop").  Scaling past a core means processes.

The tier is four layers, each testable without a socket but the first:
the *connection* layer (:mod:`repro.web.connection`) sends what the
*routes* (:mod:`repro.web.routes`, the ``/api/v1`` table) return, hands
woken subscribers to :mod:`repro.web.delivery`, asks the *ladder*
(:func:`repro.adaptive.controller.next_rung`) which tier / LOD a slow
client moves to, and steps the journal's *replay cursors*
(:mod:`repro.obs.journal`).  Here live :class:`AjaxWebServer`, its
worker pool, the ``GET /api/v1/stats`` counters and the publish -> wake
hook.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
import weakref
from http import HTTPStatus

from repro.adaptive.controller import AdaptiveDeliveryController
from repro.adaptive.tiers import MAX_TIER
from repro.errors import WebServerError
from repro.obs import Observability
from repro.steering.client import SteeringClient
from repro.web.connection import _IOLoop
from repro.web.routes import API_ROUTES, _HttpError, match_route

__all__ = ["API_ROUTES", "AjaxWebServer", "_HttpError", "match_route"]

_REASONS = {status.value: status.phrase for status in HTTPStatus}


class _WorkerPool:
    """Small fixed pool for the jobs routes hand back (heavy work).

    Submitted jobs run entirely off the IO loop; whatever they need to
    hand back travels through the loop's completion queue + socketpair
    wakeup, never by touching connection state from a worker thread.
    The pool never grows: thread count is part of the server's asserted
    constant.
    """

    def __init__(self, size: int, name: str = "ricsa-web-worker") -> None:
        if size < 1:
            raise WebServerError("worker pool size must be >= 1")
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(target=self._run, daemon=True, name=f"{name}-{i}")
            for i in range(size)
        ]

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def submit(self, fn) -> None:
        self._tasks.put(fn)

    def stop(self, timeout: float = 5.0) -> None:
        for _ in self._threads:
            self._tasks.put(None)
        for t in self._threads:
            if t.ident is not None:  # stop() on a never-started server
                t.join(timeout=timeout)

    def thread_count(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    def _run(self) -> None:
        while True:
            fn = self._tasks.get()
            if fn is None:
                return
            try:
                fn()
            except Exception:  # jobs report their own errors via completions
                pass


class AjaxWebServer:
    """Bind a steering service (SessionManager) to HTTP on 127.0.0.1.

    Use as a context manager or call :meth:`start` / :meth:`stop`; a
    stopped server cannot be started again.
    """

    DEFAULT_WORKERS = 2

    def __init__(
        self,
        client: SteeringClient,
        port: int = 0,
        keepalive_timeout: float = 30.0,
        housekeeping_interval: float = 1.0,
        workers: int | None = None,
        write_budget: int = 8 * 1024 * 1024,
        staleness_budget: float = 0.25,
        sndbuf: int | None = None,
        obs=None,
    ) -> None:
        self.client = client
        self.manager = client.manager
        self.keepalive_timeout = float(keepalive_timeout)
        self.housekeeping_interval = float(housekeeping_interval)
        self.workers = self.DEFAULT_WORKERS if workers is None else int(workers)
        self.write_budget = int(write_budget)
        if self.write_budget < 1:
            raise WebServerError("write budget must be >= 1 byte")
        if staleness_budget <= 0.0:
            raise WebServerError("staleness budget must be > 0 seconds")
        # Adaptive delivery plane: per-connection passive link estimators
        # feed a controller that re-runs the DP mapping with live
        # estimates at the housekeeping cadence (no extra threads).
        self.staleness_budget = float(staleness_budget)
        self.sndbuf = None if sndbuf is None else int(sndbuf)
        self.controller = AdaptiveDeliveryController(
            image_bytes=self.manager.file_size,
            staleness_budget=self.staleness_budget,
        )
        self._keepalive_suffix = (
            "Cache-Control: no-store\r\nServer: RICSA/2.0\r\n"
            "Connection: keep-alive\r\n"
            f"Keep-Alive: timeout={int(self.keepalive_timeout)}\r\n\r\n"
        )
        self._close_suffix = (
            "Cache-Control: no-store\r\nServer: RICSA/2.0\r\n"
            "Connection: close\r\n\r\n"
        )
        listen = socket.create_server(("127.0.0.1", port))
        listen.setblocking(False)
        # Read once at bind: the port outlives the socket stop() closes.
        self.port = listen.getsockname()[1]
        # Durable ops tier: metrics recorder + session journal (+ SQLite).
        # ``obs`` accepts False/None (off), True (in-memory rings +
        # journal only), a path (SQLite-backed), or a ready-made
        # Observability the caller owns.
        self.obs, self._owns_obs = self._resolve_obs(obs)
        if self.obs is not None and self.manager.journal is None:
            self.manager.attach_journal(self.obs.journal)
        self._loop = _IOLoop(self, listen)
        self.scheduler = self._loop.scheduler
        self._pool = _WorkerPool(self.workers)
        self._hooked: "weakref.WeakSet" = weakref.WeakSet()  # stores with our listener
        self._stop = threading.Event()
        self._started_mono = time.monotonic()

    @staticmethod
    def _resolve_obs(obs) -> tuple[Observability | None, bool]:
        if obs is None or obs is False:
            return None, False
        if obs is True:
            return Observability(), True
        if isinstance(obs, Observability):
            return obs, False
        return Observability(db_path=obs), True  # str / PathLike

    # -- lifecycle --------------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _render_head(self, code: int, ctype: str, length: int,
                     keep_alive: bool) -> bytes:
        """The single home of the HTTP response-head format."""
        suffix = self._keepalive_suffix if keep_alive else self._close_suffix
        return (
            f"HTTP/1.1 {code} {_REASONS[code]}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {length}\r\n" + suffix
        ).encode("latin-1")

    def io_thread_count(self) -> int:
        """IO threads in existence — one, however many polls park."""
        return int(self._loop.io_thread_alive())

    def worker_thread_count(self) -> int:
        """Worker-pool threads — a fixed constant, independent of load."""
        return self._pool.thread_count()

    def server_thread_count(self) -> int:
        """Every thread the server owns: 1 IO + ``workers``."""
        return self.io_thread_count() + self.worker_thread_count()

    # -- serving counters (the IO loop writes them; reads are approximate
    # -- while it runs, exact once the server is stopped) -------------------------

    @property
    def polls_served(self) -> int:
        return self._loop.delivery.polls_served

    @property
    def slow_client_disconnects(self) -> int:
        return self._loop.slow_client_disconnects

    def parked_polls(self) -> int:
        """Polls parked on the scheduler."""
        return self.scheduler.pending()

    def subscribers(self) -> int:
        """Live push subscribers (SSE + WS)."""
        return self.scheduler.subscribers()

    def _tier_gauges(self) -> list[int]:
        """Open connections per delivery tier (approximate while running).

        The handler set belongs to the loop's thread; a stats read from
        another thread may race a mutation, so snapshotting retries and
        degrades to an empty gauge rather than raising.
        """
        counts = [0] * (MAX_TIER + 1)
        for _attempt in range(3):
            try:
                handlers = list(self._loop._handlers)
                break
            except RuntimeError:  # set mutated mid-iteration
                handlers = []
        for handler in handlers:
            if not handler.closed:
                counts[handler.tier] += 1
        return counts

    def stats(self) -> dict:
        """The ``GET /api/v1/stats`` payload: serving counters + executor."""
        loop = self._loop
        delivery = loop.delivery
        scheduler = self.scheduler.stats()
        active = self.scheduler.subscriber_counts()
        payload = {
            "timestamp": time.time(),
            "uptime_s": time.monotonic() - self._started_mono,
            "requests_served": loop.requests_served,
            "polls_served": delivery.polls_served,
            "bytes_sent": loop.bytes_sent,
            "slow_client_disconnects": loop.slow_client_disconnects,
            "delivery_errors": delivery.delivery_errors,
            "parked_polls": scheduler["parked"],
            "subscribers": scheduler["subscribers"],
            "transports": {
                name: {"active": active.get(name, 0), **counters}
                for name, counters in delivery.transports.items()
            },
            "tiers": self._tier_gauges(),
            "tier_promotions": loop.tier_promotions,
            "tier_demotions": loop.tier_demotions,
            "lod_promotions": loop.lod_promotions,
            "lod_demotions": loop.lod_demotions,
            "tier_bytes_saved": list(delivery.tier_bytes_saved),
            "bytes_saved": sum(delivery.tier_bytes_saved),
            "wake_ewma_ms": delivery.wake_ewma_ms,
            "wakes_measured": delivery.wakes_measured,
            "replays_active": len(loop._replays),
            "io_threads": self.io_thread_count(),
            "worker_threads": self.worker_thread_count(),
            "scheduler": scheduler,
            "sessions": len(self.manager),
            "executor": self.manager.executor_stats(),
        }
        if self.obs is not None:
            payload["obs"] = self.obs.stats()
        return payload

    def start(self) -> "AjaxWebServer":
        if self._stop.is_set() or self._loop.io_thread_alive():
            raise WebServerError("server cannot be restarted")
        self._started_mono = time.monotonic()
        self._pool.start()
        self._loop.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._loop.stop()
        self._pool.stop()
        if self.obs is not None and self._owns_obs:
            self.obs.close()

    def __enter__(self) -> "AjaxWebServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- publish -> wake path ------------------------------------------------------------

    def _hook_store(self, sid: str, store) -> None:
        """Attach our publish listener to a session's event store (once).

        A ``WeakSet`` keyed by the store object itself (not ``id()``)
        stays correct when stores are garbage-collected and their heap
        addresses reused by later sessions.  Runs on the IO loop only.
        """
        if store in self._hooked:
            return
        self._hooked.add(store)
        store.add_listener(lambda seq, sid=sid: self._on_publish(sid, seq))
        # Parked polls and push streams read nothing while they wait;
        # expose them as live demand (a watcher count) so the executor's
        # backpressure probe never demotes a watched session.
        store.attach_demand_probe(
            lambda sid=sid: self.scheduler.watchers_for(sid))

    def _on_publish(self, sid: str, seq: int) -> None:
        """Called from publisher (simulation) threads after every event."""
        woken = (self.scheduler.notify(sid, seq)
                 + self.scheduler.push_targets(sid, seq))
        if woken:
            woken_at = time.monotonic()
            for record in woken:
                record.woken_at = woken_at  # wake->delivery latency gauge
            self._loop._woken.extend(woken)
            self._loop._wake()
