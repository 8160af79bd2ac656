"""The Ajax web server: one non-blocking IO loop, session routes.

The seed used ``ThreadingHTTPServer`` and parked one thread per
outstanding long poll.  This server is one selector loop: every
connection is non-blocking, and a long poll with no fresh events
becomes a :class:`~repro.web.longpoll.Subscriber` record with a
deadline on the loop's :class:`~repro.web.longpoll.LongPollScheduler`.
Publishes from simulation threads pop ready polls and wake the loop
through its socketpair; the scheduler's deadline heap bounds the
loop's select timeout so expired polls get their empty delta on time.
Server-side thread count is a constant (1 IO thread + ``workers``)
regardless of how many clients are parked.

There is exactly one loop because parse, route, group, frame and
enqueue are Python bytecode under one GIL: K selector threads add lock
hand-overs and no throughput, and K = 2 and 4 measured a worse wake p99
than K = 1 at every herd size tried (table in ARCHITECTURE.md, "One IO
loop").  Scaling past one core means more processes, not more loops.

Routes are keyed by session — ``/api/v1/<session>/poll``,
``/api/v1/<session>/image`` ... — served out of the per-session
:class:`~repro.steering.events.EventSequenceStore` owned by the
:class:`~repro.steering.manager.SessionManager`.  Each image is encoded
once per version; all N clients receive the cached blob, and each poll
delta is serialized once per ``(since, head_seq)`` window — waking N
pollers on one publish costs ~O(1 encode + N writes), not O(N encodes).

**Push transports** ride the same encode-once core without the
per-event request/response cycle long polls pay.  ``GET
/api/v1/<sid>/stream`` turns the connection into a chunked-transfer SSE
stream and ``GET /api/v1/<sid>/ws`` upgrades it to a WebSocket (RFC 6455);
either way the connection becomes a persistent (deadline-less)
:class:`~repro.web.longpoll.Subscriber`.  A publish
then walks the subscriber list and :mod:`repro.web.delivery` (the one
path polls and streams share) appends the pre-framed delta — SSE
``data:`` chunk or WS frame, memoized per ``(since, head)`` window
alongside the JSON encode — to each connection's write deque: zero
re-parks, zero request parsing per event, still ~1 encode + N vectored
writes per herd wake.  The WS path can additionally carry image blobs
raw in binary frames (``?images=binary``) instead of base64-in-JSON,
cutting image-event wire bytes by ~33%.  Persistent streams add zero
threads: a subscriber is a ~100-byte record plus its connection's
existing selector registration.

The write path is zero-copy fan-out: a response is a freshly built
header ``bytes`` plus a shared immutable body buffer, queued as
``memoryview``s on a per-connection deque and flushed with vectored
(``sendmsg``) partial non-blocking writes.  A slow client accumulates
backlog in its own queue only — never a copy of a shared frame — and is
disconnected once the backlog exceeds the per-connection write budget,
so one stalled reader can neither stall the loop nor other watchers.

Heavy routes run off the IO loop: ``POST /api/v1/sessions`` (CentralManager
configure + simulation startup), cold-cache ``image.png`` re-encodes and
large component snapshots execute on a small fixed worker pool;
completions are queued back through the loop's socketpair, the same
wakeup the publish path uses.  Total server thread count stays a fixed
constant (1 IO thread + ``workers``) however many clients connect — and
with simulations on the shared
:class:`~repro.steering.executor.SimulationExecutor` (or its
multiprocess sibling), the whole process obeys
``1 + workers + executor_workers`` however many sessions step.
``GET /api/v1/stats`` surfaces the serving counters plus the executor's
block (including its backend and worker-process count).
"""

from __future__ import annotations

import itertools
import json
import math
import queue
import selectors
import socket
import threading
import time
import weakref
from collections import deque

from repro.adaptive.controller import AdaptiveDeliveryController
from repro.adaptive.estimator import ClientLinkEstimator
from repro.adaptive.tiers import MAX_TIER, clamp_tier
from repro.errors import ConfigurationError, ReproError, WebServerError
from repro.obs import Observability
from repro.steering.client import SteeringClient
from repro.steering.events import (
    FRAME_JSON,
    FRAME_SSE,
    FRAME_WS,
    FRAME_WS_B64,
    FRAME_WS_BINARY,
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    sse_comment_chunk,
    ws_server_frame,
)
from repro.web.delivery import Delivery
from repro.web.framing import (
    _MAX_BODY_BYTES,
    _MAX_HEADER_BYTES,
    HttpRequest,
    parse_request,
    parse_ws_frames,
    ws_accept_key,
)
from repro.web.longpoll import LongPollScheduler, Subscriber
from repro.web.static import DASHBOARD_HTML, INDEX_HTML
from repro.window import WindowCursor

__all__ = ["API_ROUTES", "AjaxWebServer"]

_MAX_POLL_TIMEOUT = 30.0
_MAX_IOV = 64  # buffers per vectored write (safely under IOV_MAX everywhere)
_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")
_INDEX_BYTES = INDEX_HTML.encode("utf-8")  # encoded once, shared by every GET /
_DASHBOARD_BYTES = DASHBOARD_HTML.encode("utf-8")  # GET /dashboard, same deal

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """A routing/validation failure with an explicit HTTP status.

    Raised anywhere under dispatch; ``_dispatch_safe`` renders it as the
    uniform JSON error envelope.  ``code`` is the machine-readable slug
    (``not_found``, ``bad_request``, ``method_not_allowed``,
    ``internal``) the envelope carries alongside the human message.
    """

    __slots__ = ("status", "code", "message")

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def _error_body(code: str, message: str) -> bytes:
    """The one JSON error envelope every endpoint answers with."""
    return json.dumps({"error": {"code": code, "message": message}}).encode("utf-8")


def _positive_int(spec: dict, name: str, default: int) -> int:
    """``spec[name]`` as a JSON integer >= 1, or a 400."""
    value = spec.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise _HttpError(400, "bad_request",
                         f"{name} must be an integer >= 1, got {value!r}")
    return value


class _Route:
    """One declarative API route: method + path pattern + action name.

    ``pattern`` is a tuple of path segments below the API prefix;
    ``"{sid}"`` binds the session id.
    """

    __slots__ = ("method", "pattern", "action")

    def __init__(self, method: str, pattern: tuple, action: str) -> None:
        self.method = method
        self.pattern = pattern
        self.action = action

    def match(self, method: str | None, segments: list) -> tuple[bool, str | None]:
        """(matched, bound sid); ``method=None`` probes the path alone
        (the 405 discriminator)."""
        if len(segments) != len(self.pattern):
            return False, None
        if method is not None and method != self.method:
            return False, None
        sid = None
        for want, got in zip(self.pattern, segments):
            if want == "{sid}":
                sid = got
            elif want != got:
                return False, None
        return True, sid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"_Route({self.method} /api/v1/{'/'.join(self.pattern)}"
                f" -> {self.action})")


#: The whole API surface, declaratively, mounted under ``/api/v1/...``.
#: Literal patterns precede ``{sid}`` wildcards of the same length so
#: ``/api/v1/replay/<x>`` can never be captured as a session route.
API_ROUTES = (
    _Route("GET", ("sessions",), "sessions.list"),
    _Route("POST", ("sessions",), "sessions.create"),
    _Route("GET", ("stats",), "stats"),
    _Route("GET", ("metrics",), "metrics"),
    _Route("GET", ("metrics", "history"), "metrics.history"),
    _Route("POST", ("replay", "{sid}"), "replay"),
    _Route("GET", ("{sid}", "state"), "state"),
    _Route("GET", ("{sid}", "poll"), "poll"),
    _Route("GET", ("{sid}", "stream"), "stream"),
    _Route("GET", ("{sid}", "ws"), "ws"),
    _Route("GET", ("{sid}", "image"), "image"),
    _Route("GET", ("{sid}", "image.png"), "image.png"),
    _Route("GET", ("{sid}", "window"), "window.get"),
    _Route("POST", ("{sid}", "window"), "window.set"),
    _Route("GET", ("{sid}", "brick"), "brick"),
    _Route("POST", ("{sid}", "steer"), "steer"),
    _Route("POST", ("{sid}", "view"), "view"),
    _Route("POST", ("{sid}", "stop"), "stop"),
)


def match_route(method: str, path: str) -> tuple[str | None, _Route]:
    """Match ``method`` + ``path`` against :data:`API_ROUTES`.

    Returns ``(sid, route)``: ``sid`` is the bound ``{sid}`` wildcard
    (None for sessionless routes).  Raises :class:`_HttpError` 404 for a
    path outside ``/api/v1`` or matching no route, and 405 when the path
    exists under another method.
    """
    segments = [s for s in path.split("/") if s]
    if segments[:2] != ["api", "v1"]:
        raise _HttpError(404, "not_found", f"no route {path}")
    rest = segments[2:]
    path_matched = False
    for route in API_ROUTES:
        ok, sid = route.match(method, rest)
        if ok:
            return sid, route
        matched, _ = route.match(None, rest)
        path_matched = path_matched or matched
    if path_matched:
        raise _HttpError(405, "method_not_allowed",
                         f"method {method} not allowed for {path}")
    raise _HttpError(404, "not_found", f"no route {path}")


class _Handler:
    """One client connection: buffers, parse state, at most one registration.

    Output is a deque of ``memoryview``s over immutable buffers — the
    response header is built per connection, but the body (a shared delta
    frame or cached image blob) is queued without copying.  ``out_bytes``
    tracks the unsent backlog against the server's write budget.

    ``loop`` is the IO loop serving this connection; only the loop's
    thread touches the handler.

    ``mode`` starts as ``"http"`` (request/response parsing) and flips
    once, irreversibly, to ``"sse"`` or ``"ws"`` when a stream route
    claims the connection.  ``subscriber`` is the connection's one
    registration — its parked poll or its push stream; while it is set
    no further request is parsed and the idle reaper leaves the
    connection alone.

    ``tier``/``max_tier``/``estimator`` are the adaptive delivery plane's
    per-connection state: the current delivery tier (only the IO loop
    writes it), the deepest tier the client accepts (its ``min_quality``
    hint), and the passive link estimator the write path feeds.
    """

    __slots__ = ("loop", "sock", "addr", "inbuf", "outq", "out_bytes",
                 "close_after", "subscriber", "mode", "busy",
                 "closed", "keep_alive", "last_activity", "want_write",
                 "tier", "max_tier", "estimator",
                 "window_wid", "window_source", "lod_bias")

    def __init__(self, loop: "_IOLoop", sock: socket.socket, addr) -> None:
        self.loop = loop
        self.sock = sock
        self.addr = addr
        self.inbuf = bytearray()
        self.outq: deque[memoryview] = deque()
        self.out_bytes = 0
        self.want_write = False  # EVENT_WRITE currently registered
        self.close_after = False
        self.subscriber: Subscriber | None = None  # parked poll or push stream
        self.mode = "http"  # "http" | "sse" | "ws"
        self.busy = False  # a worker-pool job owns the next response
        self.closed = False
        self.keep_alive = True  # set per request; consumed by _send
        self.last_activity = time.monotonic()
        self.tier = 0
        self.max_tier = MAX_TIER
        self.estimator = (ClientLinkEstimator()
                          if loop.server.adaptive else None)
        # Sliding-window state: the client's window id within its
        # session, the owning session's domain source and the extra LOD
        # coarsening the staleness ladder currently applies; delivery
        # resolves the three into the frame group's geometry key.
        self.window_wid: str | None = None
        self.window_source = None
        self.lod_bias = 0

    # -- response construction -----------------------------------------------------

    def _send(self, code: int, body: bytes, ctype: str = "application/json") -> None:
        """Queue a full HTTP response honouring the request's keep-alive.

        ``body`` is queued by reference (zero-copy): callers hand in
        immutable ``bytes`` — shared delta frames and cached image blobs
        reach every connection without per-client copies.
        """
        if not self.keep_alive:
            self.close_after = True
        header = self.loop.server._render_head(code, ctype, len(body),
                                               self.keep_alive)
        self.loop._enqueue_and_flush(self, (header, body) if body else (header,))

    def _send_json(self, obj, code: int = 200) -> None:
        self._send(code, json.dumps(obj).encode("utf-8"))

    def _send_error(self, status: int, code: str, message: str) -> None:
        """The uniform error envelope: ``{"error": {"code", "message"}}``."""
        self._send(status, _error_body(code, message))


class _WorkerPool:
    """Small fixed pool for heavy routes (session creation).

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


class _ReplayPump:
    """One paced replay: journaled rows restored on the IO loop.

    ``POST /api/v1/replay/<sid>`` with ``rate_hz > 0`` adopts an *empty*
    rehydrated store and registers a pump on the IO loop, which
    restores one journaled row per interval, folding
    the next due time into its select timeout — paced replay costs zero
    threads, exactly like parked polls and push streams.  Each restore
    fires the store's listeners, so connected clients are woken through
    the normal publish path and can scrub the run "live".
    """

    __slots__ = ("sid", "events", "rows", "journal", "interval",
                 "next_due", "pos", "skipped")

    def __init__(self, sid: str, events, rows: list[dict], journal,
                 interval: float) -> None:
        self.sid = sid
        self.events = events
        self.rows = rows
        self.journal = journal
        self.interval = max(1e-3, float(interval))
        self.next_due = time.monotonic() + self.interval
        self.pos = 0
        self.skipped = 0  # image rows whose blob left the byte budget


class _IOLoop:
    """The selector IO loop: its accept socket, scheduler and connections.

    Everything connection-shaped lives here — the selector, the wake
    socketpair, the subscriber scheduler, the handler set, the serving
    counters — and is touched by the loop's thread only.  Other threads
    (publishers, the worker pool) reach it through the ``_woken`` /
    ``_completions`` deques + the wake socketpair.
    """

    def __init__(self, server: "AjaxWebServer", listen: socket.socket) -> None:
        self.server = server
        self.listen = listen
        self.scheduler = LongPollScheduler()
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        # Records awaiting delivery: appended by publishers, the deadline
        # wheel, eviction and the poll/stream routes; popped by this loop.
        self._woken: deque[Subscriber] = deque()
        self._completions: deque = deque()  # (handler, code, body, ctype)
        self._handlers: set[_Handler] = set()
        self._replays: list[_ReplayPump] = []  # paced replays this loop pumps
        self._thread: threading.Thread | None = None
        self.requests_served = 0
        self.bytes_sent = 0
        self.slow_client_disconnects = 0
        self.tier_promotions = 0  # adaptive controller moved a client up
        self.tier_demotions = 0  # ...or down (degrade-before-disconnect)
        self.lod_promotions = 0  # windowed client refined back toward its LOD
        self.lod_demotions = 0  # ...or was coarsened (staleness ladder)
        # The one wake path (and its gauges: polls served, per-transport
        # bytes, tier savings, wake latency, swallowed delivery errors).
        self.delivery = Delivery(
            events=server.manager.events,
            enqueue=self._enqueue_and_flush,
            close=self._close,
            resume=self._process_input,
            remove=self.scheduler.remove,
            render_head=server._render_head,
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self._selector.register(self.listen, selectors.EVENT_READ,
                                ("accept", None))
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                ("wake", None))
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="ricsa-web-io")
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the loop to exit and wait; it closes its sockets on the way
        out.  A loop that never ran has nobody else to close them."""
        if self._thread is None:
            self._shutdown_sockets()
            return
        self._wake()
        self._thread.join(timeout=timeout)
        self._thread = None

    def io_thread_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # wake byte already pending, or server shutting down

    def _tier_gauges(self) -> list[int]:
        """Open connections per delivery tier (approximate while running).

        The handler set belongs to the loop's thread; a stats read from
        another thread may race a mutation, so snapshotting retries and
        degrades to an empty gauge rather than raising.
        """
        counts = [0] * (MAX_TIER + 1)
        for _attempt in range(3):
            try:
                handlers = list(self._handlers)
                break
            except RuntimeError:  # set mutated mid-iteration
                handlers = []
        for handler in handlers:
            if not handler.closed:
                counts[handler.tier] += 1
        return counts

    # -- the IO loop ------------------------------------------------------------------

    def _serve(self) -> None:
        server = self.server
        next_housekeeping = time.monotonic() + server.housekeeping_interval
        while not server._stop.is_set():
            now = time.monotonic()
            timeout = server.housekeeping_interval
            deadline = self.scheduler.next_deadline()
            if deadline is not None:
                timeout = min(timeout, max(0.0, deadline - now))
            replay_due = self._next_replay_due()
            if replay_due is not None:
                timeout = min(timeout, max(0.0, replay_due - now))
            timeout = min(timeout, max(0.0, next_housekeeping - now))
            for key, events in self._selector.select(timeout=timeout):
                kind, handler = key.data
                try:
                    if kind == "accept":
                        self._accept()
                    elif kind == "wake":
                        self._drain_wake()
                    elif kind == "conn":
                        if events & selectors.EVENT_READ:
                            self._readable(handler)
                        if events & selectors.EVENT_WRITE and not handler.closed:
                            self._writable(handler)
                except Exception:  # defensive: one bad connection must not kill the loop
                    if handler is not None:
                        self._close(handler)
            now = time.monotonic()
            if self._replays:
                self._pump_replays(now)
            self._deliver_completions()
            self._woken.extend(self.scheduler.expire_due(now))
            while self._woken:  # a delivery may resume a parser that queues more
                self.delivery.deliver(
                    [self._woken.popleft() for _ in range(len(self._woken))])
            if now >= next_housekeeping:
                next_housekeeping = now + server.housekeeping_interval
                self._housekeeping()
        self._shutdown_sockets()

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self.listen.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.server.sndbuf is not None:
                # Cap the kernel send buffer so a slow reader's backlog
                # becomes server-visible (and the adaptive plane can act)
                # instead of hiding in socket buffers.
                try:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    self.server.sndbuf)
                except OSError:  # pragma: no cover - platform quirk
                    pass
            handler = _Handler(self, sock, addr)
            self._handlers.add(handler)
            self._selector.register(sock, selectors.EVENT_READ,
                                    ("conn", handler))

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _close(self, handler: _Handler) -> None:
        if handler.closed:
            return
        handler.closed = True
        if handler.subscriber is not None:
            self.scheduler.remove(handler.subscriber)
            handler.subscriber = None
        try:
            self._selector.unregister(handler.sock)
        except (KeyError, ValueError):
            pass
        try:
            handler.sock.close()
        except OSError:
            pass
        self._handlers.discard(handler)

    def _want_write(self, handler: _Handler) -> None:
        if handler.closed or handler.want_write:
            return
        handler.want_write = True
        self._selector.modify(
            handler.sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
            ("conn", handler),
        )

    def _readable(self, handler: _Handler) -> None:
        try:
            chunk = handler.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(handler)
            return
        if not chunk:
            self._close(handler)
            return
        handler.last_activity = time.monotonic()
        handler.inbuf += chunk
        if len(handler.inbuf) > _MAX_HEADER_BYTES + _MAX_BODY_BYTES:
            # Bound buffering even while a poll is parked on this
            # connection (parsing is deferred until the response goes out).
            self._close(handler)
            return
        self._process_input(handler)

    def _drop_slow(self, handler: _Handler) -> None:
        """Disconnect a client whose unread backlog exceeds the write budget.

        The backlog is per-connection memoryviews over shared immutable
        buffers, so dropping the client frees only queue entries — the
        shared frames other connections reference are untouched.
        """
        self.slow_client_disconnects += 1
        self._close(handler)

    def _flush(self, handler: _Handler) -> None:
        """Vectored write of as much queued output as the socket accepts.

        Runs on the IO loop only.  Shared body buffers go straight
        from the queue of ``memoryview``s to ``sendmsg`` — no
        concatenation, no per-client copy.  A partial write narrows the
        front view in place (zero-copy) and falls back to EVENT_WRITE
        registration.
        """
        while handler.outq:
            bufs = list(itertools.islice(handler.outq, _MAX_IOV))
            try:
                if _HAS_SENDMSG:
                    sent = handler.sock.sendmsg(bufs)
                else:  # pragma: no cover - platforms without sendmsg
                    sent = handler.sock.send(bufs[0])
            except (BlockingIOError, InterruptedError):
                self._want_write(handler)
                return
            except OSError:
                self._close(handler)
                return
            handler.last_activity = time.monotonic()
            handler.out_bytes -= sent
            self.bytes_sent += sent
            if handler.estimator is not None:
                # Passive EPB measurement: inside a constrained window
                # (backlog observed earlier) the drain rate IS the path
                # bandwidth; unconstrained inline flushes are ignored.
                handler.estimator.on_drain(sent, handler.out_bytes,
                                           handler.last_activity)
            # Retire fully written buffers; slice the partial one in place
            # (a zero-copy narrowing of the memoryview, not a data copy).
            while sent > 0:
                head = handler.outq[0]
                if sent >= len(head):
                    sent -= len(head)
                    handler.outq.popleft()
                else:
                    handler.outq[0] = head[sent:]
                    break
        handler.out_bytes = 0
        if handler.close_after:
            self._close(handler)

    def _writable(self, handler: _Handler) -> None:
        self._flush(handler)
        if not handler.closed and not handler.outq and handler.want_write:
            handler.want_write = False
            self._selector.modify(handler.sock, selectors.EVENT_READ,
                                  ("conn", handler))
            # A pipelined request may already be buffered.
            self._process_input(handler)

    # -- HTTP parsing -----------------------------------------------------------------

    def _process_input(self, handler: _Handler) -> None:
        """Parse and dispatch as many buffered requests as possible.

        Once a stream route has claimed the connection the HTTP parser
        never runs again: WS input goes to the frame parser (ping/close
        handling), SSE input is discarded (the stream is one-way).
        """
        if handler.mode == "ws":
            self._process_ws_input(handler)
            return
        if handler.mode == "sse":
            handler.inbuf.clear()
            return
        while (not handler.closed and handler.subscriber is None
               and not handler.busy and handler.mode == "http"):
            try:
                request = parse_request(handler.inbuf)
            except WebServerError:  # unrecoverable framing: drop the conn
                self._close(handler)
                return
            if request is None:
                return
            self.requests_served += 1
            handler.keep_alive = request.keep_alive
            self._dispatch_safe(handler, request)

    def _dispatch_safe(self, handler: _Handler, request: HttpRequest) -> None:
        """Dispatch one request, converting errors to the JSON envelope."""
        try:
            self._dispatch(handler, request)
        except _HttpError as exc:
            handler._send_error(exc.status, exc.code, exc.message)
        except WebServerError as exc:
            # Session-registry lookups: an unknown resource on a GET is a
            # 404; on a mutating POST the request itself was bad.
            if request.method == "GET":
                handler._send_error(404, "not_found", str(exc))
            else:
                handler._send_error(400, "bad_request", str(exc))
        except ReproError as exc:
            handler._send_error(400, "bad_request", str(exc))
        except Exception as exc:  # never kill the loop for one request
            handler._send_error(500, "internal", f"internal: {exc}")

    # -- routing ----------------------------------------------------------------------

    def _dispatch(self, handler: _Handler, request: HttpRequest) -> None:
        server = self.server
        if request.method == "GET" and request.path == "/":
            handler._send(200, _INDEX_BYTES, "text/html; charset=utf-8")
            return
        if request.method == "GET" and request.path == "/dashboard":
            handler._send(200, _DASHBOARD_BYTES, "text/html; charset=utf-8")
            return
        sid, route = match_route(request.method, request.path)
        action = route.action
        if action == "stats":
            handler._send_json(server.stats())
            return
        if action == "sessions.list":
            handler._send_json(server.manager.sessions())
            return
        if action == "sessions.create":
            self._create_session(handler, request)
            return
        if action == "metrics":
            self._handle_metrics(handler)
            return
        if action == "metrics.history":
            self._handle_metrics_history(handler, request)
            return
        if action == "replay":
            # ``sid`` names the journaled *source* session — it need not
            # resolve to a live session.
            assert sid is not None
            self._handle_replay(handler, request, sid)
            return
        assert sid is not None
        self._dispatch_session(handler, request, sid, action)

    def _dispatch_session(self, handler: _Handler, request: HttpRequest,
                          sid: str, action: str) -> None:
        server = self.server
        store = server.manager.events(sid)
        if action == "state":
            if store.component_count() > server.SNAPSHOT_OFFLOAD_COMPONENTS:
                # A large merged snapshot is an O(components) JSON encode;
                # render it on the worker pool like any heavy route.
                self._offload(handler, lambda: (
                    200, json.dumps(store.snapshot()).encode("utf-8"),
                    "application/json",
                ))
            else:
                handler._send_json(store.snapshot())
        elif action == "poll":
            self._handle_poll(handler, request, sid, store)
        elif action == "stream":
            self._handle_stream(handler, request, sid, store)
        elif action == "ws":
            self._handle_ws_upgrade(handler, request, sid, store)
        elif action == "image":
            version = server._version_arg(request)
            tier = clamp_tier(server._query_num(request, "tier", "0"))
            if tier:
                # A tier variant may need its lazy downscale encode —
                # CPU work that belongs on the worker pool, like the
                # cold-PNG path below.
                self._offload(handler, lambda: (
                    200, store.image_blob(version, tier),
                    "application/octet-stream",
                ))
            else:
                handler._send(200, store.image_blob(version),
                              "application/octet-stream")
        elif action == "image.png":
            version = server._version_arg(request)
            tier = clamp_tier(server._query_num(request, "tier", "0"))
            cached = store.png_cached(version, tier)  # raises 404-wise if evicted
            if cached is not None:
                handler._send(200, cached, "image/png")
            else:
                # Cold cache: the PNG re-encode is the priciest per-request
                # CPU in the serving tier — run it off the IO loop.
                self._offload(handler, lambda: (
                    200, store.image_png(version, tier), "image/png",
                ))
        elif action == "window.get":
            self._handle_window_get(handler, request, sid, store)
        elif action == "window.set":
            self._handle_window_set(handler, request, sid, store)
        elif action == "brick":
            self._handle_brick(handler, request, store)
        elif action == "steer":
            body = request.json_body()
            session = server.manager.get(sid)
            with server.manager.locked(sid):
                session.steer(body)
            handler._send_json({"ok": True, "session": sid, "staged": body})
        elif action == "view":
            body = request.json_body()
            session = server.manager.get(sid)
            with server.manager.locked(sid):
                server._apply_view_ops(session, body)
            handler._send_json({"ok": True, "session": sid})
        elif action == "stop":
            session = server.manager.get(sid)
            with server.manager.locked(sid):
                session.request_shutdown()
            handler._send_json({"ok": True, "session": sid})
        else:  # pragma: no cover - route table and dispatch agree by construction
            raise WebServerError(f"no route {request.path}")

    # -- sliding-window routes -------------------------------------------------------

    @staticmethod
    def _window_source_or_404(store):
        source = store.window_source()
        if source is None:
            raise _HttpError(404, "not_found",
                             "session has no windowed domain source")
        return source

    def _handle_window_set(self, handler: _Handler, request: HttpRequest,
                           sid: str, store) -> None:
        source = self._window_source_or_404(store)
        body = request.json_body()
        cursor = WindowCursor.from_props(body)
        wid = str(body.get("wid") or "default")
        metas = source.set_cursor(wid, cursor)
        cursor = source.cursor(wid)  # LOD clamped by the source
        handler.window_wid = wid
        handler.window_source = source
        handler.lod_bias = 0
        handler._send_json({
            "ok": True,
            "session": sid,
            "wid": wid,
            "window": cursor.to_props(),
            "bricks": metas,
            "version": store.seq,
        })

    def _handle_window_get(self, handler: _Handler, request: HttpRequest,
                           sid: str, store) -> None:
        source = self._window_source_or_404(store)
        wid = request.query.get("window", ["default"])[0]
        cursor = source.cursor(wid)
        if cursor is None:
            raise _HttpError(404, "not_found", f"no window {wid!r}")
        handler._send_json({
            "session": sid,
            "wid": wid,
            "window": cursor.to_props(),
            "max_lod": source.octree.max_lod,
            "stats": source.stats(),
        })

    def _handle_brick(self, handler: _Handler, request: HttpRequest,
                      store) -> None:
        """Brick payload fetch: binary, encode-once, worker-pool encoded."""
        source = self._window_source_or_404(store)
        server = self.server
        lod = server._query_num(request, "lod", "0")
        index = server._query_num(request, "id", "0")

        def job() -> tuple[int, bytes, str]:
            try:
                payload = source.payload(lod, index)
            except ConfigurationError as exc:
                return 404, _error_body("not_found", str(exc)), "application/json"
            return 200, payload, "application/octet-stream"

        self._offload(handler, job)

    def _offload(self, handler: _Handler, fn) -> None:
        """Run ``fn() -> (code, body, ctype)`` on the worker pool.

        The single home of the off-loop route policy: the connection is
        marked ``busy`` (no further pipelined dispatch), the job runs on
        a worker, and its outcome — or its error, rendered as a JSON
        body — re-enters this loop through the completion queue +
        socketpair, the same wakeup publishes use.  Response bodies are
        encoded on the worker, so a large JSON/PNG render never touches
        the IO thread.
        """
        handler.busy = True

        def job() -> None:
            try:
                code, body, ctype = fn()
            except _HttpError as exc:
                code, body, ctype = (
                    exc.status, _error_body(exc.code, exc.message),
                    "application/json",
                )
            except ReproError as exc:
                code, body, ctype = (
                    400, _error_body("bad_request", str(exc)), "application/json",
                )
            except Exception as exc:  # report, never kill the worker
                code, body, ctype = (
                    500, _error_body("internal", f"internal: {exc}"),
                    "application/json",
                )
            self._completions.append((handler, code, body, ctype))
            self._wake()

        self.server._pool.submit(job)

    def _create_session(self, handler: _Handler, request: HttpRequest) -> None:
        """Heavy route, run off the IO loop on the worker pool.

        ``CentralManager.configure`` (pipeline calibration + DP mapping)
        plus simulation startup can take hundreds of milliseconds; inline
        they would stall every parked poll.
        """
        spec = request.json_body()  # parse errors answered inline, cheaply
        # A session that cannot step (``cycle % 0``) must not be answered 200.
        n_cycles = _positive_int(spec, "n_cycles", 50)
        push_every = _positive_int(spec, "push_every", 1)
        client = self.server.client

        def job() -> tuple[int, bytes, str]:
            session = client.start(
                simulator=spec.get("simulator", "heat"),
                technique=spec.get("technique", "isosurface"),
                variable=spec.get("variable"),
                n_cycles=n_cycles,
                session_id=spec.get("session_id"),
                initial_params=spec.get("params"),
                sim_kwargs=spec.get("sim_kwargs"),
                push_every=push_every,
            )
            payload = {"ok": True, "session": session.session_id}
            return 200, json.dumps(payload).encode("utf-8"), "application/json"

        self._offload(handler, job)

    # -- observability routes (metrics history, journal replay) ---------------------

    def _obs_or_raise(self):
        obs = self.server.obs
        if obs is None:
            raise WebServerError(
                "observability disabled: start the server with obs=True")
        return obs

    def _handle_metrics(self, handler: _Handler) -> None:
        """``GET /api/v1/metrics``: recorder/journal/store health + series."""
        obs = self._obs_or_raise()

        def job() -> tuple[int, bytes, str]:
            payload = obs.stats()
            payload["series"] = obs.recorder.series_names()
            return 200, json.dumps(payload).encode("utf-8"), "application/json"

        self._offload(handler, job)

    def _handle_metrics_history(self, handler: _Handler,
                                request: HttpRequest) -> None:
        """``GET /api/v1/metrics/history?series=&since=&step=``: windowed samples.

        Serves from the in-memory rings; when ``since`` predates the ring
        the SQLite store (if configured) backfills, so a dashboard reload
        after a server restart still sees the run's history.  The read
        runs on the worker pool — a disk-backed window must never stall
        parked polls.
        """
        obs = self._obs_or_raise()
        server = self.server
        raw = request.query.get("series", [""])[0]
        series = [s for s in raw.split(",") if s] or None
        since = server._query_num(request, "since", "0", float)
        step = server._query_num(request, "step", "0", float)
        limit = server._query_num(request, "limit", "2000")

        def job() -> tuple[int, bytes, str]:
            payload = {
                "now": time.time(),
                "series": obs.recorder.history(series, since=since,
                                               step=step, limit=limit),
            }
            return 200, json.dumps(payload).encode("utf-8"), "application/json"

        self._offload(handler, job)

    def _handle_replay(self, handler: _Handler, request: HttpRequest,
                       sid: str) -> None:
        """``POST /api/v1/replay/<sid>``: re-hydrate a journaled session.

        The journaled event sequence of ``sid`` — typically finished or
        evicted — comes back as a fresh *read-only* session serving the
        full delta/long-poll/SSE/WS surface.  ``rate_hz`` > 0 paces the
        restore on the IO loop (scrub a run "live");
        otherwise the store is rebuilt instantly on the worker pool.
        """
        obs = self._obs_or_raise()
        server = self.server
        body = request.json_body()
        target = str(body.get("session") or f"replay-{sid}")
        rate_hz = float(body.get("rate_hz", 0) or 0)

        def job() -> tuple[int, bytes, str]:
            journal = obs.journal
            rows = journal.rows(sid)  # raises WebServerError if unknown
            if rate_hz > 0:
                events = journal.empty_store_for(
                    rows, server.manager.file_size)
                skipped = 0  # pump counts its own skips as it goes
            else:
                events, skipped = journal.rehydrate(
                    sid, server.manager.file_size)
            server.manager.adopt_monitor(target, events,
                                         meta={"replay_of": sid})
            if rate_hz > 0:
                self._replays.append(_ReplayPump(
                    target, events, rows, journal, 1.0 / rate_hz))
                self._wake()
            payload = {
                "ok": True, "session": target, "replay_of": sid,
                "events": len(rows), "paced": rate_hz > 0,
                "skipped_images": skipped,
            }
            return 200, json.dumps(payload).encode("utf-8"), "application/json"

        self._offload(handler, job)

    def _deliver_completions(self) -> None:
        """Send worker-pool results; runs on the IO loop only."""
        while True:
            try:
                handler, code, body, ctype = self._completions.popleft()
            except IndexError:
                return
            handler.busy = False
            if handler.closed:
                continue
            try:
                handler._send(code, body, ctype)
                self._process_input(handler)  # pipelined requests behind the job
            except Exception:  # one bad connection must not kill the IO loop
                self._close(handler)

    # -- long polls ---------------------------------------------------------------------

    def _handle_poll(self, handler: _Handler, request: HttpRequest,
                     sid: str, store) -> None:
        server = self.server
        since = server._query_num(request, "since", "0")
        timeout = min(server._query_num(request, "timeout", "20", float),
                      _MAX_POLL_TIMEOUT)
        server._apply_min_quality(handler, request)
        wkey = server._apply_window(handler, request, store)
        server._hook_store(sid, store)
        poll = Subscriber(sid, since, handler, "longpoll", FRAME_JSON,
                          handler.tier, wkey,
                          deadline=time.monotonic() + timeout)
        handler.subscriber = poll  # holds the parser until delivery detaches it
        if store.seq > since or timeout <= 0:
            self._woken.append(poll)  # answered this pass, never registered
            return
        # Park: register first, then re-check, so a publish racing this
        # request is either seen by the re-check or pops the record.
        self.scheduler.add(poll)
        if store.seq > since and self.scheduler.remove(poll):
            self._woken.append(poll)
        # else: the poll is parked (or already in the delivery queue); the
        # IO loop delivers the response.  Zero threads are held either way.

    # -- push streams (SSE / WebSocket subscribers) --------------------------------

    def _handle_stream(self, handler: _Handler, request: HttpRequest,
                       sid: str, store) -> None:
        """``GET /api/v1/<sid>/stream``: become a chunked-transfer SSE stream."""
        server = self.server
        if not request.http11:
            # A client error, not a missing route: answer 400 inline
            # (the generic GET error path would call this a 404).
            handler._send_error(
                400, "bad_request",
                "stream requires HTTP/1.1 (chunked transfer)",
            )
            return
        since = server._query_num(request, "since", "-1")
        if since < 0:
            # EventSource reconnects resume exactly like pollers resume
            # with ?since: the id: line carries the head seq.
            last_id = request.headers.get("last-event-id", "")
            # ASCII digits only: "²".isdigit() is true but int("²") raises.
            since = (int(last_id)
                     if last_id.isascii() and last_id.isdigit() else 0)
        server._apply_min_quality(handler, request)
        wkey = server._apply_window(handler, request, store)
        server._hook_store(sid, store)
        handler.mode = "sse"
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\nServer: RICSA/2.0\r\n"
            "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        ).encode("latin-1")
        sub = self.scheduler.subscribe(sid, since, handler,
                                       transport="sse", framing=FRAME_SSE,
                                       tier=handler.tier, window=wkey)
        handler.subscriber = sub
        self._enqueue_and_flush(handler, (head, sse_comment_chunk(b"ok")))
        if store.seq > since:
            self._woken.append(sub)  # backlog behind the cursor goes out now

    def _handle_ws_upgrade(self, handler: _Handler, request: HttpRequest,
                           sid: str, store) -> None:
        """``GET /api/v1/<sid>/ws``: RFC 6455 upgrade, then pushed deltas."""
        server = self.server
        # Handshake violations are client errors: answer 400 inline (the
        # generic GET error path would call them 404s).
        if request.headers.get("upgrade", "").lower() != "websocket":
            handler._send_error(
                400, "bad_request",
                "ws route requires an Upgrade: websocket handshake",
            )
            return
        key = request.headers.get("sec-websocket-key", "")
        if not key:
            handler._send_error(
                400, "bad_request", "ws handshake missing Sec-WebSocket-Key"
            )
            return
        images = request.query.get("images", [""])[0]
        if images == "binary":
            framing = FRAME_WS_BINARY  # blobs raw after the JSON header
        elif images == "b64":
            framing = FRAME_WS_B64  # blobs base64-inlined in the JSON
        elif images in ("", "none"):
            framing = FRAME_WS  # meta only; images fetched over HTTP
        else:
            handler._send_error(
                400, "bad_request", f"unknown images mode {images!r}"
            )
            return
        since = server._query_num(request, "since", "0")
        server._apply_min_quality(handler, request)
        wkey = server._apply_window(handler, request, store)
        server._hook_store(sid, store)
        head = (
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {ws_accept_key(key)}\r\n"
            "Server: RICSA/2.0\r\n\r\n"
        ).encode("latin-1")
        handler.mode = "ws"
        sub = self.scheduler.subscribe(sid, since, handler,
                                       transport="ws", framing=framing,
                                       tier=handler.tier, window=wkey)
        handler.subscriber = sub
        self._enqueue_and_flush(handler, (head,))
        if store.seq > since:
            self._woken.append(sub)
        if not handler.closed and handler.inbuf:
            self._process_ws_input(handler)  # frames sent before our 101

    def _process_ws_input(self, handler: _Handler) -> None:
        """Serve the client->server half of a WS connection (control frames)."""
        try:
            frames = parse_ws_frames(handler.inbuf, require_mask=True)
        except WebServerError:
            self._close(handler)
            return
        for opcode, payload in frames:
            if handler.closed:
                return
            if opcode == WS_PING:
                pong = ws_server_frame(payload, WS_PONG)
                self.delivery.count_tx("ws", len(pong), kind=None)
                self._enqueue_and_flush(handler, (pong,))
            elif opcode == WS_CLOSE:
                # Echo the status code (if any) and finish the closing
                # handshake; close_after fires once the echo is flushed.
                handler.close_after = True
                echo = ws_server_frame(payload[:2], WS_CLOSE)
                self.delivery.count_tx("ws", len(echo), kind=None)
                self._enqueue_and_flush(handler, (echo,))
                return
            # Data and pong frames from the client carry nothing we act on.

    def _enqueue_and_flush(self, handler: _Handler, buffers) -> None:
        """The single home of the write policy: queue ``buffers`` (by
        reference, zero-copy), flush inline, and drop the client if the
        backlog the socket refused exceeds the write budget.

        The budget applies AFTER the flush, so a response larger than
        the budget still reaches a fast reader — only unsendable backlog
        counts against the connection.
        """
        for buf in buffers:
            handler.outq.append(memoryview(buf))
            handler.out_bytes += len(buf)
        self._flush(handler)
        if handler.closed:
            return
        if handler.estimator is not None:
            handler.estimator.on_backlog(handler.out_bytes, time.monotonic())
            if handler.out_bytes > 0:
                self._maybe_degrade(handler)
        if handler.out_bytes > self.server.write_budget:
            self._drop_slow(handler)

    def _set_tier(self, handler: _Handler, tier: int) -> None:
        """Move a connection onto ``tier`` (IO loop only), counted."""
        tier = min(clamp_tier(tier), handler.max_tier)
        if tier == handler.tier:
            return
        if tier > handler.tier:
            self.tier_demotions += 1
        else:
            self.tier_promotions += 1
        handler.tier = tier
        if handler.subscriber is not None:
            handler.subscriber.tier = tier

    # -- sliding-window LOD ladder (degrade window clients by coarsening) -----------

    def _set_lod_bias(self, handler: _Handler, bias: int) -> bool:
        """Set a windowed client's extra-coarsening bias; True if changed."""
        source = handler.window_source
        if source is None or handler.window_wid is None:
            return False
        bias = max(0, int(bias))
        if bias == handler.lod_bias:
            return False
        if bias > handler.lod_bias:
            self.lod_demotions += 1
        else:
            self.lod_promotions += 1
        handler.lod_bias = bias  # delivery resolves the coarsened key
        return True

    def _shift_lod(self, handler: _Handler, delta: int = 0,
                   to_max: bool = False) -> bool:
        """Coarsen (or refine) a windowed client by ``delta`` LOD levels;
        ``to_max`` jumps straight to the octree's coarsest level."""
        source = handler.window_source
        if source is None or handler.window_wid is None:
            return False
        cursor = source.cursor(handler.window_wid)
        if cursor is None:
            return False
        octree = source.octree
        max_bias = octree.max_lod - octree.clamp_lod(cursor.lod)
        bias = max_bias if to_max else handler.lod_bias + delta
        return self._set_lod_bias(handler, min(max(bias, 0), max_bias))

    def _maybe_degrade(self, handler: _Handler) -> None:
        """Inline degrade-before-disconnect, checked at every enqueue.

        Two triggers, both strictly earlier than the write-budget reaper:
        a backlog past half the budget sheds one tier per enqueued event
        (frames shrink immediately, before the budget can fill), and a
        backlog older than the staleness budget jumps straight to the
        deepest allowed tier (snapshot-skipping) — the client is so far
        behind that intermediate frames are pure liability.
        """
        server = self.server
        heavy = handler.out_bytes > server.write_budget // 2
        stale = (handler.estimator.backlog_age(time.monotonic())
                 > server.staleness_budget)
        if handler.window_wid is not None:
            # Windowed clients shed bytes by coarsening LOD first (an
            # 8x/level lever on brick payloads); image tiers are the
            # fallback once the LOD ladder saturates.
            if heavy and self._shift_lod(handler, +1):
                return
            if stale and self._shift_lod(handler, to_max=True):
                return
        if handler.tier >= handler.max_tier:
            return
        if heavy:
            self._set_tier(handler, handler.tier + 1)
        elif stale:
            self._set_tier(handler, handler.max_tier)

    def _retier(self) -> None:
        """Controller pass at the housekeeping cadence (0 extra threads).

        Every connection with a warm estimate gets the DP-mapped tier
        for its measured link; cold (never-constrained) connections keep
        their current tier — including promotions back toward full
        quality once a once-slow link shows headroom.
        """
        controller = self.server.controller
        if controller is None:
            return
        now = time.monotonic()
        for handler in list(self._handlers):
            est = handler.estimator
            if est is None or handler.closed:
                continue
            if est.backlog_age(now) > self.server.staleness_budget:
                if not self._shift_lod(handler, to_max=True):
                    self._set_tier(handler, handler.max_tier)
                continue
            if handler.window_wid is not None:
                self._relod(handler, controller, est.estimate())
            tier = controller.decide(est.estimate(), handler.tier,
                                     handler.max_tier)
            self._set_tier(handler, tier)

    def _relod(self, handler: _Handler, controller, estimate) -> None:
        """DP pass over the window LOD ladder (mirrors tier decide)."""
        source = handler.window_source
        if source is None:
            return
        cursor = source.cursor(handler.window_wid)
        if cursor is None:
            return
        octree = source.octree
        requested = octree.clamp_lod(cursor.lod)
        current = octree.clamp_lod(requested + handler.lod_bias)
        wbytes = source.window_bytes((cursor.lo, cursor.hi, requested))
        lod = controller.decide_lod(estimate, current, requested,
                                    octree.max_lod, wbytes)
        self._set_lod_bias(handler, lod - requested)

    # -- paced replays (journal -> live session, 0 threads) -------------------------

    def _next_replay_due(self) -> float | None:
        """Earliest paced-replay due time (folds into the select timeout)."""
        if not self._replays:
            return None
        return min(pump.next_due for pump in self._replays)

    def _pump_replays(self, now: float) -> None:
        """Restore due journal rows into replay stores (this loop only)."""
        finished: list[_ReplayPump] = []
        for pump in self._replays:
            try:
                while pump.pos < len(pump.rows) and pump.next_due <= now:
                    row = pump.rows[pump.pos]
                    pump.pos += 1
                    pump.next_due += pump.interval
                    blob = None
                    if row["kind"] == "image":
                        blob = pump.journal.blob(row["digest"])
                        if blob is None:
                            # Blob left the byte budget: restore meta-only,
                            # exactly like rehydrate() does.
                            pump.skipped += 1
                    pump.events.restore_event(
                        row["kind"], row["component"], row["cycle"],
                        row["props"], seq=row["seq"], blob=blob,
                    )
            except Exception:  # a bad row ends this replay, not the loop
                pump.pos = len(pump.rows)
            if pump.pos >= len(pump.rows):
                finished.append(pump)
        for pump in finished:
            self._replays.remove(pump)

    def _housekeeping(self) -> None:
        server = self.server
        self._retier()  # adaptive controller pass: piggybacks, 0 threads
        if server.obs is not None:
            # Metrics capture piggybacks the housekeeping tick (the
            # recorder adds zero threads); a sampling failure must
            # never take the IO loop down with it.
            try:
                server.obs.recorder.sample(server.stats())
            except Exception:
                pass
        # Evicted sessions' records go to delivery, which says goodbye
        # by transport (404 / SSE terminal chunk / WS close).
        for sid in server.manager.evict_idle():
            dropped = self.scheduler.drop_key(sid)
            if dropped:
                self._woken.extend(dropped)
                self._wake()  # this pass's delivery already ran
        # Reap half-open keep-alive connections past the advertised
        # Keep-Alive timeout.  `last_activity` only advances on
        # successful IO, so a connection with pending output that made
        # no progress for the whole window is a stalled reader whose
        # backlog never reached the write budget — drop it as slow
        # rather than holding its fd and queued buffers forever.
        cutoff = time.monotonic() - server.keepalive_timeout
        beat_cutoff = time.monotonic() - server.keepalive_timeout / 2
        for handler in list(self._handlers):
            sub = handler.subscriber
            if sub is not None:
                # A registered connection is never idle-reaped: a parked
                # poll has its own deadline, and an idle stream is a
                # quiet simulation, not a dead client.  Streams heartbeat
                # instead (WS ping / SSE comment) — a dead peer RSTs the
                # next write, a stalled one accumulates backlog until
                # the write budget drops it.
                if (sub.deadline is None and not handler.closed
                        and handler.last_activity < beat_cutoff):
                    beat = (ws_server_frame(b"", WS_PING)
                            if sub.transport == "ws" else sse_comment_chunk())
                    self.delivery.count_tx(sub.transport, len(beat),
                                           kind="heartbeats")
                    try:
                        self._enqueue_and_flush(handler, (beat,))
                    except Exception:
                        self._close(handler)
                continue
            if handler.busy or handler.last_activity >= cutoff:
                continue
            if handler.outq:
                self._drop_slow(handler)
            else:
                self._close(handler)

    def _shutdown_sockets(self) -> None:
        for handler in list(self._handlers):
            self._close(handler)
        for sock in (self._wake_r, self._wake_w, self.listen):
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError):
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()


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
        adaptive: bool = True,
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
        self.adaptive = bool(adaptive)
        self.staleness_budget = float(staleness_budget)
        self.sndbuf = None if sndbuf is None else int(sndbuf)
        self.controller = (
            AdaptiveDeliveryController(
                image_bytes=self.manager.file_size,
                staleness_budget=self.staleness_budget,
            )
            if self.adaptive else None
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
        self._loop = _IOLoop(self, listen)
        self.scheduler = self._loop.scheduler
        self._pool = _WorkerPool(self.workers)
        self._hooked: "weakref.WeakSet" = weakref.WeakSet()  # stores with our listener
        self._stop = threading.Event()
        # Durable ops tier: metrics recorder + session journal (+ SQLite).
        # ``obs`` accepts False/None (off), True (in-memory rings +
        # journal only), a path (SQLite-backed), or a ready-made
        # Observability the caller owns.
        self.obs, self._owns_obs = self._resolve_obs(obs)
        if self.obs is not None and self.manager.journal is None:
            self.manager.attach_journal(self.obs.journal)
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
        reason = _STATUS_TEXT.get(code, "OK")
        suffix = self._keepalive_suffix if keep_alive else self._close_suffix
        return (
            f"HTTP/1.1 {code} {reason}\r\n"
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
    def requests_served(self) -> int:
        return self._loop.requests_served

    @property
    def bytes_sent(self) -> int:
        return self._loop.bytes_sent

    @property
    def slow_client_disconnects(self) -> int:
        return self._loop.slow_client_disconnects

    def parked_polls(self) -> int:
        """Polls parked on the scheduler."""
        return self.scheduler.pending()

    def subscribers(self) -> int:
        """Live push subscribers (SSE + WS)."""
        return self.scheduler.subscribers()

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
            "adaptive": self.adaptive,
            "tiers": loop._tier_gauges(),
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

    # -- routing helpers ---------------------------------------------------------------

    #: Snapshots past this many components are serialized off the IO loop.
    SNAPSHOT_OFFLOAD_COMPONENTS = 32

    @staticmethod
    def _query_num(request: HttpRequest, name: str, default: str, cast=int):
        raw = request.query.get(name, [default])[0]
        try:
            value = cast(raw)
        except (TypeError, ValueError):
            raise _HttpError(400, "bad_request",
                             f"query parameter {name}={raw!r} is not a number")
        if not math.isfinite(value):
            # nan/inf deadlines would wedge the scheduler's deadline heap
            raise _HttpError(400, "bad_request",
                             f"query parameter {name}={raw!r} is not finite")
        return value

    @classmethod
    def _version_arg(cls, request: HttpRequest) -> int | None:
        if not request.query.get("v", [None])[0]:
            return None
        return cls._query_num(request, "v", "0")

    def _apply_min_quality(self, handler: _Handler, request: HttpRequest) -> None:
        """Honour the client's ``min_quality`` hint on a delivery route.

        ``min_quality`` is the deepest tier index the client accepts:
        0 pins full quality (the server will disconnect rather than
        degrade), absent means fully degradable.  The hint caps
        ``max_tier`` and clamps the current tier under it.
        """
        if request.query.get("min_quality", [None])[0] is None:
            return
        handler.max_tier = clamp_tier(
            self._query_num(request, "min_quality", str(MAX_TIER))
        )
        if handler.tier > handler.max_tier:
            handler.tier = handler.max_tier

    @staticmethod
    def _apply_window(handler: _Handler, request: HttpRequest,
                      store) -> tuple | None:
        """Bind a delivery route to the ``window=<wid>`` sliding window.

        Returns the window's canonical geometry key (the frame-cache
        dimension), or None for a whole-domain client.  The wid must
        have been registered via ``POST .../window`` first.
        """
        wid = request.query.get("window", [None])[0]
        if wid is None:
            handler.window_wid = None
            handler.window_source = None
            return None
        source = store.window_source()
        if source is None:
            raise _HttpError(404, "not_found",
                             "session has no windowed domain source")
        wkey = source.window_key(wid, handler.lod_bias)
        if wkey is None:
            raise WebServerError(
                f"unknown window {wid!r}: register it via POST .../window first")
        handler.window_wid = wid
        handler.window_source = source
        return wkey

    # -- view operations -------------------------------------------------------------------

    @staticmethod
    def _apply_view_ops(session, ops: dict) -> None:
        """Rotate/zoom the session camera (mouse interactions)."""
        if "rotate_azimuth" in ops or "rotate_elevation" in ops:
            cam = session._camera
            session.set_camera(
                azimuth=cam.azimuth + float(ops.get("rotate_azimuth", 0.0)),
                elevation=cam.elevation + float(ops.get("rotate_elevation", 0.0)),
            )
        if "zoom" in ops:
            session.set_camera(zoom=session._camera.zoom * float(ops["zoom"]))
