"""The connection layer: one non-blocking IO loop and its worker pool.

The loop does IO only.  It accepts, reads and parses; hands each parsed
request to :func:`repro.web.routes.dispatch` and *sends what comes back*
— a response (:meth:`_IOLoop._reply`), a job for the worker pool
(:meth:`_IOLoop._offload`) or a subscriber to register
(:meth:`_IOLoop._subscribe`); passes woken subscribers to
:mod:`repro.web.delivery`; and on its housekeeping tick gathers each
connection's backlog and link estimate for the degrade ladder
(:func:`repro.adaptive.controller.next_rung`), steps paced replays
(:func:`repro.obs.journal.step_replays`) and reaps idle connections.
What a route answers, which rung a client moves to and how a journal row
is restored are decided in those modules, not here.

The write path is zero-copy fan-out: a response is a freshly built
header ``bytes`` plus a shared immutable body buffer, queued as
``memoryview``s on a per-connection deque and flushed with vectored
(``sendmsg``) partial non-blocking writes.  A slow client accumulates
backlog in its own queue only — never a copy of a shared frame — and is
disconnected once the backlog exceeds the per-connection write budget,
so one stalled reader can neither stall the loop nor other watchers.

Jobs run on the server's fixed worker pool; completions are queued back
through the loop's socketpair, the same wakeup the publish path uses.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import threading
import time
from collections import deque

from repro.adaptive.controller import next_rung
from repro.adaptive.estimator import ClientLinkEstimator
from repro.adaptive.tiers import MAX_TIER
from repro.errors import WebServerError
from repro.obs.journal import ReplayCursor, step_replays
from repro.web.delivery import Delivery
from repro.web.longpoll import LongPollScheduler, Subscriber
from repro.web.routes import (
    Bind,
    Response,
    RouteContext,
    Subscribe,
    _error_body,
    dispatch,
    error_reply,
)
from repro.wire import (
    _MAX_BODY_BYTES,
    _MAX_HEADER_BYTES,
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    parse_request,
    parse_ws_frames,
    sse_comment_chunk,
    ws_server_frame,
)

_MAX_IOV = 64  # buffers per vectored write (safely under IOV_MAX everywhere)
_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


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

    __slots__ = ("loop", "sock", "inbuf", "outq", "out_bytes",
                 "close_after", "subscriber", "mode", "busy",
                 "closed", "keep_alive", "last_activity", "want_write",
                 "tier", "max_tier", "estimator",
                 "window_wid", "window_source", "lod_bias")

    def __init__(self, loop: "_IOLoop", sock: socket.socket) -> None:
        self.loop = loop
        self.sock = sock
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
        self.estimator = ClientLinkEstimator()
        # Sliding-window state: the client's window id within its
        # session, the owning session's domain source and the extra LOD
        # coarsening the staleness ladder currently applies; delivery
        # resolves the three into the frame group's geometry key.
        self.window_wid: str | None = None
        self.window_source = None
        self.lod_bias = 0

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

    def _send_error(self, status: int, code: str, message: str) -> None:
        """The uniform error envelope: ``{"error": {"code", "message"}}``."""
        self._send(status, _error_body(code, message))

    def bind(self, bind: Bind) -> None:
        """Take on what a request asked of the delivery state."""
        self.window_wid, self.window_source = bind.wid, bind.source
        if bind.max_tier is not None:
            self.max_tier = bind.max_tier
            self.tier = min(self.tier, self.max_tier)
        if bind.lod_bias is not None:
            self.lod_bias = bind.lod_bias

    def adopt(self, record: Subscriber) -> None:
        """Make ``record`` this connection's registration."""
        record.handle = self
        record.tier = self.tier
        self.subscriber = record  # holds the parser until delivery detaches it
        if record.deadline is None:
            self.mode = record.transport

    def regrade(self, heavy: bool, stale: bool, controller=None) -> tuple[int, int]:
        """Move to the rung :func:`next_rung` names; returns how far the
        tier and the LOD bias moved (positive: degraded).

        Gathers what the ladder reads of this connection: how much
        coarser its window can still get and, given a ``controller``
        (the housekeeping pass), the DP verdicts for its measured link.
        """
        max_bias = decided_tier = decided_bias = None
        source, wid = self.window_source, self.window_wid
        cursor = (source.cursor(wid)
                  if source is not None and wid is not None else None)
        if cursor is not None:
            octree = source.octree
            requested = octree.clamp_lod(cursor.lod)
            max_bias = octree.max_lod - requested
        if controller is not None and not stale:  # a backlog overrides them
            estimate = self.estimator.estimate()
            decided_tier = controller.decide(estimate, self.tier, self.max_tier)
            if cursor is not None:
                decided_bias = controller.decide_lod(
                    estimate, octree.clamp_lod(requested + self.lod_bias),
                    requested, octree.max_lod,
                    source.window_bytes((cursor.lo, cursor.hi, requested)),
                ) - requested
        tier, bias = next_rung(
            self.tier, self.max_tier, self.lod_bias, max_bias,
            heavy=heavy, stale=stale,
            decided_tier=decided_tier, decided_bias=decided_bias)
        moved = tier - self.tier, bias - self.lod_bias
        self.tier, self.lod_bias = tier, bias  # delivery resolves the new key
        if self.subscriber is not None:
            self.subscriber.tier = tier
        return moved


class _IOLoop:
    """The selector IO loop: its accept socket, scheduler and connections.

    Everything connection-shaped lives here — the selector, the wake
    socketpair, the subscriber scheduler, the handler set, the serving
    counters — and is touched by the loop's thread only.  Other threads
    (publishers, the worker pool) reach it through the ``_woken`` /
    ``_completions`` deques + the wake socketpair.
    """

    def __init__(self, server, listen: socket.socket) -> None:
        self.server = server
        self.listen = listen
        self.scheduler = LongPollScheduler()
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        # Records awaiting delivery: appended by publishers, the deadline
        # wheel, eviction and _subscribe; popped by this loop.
        self._woken: deque[Subscriber] = deque()
        self._completions: deque = deque()  # (handler, reply)
        self._handlers: set[_Handler] = set()
        self._replays: list[ReplayCursor] = []  # paced replays this loop steps
        self._thread: threading.Thread | None = None
        self.requests_served = 0
        self.bytes_sent = 0
        self.slow_client_disconnects = 0
        self.tier_promotions = 0  # adaptive controller moved a client up
        self.tier_demotions = 0  # ...or down (degrade-before-disconnect)
        self.lod_promotions = 0  # windowed client refined back toward its LOD
        self.lod_demotions = 0  # ...or was coarsened (staleness ladder)
        # A paced replay is adopted by its job on a worker thread; the
        # job's completion is the wake that re-reads ``next_due``.
        self.ctx = RouteContext(server.manager, server.client, server.obs,
                                server.stats, self._replays.append)
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

    # -- the IO loop ------------------------------------------------------------------

    def _serve(self) -> None:
        server = self.server
        next_housekeeping = time.monotonic() + server.housekeeping_interval
        while not server._stop.is_set():
            # Sleep until the next tick, parked-poll deadline or replay row.
            due = [next_housekeeping,
                   *(cursor.next_due for cursor in self._replays)]
            deadline = self.scheduler.next_deadline()
            if deadline is not None:
                due.append(deadline)
            timeout = max(0.0, min(due) - time.monotonic())
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
                step_replays(self._replays, now)
            self._deliver_completions()
            self._woken.extend(self.scheduler.expire_due(now))
            while self._woken:  # a delivery may resume a parser that queues more
                self.delivery.deliver(
                    [self._woken.popleft() for _ in range(len(self._woken))])
            if now >= next_housekeeping:
                next_housekeeping = now + server.housekeeping_interval
                self._housekeeping(now)
        self._shutdown_sockets()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.listen.accept()
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
            handler = _Handler(self, sock)
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
        self._discard(handler.sock)
        self._handlers.discard(handler)

    def _discard(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

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
            chunk = b""
        if not chunk:  # reset, or closed by the peer
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

    def _enqueue_and_flush(self, handler: _Handler, buffers) -> None:
        """The single home of the write policy: queue ``buffers`` (by
        reference, zero-copy), flush inline, and drop the client if the
        backlog the socket refused exceeds the write budget.

        The budget applies AFTER the flush, so a response larger than
        the budget still reaches a fast reader — only unsendable backlog
        counts against the connection.  A backlog that remains is what
        the degrade ladder is asked about, strictly before the budget's
        reaper: the client is degraded before it is disconnected.
        """
        for buf in buffers:
            handler.outq.append(memoryview(buf))
            handler.out_bytes += len(buf)
        self._flush(handler)
        if handler.closed:
            return
        server = self.server
        est = handler.estimator
        now = time.monotonic()
        est.on_backlog(handler.out_bytes, now)
        heavy = handler.out_bytes > server.write_budget // 2
        stale = est.backlog_age(now) > server.staleness_budget
        if heavy or stale:
            self._regrade(handler, heavy, stale)
        if handler.out_bytes > server.write_budget:
            self._drop_slow(handler)

    # -- requests in, replies out -------------------------------------------------------

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
        while (handler.inbuf and not handler.closed and handler.subscriber is None
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
            # Route it, and send whichever kind of reply came back.
            reply = dispatch(request, self.ctx)
            if type(reply) is Response:
                self._reply(handler, reply)
            elif type(reply) is Subscribe:
                self._subscribe(handler, reply)
            else:
                self._offload(handler, reply, request.method)

    def _reply(self, handler: _Handler, response: Response) -> None:
        """Send a response, rebinding the connection first if it says so."""
        if response.bind is not None:
            handler.bind(response.bind)
        handler._send(response.code, response.body, response.ctype)

    def _offload(self, handler: _Handler, job, method: str) -> None:
        """Run ``job() -> Response`` on the worker pool.

        The single home of the off-loop policy: the connection is marked
        ``busy`` (no further pipelined dispatch), the job runs on a
        worker, and its outcome — or its error, under the same status
        rule as an inline route — re-enters this loop through the
        completion queue + socketpair, the same wakeup publishes use.
        Response bodies are encoded on the worker, so a large JSON/PNG
        render never touches the IO thread.
        """
        handler.busy = True

        def run() -> None:
            try:
                reply = job()
            except Exception as exc:  # report, never kill the worker
                reply = error_reply(exc, method)
            self._completions.append((handler, reply))
            self._wake()

        self.server._pool.submit(run)

    def _deliver_completions(self) -> None:
        """Send worker-pool results; runs on the IO loop only."""
        while self._completions:  # only this loop pops
            handler, reply = self._completions.popleft()
            handler.busy = False
            if handler.closed:
                continue
            try:
                self._reply(handler, reply)
                self._process_input(handler)  # pipelined requests behind the job
            except Exception:  # one bad connection must not kill the IO loop
                self._close(handler)

    def _subscribe(self, handler: _Handler, sub: Subscribe) -> None:
        """Register a route's record on its connection — poll or stream.

        A poll answerable on arrival (events past its cursor, or no time
        to wait) is delivered this pass and never registered.  Anything
        else registers first and re-checks the head after, so a publish
        racing the request is either seen by the re-check or finds the
        record; zero threads are held either way.
        """
        record, store, bind, head = sub
        self.server._hook_store(record.key, store)
        handler.bind(bind)
        handler.adopt(record)
        stream = record.deadline is None
        if not stream and (store.seq > record.since
                           or record.deadline <= self.ctx.clock()):
            self._woken.append(record)
            return
        self.scheduler.add(record)
        if stream:
            self._enqueue_and_flush(handler, (head,))
        if store.seq > record.since and (stream or self.scheduler.remove(record)):
            self._woken.append(record)  # backlog behind the cursor goes out now
        if stream and not handler.closed and handler.inbuf:
            self._process_input(handler)  # frames sent before our 101

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
                answer = ws_server_frame(payload, WS_PONG)
            elif opcode == WS_CLOSE:
                # Echo the status code (if any) and finish the closing
                # handshake; close_after fires once the echo is flushed.
                handler.close_after = True
                answer = ws_server_frame(payload[:2], WS_CLOSE)
            else:  # data and pong frames carry nothing we act on
                continue
            self.delivery.count_tx("ws", len(answer), kind=None)
            self._enqueue_and_flush(handler, (answer,))
            if opcode == WS_CLOSE:
                return

    # -- the degrade ladder: gather, ask, apply, count ------------------------------------

    def _regrade(self, handler: _Handler, heavy: bool = False,
                 stale: bool = False, controller=None) -> None:
        """Re-grade one connection and count which way it moved."""
        tier_moved, lod_moved = handler.regrade(heavy, stale, controller)
        if tier_moved > 0:
            self.tier_demotions += 1
        elif tier_moved < 0:
            self.tier_promotions += 1
        if lod_moved > 0:
            self.lod_demotions += 1
        elif lod_moved < 0:
            self.lod_promotions += 1

    def _housekeeping(self, now: float) -> None:
        server = self.server
        # Controller pass: piggybacks the tick, 0 extra threads.
        for handler in list(self._handlers):
            self._regrade(handler, controller=server.controller,
                          stale=(handler.estimator.backlog_age(now)
                                 > server.staleness_budget))
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
            self._woken.extend(self.scheduler.drop_key(sid))
            self._wake()  # this pass's delivery already ran
        # Reap half-open keep-alive connections past the advertised
        # Keep-Alive timeout.  `last_activity` only advances on
        # successful IO, so a connection with pending output that made
        # no progress for the whole window is a stalled reader whose
        # backlog never reached the write budget — drop it as slow
        # rather than holding its fd and queued buffers forever.
        cutoff = now - server.keepalive_timeout
        beat_cutoff = now - server.keepalive_timeout / 2
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
            self._discard(sock)
        self._selector.close()
