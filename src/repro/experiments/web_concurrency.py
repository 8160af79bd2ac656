"""Web-tier concurrency experiment: poll throughput and wake latency.

Drives the real serving spine — SessionManager + event-sequence stores
behind the non-blocking Ajax web server — with S concurrent sessions and
N concurrent long-polling HTTP clients (persistent keep-alive
connections), while per-session publishers push images at a fixed rate.
Each cell of the (sessions x clients) grid reports:

* poll throughput (completed long polls per second),
* wake latency (publish -> poll response observed), p50/p99,
* the server-side thread count (must stay the fixed IO + worker-pool
  constant however many polls are parked),
* encodes per image version (must stay 1.0 — shared-encode caching),
* JSON encodes per wake (must stay ~1 however many clients are woken —
  the shared delta-frame cache; without it this is ~N at N clients).

This is the scaling story the ROADMAP asks the web tier to tell: client
count decoupled from server threads, images encoded once for everyone,
and one publish waking N pollers for one serialization.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.costmodel.calibration import default_calibration
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.des import Simulator
from repro.net.channel import build_sim_path
from repro.net.testbed import build_paper_testbed
from repro.net.topology import LinkSpec, NodeSpec, Topology
from repro.steering.central_manager import CentralManager
from repro.steering.client import SteeringClient
from repro.steering.manager import SessionManager
from repro.viz.image import Image
from repro.web.client import read_response_head
from repro.web.server import AjaxWebServer
from repro.window import WindowedDomainSource
from repro.wire import (
    WS_BINARY,
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    decode_chunks,
    parse_ws_frames,
    split_sse_events,
    ws_client_frame,
)

__all__ = [
    "AdaptiveDeliveryResult",
    "ConcurrencyCell",
    "TransportCompareResult",
    "WebConcurrencyResult",
    "WindowStreamingResult",
    "default_client_counts",
    "emulated_slow_bandwidth",
    "ensure_fd_capacity",
    "read_http_response",
    "run_adaptive_delivery",
    "run_web_concurrency",
    "run_transport_compare",
    "run_window_streaming",
]


def ensure_fd_capacity(required: int) -> bool:
    """Raise the soft RLIMIT_NOFILE toward ``required`` fds if needed.

    A 1000-client cell holds ~2 fds per client (client socket + accepted
    connection) in one process; CI images commonly default the soft
    limit to 1024.  Returns True when ``required`` fds are available.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return True
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= required:
        return True
    target = required if hard == resource.RLIM_INFINITY else min(hard, required)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    except (ValueError, OSError):
        return False
    return target >= required


def read_http_response(sock: socket.socket, buf: bytearray) -> bytes:
    """Read one Content-Length-framed keep-alive HTTP response; return the body.

    ``buf`` carries over bytes of a pipelined follow-up response between
    calls.  Shared by the benchmark clients and the backpressure tests.
    """
    length = int(read_response_head(sock, buf)[1]["content-length"])
    while len(buf) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed connection")
        buf += chunk
    body = bytes(buf[:length])
    del buf[:length]
    return body


@dataclass
class ConcurrencyCell:
    """One (sessions, clients) grid point."""

    sessions: int
    clients: int
    duration: float
    polls: int
    events_delivered: int
    poll_rate: float
    wake_p50_ms: float
    wake_p99_ms: float
    server_threads: int
    images_published: int
    encodes_per_version: float
    json_encodes: int
    wakes: int
    json_encodes_per_wake: float
    dropped: int
    errors: int
    transport: str = "longpoll"
    event_rate: float = 0.0  # events delivered per second across all clients
    obs_enabled: bool = False  # metrics recorder + journal running?
    obs_samples: int = 0  # metric samples captured during the cell
    obs_events_journaled: int = 0  # published events the journal recorded

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class WebConcurrencyResult:
    session_counts: tuple
    client_counts: tuple
    cells: list[ConcurrencyCell] = field(default_factory=list)

    def cell(self, sessions: int, clients: int) -> ConcurrencyCell:
        for c in self.cells:
            if c.sessions == sessions and c.clients == clients:
                return c
        raise KeyError((sessions, clients))

    def to_dict(self) -> dict:
        return {
            "experiment": "web_concurrency",
            "session_counts": list(self.session_counts),
            "client_counts": list(self.client_counts),
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_table(self) -> str:
        lines = [
            "Web-tier concurrency - long-poll throughput and wake latency",
            f"  {'sessions':>8} {'clients':>8} {'polls/s':>10} "
            f"{'p50 ms':>8} {'p99 ms':>8} {'threads':>8} {'enc/ver':>8} "
            f"{'json/wake':>9}",
        ]
        for c in self.cells:
            lines.append(
                f"  {c.sessions:>8} {c.clients:>8} {c.poll_rate:>10.1f} "
                f"{c.wake_p50_ms:>8.2f} {c.wake_p99_ms:>8.2f} "
                f"{c.server_threads:>8} {c.encodes_per_version:>8.2f} "
                f"{c.json_encodes_per_wake:>9.2f}"
            )
        return "\n".join(lines)


def _tiny_image(shade: int, size: int = 24) -> Image:
    px = np.full((size, size, 4), shade % 256, dtype=np.uint8)
    px[:, :, 3] = 255
    return Image(px)


class _PollClient(threading.Thread):
    """One persistent-connection long-polling browser stand-in.

    Uses a raw keep-alive socket with precomputed request bytes and a
    minimal HTTP/1.1 response reader instead of ``http.client``: with
    hundreds of in-process client threads, harness-side Python cost is
    serialized by the GIL right behind every herd wake, so a heavyweight
    client inflates the *measured* server latency.  The wake timestamp
    is taken when the response body has been fully received, before any
    JSON parsing.

    ``warmup`` (seconds past this client's own first response) discards
    latency samples from the connect storm: with hundreds of clients
    dialing in at t0, stragglers connect (and get scheduled) seconds
    late, and their receive timestamps measure the harness's thread
    backlog — identical for every transport — rather than steady-state
    serving.  Anchoring the discard per client keeps a late joiner's
    settled samples and drops only its storm-era ones.
    """

    warmup = 0.0

    def __init__(self, port: int, sid: str, stop: threading.Event,
                 start_gate: threading.Barrier) -> None:
        super().__init__(daemon=True, name=f"bench-client-{sid}")
        self.port = port
        self.sid = sid
        self.stop_event = stop
        self.start_gate = start_gate
        self.polls = 0
        self.events = 0
        self.dropped = 0
        self.errors = 0
        self.latencies: list[float] = []

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def run(self) -> None:
        # Connect lazily AFTER the barrier: a failed connect must count
        # as an error and retry, never strand the other gate waiters.
        sock: socket.socket | None = None
        buf = bytearray()
        path = f"/api/v1/{self.sid}/poll".encode("ascii")
        since = 0
        self.start_gate.wait()
        skip_until: float | None = None
        try:
            while not self.stop_event.is_set():
                try:
                    if sock is None:
                        sock = self._connect()
                    sock.sendall(
                        b"GET %s?since=%d&timeout=0.5 HTTP/1.1\r\n"
                        b"Host: 127.0.0.1\r\n\r\n" % (path, since)
                    )
                    body = read_http_response(sock, buf)
                    now = time.monotonic()
                    delta = json.loads(body)
                except Exception:
                    self.errors += 1
                    if sock is not None:
                        sock.close()
                        sock = None
                    buf.clear()
                    continue
                self.polls += 1
                if skip_until is None:
                    skip_until = now + self.warmup
                since = delta.get("version", since)
                self.dropped += delta.get("dropped", 0)
                for comp in delta.get("components", []):
                    self.events += 1
                    t_pub = comp.get("props", {}).get("t_pub")
                    if t_pub is not None and now >= skip_until:
                        self.latencies.append(now - t_pub)
        finally:
            if sock is not None:
                sock.close()


def _expect_status(sock: socket.socket, buf: bytearray, expect_status: int) -> None:
    """Read one response head into ``buf``; leave the body bytes in it."""
    status, _headers = read_response_head(sock, buf)
    if status != expect_status:
        raise ConnectionError(f"expected HTTP {expect_status}, got {status}")


class _StreamClientBase(threading.Thread):
    """Shared skeleton for the persistent push-stream bench clients.

    Mirrors :class:`_PollClient`'s accounting (polls = deltas received)
    and its GIL discipline: raw sockets, the wake timestamp taken the
    moment ``recv`` returns a chunk, JSON parsing after.  Subclasses
    implement :meth:`_open` (send request, read the response head) and
    :meth:`_consume` (parse transport frames out of the buffer).
    The same ``warmup`` discard as :class:`_PollClient` keeps the
    connect/subscribe storm out of the latency samples.

    ``recv_bytes`` / ``recv_interval`` emulate a bandwidth-limited
    reader: capping each receive and sleeping between receives bounds
    the drain rate at ``recv_bytes / recv_interval`` bytes/s, and a
    small ``rcvbuf`` keeps the kernel from absorbing the backlog — the
    congestion becomes server-visible, which is what the adaptive
    delivery plane reacts to.  Defaults leave the client unthrottled.
    """

    warmup = 0.0

    def __init__(self, port: int, sid: str, stop: threading.Event,
                 start_gate: threading.Barrier) -> None:
        super().__init__(daemon=True, name=f"bench-stream-{sid}")
        self.port = port
        self.sid = sid
        self.stop_event = stop
        self.start_gate = start_gate
        self.recv_bytes = 65536
        self.recv_interval = 0.0
        self.rcvbuf: int | None = None
        self.last_rx = 0.0  # when the last chunk arrived (drain detection)
        self.polls = 0  # deltas received (the push analogue of a poll)
        self.events = 0
        self.dropped = 0
        self.errors = 0
        self.since = 0
        self.max_tier_seen = 0
        self._skip_until = 0.0
        self.latencies: list[float] = []
        self._raw: list[tuple[float, bytes]] = []

    def _open(self, sock: socket.socket, buf: bytearray) -> None:
        raise NotImplementedError

    def _consume(self, sock: socket.socket, buf: bytearray, now: float) -> None:
        raise NotImplementedError

    def _account(self, payload: bytes, now: float) -> None:
        # Defer the JSON parse to after the measured window: a push
        # client needs nothing from the payload to keep receiving (the
        # server tracks its cursor), while 500 in-process clients
        # parsing inline serialize every wake through the GIL and the
        # cell measures parse service order, not the serving path.
        # (Long-poll clients MUST parse inline: the next request needs
        # ``version`` — that round-trip dependency is the protocol.)
        self._raw.append((now, bytes(payload)))

    def _settle(self) -> None:
        """Parse the deferred payloads (runs after the stop flag)."""
        for now, payload in self._raw:
            delta = json.loads(payload)
            self.polls += 1
            self.since = delta.get("version", self.since)
            self.dropped += delta.get("dropped", 0)
            self.max_tier_seen = max(self.max_tier_seen,
                                     delta.get("tier", 0))
            for comp in delta.get("components", []):
                self.events += 1
                t_pub = comp.get("props", {}).get("t_pub")
                if t_pub is not None and now >= self._skip_until:
                    self.latencies.append(now - t_pub)
        self._raw.clear()

    def run(self) -> None:
        sock: socket.socket | None = None
        buf = bytearray()
        self.start_gate.wait()
        try:
            while not self.stop_event.is_set():
                try:
                    if sock is None:
                        buf.clear()
                        if self._raw:
                            # resume where the dropped stream left off:
                            # only the newest payload holds the cursor
                            self.since = json.loads(
                                self._raw[-1][1]).get("version", self.since)
                        sock = socket.create_connection(
                            ("127.0.0.1", self.port), timeout=10.0
                        )
                        sock.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
                        if self.rcvbuf is not None:
                            sock.setsockopt(socket.SOL_SOCKET,
                                            socket.SO_RCVBUF, self.rcvbuf)
                        self._open(sock, buf)
                        # per-client warm-up: samples before this stream
                        # settled measure the harness storm, not serving
                        self._skip_until = time.monotonic() + self.warmup
                        sock.settimeout(0.5)  # bounds the stop-check latency
                        self._consume(sock, buf, time.monotonic())
                    chunk = sock.recv(self.recv_bytes)
                    now = time.monotonic()
                    if not chunk:
                        raise ConnectionError("stream closed")
                    buf += chunk
                    self.last_rx = now
                    self._consume(sock, buf, now)
                    if self.recv_interval > 0.0:
                        time.sleep(self.recv_interval)
                except (socket.timeout, TimeoutError):
                    continue
                except Exception:
                    self.errors += 1
                    if sock is not None:
                        sock.close()
                        sock = None
        finally:
            if sock is not None:
                sock.close()
            self._settle()


class _SSEClient(_StreamClientBase):
    """One persistent SSE-stream browser stand-in."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._eventbuf = bytearray()

    def _open(self, sock: socket.socket, buf: bytearray) -> None:
        self._eventbuf.clear()
        sock.sendall(
            b"GET /api/v1/%s/stream?since=%d HTTP/1.1\r\n"
            b"Host: 127.0.0.1\r\n\r\n"
            % (self.sid.encode("ascii"), self.since)
        )
        _expect_status(sock, buf, 200)

    def _consume(self, sock: socket.socket, buf: bytearray, now: float) -> None:
        payloads, ended = decode_chunks(buf)
        for payload in payloads:
            self._eventbuf += payload
        for _event_id, data in split_sse_events(self._eventbuf):
            self._account(data, now)
        if ended:
            raise ConnectionError("stream ended")


_BENCH_WS_KEY = "d2ViLWNvbmN1cnJlbmN5LWJlbmNo"  # any 16-byte base64 token


class _WSClient(_StreamClientBase):
    """One persistent WebSocket browser stand-in.

    ``images="binary"`` subscribes with image blobs inlined raw in
    binary frames — the framing the adaptive benchmark uses so delivered
    bytes actually track the tier ladder's payload fractions.
    """

    images: str | None = None

    def _open(self, sock: socket.socket, buf: bytearray) -> None:
        images_q = (b"&images=%s" % self.images.encode("ascii")
                    if self.images else b"")
        sock.sendall(
            b"GET /api/v1/%s/ws?since=%d%s HTTP/1.1\r\n"
            b"Host: 127.0.0.1\r\n"
            b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
            b"Sec-WebSocket-Key: %s\r\n\r\n"
            % (self.sid.encode("ascii"), self.since, images_q,
               _BENCH_WS_KEY.encode("ascii"))
        )
        _expect_status(sock, buf, 101)

    def _consume(self, sock: socket.socket, buf: bytearray, now: float) -> None:
        for opcode, payload in parse_ws_frames(buf, require_mask=False):
            if opcode == WS_TEXT:
                self._account(payload, now)
            elif opcode == WS_BINARY:
                # [u32 json length][json][raw blobs]: keep the JSON alone
                # for the deferred parse, drop the blobs now.
                json_end = 4 + int.from_bytes(payload[:4], "big")
                self._account(payload[4:json_end], now)
            elif opcode == WS_PING:
                sock.sendall(ws_client_frame(payload, WS_PONG))
            elif opcode == WS_CLOSE:
                raise ConnectionError("server closed the websocket")


_CLIENT_CLASSES = {
    "longpoll": _PollClient,
    "sse": _SSEClient,
    "ws": _WSClient,
}


def _run_cell(
    cm: CentralManager,
    n_sessions: int,
    n_clients: int,
    duration: float,
    publish_hz: float,
    transport: str = "longpoll",
    obs: bool = False,
    housekeeping_interval: float = 5.0,
) -> ConcurrencyCell:
    client = SteeringClient(cm)
    with AjaxWebServer(client, port=0,
                       housekeeping_interval=housekeeping_interval,
                       obs=obs) as server:
        stores = [
            client.manager.open_monitor(f"bench{i}") for i in range(n_sessions)
        ]
        stop = threading.Event()
        gate = threading.Barrier(n_clients + n_sessions + 1)
        published = [0] * n_sessions

        def publisher(idx: int) -> None:
            store = stores[idx]
            interval = 1.0 / publish_hz
            gate.wait()
            deadline = time.monotonic() + duration
            shade = 0
            while time.monotonic() < deadline:
                shade += 1
                store.publish_image(
                    _tiny_image(shade), cycle=shade,
                    meta={"t_pub": time.monotonic()},
                )
                published[idx] += 1
                time.sleep(interval)

        publishers = [
            threading.Thread(target=publisher, args=(i,), daemon=True,
                             name=f"bench-pub-{i}")
            for i in range(n_sessions)
        ]
        client_cls = _CLIENT_CLASSES[transport]
        clients = [
            client_cls(server.port, f"bench{i % n_sessions}", stop, gate)
            for i in range(n_clients)
        ]
        for c in clients:
            # Per-client warm-up: each client's first quarter-window of
            # samples after its own connect is storm, not steady state.
            c.warmup = 0.25 * duration
        for t in publishers + clients:
            t.start()
        # GC off for the measured window (the `timeit` convention): at
        # 500 clients a single gen-2 pause lands on one wake and sets
        # that cell's p99 — measuring the collector, not the transport.
        gc.collect()
        gc.disable()
        try:
            gate.wait()
            t0 = time.monotonic()
            for t in publishers:
                t.join(timeout=duration + 30.0)
            # let clients drain the tail of the event stream, then stop them
            time.sleep(0.3)
            # Clock the cell before teardown: how long clients take to
            # notice the stop flag varies by transport and is not
            # serving time.
            elapsed = time.monotonic() - t0
        finally:
            gc.enable()
        stop.set()
        for t in clients:
            t.join(timeout=30.0)

        server_threads = sum(
            1 for t in threading.enumerate() if t.name.startswith("ricsa-web")
        )
        latencies = sorted(x for c in clients for x in c.latencies)
        total_polls = sum(c.polls for c in clients)
        total_images = sum(published)
        encodes = sum(s.encode_count for s in stores)
        # One publish is one herd wake: every waiter parked on that
        # session shares the (since, head) delta frame, so JSON encodes
        # track publishes (~1 per wake), not clients (~N per wake).
        json_encodes = sum(s.json_encodes for s in stores)
        wakes = total_images
        events_delivered = sum(c.events for c in clients)
        obs_samples = obs_journaled = 0
        if server.obs is not None:
            obs_stats = server.obs.stats()
            obs_samples = obs_stats["recorder"]["samples_taken"]
            obs_journaled = obs_stats["journal"]["events_recorded"]
        return ConcurrencyCell(
            transport=transport,
            sessions=n_sessions,
            clients=n_clients,
            duration=round(elapsed, 3),
            polls=total_polls,
            events_delivered=events_delivered,
            event_rate=round(events_delivered / max(elapsed, 1e-9), 1),
            poll_rate=round(total_polls / max(elapsed, 1e-9), 1),
            wake_p50_ms=round(1e3 * _quantile(latencies, 0.50), 3),
            wake_p99_ms=round(1e3 * _quantile(latencies, 0.99), 3),
            server_threads=server_threads,
            images_published=total_images,
            encodes_per_version=round(encodes / max(total_images, 1), 3),
            json_encodes=json_encodes,
            wakes=wakes,
            json_encodes_per_wake=round(json_encodes / max(wakes, 1), 3),
            dropped=sum(c.dropped for c in clients),
            errors=sum(c.errors for c in clients),
            obs_enabled=bool(obs),
            obs_samples=obs_samples,
            obs_events_journaled=obs_journaled,
        )


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def default_client_counts() -> tuple:
    """The standard client grid: the 250-client cell needs real
    parallelism — 250 in-process client threads behind one core's GIL
    measure the harness, not the server — so it requires >= 4 cores."""
    return (1, 10, 100, 250) if (os.cpu_count() or 1) >= 4 else (1, 10, 100)


def run_web_concurrency(
    session_counts: tuple = (1, 4),
    client_counts: tuple | None = None,
    duration: float = 1.0,
    publish_hz: float = 25.0,
    cm: CentralManager | None = None,
    repeats: int = 1,
) -> WebConcurrencyResult:
    """Sweep the (sessions x clients) grid against a live server.

    ``client_counts=None`` uses :func:`default_client_counts`.
    ``repeats > 1`` runs each cell that many times and keeps the run
    with the lowest wake p99 — standard best-of-N practice for latency
    cells, which a single scheduler hiccup can otherwise distort.
    """
    if client_counts is None:
        client_counts = default_client_counts()
    if cm is None:
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        cm = CentralManager(topo, roles, calibration=default_calibration(0))
    result = WebConcurrencyResult(tuple(session_counts), tuple(client_counts))
    for n_sessions in session_counts:
        for n_clients in client_counts:
            best: ConcurrencyCell | None = None
            for _ in range(max(1, int(repeats))):
                cell = _run_cell(cm, n_sessions, n_clients, duration, publish_hz)
                if best is None or cell.wake_p99_ms < best.wake_p99_ms:
                    best = cell
            result.cells.append(best)
    return result


@dataclass
class TransportCompareResult:
    """Transport sweep: (transport x clients) at a fixed session count."""

    transports: tuple
    client_counts: tuple
    sessions: int
    cells: list[ConcurrencyCell] = field(default_factory=list)

    def cell(self, transport: str, clients: int) -> ConcurrencyCell:
        for c in self.cells:
            if c.transport == transport and c.clients == clients:
                return c
        raise KeyError((transport, clients))

    def to_dict(self) -> dict:
        return {
            "experiment": "web_transport_compare",
            "transports": list(self.transports),
            "client_counts": list(self.client_counts),
            "sessions": self.sessions,
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_table(self) -> str:
        lines = [
            "Push transports - wake latency per protocol",
            f"  {'transport':>9} {'clients':>8} {'events/s':>10} "
            f"{'p50 ms':>8} {'p99 ms':>8} {'threads':>8} {'json/wake':>9}",
        ]
        for c in self.cells:
            lines.append(
                f"  {c.transport:>9} {c.clients:>8} {c.event_rate:>10.1f} "
                f"{c.wake_p50_ms:>8.2f} {c.wake_p99_ms:>8.2f} "
                f"{c.server_threads:>8} {c.json_encodes_per_wake:>9.2f}"
            )
        return "\n".join(lines)


def run_transport_compare(
    transports: tuple = ("longpoll", "sse", "ws"),
    client_counts: tuple = (100, 500),
    sessions: int = 4,
    duration: float = 1.0,
    publish_hz: float | dict = 5.0,
    cm: CentralManager | None = None,
    repeats: int = 1,
) -> TransportCompareResult:
    """Sweep event transports under identical herds of clients.

    The comparison ISSUE 7 asks for: the same publish load delivered by
    long polls (request/response + re-park per event), SSE chunks and
    WebSocket frames (persistent subscribers, pre-framed pushes).  All
    three ride the same encode-once delta cache, so ``json/wake`` stays
    ~1 everywhere; the push transports shed the per-event HTTP
    round-trip, which is what the wake p99 gap measures.

    ``publish_hz`` may be a mapping ``{n_clients: hz}`` so a sweep can
    hold the *aggregate* delivery rate (clients x hz) constant across
    columns — at a fixed per-session rate, larger herds just measure
    client-side receive scheduling, not the serving path.
    """
    ensure_fd_capacity(2 * max(client_counts) + 256)
    if cm is None:
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        cm = CentralManager(topo, roles, calibration=default_calibration(0))
    result = TransportCompareResult(tuple(transports), tuple(client_counts), sessions)
    # Count-major order: the three transport cells of one column run
    # back-to-back, so slow drift in machine state (cache/thermal/VM
    # noise over a long sweep) lands on comparable cells, not on
    # whichever transport happened to run last.
    for n_clients in client_counts:
        hz = (publish_hz[n_clients] if isinstance(publish_hz, dict)
              else publish_hz)
        for transport in transports:
            best: ConcurrencyCell | None = None
            for _ in range(max(1, int(repeats))):
                cell = _run_cell(
                    cm, sessions, n_clients, duration, hz,
                    transport=transport,
                )
                if best is None or cell.wake_p99_ms < best.wake_p99_ms:
                    best = cell
            result.cells.append(best)
    return result


# -- adaptive delivery: mixed LAN + slow-link fleet ---------------------------------


def emulated_slow_bandwidth(mbits: float = 1.0) -> float:
    """Effective bytes/s of the emulated slow client link.

    Derived through :mod:`repro.net.channel` rather than hardcoded: the
    paced bench client drains at the bottleneck bandwidth of a simulated
    one-hop path with the given nominal rate, so the "slow client" in
    the fleet is the same slow client the offline experiments model.
    """
    topo = Topology.from_specs(
        [NodeSpec("server"), NodeSpec("modem")],
        [LinkSpec("server", "modem", mbits * 1e6 / 8.0, 0.02, 0.0, 0.0, "none")],
    )
    path = build_sim_path(Simulator(), topo, ["server", "modem"],
                          no_cross_traffic=True)
    return path.bottleneck_bandwidth()


@dataclass
class AdaptiveDeliveryResult:
    """Mixed-fleet outcome: the degrade-not-disconnect story in numbers.

    ``baseline_fast_p99_ms`` comes from a uniform all-fast fleet on the
    same server configuration; the guard compares the mixed fleet's
    fast-side wake p99 against it — slow clients must cost tiers, not
    everyone else's latency.
    """

    fast_clients: int
    slow_clients: int
    duration: float
    publish_hz: float
    slow_bandwidth: float          # bytes/s the slow readers drain at
    baseline_fast_p99_ms: float
    fast_p99_ms: float
    fast_p99_ratio: float          # mixed / baseline (guard: <= 1.5)
    slow_disconnects: int          # guard: == 0 (degrade, don't drop)
    slow_tier_floor: int           # min over slow clients of deepest tier seen
    slow_tier_ceiling: int         # max over slow clients of deepest tier seen
    tier_demotions: int
    tier_promotions: int
    live_tiers: list = field(default_factory=list)  # gauge mid-run
    images_published: int = 0
    encodes_per_version: float = 0.0
    tier_encodes: int = 0
    json_encodes_per_wake: float = 0.0
    frame_groups: int = 0          # upper bound of (tier, framing) groups
    slow_events: int = 0
    fast_events: int = 0
    errors: int = 0

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def to_table(self) -> str:
        return "\n".join([
            "Adaptive delivery - mixed fleet (fast LAN + emulated slow links)",
            f"  fleet: {self.fast_clients} fast + {self.slow_clients} slow "
            f"@ {self.slow_bandwidth / 1e3:.0f} KB/s, "
            f"{self.publish_hz:.0f} Hz x {self.duration:.1f}s",
            f"  fast wake p99: {self.fast_p99_ms:.2f} ms "
            f"(uniform baseline {self.baseline_fast_p99_ms:.2f} ms, "
            f"ratio {self.fast_p99_ratio:.2f})",
            f"  slow clients: tier {self.slow_tier_floor}"
            f"-{self.slow_tier_ceiling}, "
            f"{self.slow_disconnects} disconnects, "
            f"{self.slow_events} events delivered",
            f"  tiers mid-run {self.live_tiers}, "
            f"{self.tier_demotions} demotions / "
            f"{self.tier_promotions} promotions",
            f"  encodes: {self.encodes_per_version:.2f}/version full, "
            f"{self.tier_encodes} tiered, "
            f"{self.json_encodes_per_wake:.2f} json/wake "
            f"(<= {self.frame_groups} frame groups)",
        ])


def _run_adaptive_cell(
    cm: CentralManager,
    n_fast: int,
    n_slow: int,
    duration: float,
    publish_hz: float,
    slow_bandwidth: float,
    file_size: int,
    staleness_budget: float,
) -> dict:
    """One mixed-fleet run; returns raw counters for the result builder.

    All clients ride WS with images inlined raw so delivered bytes track
    the tier ladder's payload fractions; slow clients pace their reads
    at ``slow_bandwidth`` and shrink their receive window so the backlog
    is server-visible (the server additionally caps SO_SNDBUF).
    """
    client = SteeringClient(cm, manager=SessionManager(cm, file_size=file_size))
    with AjaxWebServer(client, port=0, housekeeping_interval=0.2,
                       write_budget=1024 * 1024, sndbuf=65536,
                       staleness_budget=staleness_budget) as server:
        store = client.manager.open_monitor("adapt")
        stop = threading.Event()
        gate = threading.Barrier(n_fast + n_slow + 2)
        published = [0]

        def publisher() -> None:
            interval = 1.0 / publish_hz
            gate.wait()
            deadline = time.monotonic() + duration
            shade = 0
            while time.monotonic() < deadline:
                shade += 1
                store.publish_image(
                    _tiny_image(shade), cycle=shade,
                    meta={"t_pub": time.monotonic()},
                )
                published[0] += 1
                time.sleep(interval)

        fleet: list[_WSClient] = []
        for _ in range(n_fast + n_slow):
            c = _WSClient(server.port, "adapt", stop, gate)
            c.images = "binary"
            c.warmup = 0.25 * duration
            fleet.append(c)
        slow_fleet = fleet[n_fast:]
        for c in slow_fleet:
            c.recv_bytes = 4096
            c.recv_interval = c.recv_bytes / slow_bandwidth
            c.rcvbuf = 8192
        pub = threading.Thread(target=publisher, daemon=True,
                               name="bench-adaptive-pub")
        for t in [pub, *fleet]:
            t.start()
        gc.collect()
        gc.disable()
        try:
            gate.wait()
            pub.join(timeout=duration + 30.0)
            time.sleep(0.3)  # let fast clients drain the tail
            # gauge while the fleet is still connected: which tiers the
            # controller is actually running connections on
            live_stats = server.stats()
        finally:
            gc.enable()
        if n_slow:
            # paced readers are seconds behind the head by design; let
            # them drain down to their degraded (small) frames so the
            # client-observed tier reflects the demotion.  Drained ==
            # no slow reader has received a chunk for a while (their
            # inter-chunk pacing gap is ~recv_interval, far shorter).
            deadline = time.monotonic() + max(8.0, 2.0 * duration)
            while time.monotonic() < deadline:
                last = max((c.last_rx for c in slow_fleet), default=0.0)
                if last and time.monotonic() - last > 0.75:
                    break
                time.sleep(0.1)
        stop.set()
        for t in fleet:
            t.join(timeout=30.0)
        final_stats = server.stats()
        fast_lat = sorted(
            x for c in fleet[:n_fast] for x in c.latencies
        )
        return {
            "published": published[0],
            "encode_count": store.encode_count,
            "tier_encodes": store.tier_encode_count,
            "json_encodes": store.json_encodes,
            "fast_p99_ms": 1e3 * _quantile(fast_lat, 0.99),
            "fast_events": sum(c.events for c in fleet[:n_fast]),
            "slow_events": sum(c.events for c in slow_fleet),
            "slow_tiers": [c.max_tier_seen for c in slow_fleet],
            "slow_disconnects": final_stats["slow_client_disconnects"],
            "tier_demotions": final_stats["tier_demotions"],
            "tier_promotions": final_stats["tier_promotions"],
            "live_tiers": live_stats["tiers"],
            "errors": sum(c.errors for c in fleet),
        }


def run_adaptive_delivery(
    fast_clients: int = 16,
    slow_clients: int = 4,
    duration: float = 3.0,
    publish_hz: float = 5.0,
    slow_link_mbits: float = 1.0,
    file_size: int = 64 * 1024,
    staleness_budget: float = 0.25,
    cm: CentralManager | None = None,
    repeats: int = 1,
) -> AdaptiveDeliveryResult:
    """The mixed-fleet adaptive-delivery experiment.

    Two runs on identical server configuration: a uniform all-fast
    baseline, then the mixed fleet with ``slow_clients`` readers paced
    at the emulated modem rate.  The claims the artifact guards:

    * slow clients are *downgraded* (deepest tier seen > 0) and never
      disconnected by the write-budget reaper,
    * the fast herd's wake p99 stays within 1.5x of the uniform
      baseline — slow links cost their own quality, nobody else's
      latency,
    * JSON encodes per wake stay ~1 per (tier, framing) frame group
      (bounded here by 1 shared fast-herd group + one straggler window
      per slow client), not ~1 per client.

    ``repeats`` keeps the run with the lowest fast p99 on each side,
    the same best-of-N the latency sweeps use.
    """
    if cm is None:
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        cm = CentralManager(topo, roles, calibration=default_calibration(0))
    slow_bandwidth = emulated_slow_bandwidth(slow_link_mbits)
    baseline_p99 = None
    mixed = None
    for _ in range(max(1, int(repeats))):
        base = _run_adaptive_cell(
            cm, fast_clients, 0, duration, publish_hz,
            slow_bandwidth, file_size, staleness_budget,
        )
        if baseline_p99 is None or base["fast_p99_ms"] < baseline_p99:
            baseline_p99 = base["fast_p99_ms"]
        cell = _run_adaptive_cell(
            cm, fast_clients, slow_clients, duration, publish_hz,
            slow_bandwidth, file_size, staleness_budget,
        )
        if mixed is None or cell["fast_p99_ms"] < mixed["fast_p99_ms"]:
            mixed = cell
    wakes = max(mixed["published"], 1)
    return AdaptiveDeliveryResult(
        fast_clients=fast_clients,
        slow_clients=slow_clients,
        duration=duration,
        publish_hz=publish_hz,
        slow_bandwidth=round(slow_bandwidth, 1),
        baseline_fast_p99_ms=round(baseline_p99, 3),
        fast_p99_ms=round(mixed["fast_p99_ms"], 3),
        fast_p99_ratio=round(
            mixed["fast_p99_ms"] / max(baseline_p99, 1e-9), 3
        ),
        slow_disconnects=mixed["slow_disconnects"],
        slow_tier_floor=min(mixed["slow_tiers"], default=0),
        slow_tier_ceiling=max(mixed["slow_tiers"], default=0),
        tier_demotions=mixed["tier_demotions"],
        tier_promotions=mixed["tier_promotions"],
        live_tiers=list(mixed["live_tiers"]),
        images_published=mixed["published"],
        encodes_per_version=round(mixed["encode_count"] / wakes, 3),
        tier_encodes=mixed["tier_encodes"],
        json_encodes_per_wake=round(mixed["json_encodes"] / wakes, 3),
        frame_groups=1 + slow_clients,
        slow_events=mixed["slow_events"],
        fast_events=mixed["fast_events"],
        errors=mixed["errors"],
    )


# -- observability: recorder-on vs recorder-off overhead ----------------------------


@dataclass
class ObsOverheadResult:
    """Recorder-on vs recorder-off cells on one server configuration.

    The durable ops tier's capture path rides the IO loop's housekeeping
    tick (metrics) and the publish tap (journal) — zero extra threads —
    so the wake p99 with recording on must stay within a small factor
    of the recording-off baseline, and the encode-once invariant
    (``json_encodes_per_wake`` ~ 1) must hold unchanged.
    """

    sessions: int
    clients: int
    duration: float
    publish_hz: float
    off: ConcurrencyCell = None
    on: ConcurrencyCell = None

    @property
    def p99_ratio(self) -> float:
        return self.on.wake_p99_ms / max(self.off.wake_p99_ms, 1e-9)

    def to_dict(self) -> dict:
        return {
            "experiment": "web_obs_overhead",
            "sessions": self.sessions,
            "clients": self.clients,
            "duration": self.duration,
            "publish_hz": self.publish_hz,
            "p99_ratio": round(self.p99_ratio, 3),
            "off": self.off.to_dict(),
            "on": self.on.to_dict(),
        }

    def to_table(self) -> str:
        lines = [
            "Observability overhead - recorder on vs off",
            f"  {'recording':>9} {'clients':>8} {'polls/s':>10} "
            f"{'p50 ms':>8} {'p99 ms':>8} {'json/wake':>9} "
            f"{'samples':>8} {'journaled':>9}",
        ]
        for label, c in (("off", self.off), ("on", self.on)):
            lines.append(
                f"  {label:>9} {c.clients:>8} {c.poll_rate:>10.1f} "
                f"{c.wake_p50_ms:>8.2f} {c.wake_p99_ms:>8.2f} "
                f"{c.json_encodes_per_wake:>9.2f} "
                f"{c.obs_samples:>8} {c.obs_events_journaled:>9}"
            )
        lines.append(f"  wake p99 on/off ratio: {self.p99_ratio:.2f}x")
        return "\n".join(lines)


def run_obs_overhead(
    sessions: int = 4,
    clients: int = 100,
    duration: float = 1.0,
    publish_hz: float = 25.0,
    cm: CentralManager | None = None,
    repeats: int = 1,
) -> ObsOverheadResult:
    """Measure the serving cost of turning the durable ops tier on.

    Identical (sessions x clients) cells, recorder off then on, on the
    same CentralManager.  The on-cell shortens the housekeeping
    interval so metric sampling actually happens inside the short bench
    window — strictly *more* capture work than the 1 s production
    cadence, making the guard conservative.  ``repeats`` keeps the
    lowest-p99 run per side, like every latency sweep here.
    """
    ensure_fd_capacity(2 * clients + 256)
    if cm is None:
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        cm = CentralManager(topo, roles, calibration=default_calibration(0))
    off = on = None
    for _ in range(max(1, int(repeats))):
        cell = _run_cell(cm, sessions, clients, duration, publish_hz)
        if off is None or cell.wake_p99_ms < off.wake_p99_ms:
            off = cell
        cell = _run_cell(cm, sessions, clients, duration, publish_hz,
                         obs=True, housekeeping_interval=0.25)
        if on is None or cell.wake_p99_ms < on.wake_p99_ms:
            on = cell
    return ObsOverheadResult(
        sessions=sessions, clients=clients, duration=duration,
        publish_hz=publish_hz, off=off, on=on,
    )


# -- sliding-window streaming: windowed viewport vs full-domain client --------------


def _window_http(port: int, method: str, path: str,
                 payload: dict | None = None) -> bytes:
    """One short-lived control-plane request; returns the response body."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(head + body)
        return read_http_response(sock, bytearray())


class _WindowPollClient(threading.Thread):
    """One windowed viewport stand-in.

    Long-polls with its window key, then fetches every announced brick
    payload out-of-band on the same keep-alive socket, counting the
    delivered bytes — the delta frame plus the binary payloads, i.e.
    exactly the traffic the sliding-window plane exists to shrink.
    """

    def __init__(self, port: int, sid: str, wid: str, stop: threading.Event,
                 start_gate: threading.Barrier) -> None:
        super().__init__(daemon=True, name=f"bench-window-{sid}")
        self.port = port
        self.sid = sid.encode("ascii")
        self.wid = wid.encode("ascii")
        self.stop_event = stop
        self.start_gate = start_gate
        self.wakes = 0
        self.bytes_received = 0
        self.bricks_fetched = 0
        self.errors = 0

    def run(self) -> None:
        sock: socket.socket | None = None
        buf = bytearray()
        since = 0
        self.start_gate.wait()
        try:
            while not self.stop_event.is_set():
                try:
                    if sock is None:
                        buf.clear()
                        sock = socket.create_connection(
                            ("127.0.0.1", self.port), timeout=10.0
                        )
                        sock.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
                    sock.sendall(
                        b"GET /api/v1/%s/poll?since=%d&timeout=0.5&window=%s"
                        b" HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
                        % (self.sid, since, self.wid)
                    )
                    body = read_http_response(sock, buf)
                    delta = json.loads(body)
                    head = delta.get("version", since)
                    if head == since:
                        continue  # timeout wake: no new step
                    since = head
                    self.wakes += 1
                    self.bytes_received += len(body)
                    for meta in delta.get("bricks", ()):
                        sock.sendall(
                            b"GET /api/v1/%s/brick?lod=%d&id=%d HTTP/1.1\r\n"
                            b"Host: 127.0.0.1\r\n\r\n"
                            % (self.sid, meta["lod"], meta["brick"])
                        )
                        payload = read_http_response(sock, buf)
                        self.bytes_received += len(payload)
                        self.bricks_fetched += 1
                except Exception:
                    self.errors += 1
                    if sock is not None:
                        sock.close()
                        sock = None
        finally:
            if sock is not None:
                sock.close()


@dataclass
class WindowStreamingResult:
    """Windowed-viewport cell vs full-domain cell, plus a pan phase.

    The tentpole's byte-accounting story: on a domain much larger than
    the viewport, a windowed client's bytes per wake must be a small
    fraction of a client whose window covers the whole domain; a steady
    pan must land mostly on prefetched bricks; and N clients sharing one
    window geometry must cost ~1 JSON encode per wake (the window-keyed
    delta-frame cache).
    """

    domain_cells: int
    window_cells: int
    clients: int
    steps: int
    full_bytes_per_wake: float
    windowed_bytes_per_wake: float
    windowed_byte_fraction: float
    full_bricks_per_wake: float
    windowed_bricks_per_wake: float
    json_encodes_per_wake: float
    prefetch_issued: int
    prefetch_hits: int
    prefetch_hit_rate: float
    errors: int

    def to_dict(self) -> dict:
        return {
            "experiment": "web_window_streaming",
            "domain_cells": self.domain_cells,
            "window_cells": self.window_cells,
            "clients": self.clients,
            "steps": self.steps,
            "full_bytes_per_wake": self.full_bytes_per_wake,
            "windowed_bytes_per_wake": self.windowed_bytes_per_wake,
            "windowed_byte_fraction": self.windowed_byte_fraction,
            "full_bricks_per_wake": self.full_bricks_per_wake,
            "windowed_bricks_per_wake": self.windowed_bricks_per_wake,
            "json_encodes_per_wake": self.json_encodes_per_wake,
            "prefetch_issued": self.prefetch_issued,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_hit_rate": self.prefetch_hit_rate,
            "errors": self.errors,
        }

    def to_table(self) -> str:
        return "\n".join([
            "Sliding-window streaming - windowed viewport vs full domain",
            f"  domain {self.domain_cells}^3 samples, window "
            f"{self.window_cells}^3, {self.clients} shared-window clients, "
            f"{self.steps} steps",
            f"  bytes/wake: windowed {self.windowed_bytes_per_wake:,.0f} vs "
            f"full {self.full_bytes_per_wake:,.0f} "
            f"({100 * self.windowed_byte_fraction:.1f}%)",
            f"  bricks/wake: windowed {self.windowed_bricks_per_wake} vs "
            f"full {self.full_bricks_per_wake}",
            f"  json encodes/wake (shared window): {self.json_encodes_per_wake}",
            f"  pan prefetch: {self.prefetch_hits}/{self.prefetch_issued} hits "
            f"({100 * self.prefetch_hit_rate:.0f}%)",
            f"  errors: {self.errors}",
        ])


def _run_window_cell(cm: CentralManager, tree: Octree, n_clients: int,
                     steps: int, publish_hz: float, lo, hi,
                     lod: int = 0) -> dict:
    """One (window geometry x clients) cell against a live server."""
    client = SteeringClient(cm)
    with AjaxWebServer(client, port=0) as server:
        store = client.manager.open_monitor("win0")
        source = WindowedDomainSource(tree)
        store.set_window_source(source)
        _window_http(server.port, "POST", "/api/v1/win0/window",
                     {"lo": list(lo), "hi": list(hi), "lod": lod, "wid": "w"})
        stop = threading.Event()
        gate = threading.Barrier(n_clients + 1)
        clients = [
            _WindowPollClient(server.port, "win0", "w", stop, gate)
            for _ in range(n_clients)
        ]
        for t in clients:
            t.start()
        gate.wait()
        encodes_before = store.json_encodes
        interval = 1.0 / publish_hz
        for step in range(steps):
            store.publish_window_step(step)
            time.sleep(interval)
        time.sleep(0.5)  # let the herd drain the last announce + payloads
        json_encodes = store.json_encodes - encodes_before
        stop.set()
        for t in clients:
            t.join(timeout=30.0)
        wakes = sum(c.wakes for c in clients)
        return {
            "bytes_per_wake": sum(c.bytes_received for c in clients)
            / max(wakes, 1),
            "bricks_per_wake": sum(c.bricks_fetched for c in clients)
            / max(wakes, 1),
            "json_encodes_per_wake": round(json_encodes / max(steps, 1), 3),
            "wakes": wakes,
            "errors": sum(c.errors for c in clients),
        }


def _run_window_pan(cm: CentralManager, tree: Octree, window_cells: int,
                    pans: int) -> dict:
    """Steady +x pan through the v1 window routes; returns source stats."""
    client = SteeringClient(cm)
    with AjaxWebServer(client, port=0) as server:
        store = client.manager.open_monitor("pan0")
        source = WindowedDomainSource(tree)
        store.set_window_source(source)
        store.publish_window_step(0)
        lo, hi = [0, 0, 0], [window_cells] * 3
        pitch = tree.leaf_cells  # one brick column per pan step
        for _ in range(pans + 1):
            resp = json.loads(_window_http(
                server.port, "POST", "/api/v1/pan0/window",
                {"lo": lo, "hi": hi, "lod": 0, "wid": "w"},
            ))
            for meta in resp["bricks"]:
                _window_http(
                    server.port, "GET",
                    f"/api/v1/pan0/brick?lod={meta['lod']}&id={meta['brick']}",
                )
            lo[0] += pitch
            hi[0] += pitch
        info = json.loads(_window_http(
            server.port, "GET", "/api/v1/pan0/window?window=w"))
        return info["stats"]


def run_window_streaming(
    clients: int = 6,
    steps: int = 20,
    publish_hz: float = 10.0,
    domain_cells: int = 65,
    window_cells: int = 17,
    pans: int = 3,
    cm: CentralManager | None = None,
) -> WindowStreamingResult:
    """Measure the sliding-window delivery plane end to end.

    Three phases on one out-of-core domain (``domain_cells^3`` samples,
    >= 8x the ``window_cells^3`` viewport by volume):

    1. N clients sharing one small window long-poll while the publisher
       steps the domain — bytes per wake and JSON encodes per wake.
    2. One client whose window covers the whole domain — the bytes-per-
       wake denominator the 30% budget is judged against.
    3. A steady +x pan fetching every announced payload — prefetch hit
       accounting along the pan direction.
    """
    if cm is None:
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        cm = CentralManager(topo, roles, calibration=default_calibration(0))
    rng = np.random.default_rng(23)
    vals = rng.random((domain_cells,) * 3, dtype=np.float32)
    tree = Octree(StructuredGrid(vals), leaf_cells=16)
    windowed = _run_window_cell(cm, tree, clients, steps, publish_hz,
                                (0, 0, 0), (window_cells,) * 3)
    full = _run_window_cell(cm, tree, 1, steps, publish_hz,
                            (0, 0, 0), (domain_cells,) * 3)
    pan = _run_window_pan(cm, tree, window_cells, pans)
    fraction = windowed["bytes_per_wake"] / max(full["bytes_per_wake"], 1e-9)
    return WindowStreamingResult(
        domain_cells=domain_cells,
        window_cells=window_cells,
        clients=clients,
        steps=steps,
        full_bytes_per_wake=round(full["bytes_per_wake"], 1),
        windowed_bytes_per_wake=round(windowed["bytes_per_wake"], 1),
        windowed_byte_fraction=round(fraction, 4),
        full_bricks_per_wake=round(full["bricks_per_wake"], 2),
        windowed_bricks_per_wake=round(windowed["bricks_per_wake"], 2),
        json_encodes_per_wake=windowed["json_encodes_per_wake"],
        prefetch_issued=pan["prefetch_issued"],
        prefetch_hits=pan["prefetch_hits"],
        prefetch_hit_rate=round(pan["prefetch_hit_rate"], 3),
        errors=windowed["errors"] + full["errors"],
    )
