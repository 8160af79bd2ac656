"""Web-tier concurrency experiment: poll throughput and wake latency.

Drives the real serving spine — SessionManager + event-sequence stores
behind the non-blocking Ajax web server — with S concurrent sessions and
N concurrent browser stand-ins (one :class:`Viewer` thread each, over a
long poll, an SSE stream or a WebSocket), while per-session publishers
push images at a fixed rate.  Each cell of a sweep reports:

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

Every experiment here is one herd (:func:`_run_herd`) of :class:`Viewer`
threads, which read their sockets through :mod:`repro.web.client`.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.costmodel.calibration import default_calibration
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.des import Simulator
from repro.errors import WebServerError
from repro.experiments.reporting import format_table
from repro.net.channel import build_sim_path
from repro.net.testbed import build_paper_testbed
from repro.net.topology import LinkSpec, NodeSpec, Topology
from repro.steering.central_manager import CentralManager
from repro.steering.client import SteeringClient
from repro.steering.manager import SessionManager
from repro.viz.image import Image
from repro.web.client import (
    API_PREFIX,
    TRANSPORTS,
    SteeringWebClient,
    connect,
    open_stream,
    read_response,
)
from repro.web.server import AjaxWebServer
from repro.window import WindowedDomainSource
from repro.wire import binary_delta_json

__all__ = [
    "AdaptiveDeliveryResult",
    "ConcurrencyCell",
    "SweepResult",
    "Viewer",
    "WindowStreamingResult",
    "default_client_counts",
    "emulated_slow_bandwidth",
    "ensure_fd_capacity",
    "run_adaptive_delivery",
    "run_obs_overhead",
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


# -- the result schema: one cell, one sweep record ------------------------------------


@dataclass
class ConcurrencyCell:
    """One measured herd: a grid point of any sweep below."""

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


#: The one table layout of a cell: (heading, attribute printed under it).
_TABLE = (
    ("transport", "transport"), ("sessions", "sessions"), ("clients", "clients"),
    ("polls/s", "poll_rate"), ("events/s", "event_rate"),
    ("p50 ms", "wake_p50_ms"), ("p99 ms", "wake_p99_ms"),
    ("threads", "server_threads"), ("enc/ver", "encodes_per_version"),
    ("json/wake", "json_encodes_per_wake"), ("recording", "obs_enabled"),
    ("samples", "obs_samples"), ("journaled", "obs_events_journaled"),
)


@dataclass
class SweepResult:
    """One sweep: what it held fixed or iterated (``params``, spelled as
    the artifact spells them), the cells it measured, and which cell
    attributes tell two of its cells apart (``key``, in the order
    :meth:`cell` takes them positionally)."""

    experiment: str
    title: str
    params: dict
    key: tuple
    cells: list[ConcurrencyCell] = field(default_factory=list)

    def cell(self, *values, **key) -> ConcurrencyCell:
        key.update(zip(self.key, values))
        for c in self.cells:
            if all(getattr(c, name) == value for name, value in key.items()):
                return c
        raise KeyError(key)

    # The recorder-off / recorder-on pair of run_obs_overhead: the durable
    # ops tier's capture path rides the IO loop's housekeeping tick
    # (metrics) and the publish tap (journal) — zero extra threads — so
    # the wake p99 with recording on must stay within a small factor of
    # the recording-off baseline.

    @property
    def off(self) -> ConcurrencyCell:
        return self.cell(obs_enabled=False)

    @property
    def on(self) -> ConcurrencyCell:
        return self.cell(obs_enabled=True)

    @property
    def p99_ratio(self) -> float:
        return self.on.wake_p99_ms / max(self.off.wake_p99_ms, 1e-9)

    def to_dict(self) -> dict:
        out = {"experiment": self.experiment, **self.params}
        if self.key == ("obs_enabled",):  # the artifact's shape for the pair
            out.update(p99_ratio=round(self.p99_ratio, 3),
                       off=dataclasses.asdict(self.off),
                       on=dataclasses.asdict(self.on))
        else:
            out["cells"] = [dataclasses.asdict(c) for c in self.cells]
        return out

    def to_table(self) -> str:
        return format_table(
            [heading for heading, _ in _TABLE],
            [[getattr(c, attr) for _, attr in _TABLE] for c in self.cells],
            title=self.title,
        )


def _record_table(title: str, record) -> str:
    """A flat result record as a two-column table, every field a row."""
    return format_table(("metric", "value"), dataclasses.asdict(record).items(),
                        title=title, float_fmt="{}")


# -- the browser stand-in ----------------------------------------------------------------


def _tiny_image(shade: int, size: int = 24) -> Image:
    px = np.full((size, size, 4), shade % 256, dtype=np.uint8)
    px[:, :, 3] = 255
    return Image(px)


def _publish_image(store, tick: int) -> None:
    store.publish_image(_tiny_image(tick), cycle=tick,
                        meta={"t_pub": time.monotonic()})


#: How a paced viewer reads: this much per receive, out of a receive
#: buffer this small (see ``pace`` below).
_PACED_RECV = 4096
_PACED_RCVBUF = 8192


class Viewer(threading.Thread):
    """One persistent-connection browser stand-in on its own thread.

    ``transport`` picks how events reach it: ``longpoll`` re-polls one
    keep-alive socket; ``sse`` / ``ws`` hold one push stream open.

    Uses a raw keep-alive socket with precomputed request bytes and a
    minimal HTTP/1.1 response reader instead of ``http.client``: with
    hundreds of in-process client threads, harness-side Python cost is
    serialized by the GIL right behind every herd wake, so a heavyweight
    client inflates the *measured* server latency.  The wake timestamp
    is taken when the response body has been fully received (a poll) or
    the moment ``recv`` returns a chunk (a stream), before any JSON
    parsing.  A long poll MUST then parse inline: the next request needs
    ``version`` — that round-trip dependency is the protocol.  A stream
    defers the parse to after the measured window: a push client needs
    nothing from the payload to keep receiving (the server tracks its
    cursor), while 500 in-process clients parsing inline serialize every
    wake through the GIL and the cell measures parse service order, not
    the serving path.

    ``warmup`` (seconds past this viewer's own first response or stream
    open) discards latency samples from the connect storm: with hundreds
    of clients dialing in at t0, stragglers connect (and get scheduled)
    seconds late, and their receive timestamps measure the harness's
    thread backlog — identical for every transport — rather than
    steady-state serving.  Anchoring the discard per viewer keeps a late
    joiner's settled samples and drops only its storm-era ones.

    ``images="binary"`` (WebSocket only) subscribes with image blobs
    inlined raw in binary frames, so delivered bytes track the tier
    ladder's payload fractions; only each frame's JSON header is kept
    for the deferred parse.  ``window`` (long poll only) names a
    registered sliding window: the viewer polls with it, then fetches
    every announced brick payload out-of-band on the same keep-alive
    socket, counting the delivered bytes — the delta frame plus the
    binary payloads, i.e. exactly the traffic the sliding-window plane
    exists to shrink.  ``pace`` (bytes/s, streams only) emulates a
    bandwidth-limited reader: capping each receive and sleeping between
    receives bounds the drain rate, and a small receive buffer keeps the
    kernel from absorbing the backlog — the congestion becomes
    server-visible, which is what the adaptive delivery plane reacts to.

    Anything but a 200 to a poll or a brick fetch, a refused upgrade, a
    dropped or ended stream and a payload that does not parse each count
    one ``error``; the viewer then reconnects from its cursor.
    """

    def __init__(self, port: int, sid: str, stop: threading.Event,
                 start_gate: threading.Barrier, transport: str = "longpoll",
                 images: str | None = None, window: str | None = None,
                 pace: float | None = None, warmup: float = 0.0) -> None:
        super().__init__(daemon=True, name=f"bench-viewer-{sid}")
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}")
        polling = transport == "longpoll"
        if (images and transport != "ws") or (pace and polling) or (window and not polling):
            raise ValueError("images= rides a WebSocket, pace= a push stream, "
                             "window= a long poll")
        self.port = port
        self.sid = sid
        self.stop_event = stop
        self.start_gate = start_gate
        self.transport = transport
        self.pace = pace
        self.warmup = warmup
        self.since = 0
        self.polls = 0  # deltas received (a push delta is the analogue of a poll)
        self.wakes = 0  # ...that carried something new (not a timeout wake)
        self.events = 0
        self.dropped = 0
        self.errors = 0
        self.bytes_received = 0  # delta + brick payload bytes of those wakes
        self.bricks_fetched = 0
        self.max_tier_seen = 0
        self.last_rx = 0.0  # when the last chunk arrived (drain detection)
        self.latencies: list[float] = []
        self._binary = images == "binary"
        self._query = f"&images={images}" if images else ""
        self._recv_bytes = _PACED_RECV if pace else 65536
        window_query = f"&window={window}" if window else ""
        self._poll_request = (
            f"GET {API_PREFIX}/{sid}/poll?since=%d&timeout=0.5{window_query}"
            " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").encode("ascii")
        self._brick_request = (
            f"GET {API_PREFIX}/{sid}/brick?lod=%d&id=%d"
            " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").encode("ascii")
        self._sock = self._buf = self._decode = None  # set when it connects
        self._skip_until: float | None = None
        self._raw: list[tuple[float, int, bytes]] = []  # (arrival, wire size, JSON)

    def run(self) -> None:
        # Connect lazily AFTER the barrier: a failed connect must count
        # as an error and retry, never strand the other gate waiters.
        step = self._poll_once if self.transport == "longpoll" else self._receive
        self.start_gate.wait()
        try:
            while not self.stop_event.is_set():
                try:
                    step()
                except Exception:
                    self.errors += 1
                    self._hang_up()
        finally:
            self._hang_up()
            self._settle()

    def _hang_up(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _tally(self, delta: dict, now: float, nbytes: int) -> bool:
        """Account one delta that arrived at ``now``; True if it moved
        the cursor (a timeout wake carries no new step)."""
        head = delta.get("version", self.since)
        self.polls += 1
        advanced = head != self.since
        if advanced:
            self.since = head
            self.wakes += 1
            self.bytes_received += nbytes
        self.dropped += delta.get("dropped", 0)
        self.max_tier_seen = max(self.max_tier_seen, delta.get("tier", 0))
        for comp in delta.get("components", []):
            self.events += 1
            t_pub = comp.get("props", {}).get("t_pub")
            if t_pub is not None and now >= self._skip_until:
                self.latencies.append(now - t_pub)
        return advanced

    def _fetch(self, request: bytes) -> bytes:
        self._sock.sendall(request)
        status, _headers, body = read_response(self._sock, self._buf)
        if status != 200:
            raise WebServerError(f"HTTP {status} to {request[:60]!r}")
        return body

    def _poll_once(self) -> None:
        if self._sock is None:
            self._buf = bytearray()
            self._sock = connect(("127.0.0.1", self.port))
        body = self._fetch(self._poll_request % self.since)
        now = time.monotonic()
        delta = json.loads(body)
        if self._skip_until is None:
            self._skip_until = now + self.warmup
        if self._tally(delta, now, len(body)):
            for meta in delta.get("bricks", ()):
                self.bytes_received += len(self._fetch(
                    self._brick_request % (meta["lod"], meta["brick"])))
                self.bricks_fetched += 1

    def _receive(self) -> None:
        if self._sock is None:
            # Resume where the dropped stream left off: the cursor is in
            # the payloads not parsed yet.
            self._settle()
            self._sock, self._buf, self._decode = open_stream(
                ("127.0.0.1", self.port), self.sid, self.transport, self.since,
                self._query, rcvbuf=_PACED_RCVBUF if self.pace else None)
            # per-viewer warm-up: samples before this stream settled
            # measure the harness storm, not serving
            self._skip_until = time.monotonic() + self.warmup
            self._sock.settimeout(0.5)  # bounds the stop-check latency
            self._keep(time.monotonic())
        try:
            chunk = self._sock.recv(self._recv_bytes)
        except TimeoutError:
            return  # a quiet stream: look at the stop flag again
        now = time.monotonic()
        if not chunk:
            raise ConnectionError("stream closed")
        self._buf += chunk
        self.last_rx = now
        self._keep(now)
        if self.pace:
            time.sleep(self._recv_bytes / self.pace)

    def _keep(self, now: float) -> None:
        """Stamp and shelve the payloads that are complete at ``now``."""
        payloads, ended = self._decode()
        for payload in payloads:
            self._raw.append((now, len(payload),
                              binary_delta_json(payload) if self._binary else payload))
        if ended:
            raise ConnectionError("stream ended")

    def _settle(self) -> None:
        """Parse the shelved payloads (after the stop flag; before a re-open)."""
        for now, nbytes, payload in self._raw:
            try:
                self._tally(json.loads(payload), now, nbytes)
            except (ValueError, AttributeError, TypeError):
                # not a delta: its error, never the thread's whole tally
                self.errors += 1
        self._raw.clear()


# -- the herd runner ---------------------------------------------------------------------


@dataclass
class _HerdRun:
    """What one herd left behind: its viewers' tallies and the server's."""

    viewers: list[Viewer]
    stores: list
    published: int
    elapsed: float
    json_encodes: int  # across the stores, barrier release -> end of the tail
    server_threads: int
    live_stats: dict  # server.stats() while the herd was still connected
    final_stats: dict  # ...and once every viewer had hung up
    obs_stats: dict | None

    def total(self, counter: str) -> int:
        return sum(getattr(v, counter) for v in self.viewers)


def _run_herd(client: SteeringClient, sids: list[str], viewers: list[dict],
              publish, publish_hz: float, duration: float = math.inf,
              steps: float = math.inf, tail: float = 0.3, prepare=None,
              **server_kwargs) -> _HerdRun:
    """One herd against a live server, start to tally.

    Opens a monitor channel per ``sids`` entry, one :class:`Viewer` per
    ``viewers`` entry (its keyword arguments) and one publisher thread
    per channel calling ``publish(store, tick)`` at ``publish_hz`` until
    ``duration`` seconds or ``steps`` ticks have passed.  ``prepare(server,
    stores)`` runs once the server is up, before any thread starts.
    """
    span = min(duration, steps / publish_hz)
    with AjaxWebServer(client, port=0, **server_kwargs) as server:
        stores = [client.manager.open_monitor(sid) for sid in sids]
        if prepare is not None:
            prepare(server, stores)
        stop = threading.Event()
        gate = threading.Barrier(len(viewers) + len(sids) + 1)
        published = [0] * len(sids)

        def publisher(idx: int) -> None:
            interval = 1.0 / publish_hz
            gate.wait()
            deadline = time.monotonic() + duration
            while published[idx] < steps and time.monotonic() < deadline:
                published[idx] += 1
                publish(stores[idx], published[idx])
                time.sleep(interval)

        publishers = [
            threading.Thread(target=publisher, args=(i,), daemon=True,
                             name=f"bench-pub-{i}")
            for i in range(len(sids))
        ]
        # Per-viewer warm-up: each viewer's first quarter-window of
        # samples after its own connect is storm, not steady state.
        herd = [Viewer(server.port, stop=stop, start_gate=gate,
                       warmup=0.25 * span, **spec) for spec in viewers]
        for t in publishers + herd:
            t.start()
        # GC off for the measured window (the `timeit` convention): at
        # 500 clients a single gen-2 pause lands on one wake and sets
        # that cell's p99 — measuring the collector, not the transport.
        gc.collect()
        gc.disable()
        try:
            gate.wait()
            t0 = time.monotonic()
            encodes_before = sum(s.json_encodes for s in stores)
            for t in publishers:
                t.join(timeout=span + 30.0)
            # let viewers drain the tail of the event stream, then stop them
            time.sleep(tail)
            # Clock the cell before teardown: how long viewers take to
            # notice the stop flag varies by transport and is not
            # serving time.
            elapsed = time.monotonic() - t0
            json_encodes = sum(s.json_encodes for s in stores) - encodes_before
            # gauge while the herd is still connected: which tiers the
            # controller is actually running connections on
            live_stats = server.stats()
        finally:
            gc.enable()
        paced = [v for v in herd if v.pace]
        if paced:
            # paced readers are seconds behind the head by design; let
            # them drain down to their degraded (small) frames so the
            # client-observed tier reflects the demotion.  Drained ==
            # no paced reader has received a chunk for a while (their
            # inter-chunk pacing gap is far shorter).
            deadline = time.monotonic() + max(8.0, 2.0 * span)
            while time.monotonic() < deadline:
                last = max(v.last_rx for v in paced)
                if last and time.monotonic() - last > 0.75:
                    break
                time.sleep(0.1)
        stop.set()
        for t in herd:
            t.join(timeout=30.0)
        return _HerdRun(
            viewers=herd,
            stores=stores,
            published=sum(published),
            elapsed=elapsed,
            json_encodes=json_encodes,
            server_threads=sum(1 for t in threading.enumerate()
                               if t.name.startswith("ricsa-web")),
            live_stats=live_stats,
            final_stats=server.stats(),
            obs_stats=server.obs.stats() if server.obs is not None else None,
        )


def _wake_ms(viewers: list[Viewer], q: float) -> float:
    """The ``q`` quantile of the viewers' wake latency samples, in ms."""
    samples = sorted(x for v in viewers for x in v.latencies)
    if not samples:
        return 0.0
    return 1e3 * samples[min(len(samples) - 1, int(round(q * (len(samples) - 1))))]


def _default_cm() -> CentralManager:
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration(0))


def _best_of(repeats: int, *runs, key=lambda cell: cell.wake_p99_ms) -> list:
    """Call each of ``runs`` ``repeats`` times, round-robin (slow drift in
    machine state then lands on every side alike), and keep each one's
    lowest-p99 result — standard best-of-N practice for latency cells,
    which a single scheduler hiccup can otherwise distort."""
    rounds = [[run() for run in runs] for _ in range(max(1, int(repeats)))]
    return [min(side, key=key) for side in zip(*rounds)]


def _run_cell(cm: CentralManager, n_sessions: int, n_clients: int,
              duration: float, publish_hz: float, transport: str = "longpoll",
              obs: bool = False, housekeeping_interval: float = 5.0) -> ConcurrencyCell:
    """One grid point: ``n_clients`` viewers spread over ``n_sessions``."""
    sids = [f"bench{i}" for i in range(n_sessions)]
    run = _run_herd(
        SteeringClient(cm), sids,
        [{"sid": sids[i % n_sessions], "transport": transport}
         for i in range(n_clients)],
        _publish_image, publish_hz, duration=duration,
        housekeeping_interval=housekeeping_interval, obs=obs,
    )
    encodes = sum(s.encode_count for s in run.stores)
    # One publish is one herd wake: every waiter parked on that
    # session shares the (since, head) delta frame, so JSON encodes
    # track publishes (~1 per wake), not clients (~N per wake).
    json_encodes = sum(s.json_encodes for s in run.stores)
    elapsed = max(run.elapsed, 1e-9)
    recorder = run.obs_stats["recorder"]["samples_taken"] if run.obs_stats else 0
    journaled = run.obs_stats["journal"]["events_recorded"] if run.obs_stats else 0
    return ConcurrencyCell(
        transport=transport,
        sessions=n_sessions,
        clients=n_clients,
        duration=round(run.elapsed, 3),
        polls=run.total("polls"),
        events_delivered=run.total("events"),
        event_rate=round(run.total("events") / elapsed, 1),
        poll_rate=round(run.total("polls") / elapsed, 1),
        wake_p50_ms=round(_wake_ms(run.viewers, 0.50), 3),
        wake_p99_ms=round(_wake_ms(run.viewers, 0.99), 3),
        server_threads=run.server_threads,
        images_published=run.published,
        encodes_per_version=round(encodes / max(run.published, 1), 3),
        json_encodes=json_encodes,
        wakes=run.published,
        json_encodes_per_wake=round(json_encodes / max(run.published, 1), 3),
        dropped=run.total("dropped"),
        errors=run.total("errors"),
        obs_enabled=bool(obs),
        obs_samples=recorder,
        obs_events_journaled=journaled,
    )


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
) -> SweepResult:
    """Sweep the (sessions x clients) grid against a live server.

    ``client_counts=None`` uses :func:`default_client_counts`.
    ``repeats > 1`` runs each cell that many times and keeps the run
    with the lowest wake p99 (:func:`_best_of`).
    """
    if client_counts is None:
        client_counts = default_client_counts()
    cm = cm or _default_cm()
    result = SweepResult(
        "web_concurrency",
        "Web-tier concurrency - long-poll throughput and wake latency",
        {"session_counts": list(session_counts),
         "client_counts": list(client_counts)},
        key=("sessions", "clients"),
    )
    for n_sessions in session_counts:
        for n_clients in client_counts:
            result.cells += _best_of(repeats, lambda: _run_cell(
                cm, n_sessions, n_clients, duration, publish_hz))
    return result


def run_transport_compare(
    transports: tuple = ("longpoll", "sse", "ws"),
    client_counts: tuple = (100, 500),
    sessions: int = 4,
    duration: float = 1.0,
    publish_hz: float | dict = 5.0,
    cm: CentralManager | None = None,
    repeats: int = 1,
) -> SweepResult:
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
    cm = cm or _default_cm()
    result = SweepResult(
        "web_transport_compare",
        "Push transports - wake latency per protocol",
        {"transports": list(transports), "client_counts": list(client_counts),
         "sessions": sessions},
        key=("transport", "clients"),
    )
    # Count-major order: the three transport cells of one column run
    # back-to-back, so slow drift in machine state (cache/thermal/VM
    # noise over a long sweep) lands on comparable cells, not on
    # whichever transport happened to run last.
    for n_clients in client_counts:
        hz = (publish_hz[n_clients] if isinstance(publish_hz, dict)
              else publish_hz)
        for transport in transports:
            result.cells += _best_of(repeats, lambda: _run_cell(
                cm, sessions, n_clients, duration, hz, transport=transport))
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
        return dataclasses.asdict(self)

    def to_table(self) -> str:
        return _record_table(
            "Adaptive delivery - mixed fleet (fast LAN + emulated slow links)",
            self)


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

    All clients ride WS with images inlined raw; slow clients pace their
    reads at the slow link's bandwidth (the server additionally caps
    SO_SNDBUF).  ``repeats`` keeps the run with the lowest fast p99 on
    each side, the same best-of-N the latency sweeps use.
    """
    cm = cm or _default_cm()
    slow_bandwidth = emulated_slow_bandwidth(slow_link_mbits)
    fast = {"sid": "adapt", "transport": "ws", "images": "binary"}

    def fleet(n_slow: int):
        return lambda: _run_herd(
            SteeringClient(cm, manager=SessionManager(cm, file_size=file_size)),
            ["adapt"],
            [fast] * fast_clients + [{**fast, "pace": slow_bandwidth}] * n_slow,
            _publish_image, publish_hz, duration=duration,
            housekeeping_interval=0.2, write_budget=1024 * 1024, sndbuf=65536,
            staleness_budget=staleness_budget,
        )

    def fast_p99_ms(run: _HerdRun) -> float:
        return _wake_ms(run.viewers[:fast_clients], 0.99)

    baseline, mixed = _best_of(repeats, fleet(0), fleet(slow_clients),
                               key=fast_p99_ms)
    baseline_p99, mixed_p99 = fast_p99_ms(baseline), fast_p99_ms(mixed)
    (store,) = mixed.stores
    slow_fleet = mixed.viewers[fast_clients:]
    slow_tiers = [v.max_tier_seen for v in slow_fleet]
    wakes = max(mixed.published, 1)
    return AdaptiveDeliveryResult(
        fast_clients=fast_clients,
        slow_clients=slow_clients,
        duration=duration,
        publish_hz=publish_hz,
        slow_bandwidth=round(slow_bandwidth, 1),
        baseline_fast_p99_ms=round(baseline_p99, 3),
        fast_p99_ms=round(mixed_p99, 3),
        fast_p99_ratio=round(mixed_p99 / max(baseline_p99, 1e-9), 3),
        slow_disconnects=mixed.final_stats["slow_client_disconnects"],
        slow_tier_floor=min(slow_tiers, default=0),
        slow_tier_ceiling=max(slow_tiers, default=0),
        tier_demotions=mixed.final_stats["tier_demotions"],
        tier_promotions=mixed.final_stats["tier_promotions"],
        live_tiers=list(mixed.live_stats["tiers"]),
        images_published=mixed.published,
        encodes_per_version=round(store.encode_count / wakes, 3),
        tier_encodes=store.tier_encode_count,
        json_encodes_per_wake=round(store.json_encodes / wakes, 3),
        frame_groups=1 + slow_clients,
        slow_events=sum(v.events for v in slow_fleet),
        fast_events=sum(v.events for v in mixed.viewers[:fast_clients]),
        errors=mixed.total("errors"),
    )


# -- observability: recorder-on vs recorder-off overhead ----------------------------


def run_obs_overhead(
    sessions: int = 4,
    clients: int = 100,
    duration: float = 1.0,
    publish_hz: float = 25.0,
    cm: CentralManager | None = None,
    repeats: int = 1,
) -> SweepResult:
    """Measure the serving cost of turning the durable ops tier on.

    Identical (sessions x clients) cells, recorder off then on, on the
    same CentralManager.  The on-cell shortens the housekeeping
    interval so metric sampling actually happens inside the short bench
    window — strictly *more* capture work than the 1 s production
    cadence, making the guard conservative.  The encode-once invariant
    (``json_encodes_per_wake`` ~ 1) must hold unchanged.  ``repeats``
    keeps the lowest-p99 run per side, like every latency sweep here.
    """
    ensure_fd_capacity(2 * clients + 256)
    cm = cm or _default_cm()
    return SweepResult(
        "web_obs_overhead",
        "Observability overhead - recorder on vs off",
        {"sessions": sessions, "clients": clients, "duration": duration,
         "publish_hz": publish_hz},
        key=("obs_enabled",),
        cells=_best_of(
            repeats,
            lambda: _run_cell(cm, sessions, clients, duration, publish_hz),
            lambda: _run_cell(cm, sessions, clients, duration, publish_hz,
                              obs=True, housekeeping_interval=0.25),
        ),
    )


# -- sliding-window streaming: windowed viewport vs full-domain client --------------


@dataclass
class WindowStreamingResult:
    """Windowed-viewport cell vs full-domain cell, plus a pan phase
    (:func:`run_window_streaming` says what each must show)."""

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
        return {"experiment": "web_window_streaming", **dataclasses.asdict(self)}

    def to_table(self) -> str:
        return _record_table(
            "Sliding-window streaming - windowed viewport vs full domain", self)


def _run_window_cell(cm: CentralManager, tree: Octree, n_clients: int,
                     steps: int, publish_hz: float, lo, hi) -> _HerdRun:
    """``n_clients`` viewers sharing one window over ``tree``'s domain."""

    def prepare(server: AjaxWebServer, stores: list) -> None:
        stores[0].set_window_source(WindowedDomainSource(tree))
        SteeringWebClient(server.url, session="win0").set_window(lo, hi, wid="w")

    # tail: let the herd drain the last announce + payloads
    return _run_herd(
        SteeringClient(cm), ["win0"], [{"sid": "win0", "window": "w"}] * n_clients,
        lambda store, tick: store.publish_window_step(tick - 1), publish_hz,
        steps=steps, tail=0.5, prepare=prepare,
    )


def _run_window_pan(cm: CentralManager, tree: Octree, window_cells: int,
                    pans: int) -> dict:
    """Steady +x pan through the v1 window routes; returns source stats."""
    client = SteeringClient(cm)
    with AjaxWebServer(client, port=0) as server:
        store = client.manager.open_monitor("pan0")
        store.set_window_source(WindowedDomainSource(tree))
        store.publish_window_step(0)
        web = SteeringWebClient(server.url, session="pan0")
        lo, hi = [0, 0, 0], [window_cells] * 3
        pitch = tree.leaf_cells  # one brick column per pan step
        for _ in range(pans + 1):
            for meta in web.set_window(lo, hi, wid="w")["bricks"]:
                web.fetch_brick(meta["lod"], meta["brick"])
            lo[0] += pitch
            hi[0] += pitch
        return web.window_info()["stats"]


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
       steps the domain — bytes per wake, and JSON encodes per wake:
       one window geometry must cost ~1 however many share it (the
       window-keyed delta-frame cache).
    2. One client whose window covers the whole domain — the bytes-per-
       wake denominator the 30% budget is judged against.
    3. A steady +x pan fetching every announced payload — it must land
       mostly on bricks prefetched along the pan direction.
    """
    cm = cm or _default_cm()
    rng = np.random.default_rng(23)
    vals = rng.random((domain_cells,) * 3, dtype=np.float32)
    tree = Octree(StructuredGrid(vals), leaf_cells=16)
    windowed = _run_window_cell(cm, tree, clients, steps, publish_hz,
                                (0, 0, 0), (window_cells,) * 3)
    full = _run_window_cell(cm, tree, 1, steps, publish_hz,
                            (0, 0, 0), (domain_cells,) * 3)
    pan = _run_window_pan(cm, tree, window_cells, pans)

    def per_wake(run: _HerdRun, counter: str) -> float:
        return run.total(counter) / max(run.total("wakes"), 1)

    return WindowStreamingResult(
        domain_cells=domain_cells,
        window_cells=window_cells,
        clients=clients,
        steps=steps,
        full_bytes_per_wake=round(per_wake(full, "bytes_received"), 1),
        windowed_bytes_per_wake=round(per_wake(windowed, "bytes_received"), 1),
        windowed_byte_fraction=round(
            per_wake(windowed, "bytes_received")
            / max(per_wake(full, "bytes_received"), 1e-9), 4),
        full_bricks_per_wake=round(per_wake(full, "bricks_fetched"), 2),
        windowed_bricks_per_wake=round(per_wake(windowed, "bricks_fetched"), 2),
        json_encodes_per_wake=round(
            windowed.json_encodes / max(windowed.published, 1), 3),
        prefetch_issued=pan["prefetch_issued"],
        prefetch_hits=pan["prefetch_hits"],
        prefetch_hit_rate=round(pan["prefetch_hit_rate"], 3),
        errors=windowed.total("errors") + full.total("errors"),
    )
