"""Programmatic web client (the browser stand-in for tests/examples).

Speaks exactly the protocols of the embedded page: XHR-style long polls
against ``/api/v1/<session>/poll``, EventSource-style SSE streams against
``/api/v1/<session>/stream``, WebSocket upgrades against
``/api/v1/<session>/ws``, image fetches keyed by version, steering POSTs.
One client addresses one session; give it a ``session`` name or let
:meth:`resolve_session` adopt the first session the server lists.

Transport failures (refused/reset/dropped connections) surface as
:class:`ConnectionError`; protocol errors (HTTP 4xx/5xx, malformed
frames) as :class:`WebServerError`.  The polling and streaming paths
auto-reconnect with capped exponential backoff and resume from the
client's ``since`` cursor — a steering UI rides out a server restart or
a dropped stream without losing its place (``reconnects`` counts the
recoveries).  :meth:`events` is the unified entry point: one generator
of delta dicts whichever transport carries them.

Adaptive delivery surfaces here too: every delta carries the tier the
server's QoS controller assigned the connection, mirrored into
``client.tier`` (with ``tier_changes`` counting re-assignments), and a
``min_quality`` constructor hint caps how far the server may degrade
this client (0 pins full quality).  Image fetches default to the
negotiated tier's encode.

Above the class sits the socket level every browser stand-in under
``src/`` shares — :func:`connect`, :func:`read_response`,
:func:`open_stream` and its decoder — so the herd harness
(:class:`repro.experiments.web_concurrency.Viewer`) and this client read
one stream through one copy of the code.  A client author starts here.
"""

from __future__ import annotations

import base64
import json
import os
import socket
import time
import urllib.error
import urllib.parse
import urllib.request

from repro.errors import WebServerError
from repro.viz.image import Image, decode_fixed_size
from repro.wire import (
    WS_BINARY,
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    decode_binary_delta,
    decode_brick_payload,
    decode_chunks,
    parse_response_head,
    parse_ws_frames,
    response_body_length,
    split_sse_events,
    ws_accept_key,
    ws_client_frame,
)

__all__ = [
    "API_PREFIX",
    "TRANSPORTS",
    "SteeringWebClient",
    "connect",
    "open_stream",
    "read_response",
    "read_response_head",
]

TRANSPORTS = ("longpoll", "sse", "ws")

#: The API mount point every route lives under.
API_PREFIX = "/api/v1"


# -- the socket level: one copy for this client and the herd harness ---------------
#
# JSON-free: what a payload means is its reader's business (this module's
# SteeringWebClient decodes each one as it arrives; the concurrency
# harness's viewer stamps the arrival and decodes after its measured window).

def connect(address: tuple[str, int], timeout: float = 10.0,
            rcvbuf: int | None = None) -> socket.socket:
    """A connected client socket, Nagle off.  ``rcvbuf`` shrinks the
    receive window, so a reader that drains slowly backs up into the
    server's send queue instead of hiding in this end's kernel buffer."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    return sock


def _fill(sock: socket.socket, buf: bytearray, what: str) -> None:
    chunk = sock.recv(65536)
    if not chunk:
        raise ConnectionError(f"connection closed during {what}")
    buf += chunk


def read_response_head(sock: socket.socket, buf: bytearray) -> tuple[int, dict[str, str]]:
    """Receive into ``buf`` until it holds one response head; return
    ``(status, headers)`` with the bytes that followed left in ``buf``."""
    while (head := parse_response_head(buf)) is None:
        _fill(sock, buf, "response head")
    return head


def read_response(sock: socket.socket, buf: bytearray) -> tuple[int, dict[str, str], bytes]:
    """Read one ``Content-Length``-framed keep-alive response:
    ``(status, headers, body)``.

    ``buf`` carries the bytes of a pipelined follow-up response over to
    the next call.  A head that does not announce a plain-digit length
    under the cap raises :class:`WebServerError` before any body byte is
    taken (:func:`repro.wire.response_body_length`).
    """
    status, headers = read_response_head(sock, buf)
    length = response_body_length(headers)
    while len(buf) < length:
        _fill(sock, buf, "response body")
    body = bytes(buf[:length])
    del buf[:length]
    return status, headers, body


def _sse_decoder(buf: bytearray):
    events = bytearray()  # de-chunked bytes not yet a whole event

    def decode() -> tuple[list[bytes], bool]:
        chunks, ended = decode_chunks(buf)
        for chunk in chunks:
            events.extend(chunk)
        return [data for _event_id, data in split_sse_events(events)], ended

    return decode


def _ws_decoder(sock: socket.socket, buf: bytearray):
    def decode() -> tuple[list[bytes], bool]:
        payloads = []
        for opcode, payload in parse_ws_frames(buf, require_mask=False):
            if opcode in (WS_TEXT, WS_BINARY):
                payloads.append(payload)
            elif opcode == WS_PING:
                sock.sendall(ws_client_frame(payload, WS_PONG))
            elif opcode == WS_CLOSE:
                sock.sendall(ws_client_frame(payload[:2], WS_CLOSE))
                return payloads, True
        return payloads, False

    return decode


def open_stream(address: tuple[str, int], session: str, transport: str,
                since: int = 0, query: str = "", timeout: float = 10.0,
                rcvbuf: int | None = None):
    """Subscribe to ``session``'s events past ``since`` over a push
    ``transport`` (``sse`` / ``ws``); ``query`` is appended to the
    request target (``&images=binary``, ``&window=w``, ...).

    Sends the transport's request — SSE: ``Accept`` and ``Last-Event-ID``
    on ``GET .../stream``; WS: the RFC 6455 upgrade on ``GET .../ws`` with
    a fresh nonce, the accept key checked — and returns ``(sock, buf,
    decode)``: the socket, the buffer holding whatever followed the
    response head (receive into it), and a decoder.  ``decode()`` drains
    ``buf`` into ``(payloads, ended)``: the raw delta payloads that are
    complete (JSON bytes; a whole ``ws+bin`` payload on a WebSocket
    opened with ``&images=binary``) and whether the server ended the
    stream.  Pings and the close handshake are answered inside it.

    Refused / reset / timed-out connects and handshakes raise
    :class:`ConnectionError`; a wrong status or accept key
    :class:`WebServerError`.
    """
    host, port = address
    if transport == "sse":
        route, expect_status = "stream", 200
        headers = f"Last-Event-ID: {since}\r\nAccept: text/event-stream\r\n"
    elif transport == "ws":
        route, expect_status = "ws", 101
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        headers = ("Upgrade: websocket\r\nConnection: Upgrade\r\n"
                   f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n")
    else:
        raise WebServerError(f"{transport!r} is not a push transport")
    request = (f"GET {API_PREFIX}/{session}/{route}?since={since}{query} HTTP/1.1\r\n"
               f"Host: {host}:{port}\r\n{headers}\r\n")
    try:
        sock = connect(address, timeout, rcvbuf)
    except OSError as exc:
        raise ConnectionError(f"stream connect failed: {exc}") from exc
    buf = bytearray()
    try:
        try:
            sock.sendall(request.encode("latin-1"))
            status, response_headers = read_response_head(sock, buf)
        except OSError as exc:  # a timeout, a reset, a close mid-head
            raise ConnectionError(f"stream handshake failed: {exc}") from exc
        if status != expect_status:
            raise WebServerError(f"expected HTTP {expect_status}, got {status}")
        if transport == "sse":
            return sock, buf, _sse_decoder(buf)
        if response_headers.get("sec-websocket-accept") != ws_accept_key(key):
            raise WebServerError("WS handshake returned a bad accept key")
        return sock, buf, _ws_decoder(sock, buf)
    except BaseException:
        sock.close()
        raise


def _http_error(verb: str, path: str, exc: urllib.error.HTTPError) -> WebServerError:
    """Surface the server's error envelope, not just the status line."""
    detail = ""
    try:
        envelope = json.loads(exc.read().decode("utf-8"))
        detail = ": " + envelope["error"]["message"]
    except Exception:
        pass
    return WebServerError(f"{verb} {path}: HTTP {exc.code}{detail}")


class SteeringWebClient:
    """Synchronous steering-web client over urllib + raw sockets.

    urllib carries the request/response routes — stdlib already does
    that job, and a keep-alive socket of our own would need idle-close
    recovery nothing here asks for; the persistent stream transports
    (SSE chunked transfer, WebSocket) run over :func:`open_stream`.
    """

    def __init__(self, base_url: str, session: str | None = None,
                 timeout: float = 10.0, max_retries: int = 4,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 min_quality: int | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.session = session
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.min_quality = None if min_quality is None else int(min_quality)
        self.since = 0
        self.tier = 0
        self.updates_received = 0
        self.dropped_seen = 0
        self.skipped_images = 0
        self.tier_changes = 0
        self.reconnects = 0
        # Sliding-window state: the wid this client registered via
        # set_window (None = whole-domain deltas), mirrored into the
        # ``window=`` query on every delivery route.
        self.window_id: str | None = None

    # -- HTTP helpers ------------------------------------------------------------

    def _get(self, path: str, timeout: float | None = None) -> bytes:
        try:
            with urllib.request.urlopen(
                self.base_url + path, timeout=timeout or self.timeout
            ) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            raise _http_error("GET", path, exc) from exc
        except urllib.error.URLError as exc:
            raise ConnectionError(f"GET {path}: {exc.reason}") from exc

    def _get_json(self, path: str, timeout: float | None = None) -> dict:
        return json.loads(self._get(path, timeout=timeout).decode("utf-8"))

    def _post_json(self, path: str, body: dict) -> dict:
        data = json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise _http_error("POST", path, exc) from exc
        except urllib.error.URLError as exc:
            raise ConnectionError(f"POST {path}: {exc.reason}") from exc

    def _retrying(self, fn):
        """Run ``fn`` with capped exponential backoff on ConnectionError."""
        delay = self.backoff_base
        for attempt in range(self.max_retries + 1):
            try:
                return fn()
            except ConnectionError:
                if attempt == self.max_retries:
                    raise
                self.reconnects += 1
                time.sleep(delay)
                delay = min(delay * 2, self.backoff_cap)

    def _hostport(self) -> tuple[str, int]:
        parts = urllib.parse.urlsplit(self.base_url)
        if not parts.hostname or not parts.port:
            raise WebServerError(f"cannot stream to {self.base_url!r}")
        return parts.hostname, parts.port

    # -- session addressing --------------------------------------------------------

    def resolve_session(self) -> str:
        """The session this client addresses (adopts the server's first)."""
        if self.session is None:
            listing = self.sessions()
            if not listing:
                raise WebServerError("server has no sessions")
            self.session = sorted(listing)[0]
        return self.session

    def _api(self, action: str) -> str:
        return f"{API_PREFIX}/{self.resolve_session()}/{action}"

    # -- the Ajax protocol ----------------------------------------------------------

    def index_page(self) -> str:
        """The HTML page (sanity check that the UI is served)."""
        return self._get("/").decode("utf-8")

    def state(self) -> dict:
        """Full component tree."""
        return self._get_json(self._api("state"))

    def _advance(self, delta: dict) -> None:
        """Move the resume cursor past a received delta."""
        self.since = max(self.since, delta.get("version", self.since))
        self.updates_received += len(delta.get("components", []))
        self.dropped_seen += delta.get("dropped", 0)
        self.skipped_images += delta.get("skipped_images", 0)
        tier = delta.get("tier")
        if tier is not None and tier != self.tier:
            self.tier_changes += 1
            self.tier = tier

    def _quality_query(self) -> str:
        """The ``min_quality`` hint as a query suffix ('' when unset)."""
        if self.min_quality is None:
            return ""
        return f"&min_quality={self.min_quality}"

    def _window_query(self) -> str:
        """The sliding-window binding as a query suffix ('' when unset)."""
        if self.window_id is None:
            return ""
        return f"&window={urllib.parse.quote(self.window_id)}"

    def poll(self, timeout: float = 5.0) -> dict:
        """One long poll; advances the cursor, reconnects transparently.

        The cursor only moves on a successful response, so a retried
        poll naturally resumes from the last delta the client saw.
        """
        def attempt() -> dict:
            return self._get_json(
                self._api("poll")
                + f"?since={self.since}&timeout={timeout}"
                + self._quality_query() + self._window_query(),
                timeout=timeout + 5.0,
            )

        diff = self._retrying(attempt)
        self._advance(diff)
        return diff

    # -- streaming transports -------------------------------------------------------

    def events(self, transport: str = "longpoll", timeout: float = 5.0,
               images: str | None = None):
        """Unified event stream: an infinite generator of delta dicts.

        ``transport`` picks the wire protocol; every delta has the poll
        shape (``version``/``components``/``dropped``), so consumers are
        transport-agnostic.  Quiet periods yield synthetic
        ``{"timeout": True}`` deltas every ``timeout`` seconds (the long
        poll's timeout contract, kept for the push transports).  Dropped
        connections reconnect with capped exponential backoff, resuming
        from ``since``; protocol errors (e.g. the session is gone)
        propagate to the caller.  ``images="binary"`` asks the WS
        transport to inline image blobs in the deltas (raw, after the
        JSON header of a binary frame).
        """
        if transport not in TRANSPORTS:
            raise WebServerError(f"unknown transport {transport!r}")
        delay = self.backoff_base
        while True:
            try:
                if transport == "longpoll":
                    yield self.poll(timeout=timeout)
                    delay = self.backoff_base
                    continue
                for delta in self._stream(transport, timeout, images):
                    delay = self.backoff_base
                    yield delta
            except ConnectionError:
                pass
            # Dropped (or server-ended) stream: back off, then resume.
            self.reconnects += 1
            time.sleep(delay)
            delay = min(delay * 2, self.backoff_cap)

    def _stream(self, transport: str, timeout: float = 5.0,
                images: str | None = None):
        """One push connection; yields deltas until it drops (then
        raises) or the server ends it (then returns).

        Heartbeats (comments, pings) arriving faster than ``timeout``
        would keep recv returning non-event bytes forever; the quiet
        deadline keeps the every-``timeout``-seconds synthetic-delta
        contract regardless of server chatter.
        """
        inline = f"&images={images}" if images and transport == "ws" else ""
        sock, buf, decode = open_stream(
            self._hostport(), self.resolve_session(), transport, self.since,
            inline + self._quality_query() + self._window_query(), self.timeout)
        # What a payload is follows from what was subscribed to.
        loads = (decode_binary_delta if (transport, images) == ("ws", "binary")
                 else json.loads)
        try:
            quiet_deadline = time.monotonic() + timeout
            while True:
                payloads, ended = decode()
                for payload in payloads:
                    delta = loads(payload)
                    self._advance(delta)
                    yield delta
                    quiet_deadline = time.monotonic() + timeout
                if ended:
                    return  # server finished the stream (session closed)
                remaining = quiet_deadline - time.monotonic()
                chunk = None  # stays None when the quiet deadline passes unread
                if remaining > 0:
                    try:
                        sock.settimeout(remaining)
                        chunk = sock.recv(65536)
                    except TimeoutError:
                        pass
                    except OSError as exc:
                        raise ConnectionError(f"stream read failed: {exc}") from exc
                    if chunk == b"":
                        raise ConnectionError("stream connection closed")
                if chunk is None:
                    yield {"version": self.since, "components": [], "dropped": 0,
                           "tier": self.tier, "timeout": True}
                    quiet_deadline = time.monotonic() + timeout
                else:
                    buf += chunk
        finally:
            sock.close()

    def wait_for_component(
        self, component_id: str, polls: int = 20, timeout: float = 3.0,
        transport: str = "longpoll",
    ) -> dict:
        """Consume deltas until one includes ``component_id``; its props."""
        stream = self.events(transport=transport, timeout=timeout)
        try:
            for _ in range(polls):
                delta = next(stream)
                for comp in delta.get("components", []):
                    if comp["id"] == component_id:
                        return comp["props"]
        finally:
            stream.close()
        raise WebServerError(f"component {component_id!r} never updated")

    # -- images / steering ----------------------------------------------------------

    def _image_query(self, version: int | None, tier: int | None) -> str:
        params = []
        if version:
            params.append(f"v={version}")
        if tier:
            params.append(f"tier={int(tier)}")
        return "?" + "&".join(params) if params else ""

    def fetch_image(self, version: int | None = None,
                    tier: int | None = None) -> Image:
        """Download and decode the latest fixed-size image file.

        ``tier`` asks for the downscaled encode of that delivery tier
        (defaults to the stream's negotiated tier; pass 0 for full
        resolution regardless).
        """
        if tier is None:
            tier = self.tier
        blob = self._get(self._api("image") + self._image_query(version, tier))
        return decode_fixed_size(blob)

    def fetch_png(self, version: int | None = None,
                  tier: int | None = None) -> bytes:
        """Download the browser-format PNG (tier-scaled like fetch_image)."""
        if tier is None:
            tier = self.tier
        return self._get(self._api("image.png") + self._image_query(version, tier))

    # -- sliding-window streaming -----------------------------------------------------

    def set_window(self, lo, hi, lod: int = 0, wid: str = "default") -> dict:
        """Register/move this client's sliding window over the session's
        out-of-core domain.

        ``lo``/``hi`` bound the region of interest in samples (half-open
        box), ``lod`` the requested level of detail (0 = finest).  Every
        later delivery route carries ``window=<wid>`` so the server
        streams only intersecting bricks.  Returns the server response
        (the clamped window plus the announce list of visible bricks).
        """
        resp = self._post_json(self._api("window"), {
            "lo": list(lo), "hi": list(hi), "lod": int(lod), "wid": wid,
        })
        self.window_id = resp.get("wid", wid)
        return resp

    def window_info(self, wid: str | None = None) -> dict:
        """The server's view of a registered window (geometry + stats)."""
        wid = wid if wid is not None else (self.window_id or "default")
        return self._get_json(
            self._api("window") + f"?window={urllib.parse.quote(wid)}")

    def fetch_brick(self, lod: int, brick: int) -> dict:
        """Download and decode one brick payload (binary, out-of-band).

        Returns the decoded dict from
        :func:`repro.wire.decode_brick_payload` — offset/shape/
        step metadata plus the float32 sample block.
        """
        blob = self._get(self._api("brick") + f"?lod={int(lod)}&id={int(brick)}")
        return decode_brick_payload(blob)

    # -- steering --------------------------------------------------------------------

    def steer(self, **params) -> dict:
        return self._post_json(self._api("steer"), params)

    def view(self, **ops) -> dict:
        return self._post_json(self._api("view"), ops)

    def stop_session(self) -> dict:
        return self._post_json(self._api("stop"), {})

    def sessions(self) -> dict:
        return self._get_json(f"{API_PREFIX}/sessions")

    # -- observability (metrics + journal replay) -----------------------------------

    def server_stats(self) -> dict:
        """The ``/api/v1/stats`` payload."""
        return self._get_json(f"{API_PREFIX}/stats")

    def metrics(self) -> dict:
        """Recorder/journal/store health plus the known series names."""
        return self._get_json(f"{API_PREFIX}/metrics")

    def metrics_history(self, series=(), since: float = 0.0,
                        step: float = 0.0, limit: int = 2000) -> dict:
        """Windowed samples from ``/api/v1/metrics/history``.

        ``series`` is an iterable of series names (empty means all),
        ``since`` a wall-clock lower bound, ``step`` an optional
        downsampling bucket in seconds.
        """
        query = urllib.parse.urlencode({
            "series": ",".join(series),
            "since": since, "step": step, "limit": int(limit),
        })
        return self._get_json(f"{API_PREFIX}/metrics/history?{query}")

    def replay(self, session: str | None = None, target: str | None = None,
               rate_hz: float = 0.0) -> "SteeringWebClient":
        """Replay a journaled session; a client bound to the replay.

        ``session`` defaults to this client's session; ``rate_hz > 0``
        paces the restore on the server (scrub the run live) instead of
        rebuilding it instantly.  The returned client polls the replay
        session through the ordinary delta surface (read-only: steering
        it raises).
        """
        source = session or self.resolve_session()
        body: dict = {}
        if target is not None:
            body["session"] = target
        if rate_hz:
            body["rate_hz"] = float(rate_hz)
        resp = self._post_json(f"{API_PREFIX}/replay/{source}", body)
        return SteeringWebClient(self.base_url, session=resp["session"],
                                 timeout=self.timeout)

    def create_session(self, **spec) -> str:
        """Ask the server to start a new steered session; adopts it."""
        resp = self._post_json(f"{API_PREFIX}/sessions", spec)
        self.session = resp["session"]
        self.since = 0
        self.tier = 0
        return self.session
