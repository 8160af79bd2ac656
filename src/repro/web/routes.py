"""The ``/api/v1`` routes: a parsed request in, a reply out — no socket.

Every :data:`API_ROUTES` entry binds ``(method, pattern)`` to a function
``route(request, sid, ctx)`` that reads the parsed
:class:`~repro.wire.HttpRequest`, the bound session id and a
:class:`RouteContext` (the steering service, never a connection) and
returns one of three things, which the IO loop sends:

* a :class:`Response` — ``(code, body, ctype)``;
* a **job** — a zero-argument callable returning a :class:`Response`,
  run on the worker pool because it is heavy (session start-up, a cold
  PNG or tier encode, a large snapshot, a journal or metrics read).  A
  brick fetch is not one: at the default leaf size even a cold brick
  encodes in less time than the hop to a worker and back (see
  :func:`brick`);
* a :class:`Subscribe` — the :class:`~repro.web.longpoll.Subscriber` to
  register on the connection (a poll to park, or an SSE / WebSocket
  stream with the ``head`` bytes its upgrade sends first) and the
  session's event store.

What a request asks of its connection's delivery state — the sliding
window to follow, the ``min_quality`` cap — travels one way only: as the
:class:`Bind` a :class:`Subscribe` carries and a :class:`Response` may.

A route that cannot answer raises; :func:`error_reply` is the one
exception -> status rule, applied alike to a route that raised inline
and to a job that raised on a worker.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.adaptive.tiers import MAX_TIER, clamp_tier
from repro.errors import ConfigurationError, ProtocolError, ReproError, WebServerError
from repro.web.longpoll import Subscriber
from repro.web.static import DASHBOARD_HTML, INDEX_HTML
from repro.window import WindowCursor
from repro.wire import (
    FRAME_JSON,
    FRAME_SSE,
    FRAME_WS,
    FRAME_WS_BINARY,
    HttpRequest,
    sse_comment_chunk,
    ws_accept_key,
)

__all__ = ["API_ROUTES", "Bind", "Response", "RouteContext", "Subscribe",
           "dispatch", "error_reply", "match_route"]

_MAX_POLL_TIMEOUT = 30.0
_MAX_WID = 64  # characters of a window id
#: Snapshots past this many components are serialized off the IO loop.
SNAPSHOT_OFFLOAD_COMPONENTS = 32
_JSON = "application/json"
_HTML = "text/html; charset=utf-8"
#: The two pages outside the API: encoded once, shared by every GET.
_PAGES = {"/": INDEX_HTML.encode("utf-8"),
          "/dashboard": DASHBOARD_HTML.encode("utf-8")}
_WS_FRAMINGS = {
    "binary": FRAME_WS_BINARY,  # blobs raw after the JSON header
    "": FRAME_WS,  # meta only; images fetched over HTTP
    "none": FRAME_WS,
}


@dataclass(frozen=True, slots=True)
class RouteContext:
    """What routes read of the server: the service, not its sockets.

    ``stats`` builds the ``/api/v1/stats`` payload, ``start_replay``
    takes a paced :class:`~repro.obs.journal.ReplayCursor` (callable
    from a worker thread) and ``clock`` is the monotonic clock poll
    deadlines and replay pacing are read from.
    """

    manager: Any
    client: Any
    obs: Any
    stats: Callable[[], dict]
    start_replay: Callable[[Any], None]
    clock: Callable[[], float] = time.monotonic


class Bind(NamedTuple):
    """What a request asks of its connection's delivery state: the
    sliding window to follow from here on (``wid`` in ``source``; None:
    the whole domain), the ``min_quality`` cap and the staleness
    ladder's coarsening (None leaves either as it was)."""

    wid: str | None = None
    source: Any = None
    max_tier: int | None = None
    lod_bias: int | None = None


class Response(NamedTuple):
    """A full HTTP response; ``bind`` if answering it rebinds the connection."""

    code: int
    body: bytes
    ctype: str = _JSON
    bind: Bind | None = None


class Subscribe(NamedTuple):
    """Register ``record`` on the connection, bound as ``bind`` says;
    ``store`` is its session's, ``head`` what an SSE / WS upgrade sends
    before its first frame."""

    record: Subscriber
    store: Any
    bind: Bind
    head: bytes | None = None


class _HttpError(Exception):
    """A routing/validation failure with an explicit HTTP status.

    ``code`` is the machine-readable slug (``not_found``,
    ``bad_request``, ``method_not_allowed``) the JSON error envelope
    carries alongside the human message.
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


def error_reply(exc: Exception, method: str) -> Response:
    """The one exception -> status rule, inline or offloaded alike."""
    if isinstance(exc, _HttpError):
        status, code, message = exc.status, exc.code, exc.message
    elif isinstance(exc, WebServerError) and method == "GET":
        # Registry and store lookups: an unknown resource on a GET is a
        # 404; on a mutating POST the request itself was bad.
        status, code, message = 404, "not_found", str(exc)
    elif isinstance(exc, ProtocolError):
        # Well formed, but the resource's state refuses it (a finished run).
        status, code, message = 409, "conflict", str(exc)
    elif isinstance(exc, ReproError):
        status, code, message = 400, "bad_request", str(exc)
    else:  # never kill the loop or a worker for one request
        status, code, message = 500, "internal", f"internal: {exc}"
    return Response(status, _error_body(code, message))


def _json(payload, bind: Bind | None = None) -> Response:
    return Response(200, json.dumps(payload).encode("utf-8"), _JSON, bind)


# -- request validation ------------------------------------------------------------


def _positive_int(spec: dict, name: str, default: int) -> int:
    """``spec[name]`` as a JSON integer >= 1, or a 400."""
    value = spec.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise _HttpError(400, "bad_request",
                         f"{name} must be an integer >= 1, got {value!r}")
    return value


def _finite_number(spec: dict, name: str, default: float,
                   minimum: float = -math.inf) -> float:
    """``spec[name]`` as a finite float >= ``minimum``, or a 400."""
    value = spec.get(name)
    if value is None:
        return default
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or number < minimum:
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise _HttpError(400, "bad_request",
                         f"{name} must be a finite number{bound}, got {value!r}")
    return number


def _typed(spec: dict, name: str, kind: type, default=None):
    """``spec[name]`` as a JSON ``kind`` (absent or null: default), or a 400."""
    value = spec.get(name)
    if value is None:
        return default
    if not isinstance(value, kind):
        raise _HttpError(400, "bad_request",
                         f"{name} must be a JSON "
                         f"{'object' if kind is dict else 'string'}, got {value!r}")
    return value


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


def _version_arg(request: HttpRequest) -> int | None:
    """``?v=`` as an integer; None (the newest frame) when absent or blank."""
    return _query_num(request, "v", "0") if "v" in request.query else None


def _obs(ctx: RouteContext):
    if ctx.obs is None:
        raise WebServerError(
            "observability disabled: start the server with obs=True")
    return ctx.obs


def _window_source(store):
    source = store.window_source()
    if source is None:
        raise _HttpError(404, "not_found",
                         "session has no windowed domain source")
    return source


# -- service routes ------------------------------------------------------------------


def sessions_list(request: HttpRequest, sid, ctx: RouteContext):
    return _json(ctx.manager.sessions())


def sessions_create(request: HttpRequest, sid, ctx: RouteContext):
    """Heavy route, run off the IO loop on the worker pool.

    ``CentralManager.configure`` (pipeline calibration + DP mapping)
    plus simulation startup can take hundreds of milliseconds; inline
    they would stall every parked poll.  The body is judged inline,
    cheaply: a session that cannot step (``cycle % 0``) or is keyed by
    a non-string must not be answered 200.
    """
    spec = request.json_body()
    start = dict(
        simulator=_typed(spec, "simulator", str, "heat"),
        technique=_typed(spec, "technique", str, "isosurface"),
        variable=_typed(spec, "variable", str),
        n_cycles=_positive_int(spec, "n_cycles", 50),
        session_id=_typed(spec, "session_id", str),
        initial_params=_typed(spec, "params", dict),
        sim_kwargs=_typed(spec, "sim_kwargs", dict),
        push_every=_positive_int(spec, "push_every", 1),
    )
    return lambda: _json(
        {"ok": True, "session": ctx.client.start(**start).session_id})


def stats(request: HttpRequest, sid, ctx: RouteContext):
    return _json(ctx.stats())


def metrics(request: HttpRequest, sid, ctx: RouteContext):
    """``GET /api/v1/metrics``: recorder/journal/store health + series."""
    obs = _obs(ctx)
    return lambda: _json({**obs.stats(),
                          "series": obs.recorder.series_names()})


def metrics_history(request: HttpRequest, sid, ctx: RouteContext):
    """``GET /api/v1/metrics/history?series=&since=&step=``: windowed samples.

    Serves from the in-memory rings; when ``since`` predates the ring
    the SQLite store (if configured) backfills, so a dashboard reload
    after a server restart still sees the run's history.  The read
    runs on the worker pool — a disk-backed window must never stall
    parked polls.
    """
    obs = _obs(ctx)
    raw = request.query.get("series", [""])[0]
    series = [s for s in raw.split(",") if s] or None
    since = _query_num(request, "since", "0", float)
    step = _query_num(request, "step", "0", float)
    limit = _query_num(request, "limit", "2000")
    return lambda: _json({
        "now": time.time(),
        "series": obs.recorder.history(series, since=since, step=step,
                                       limit=limit),
    })


def replay(request: HttpRequest, sid: str, ctx: RouteContext):
    """``POST /api/v1/replay/<sid>``: re-hydrate a journaled session.

    The journaled event sequence of ``sid`` — typically finished or
    evicted, it need not resolve to a live session — comes back as a
    fresh *read-only* session serving the full delta/long-poll/SSE/WS
    surface.  ``rate_hz`` > 0 paces the restore on the IO loop (scrub a
    run "live"); otherwise the store is rebuilt at once on the worker.
    """
    obs = _obs(ctx)
    body = request.json_body()
    target = str(body.get("session") or f"replay-{sid}")
    rate_hz = _finite_number(body, "rate_hz", 0.0, minimum=0.0)
    paced = rate_hz > 0

    def job():
        cursor = obs.journal.replay(
            sid, ctx.manager.file_size,
            interval=max(1e-3, 1.0 / rate_hz) if paced else 0.0,
            now=ctx.clock())
        if not paced:
            cursor.step()
        ctx.manager.adopt_monitor(target, cursor.events,
                                  meta={"replay_of": sid})
        if paced:
            ctx.start_replay(cursor)  # counts its own skips as it goes
        return _json({
            "ok": True, "session": target, "replay_of": sid,
            "events": len(cursor.rows), "paced": paced,
            "skipped_images": cursor.skipped,
        })

    return job


# -- session routes --------------------------------------------------------------------


def state(request: HttpRequest, sid: str, ctx: RouteContext):
    store = ctx.manager.events(sid)
    if store.component_count() > SNAPSHOT_OFFLOAD_COMPONENTS:
        # A large merged snapshot is an O(components) JSON encode;
        # render it on the worker pool like any heavy route.
        return lambda: _json(store.snapshot())
    return _json(store.snapshot())


def _subscribe(record: Subscriber, request: HttpRequest, store,
               head: bytes | None = None) -> Subscribe:
    """The reply of every delivery route, with what it reads of its request.

    ``min_quality`` is the deepest tier index the client accepts: 0 pins
    full quality (the server will disconnect rather than degrade),
    absent leaves the connection as it was.  ``window=<wid>`` binds the
    route to a sliding window, which must have been registered via
    ``POST .../window`` first; absent means the whole domain.
    """
    max_tier = source = None
    if "min_quality" in request.query:
        max_tier = clamp_tier(
            _query_num(request, "min_quality", str(MAX_TIER)))
    wid = request.query.get("window", [None])[0]
    if wid is not None:
        source = _window_source(store)
        if source.cursor(wid) is None:
            raise WebServerError(
                f"unknown window {wid!r}: register it via POST .../window first")
    return Subscribe(record, store, Bind(wid, source, max_tier), head)


def poll(request: HttpRequest, sid: str, ctx: RouteContext):
    store = ctx.manager.events(sid)
    since = _query_num(request, "since", "0")
    timeout = min(_query_num(request, "timeout", "20", float),
                  _MAX_POLL_TIMEOUT)
    # The loop parks it only if it is still unanswerable on arrival:
    # nothing past ``since`` and a deadline ahead of the clock.
    record = Subscriber(sid, since, None, "longpoll", FRAME_JSON,
                        deadline=ctx.clock() + timeout)
    return _subscribe(record, request, store)


def stream(request: HttpRequest, sid: str, ctx: RouteContext):
    """``GET /api/v1/<sid>/stream``: become a chunked-transfer SSE stream."""
    store = ctx.manager.events(sid)
    if not request.http11:
        raise _HttpError(400, "bad_request",
                         "stream requires HTTP/1.1 (chunked transfer)")
    since = _query_num(request, "since", "-1")
    if since < 0:
        # EventSource reconnects resume exactly like pollers resume
        # with ?since: the id: line carries the head seq.
        last_id = request.headers.get("last-event-id", "")
        # ASCII digits only: "²".isdigit() is true but int("²") raises.
        since = int(last_id) if last_id.isascii() and last_id.isdigit() else 0
    head = (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-store\r\nServer: RICSA/2.0\r\n"
        "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    ).encode("latin-1") + sse_comment_chunk(b"ok")
    return _subscribe(Subscriber(sid, since, None, "sse", FRAME_SSE),
                      request, store, head)


def ws(request: HttpRequest, sid: str, ctx: RouteContext):
    """``GET /api/v1/<sid>/ws``: RFC 6455 upgrade, then pushed deltas."""
    store = ctx.manager.events(sid)
    # Handshake violations are client errors, not missing resources.
    if request.headers.get("upgrade", "").lower() != "websocket":
        raise _HttpError(400, "bad_request",
                         "ws route requires an Upgrade: websocket handshake")
    key = request.headers.get("sec-websocket-key", "")
    if not key:
        raise _HttpError(400, "bad_request",
                         "ws handshake missing Sec-WebSocket-Key")
    images = request.query.get("images", [""])[0]
    if images not in _WS_FRAMINGS:
        raise _HttpError(400, "bad_request", f"unknown images mode {images!r}")
    since = _query_num(request, "since", "0")
    head = (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\nConnection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {ws_accept_key(key)}\r\n"
        "Server: RICSA/2.0\r\n\r\n"
    ).encode("latin-1")
    return _subscribe(Subscriber(sid, since, None, "ws", _WS_FRAMINGS[images]),
                      request, store, head)


def image(request: HttpRequest, sid: str, ctx: RouteContext):
    store = ctx.manager.events(sid)
    version = _version_arg(request)
    tier = clamp_tier(_query_num(request, "tier", "0"))
    if tier:
        # A tier variant may need its lazy downscale encode — CPU work
        # that belongs on the worker pool, like the cold-PNG path below.
        return lambda: Response(200, store.image_blob(version, tier),
                                "application/octet-stream")
    return Response(200, store.image_blob(version), "application/octet-stream")


def image_png(request: HttpRequest, sid: str, ctx: RouteContext):
    store = ctx.manager.events(sid)
    version = _version_arg(request)
    tier = clamp_tier(_query_num(request, "tier", "0"))
    cached = store.png_cached(version, tier)  # raises 404-wise if evicted
    if cached is not None:
        return Response(200, cached, "image/png")
    # Cold cache: the PNG re-encode is the priciest per-request CPU in
    # the serving tier — run it off the IO loop.
    return lambda: Response(200, store.image_png(version, tier), "image/png")


def window_get(request: HttpRequest, sid: str, ctx: RouteContext):
    source = _window_source(ctx.manager.events(sid))
    wid = request.query.get("window", ["default"])[0]
    cursor = source.cursor(wid)
    if cursor is None:
        raise _HttpError(404, "not_found", f"no window {wid!r}")
    return _json({
        "session": sid,
        "wid": wid,
        "window": cursor.to_props(),
        "max_lod": source.octree.max_lod,
        "stats": source.stats(),
    })


def window_set(request: HttpRequest, sid: str, ctx: RouteContext):
    """Register or move a window, and bind the connection to it at the
    LOD the client asked for."""
    store = ctx.manager.events(sid)
    source = _window_source(store)
    body = request.json_body()
    wid = _typed(body, "wid", str, "default")
    if not 1 <= len(wid) <= _MAX_WID:
        raise _HttpError(400, "bad_request",
                         f"wid must be 1-{_MAX_WID} characters, got {len(wid)}")
    # The cursor the source stores, LOD clamped: re-reading it after
    # set_cursor could find it already evicted by other windows.
    cursor = source.clamp(WindowCursor.from_props(body))
    metas = source.set_cursor(wid, cursor)
    payload = {
        "ok": True,
        "session": sid,
        "wid": wid,
        "window": cursor.to_props(),
        "bricks": metas,
        "version": store.seq,
    }
    return _json(payload, Bind(wid, source, lod_bias=0))


def brick(request: HttpRequest, sid: str, ctx: RouteContext):
    """Brick payload fetch: binary, encode-once, answered on the IO loop.

    A cache hit is a dict lookup.  A miss is one RBK1 encode of a brick
    holding at most ``(leaf_cells + 1)**3`` samples — the work ``POST
    window``'s prefetch already does inline for up to 64 bricks.  Median
    miss (``source.payload`` of a dirtied LOD-0 brick of a 129^3 float32
    domain, one pinned CPU of an idle 2-vCPU x86 VM): 4.3 us at
    ``leaf_cells`` 16, 11 us at 32, 65-71 us at 64.  The worker-pool
    round trip this route no longer makes (queue put, worker wake,
    completion + socketpair byte, ``select`` wake) cost about 13 us of an idle
    server's 46 us brick round trip, so below ``leaf_cells`` 32 a miss
    is cheaper than the hop, and at 64 it is a few hops' worth.
    """
    source = _window_source(ctx.manager.events(sid))
    lod = _query_num(request, "lod", "0")
    index = _query_num(request, "id", "0")
    try:
        payload = source.payload(lod, index)
    except ConfigurationError as exc:  # no such brick: a missing resource
        raise _HttpError(404, "not_found", str(exc)) from None
    return Response(200, payload, "application/octet-stream")


def steer(request: HttpRequest, sid: str, ctx: RouteContext):
    session = ctx.manager.get(sid)  # an unknown session is judged first
    body = request.json_body()
    with ctx.manager.locked(sid):
        staged = session.steer(body)
    return _json({"ok": True, "session": sid, "staged": staged})


def view(request: HttpRequest, sid: str, ctx: RouteContext):
    """Rotate/zoom the session camera (mouse interactions)."""
    session = ctx.manager.get(sid)
    body = request.json_body()
    azimuth = _finite_number(body, "rotate_azimuth", 0.0)
    elevation = _finite_number(body, "rotate_elevation", 0.0)
    zoom = _finite_number(body, "zoom", 1.0)
    with ctx.manager.locked(sid):
        cam = session._camera
        if "rotate_azimuth" in body or "rotate_elevation" in body:
            session.set_camera(azimuth=cam.azimuth + azimuth,
                               elevation=cam.elevation + elevation)
        if "zoom" in body:
            session.set_camera(zoom=session._camera.zoom * zoom)
    return _json({"ok": True, "session": sid})


def stop(request: HttpRequest, sid: str, ctx: RouteContext):
    session = ctx.manager.get(sid)
    with ctx.manager.locked(sid):
        session.request_shutdown()
    return _json({"ok": True, "session": sid})


# -- the route table ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class _Route:
    """One API route: method + path pattern, bound to its function.

    ``pattern`` is a tuple of path segments below the API prefix;
    ``"{sid}"`` binds the session id.  ``action`` is the route's stable
    name (test ids, docs); ``handler`` the function that answers it.
    """

    method: str
    pattern: tuple
    action: str
    handler: Callable


#: The whole API surface, declaratively, mounted under ``/api/v1/...``.
#: Literal patterns precede ``{sid}`` wildcards of the same length so
#: ``/api/v1/replay/<x>`` can never be captured as a session route.
API_ROUTES = (
    _Route("GET", ("sessions",), "sessions.list", sessions_list),
    _Route("POST", ("sessions",), "sessions.create", sessions_create),
    _Route("GET", ("stats",), "stats", stats),
    _Route("GET", ("metrics",), "metrics", metrics),
    _Route("GET", ("metrics", "history"), "metrics.history", metrics_history),
    _Route("POST", ("replay", "{sid}"), "replay", replay),
    _Route("GET", ("{sid}", "state"), "state", state),
    _Route("GET", ("{sid}", "poll"), "poll", poll),
    _Route("GET", ("{sid}", "stream"), "stream", stream),
    _Route("GET", ("{sid}", "ws"), "ws", ws),
    _Route("GET", ("{sid}", "image"), "image", image),
    _Route("GET", ("{sid}", "image.png"), "image.png", image_png),
    _Route("GET", ("{sid}", "window"), "window.get", window_get),
    _Route("POST", ("{sid}", "window"), "window.set", window_set),
    _Route("GET", ("{sid}", "brick"), "brick", brick),
    _Route("POST", ("{sid}", "steer"), "steer", steer),
    _Route("POST", ("{sid}", "view"), "view", view),
    _Route("POST", ("{sid}", "stop"), "stop", stop),
)

#: pattern -> method -> route, and the ``(length, index)`` of every
#: ``{sid}`` wildcard in table order: what :func:`match_route` looks up.
_ROUTES: dict[tuple, dict[str, _Route]] = {}
for _route in API_ROUTES:
    _ROUTES.setdefault(_route.pattern, {}).setdefault(_route.method, _route)
_SID_SLOTS = tuple(dict.fromkeys((len(r.pattern), r.pattern.index("{sid}"))
                                 for r in API_ROUTES if "{sid}" in r.pattern))


def match_route(method: str, path: str) -> tuple[str | None, _Route]:
    """Match ``method`` + ``path`` against :data:`API_ROUTES`.

    Returns ``(sid, route)``: ``sid`` is the bound ``{sid}`` wildcard
    (None for sessionless routes).  Raises :class:`_HttpError` 404 for a
    path outside ``/api/v1`` or matching no route, and 405 when the path
    exists under another method.  The path's literal key is looked up
    first, then each ``{sid}`` key it fits, in table order — the first
    route in the table that the linear scan of it would have found.
    """
    segments = [s for s in path.split("/") if s]
    if segments[:2] != ["api", "v1"]:
        raise _HttpError(404, "not_found", f"no route {path}")
    rest = tuple(segments[2:])
    keys = [rest]
    keys += [rest[:i] + ("{sid}",) + rest[i + 1:]
             for n, i in _SID_SLOTS if n == len(rest)]
    path_matched = False
    for key in keys:
        methods = _ROUTES.get(key)
        if methods is None:
            continue
        route = methods.get(method)
        if route is not None:
            pattern = route.pattern
            return (rest[pattern.index("{sid}")] if "{sid}" in pattern else None), route
        path_matched = True
    if path_matched:
        raise _HttpError(405, "method_not_allowed",
                         f"method {method} not allowed for {path}")
    raise _HttpError(404, "not_found", f"no route {path}")


def dispatch(request: HttpRequest, ctx: RouteContext):
    """Answer one request: its route's reply, or the error envelope."""
    try:
        if request.method == "GET" and request.path in _PAGES:
            return Response(200, _PAGES[request.path], _HTML)
        sid, route = match_route(request.method, request.path)
        return route.handler(request, sid, ctx)
    except Exception as exc:
        return error_reply(exc, request.method)
