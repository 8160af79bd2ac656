"""The route functions, with no socket: a real service, a stub context.

Every ``API_ROUTES`` entry is called the way the IO loop calls it —
``route.handler(request, sid, ctx)`` through :func:`dispatch` — against a
real ``SessionManager`` / ``EventSequenceStore`` / journal, and the test
looks at *what kind of reply came back*: a ``Response``, a job for the
worker pool (run here inline, under the loop's error rule) or a
``Subscribe`` carrying the ``Subscriber`` to register.  The clock is a
constant, nothing sleeps.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.costmodel.calibration import default_calibration
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.errors import ConfigurationError, ProtocolError, SteeringError, WebServerError
from repro.net import build_paper_testbed
from repro.obs import Observability
from repro.steering import CentralManager, SteeringClient
from repro.viz.image import Image
from repro.web.longpoll import Subscriber
from repro.web.server import AjaxWebServer
from repro.web.routes import (
    API_ROUTES,
    Bind,
    Response,
    RouteContext,
    Subscribe,
    _HttpError,
    dispatch,
    error_reply,
)
from repro.window import WindowedDomainSource
from repro.wire import (
    FRAME_JSON,
    FRAME_SSE,
    FRAME_WS,
    FRAME_WS_BINARY,
    HttpRequest,
    decode_brick_payload,
    parse_response_head,
    response_body_length,
    sse_comment_chunk,
    ws_accept_key,
)

NOW = 100.0  # what the stub context's clock always reads
WS_HEADERS = {"upgrade": "websocket", "sec-websocket-key": "dGhlIHNhbXBsZSBub25jZQ=="}


def _image(seed: int) -> Image:
    rng = np.random.default_rng(seed)
    return Image(rng.integers(0, 255, (16, 16, 4), dtype=np.uint8))


@pytest.fixture(scope="module")
def service():
    """A steering service with one monitor channel (``mon``: events, images,
    a windowed domain), one configured simulation (``sim``, not stepping)
    and a journal — everything routes read, and no server."""
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    client = SteeringClient(
        CentralManager(topo, roles, calibration=default_calibration()))
    manager = client.manager
    obs = Observability()
    manager.attach_journal(obs.journal)
    store = manager.open_monitor("mon")
    for cycle in range(3):
        store.publish_image(_image(cycle), cycle=cycle)
    rng = np.random.default_rng(3)
    tree = Octree(StructuredGrid(rng.random((33, 33, 33), dtype=np.float32)),
                  leaf_cells=16)
    store.set_window_source(WindowedDomainSource(tree))
    store.publish_window_step(0)
    manager.create("sim", simulator="heat", sim_kwargs={"shape": (8, 8, 8)})
    yield SimpleNamespace(client=client, manager=manager, obs=obs, store=store)
    client.stop_all()
    obs.close()


@pytest.fixture()
def ctx(service):
    started = []
    context = RouteContext(service.manager, service.client, service.obs,
                           stats=lambda: {"requests_served": 7},
                           start_replay=started.append, clock=lambda: NOW)
    return SimpleNamespace(ctx=context, started=started, **vars(service))


def _request(method: str, target: str, body=None, headers=None,
             version: str = "HTTP/1.1") -> HttpRequest:
    if isinstance(body, (dict, list)):
        body = json.dumps(body).encode()
    return HttpRequest(method, "/api/v1/" + target, version, headers or {},
                       body or b"")


def _finish(reply, method: str):
    """What the loop does with a job: run it on a worker, same error rule."""
    if not callable(reply):
        return reply
    try:
        return reply()
    except Exception as exc:
        return error_reply(exc, method)


def _call(rig, method: str, target: str, body=None, **kw):
    """Dispatch and run to a response; (status, decoded JSON or raw body)."""
    reply = _finish(dispatch(_request(method, target, body, **kw), rig.ctx), method)
    assert type(reply) is Response, reply
    code, payload, ctype, _ = reply
    return code, json.loads(payload) if ctype == "application/json" else payload


def _error(rig, method: str, target: str, body=None, **kw):
    code, payload = _call(rig, method, target, body, **kw)
    assert set(payload["error"]) == {"code", "message"}, payload
    return code, payload["error"]["code"]


# -- every route, and the kind of reply it gives ----------------------------------

#: action -> (target below /api/v1/, body, headers, kind of reply)
CASES = {
    "sessions.list": ("sessions", None, None, "response"),
    "sessions.create": ("sessions", {"sim_kwargs": {"shape": [8, 8, 8]}}, None, "job"),
    "stats": ("stats", None, None, "response"),
    "metrics": ("metrics", None, None, "job"),
    "metrics.history": ("metrics/history?series=a,b&since=0", None, None, "job"),
    "replay": ("replay/mon", {}, None, "job"),
    "state": ("mon/state", None, None, "response"),
    "poll": ("mon/poll?since=0", None, None, "subscriber"),
    "stream": ("mon/stream", None, None, "subscriber"),
    "ws": ("mon/ws", None, WS_HEADERS, "subscriber"),
    "image": ("mon/image", None, None, "response"),
    "image.png": ("mon/image.png?v=2", None, None, "job"),  # cold cache
    "window.get": ("mon/window?window=w", None, None, "response"),
    "window.set": ("mon/window", {"lo": [0, 0, 0], "hi": [17, 17, 17],
                                  "lod": 0, "wid": "w"}, None, "response"),
    "brick": ("mon/brick?lod=0&id=0", None, None, "response"),
    "steer": ("sim/steer", {}, None, "response"),
    "view": ("sim/view", {"zoom": 1.0}, None, "response"),
    "stop": ("sim/stop", {}, None, "response"),
}


def test_every_route_has_a_case():
    assert {route.action for route in API_ROUTES} == set(CASES)
    assert all(callable(route.handler) for route in API_ROUTES)


#: window.set goes first: it registers the window the other window cases read.
_WINDOW_SET_FIRST = sorted(API_ROUTES, key=lambda r: r.action != "window.set")


@pytest.mark.parametrize("route", _WINDOW_SET_FIRST, ids=lambda r: r.action)
def test_route_returns_one_of_the_three_reply_kinds(ctx, route):
    target, body, headers, kind = CASES[route.action]
    reply = dispatch(_request(route.method, target, body, headers), ctx.ctx)
    if kind == "response":
        assert type(reply) is Response and reply.code == 200, reply[:2]
        assert isinstance(reply.body, bytes) and isinstance(reply.ctype, str)
    elif kind == "subscriber":
        assert type(reply) is Subscribe and type(reply.record) is Subscriber
        assert reply.record.handle is None  # the loop supplies the connection
        assert reply.store is ctx.store and reply.record.key == "mon"
    else:
        assert callable(reply) and not isinstance(reply, tuple)


def test_jobs_answer_when_run(ctx):
    code, payload = _call(ctx, "GET", "mon/brick?lod=0&id=0")
    assert code == 200 and decode_brick_payload(payload)["lod"] == 0
    code, payload = _call(ctx, "GET", "metrics")
    assert code == 200 and "series" in payload and "journal" in payload
    code, payload = _call(ctx, "GET", "metrics/history?series=x&limit=5")
    assert code == 200 and set(payload) == {"now", "series"}
    code, png = _call(ctx, "GET", "mon/image.png?v=3")
    assert code == 200 and png.startswith(b"\x89PNG")
    # the encode is cached now: the same request is answered inline
    reply = dispatch(_request("GET", "mon/image.png?v=3"), ctx.ctx)
    assert reply == Response(200, png, "image/png")


def test_large_snapshots_are_rendered_off_the_loop(ctx):
    store = ctx.manager.open_monitor("wide")
    try:
        for i in range(40):
            store.publish_status(f"component{i}", 0, value=i)
        reply = dispatch(_request("GET", "wide/state"), ctx.ctx)
        assert callable(reply)
        assert json.loads(reply()[1]) == store.snapshot()
    finally:
        ctx.manager.close("wide")


def test_static_pages_and_the_stats_payload(ctx):
    for path in ("/", "/dashboard"):
        code, body, ctype, _ = dispatch(
            HttpRequest("GET", path, "HTTP/1.1", {}, b""), ctx.ctx)
        assert code == 200 and ctype.startswith("text/html") and b"<html" in body
    assert _call(ctx, "GET", "stats") == (200, {"requests_served": 7})
    assert set(_call(ctx, "GET", "sessions")[1]) >= {"mon", "sim"}


# -- delivery routes: the reply carries the Subscriber to register -------------------


class TestDeliveryRoutes:
    def test_poll_deadline_comes_from_the_contexts_clock(self, ctx):
        head = ctx.store.seq
        reply = dispatch(_request("GET", f"mon/poll?since={head}&timeout=7.5"), ctx.ctx)
        parked = reply.record
        assert (parked.transport, parked.framing) == ("longpoll", FRAME_JSON)
        assert parked.deadline == NOW + 7.5 and parked.since == head
        assert parked.done is False  # the scheduler's flag, not the route's
        # it asked nothing of its connection: whole domain, tier cap untouched
        assert reply.head is None and reply.bind == Bind()
        capped = dispatch(_request("GET", f"mon/poll?since={head}&timeout=999"), ctx.ctx)
        assert capped.record.deadline == NOW + 30.0
        # timeout=0 leaves the loop nothing to wait for: deadline <= its clock
        no_wait = dispatch(_request("GET", f"mon/poll?since={head}&timeout=0"), ctx.ctx)
        assert no_wait.record.deadline == NOW and no_wait.record.done is False

    def test_min_quality_and_window_ride_on_the_bind(self, ctx):
        _call(ctx, "POST", "mon/window", {"lo": [0, 0, 0], "hi": [9, 9, 9], "wid": "roi"})
        reply = dispatch(_request(
            "GET", "mon/poll?since=0&min_quality=1&window=roi"), ctx.ctx)
        assert reply.bind == Bind("roi", ctx.store.window_source(), max_tier=1)
        capped = dispatch(_request("GET", "mon/poll?min_quality=99"), ctx.ctx)
        assert capped.bind == Bind(max_tier=3)
        # a window nobody registered, or a session with no windowed domain
        assert _error(ctx, "GET", "mon/poll?window=ghost") == (404, "not_found")
        assert _error(ctx, "GET", "sim/stream?window=roi") == (404, "not_found")
        assert _error(ctx, "GET", "mon/poll?min_quality=x") == (400, "bad_request")

    def test_stream_head_and_resume(self, ctx):
        record, _, bind, head = dispatch(_request(
            "GET", "mon/stream", headers={"last-event-id": "2"}), ctx.ctx)
        assert (record.transport, record.framing) == ("sse", FRAME_SSE)
        assert record.deadline is None and record.since == 2 and bind == Bind()
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Transfer-Encoding: chunked\r\n" in head
        assert head.endswith(b"\r\n\r\n" + sse_comment_chunk(b"ok"))
        explicit = dispatch(_request("GET", "mon/stream?since=1",
                                     headers={"last-event-id": "2"}), ctx.ctx)
        assert explicit.record.since == 1
        garbage = dispatch(_request("GET", "mon/stream",
                                    headers={"last-event-id": "\xb2"}), ctx.ctx)
        assert garbage.record.since == 0
        assert _error(ctx, "GET", "mon/stream", version="HTTP/1.0") == (400, "bad_request")

    @pytest.mark.parametrize("images, framing", [
        ("", FRAME_WS), ("none", FRAME_WS), ("binary", FRAME_WS_BINARY),
    ])
    def test_ws_upgrade_head_and_framing(self, ctx, images, framing):
        record, _, _, head = dispatch(_request(
            "GET", f"mon/ws?since=1&images={images}", headers=WS_HEADERS), ctx.ctx)
        assert (record.transport, record.framing, record.since) == ("ws", framing, 1)
        assert record.deadline is None
        accept = ws_accept_key(WS_HEADERS["sec-websocket-key"])
        assert head.startswith(b"HTTP/1.1 101 Switching Protocols\r\n")
        assert f"Sec-WebSocket-Accept: {accept}\r\n".encode() in head

    @pytest.mark.parametrize("target, headers", [
        ("mon/ws", {}),
        ("mon/ws", {"upgrade": "websocket"}),
        ("mon/ws?images=jpeg", WS_HEADERS),
        ("mon/ws?images=b64", WS_HEADERS),  # base64-in-JSON is no longer a mode
        ("mon/ws?since=abc", WS_HEADERS),
    ])
    def test_ws_handshake_violations_are_400s(self, ctx, target, headers):
        assert _error(ctx, "GET", target, headers=headers) == (400, "bad_request")

    def test_window_set_binds_its_connection(self, ctx):
        reply = dispatch(_request("POST", "mon/window", {
            "lo": [0, 0, 0], "hi": [17, 17, 17], "lod": 99, "wid": "pan"}), ctx.ctx)
        code, body, ctype, bind = reply
        assert (code, ctype) == (200, "application/json")
        # the same Bind a delivery route carries; here it also resets the
        # staleness ladder's coarsening and leaves the tier cap alone
        assert bind == Bind("pan", ctx.store.window_source(), lod_bias=0)
        payload = json.loads(body)
        source = ctx.store.window_source()
        assert payload["window"]["lod"] == source.octree.max_lod  # clamped
        assert payload["bricks"] and payload["version"] == ctx.store.seq


# -- one status rule, on the inline and the offloaded arm --------------------------------


class TestStatusRule:
    @pytest.mark.parametrize("exc, get, post", [
        (_HttpError(405, "method_not_allowed", "x"), 405, 405),
        (WebServerError("unknown session"), 404, 400),
        (SteeringError("monitor-only"), 400, 400),
        (ConfigurationError("bad brick"), 400, 400),
        (KeyError("boom"), 500, 500),
        (ProtocolError("finished"), 409, 409),
    ])
    def test_error_reply_table(self, exc, get, post):
        for method, want in (("GET", get), ("POST", post)):
            status, body, ctype, _ = error_reply(exc, method)
            error = json.loads(body)["error"]
            assert status == want and ctype == "application/json"
            assert error["code"] == {400: "bad_request", 404: "not_found",
                                     405: "method_not_allowed", 409: "conflict",
                                     500: "internal"}[want]

    def test_a_missing_version_is_a_404_inline_and_offloaded(self, ctx):
        inline = dispatch(_request("GET", "mon/image?v=999"), ctx.ctx)
        assert type(inline) is Response  # tier 0 is answered on the loop
        offloaded = dispatch(_request("GET", "mon/image?v=999&tier=1"), ctx.ctx)
        assert callable(offloaded)  # a tier variant is encoded on a worker
        offloaded = _finish(offloaded, "GET")
        assert inline[0] == offloaded[0] == 404
        assert json.loads(inline[1]) == json.loads(offloaded[1])
        assert _error(ctx, "GET", "mon/image.png?v=999") == (404, "not_found")
        assert _error(ctx, "GET", "mon/image.png?v=999&tier=2") == (404, "not_found")

    def test_a_missing_brick_is_a_404_through_the_one_mapper(self, ctx):
        for target in ("mon/brick?lod=0&id=99999", "mon/brick?lod=42&id=0",
                       "mon/brick?lod=0&id=-1"):
            assert _error(ctx, "GET", target) == (404, "not_found"), target
        assert _error(ctx, "GET", "sim/brick?lod=0&id=0") == (404, "not_found")
        assert _error(ctx, "GET", "mon/brick?lod=x") == (400, "bad_request")

    def test_unknown_resource_get_404_post_400(self, ctx):
        for tail in ("state", "poll", "stream", "image", "image.png", "window", "brick"):
            assert _error(ctx, "GET", f"ghost/{tail}") == (404, "not_found"), tail
        assert _error(ctx, "GET", "ghost/ws", headers=WS_HEADERS) == (404, "not_found")
        for tail in ("steer", "view", "stop", "window"):
            assert _error(ctx, "POST", f"ghost/{tail}", {}) == (400, "bad_request"), tail
        assert _error(ctx, "POST", "replay/ghost", {}) == (400, "bad_request")
        assert _error(ctx, "GET", "mon/window?window=ghost") == (404, "not_found")
        # a monitor channel has no simulation to steer or stop
        assert _error(ctx, "POST", "mon/steer", {"x": 1}) == (400, "bad_request")
        assert _error(ctx, "POST", "mon/stop", {}) == (400, "bad_request")

    def test_routing_errors(self, ctx):
        assert _error(ctx, "GET", "nowhere/at/all") == (404, "not_found")
        assert _error(ctx, "POST", "stats", {}) == (405, "method_not_allowed")
        reply = dispatch(HttpRequest("GET", "/api/stats", "HTTP/1.1", {}, b""), ctx.ctx)
        assert reply[0] == 404

    def test_observability_off_is_a_missing_resource(self, service):
        bare = SimpleNamespace(
            ctx=RouteContext(service.manager, service.client, None,
                             stats=dict, start_replay=None))
        assert _error(bare, "GET", "metrics") == (404, "not_found")
        assert _error(bare, "GET", "metrics/history") == (404, "not_found")
        assert _error(bare, "POST", "replay/mon", {}) == (400, "bad_request")

    def test_a_bug_is_a_500_on_both_arms(self, service):
        def boom():
            raise ZeroDivisionError("boom")

        broken = SimpleNamespace(ctx=RouteContext(
            service.manager, service.client,
            SimpleNamespace(stats=boom, recorder=None, journal=None),
            stats=boom, start_replay=None))
        assert _error(broken, "GET", "stats") == (500, "internal")  # inline
        assert _error(broken, "GET", "metrics") == (500, "internal")  # offloaded


# -- request bodies: a 400, never a 500 or a poisoned session ---------------------------


class TestBodies:
    @pytest.mark.parametrize("body", [
        {"rotate_azimuth": "abc"}, {"rotate_elevation": [1]}, {"zoom": "x"},
        {"zoom": [1]}, {"zoom": {}}, b'{"rotate_azimuth": NaN}',
        b'{"zoom": Infinity}', b'{"rotate_elevation": -Infinity}',
        {"zoom": "nan"}, {"rotate_azimuth": "inf"}, {"rotate_azimuth": 1e999},
    ])
    def test_view_refuses_what_is_not_a_finite_number(self, ctx, body):
        session = ctx.manager.get("sim")
        before = session._camera
        assert _error(ctx, "POST", "sim/view", body) == (400, "bad_request")
        assert session._camera is before  # refused before anything moved

    def test_view_applies_finite_numbers(self, ctx):
        session = ctx.manager.get("sim")
        cam = session._camera
        assert _call(ctx, "POST", "sim/view", {"rotate_azimuth": 10, "zoom": 2.0})[0] == 200
        assert session._camera.azimuth == pytest.approx(cam.azimuth + 10)
        assert session._camera.zoom == pytest.approx(cam.zoom * 2.0)
        assert all(math.isfinite(v) for v in (session._camera.azimuth,
                                              session._camera.elevation,
                                              session._camera.zoom))

    @pytest.mark.parametrize("body", [
        {"no_such_parameter": 1}, {"alpha": 5.0}, {"alpha": -1}, {"alpha": "nan"},
        {"alpha": "inf"}, {"alpha": "x"}, {"alpha": [0.1]},
        {"alpha": 0.1, "no_such_parameter": 1},
    ])
    def test_steer_refuses_what_the_simulation_would(self, ctx, body):
        session = ctx.manager.get("sim")
        mailbox = session.server.mailbox
        while mailbox.poll() is not None:  # what earlier cases left unread
            pass
        seq = session.events.seq
        assert _error(ctx, "POST", "sim/steer", body) == (400, "bad_request")
        assert session.events.seq == seq  # no steering event published
        assert mailbox.poll() is None  # and nothing sent to the simulator

    def test_steer_answers_sends_and_publishes_the_coerced_values(self, ctx):
        session = ctx.manager.get("sim")
        mailbox = session.server.mailbox
        while mailbox.poll() is not None:
            pass
        seq = session.events.seq
        code, payload = _call(ctx, "POST", "sim/steer",
                              {"alpha": "0.125", "source_x": 1})
        assert code == 200
        assert payload["staged"] == {"alpha": 0.125, "source_x": 1.0}
        assert type(payload["staged"]["source_x"]) is float
        assert mailbox.poll().payload["params"] == payload["staged"]
        (params,) = [c for c in session.events.delta(seq)["components"]
                     if c["id"] == "params"]
        assert params["props"] == payload["staged"]

    def test_steer_on_a_finished_run_is_a_409_and_changes_nothing(self, ctx):
        session = ctx.manager.create("done", simulator="heat",
                                     sim_kwargs={"shape": (8, 8, 8)}, n_cycles=3)
        try:
            session.join_background(timeout=60)
            assert session.simulation.cycle == 3
            mailbox = session.server.mailbox
            seq = session.events.seq
            assert _error(ctx, "POST", "done/steer", {"alpha": 0.1}) == (409, "conflict")
            assert session.events.seq == seq  # no steering event published
            assert mailbox.poll() is None  # and nothing queued for a run that is over
        finally:
            ctx.manager.close("done")

    @pytest.mark.parametrize("tail", ["sessions", "replay/mon", "sim/steer",
                                      "sim/view", "mon/window"])
    @pytest.mark.parametrize("literal", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_literals_are_refused_wherever_a_body_is_read(
            self, ctx, tail, literal):
        body = b'{"lo": [0, 0, 0], "hi": [9, 9, 9], "anything": ' + literal + b"}"
        assert _error(ctx, "POST", tail, body) == (400, "bad_request")

    @pytest.mark.parametrize("wid", ["x" * 65, "", 5, ["w"], {"w": 1}, True])
    def test_window_refuses_a_wid_that_is_not_1_to_64_characters(self, ctx, wid):
        source = ctx.store.window_source()
        before = source.stats()["windows"]
        body = {"lo": [0, 0, 0], "hi": [9, 9, 9], "wid": wid}
        assert _error(ctx, "POST", "mon/window", body) == (400, "bad_request")
        assert source.stats()["windows"] == before  # nothing was registered

    def test_window_takes_a_64_character_wid_and_defaults_a_missing_one(self, ctx):
        for wid, expect in (("x" * 64, "x" * 64), (None, "default")):
            code, payload = _call(ctx, "POST", "mon/window",
                                  {"lo": [0, 0, 0], "hi": [9, 9, 9], "wid": wid})
            assert (code, payload["wid"]) == (200, expect)
            assert ctx.store.window_source().cursor(expect) is not None

    @pytest.mark.parametrize("body", [
        {"rate_hz": "abc"}, {"rate_hz": [1]}, {"rate_hz": -1}, {"rate_hz": "inf"},
        b'{"rate_hz": Infinity}', b"[1]",
    ])
    def test_replay_refuses_a_bad_rate(self, ctx, body):
        before = set(ctx.manager.sessions())
        assert _error(ctx, "POST", "replay/mon", body) == (400, "bad_request")
        assert set(ctx.manager.sessions()) == before and ctx.started == []

    @pytest.mark.parametrize("spec", [
        {"params": "oops"}, {"params": [1]}, {"sim_kwargs": "oops"},
        {"session_id": 5}, {"session_id": ["a"]}, {"simulator": 7},
        {"technique": {}}, {"variable": 1.5},
        {"n_cycles": 0}, {"push_every": True},
    ])
    def test_create_is_judged_before_it_is_offloaded(self, ctx, spec):
        before = ctx.manager.sessions().keys()
        reply = dispatch(_request("POST", "sessions", spec), ctx.ctx)
        assert type(reply) is Response and reply.code == 400, reply  # no job was built
        assert json.loads(reply[1])["error"]["code"] == "bad_request"
        assert ctx.manager.sessions().keys() == before

    def test_a_create_refused_by_configure_leaves_no_session(self, ctx):
        before = (ctx.manager.sessions().keys(), len(ctx.manager))
        journaled = ctx.obs.journal.sessions()
        for spec in ({"params": {"no_such_parameter": 1}},
                     {"technique": "no-such-technique"},
                     {"variable": "no-such-variable"},
                     {"params": {"source_strength": "hot"}}):
            spec = {"simulator": "heat", "sim_kwargs": {"shape": [8, 8, 8]}, **spec}
            assert _error(ctx, "POST", "sessions", spec) == (400, "bad_request"), spec
        assert (ctx.manager.sessions().keys(), len(ctx.manager)) == before
        assert ctx.obs.journal.sessions() == journaled


# -- replay: instant on the worker, paced through the context ---------------------------


class TestReplayRoute:
    def test_instant_replay_adopts_a_finished_store(self, ctx):
        code, payload = _call(ctx, "POST", "replay/mon", {"session": "again"})
        try:
            assert code == 200 and payload["paced"] is False
            assert payload == {"ok": True, "session": "again", "replay_of": "mon",
                               "events": len(ctx.obs.journal.rows("mon")),
                               "paced": False, "skipped_images": 0}
            replayed = ctx.manager.events("again")
            assert replayed.seq == ctx.store.seq and ctx.started == []
        finally:
            ctx.manager.close("again")

    def test_paced_replay_hands_the_loop_a_cursor(self, ctx):
        code, payload = _call(ctx, "POST", "replay/mon", {"rate_hz": 4})
        try:
            assert code == 200 and payload["paced"] is True
            assert payload["session"] == "replay-mon"
            (cursor,) = ctx.started
            assert cursor.events is ctx.manager.events("replay-mon")
            assert cursor.events.seq == 0  # empty until the loop steps it
            assert (cursor.interval, cursor.next_due) == (0.25, NOW + 0.25)
            assert cursor.step(NOW + 0.25) is False and cursor.events.seq == 1
        finally:
            ctx.manager.close("replay-mon")

    def test_the_pace_is_capped_at_one_row_per_millisecond(self, ctx):
        _call(ctx, "POST", "replay/mon", {"rate_hz": 1e9, "session": "fast"})
        try:
            assert ctx.started[0].interval == 1e-3
        finally:
            ctx.manager.close("fast")


# -- the heads the server renders, read back by the parser the clients use ---------------


class TestRenderedHeadsParseBack:
    @pytest.fixture()
    def rendered(self, ctx):
        """``(head + first body bytes, status, a header it must carry)`` for the
        four shapes the server writes: a keep-alive 200, an error envelope
        on a closing connection, the chunked SSE head, the 101 upgrade."""
        server = AjaxWebServer(ctx.client, port=0)  # never started: it only renders
        try:
            error = error_reply(WebServerError("unknown session 'x'"), "GET")
            heads = [
                (server._render_head(200, "application/json", 2, True) + b"{}",
                 200, ("content-length", "2"), b"{}"),
                (server._render_head(error.code, error.ctype, len(error.body), False)
                 + error.body, 404, ("connection", "close"), error.body),
            ]
        finally:
            server.stop()
        sse = dispatch(_request("GET", "mon/stream"), ctx.ctx).head
        heads.append((sse, 200, ("transfer-encoding", "chunked"), sse_comment_chunk(b"ok")))
        upgrade = dispatch(_request("GET", "mon/ws", headers=WS_HEADERS), ctx.ctx).head
        accept = ws_accept_key(WS_HEADERS["sec-websocket-key"])
        heads.append((upgrade, 101, ("sec-websocket-accept", accept), b""))
        return heads

    def test_every_split_gives_the_status_the_headers_and_the_body_untouched(
            self, rendered):
        for wire, status, (name, value), body in rendered:
            for cut in range(len(wire) + 1):
                buf, head = bytearray(), None
                for chunk in (wire[:cut], wire[cut:]):
                    buf += chunk
                    head = head or parse_response_head(buf)
                assert head[0] == status and head[1][name] == value, (wire, cut)
                assert head[1]["server"] == "RICSA/2.0" and bytes(buf) == body

    def test_only_the_length_framed_heads_announce_a_body_length(self, rendered):
        for wire, status, _header, body in rendered:
            _status, headers = parse_response_head(bytearray(wire))
            if status in (200, 404) and "content-length" in headers:
                assert response_body_length(headers) == len(body)
            else:  # the SSE stream and the 101: nothing to read by length
                with pytest.raises(WebServerError, match="not Content-Length framed"):
                    response_body_length(headers)
