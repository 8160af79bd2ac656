"""The /api/v1 surface: one request case per route, the uniform error
envelope, and route matching as a pure function of (method, path).

Every entry in ``API_ROUTES`` must have a request case here — the
``test_route_table_is_fully_covered`` guard (run by the CI api-surface
job) fails the build when a new v1 route lands without a request case.
"""

from __future__ import annotations

import http.client
import json
import socket

import numpy as np
import pytest

from repro.costmodel.calibration import default_calibration
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.net import build_paper_testbed
from repro.steering import CentralManager, SteeringClient
from repro.web import AjaxWebServer, SteeringWebClient
from repro.web.server import API_ROUTES, _HttpError, match_route
from repro.window import WindowedDomainSource

#: action -> (body, must_succeed).  The path is derived from the route's
#: own pattern, so a renamed route cannot silently drift from its test.
#: ``must_succeed`` pins a 2xx expectation; the rest only assert the
#: error envelope.
REQUEST_CASES = {
    "sessions.list": (None, True),
    # Malformed body: exercises the 400 envelope without spawning a session.
    "sessions.create": (b"{not json", False),
    "stats": (None, True),
    "metrics": (None, False),           # 404 envelope when obs is off
    "metrics.history": (None, False),
    "replay": (b"{}", False),
    "state": (None, True),
    "poll": ("?since=0&timeout=0", True),
    "stream": ("?since=0", True),
    "ws": (None, False),                # no Upgrade header: 400 envelope
    "image": (None, True),
    "image.png": (None, True),
    "window.get": ("?window=default", True),
    "window.set": (json.dumps({"lo": [0, 0, 0], "hi": [17, 17, 17],
                               "lod": 0, "wid": "default"}).encode(), True),
    "brick": ("?lod=0&id=0", True),
    "steer": (b"{}", True),
    "view": (b"{}", True),
    "stop": (b"{}", True),
}


@pytest.fixture(scope="module")
def api_server():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    cm = CentralManager(topo, roles, calibration=default_calibration())
    client = SteeringClient(cm)
    server = AjaxWebServer(client, port=0)
    server.start()
    client.start(simulator="heat", technique="isosurface", n_cycles=400,
                 sim_kwargs={"shape": (12, 12, 12)},
                 push_every=2)
    web = SteeringWebClient(server.url)
    web.wait_for_component("image", polls=40, timeout=2.0)
    sid = web.resolve_session()
    # Attach a windowed domain and register the wid the cases address.
    rng = np.random.default_rng(3)
    tree = Octree(StructuredGrid(rng.random((33, 33, 33), dtype=np.float32)),
                  leaf_cells=16)
    store = server.manager.events(sid)
    store.set_window_source(WindowedDomainSource(tree))
    store.publish_window_step(0)
    web.set_window((0, 0, 0), (17, 17, 17), lod=0, wid="default")
    yield server, sid
    try:
        client.stop_all()
    finally:
        server.stop()


def _path_for(route, sid: str, prefix: str = "/api/v1") -> str:
    segments = [sid if seg == "{sid}" else seg for seg in route.pattern]
    path = prefix + "/" + "/".join(segments)
    case = REQUEST_CASES[route.action][0]
    if isinstance(case, str):  # query-string cases
        path += case
    return path


def _body_for(route):
    case = REQUEST_CASES[route.action][0]
    return case if isinstance(case, bytes) else None


def _request(server, method: str, path: str, body=None):
    """One request; returns (status, headers, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"}
                     if body is not None else {})
        resp = conn.getresponse()
        if resp.getheader("Transfer-Encoding") == "chunked":
            # SSE stream: the handshake head is the assertion target;
            # don't block reading an endless body.
            return resp.status, dict(resp.getheaders()), b""
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def test_route_table_is_fully_covered():
    """CI route-parity guard: a v1 route without a test case fails here."""
    assert {route.action for route in API_ROUTES} == set(REQUEST_CASES)


def test_route_patterns_are_unambiguous():
    """No two routes may claim the same (method, pattern)."""
    seen = {(r.method, r.pattern) for r in API_ROUTES}
    assert len(seen) == len(API_ROUTES)


@pytest.mark.parametrize("route", API_ROUTES, ids=lambda r: r.action)
def test_v1_and_legacy_alias_parity(api_server, route):
    """Each route answers its request case under /api/v1 — and only there:
    the same path under the removed unversioned prefix is a plain 404.
    (The name predates the alias removal; the ids are kept stable.)"""
    server, sid = api_server
    body = _body_for(route)
    status, headers, blob = _request(
        server, route.method, _path_for(route, sid), body)
    assert "Deprecation" not in headers, route.action
    if REQUEST_CASES[route.action][1]:
        assert 200 <= status < 300, (route.action, status, blob)
    if status >= 400:
        assert set(json.loads(blob)["error"]) == {"code", "message"}, route.action
    status, headers, blob = _request(
        server, route.method, _path_for(route, sid, "/api"), body)
    assert status == 404, route.action
    assert "Deprecation" not in headers, route.action
    assert json.loads(blob)["error"]["code"] == "not_found", route.action


def test_unknown_route_is_enveloped_404(api_server):
    server, _ = api_server
    for path in ("/api/v1/flux-capacitor/bogus/deep", "/api/v1", "/not-api",
                 "/api/stats", "/api/state", "/api/sess/poll"):
        status, _, body = _request(server, "GET", path)
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"


def test_wrong_method_is_enveloped_405(api_server):
    server, sid = api_server
    for path in ("/api/v1/stats", f"/api/v1/{sid}/state", f"/api/v1/{sid}/steer"):
        method = "GET" if path.endswith("steer") else "POST"
        status, _, body = _request(server, method, path, b"{}")
        assert status == 405, path
        assert json.loads(body)["error"]["code"] == "method_not_allowed"


def test_ws_handshake_rejection_uses_envelope(api_server):
    server, sid = api_server
    status, _, body = _request(server, "GET", f"/api/v1/{sid}/ws")
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad_request"


def test_sse_rejects_http10_with_envelope(api_server):
    server, sid = api_server
    with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
        sock.sendall(f"GET /api/v1/{sid}/stream HTTP/1.0\r\n"
                     "Host: x\r\n\r\n".encode("latin-1"))
        raw = bytearray()
        while b"\r\n\r\n" not in raw:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
        head, _, rest = bytes(raw).partition(b"\r\n\r\n")
        assert b"400 Bad Request" in head.split(b"\r\n", 1)[0]
        length = 0
        for line in head.decode("latin-1").split("\r\n"):
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        body = bytearray(rest)
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            body += chunk
        assert json.loads(bytes(body))["error"]["code"] == "bad_request"


# -- route matching, socket-free ----------------------------------------------


def _route_path(route) -> str:
    return _path_for(route, "sess").partition("?")[0]


@pytest.mark.parametrize("route", API_ROUTES, ids=lambda r: r.action)
def test_match_route_resolves_every_table_entry(route):
    sid, matched = match_route(route.method, _route_path(route))
    assert matched is route
    assert sid == ("sess" if "{sid}" in route.pattern else None)


def test_match_route_405_on_known_path_with_wrong_method():
    for route in API_ROUTES:
        methods = {r.method for r in API_ROUTES if r.pattern == route.pattern}
        for method in {"GET", "POST", "DELETE"} - methods:
            with pytest.raises(_HttpError) as err:
                match_route(method, _route_path(route))
            assert (err.value.status, err.value.code) == (405, "method_not_allowed")


@pytest.mark.parametrize("path", [
    "/api/sess/poll", "/api/stats", "/api/poll", "/api/state", "/api/v2/stats",
    "/api/v2/sess/poll", "/api", "/api/v1", "/", "/apiv1/stats",
    "/api/v1/sess/poll/extra", "/v1/api/stats",
])
def test_match_route_404_outside_the_v1_table(path):
    for method in ("GET", "POST"):
        with pytest.raises(_HttpError) as err:
            match_route(method, path)
        assert (err.value.status, err.value.code) == (404, "not_found")


# -- malformed input answers 400, not 404 / 500 ----------------------------------


@pytest.mark.parametrize("tail, headers, want", [
    ("poll?since=abc", {}, 400),
    ("poll?since=0&timeout=nan", {}, 400),
    ("image?v=abc", {}, 400),
    # "\xb2" is "²": str.isdigit() accepts it, int() does not.  A
    # Last-Event-ID that is not ASCII digits resumes from 0.
    ("stream", {"Last-Event-ID": "\xb2"}, 200),
])
def test_malformed_numbers_get_honest_statuses(api_server, tail, headers, want):
    server, sid = api_server
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
    try:
        conn.request("GET", f"/api/v1/{sid}/{tail}", headers=headers)
        resp = conn.getresponse()
        assert resp.status == want, (tail, resp.status)
        if want == 200:
            assert resp.getheader("Content-Type") == "text/event-stream"
        else:
            error = json.loads(resp.read())["error"]
            assert set(error) == {"code", "message"}
            assert error["code"] == "bad_request"
    finally:
        conn.close()


# -- POST bodies: a JSON object or a 400, never a 500 ---------------------------


@pytest.mark.parametrize("body", [b"[1,2]", b"null", b"5", b'"x"'])
@pytest.mark.parametrize("tail", [
    "sessions", "replay/{sid}", "{sid}/steer", "{sid}/view", "{sid}/window",
])
def test_non_object_json_body_is_a_400(api_server, tail, body):
    server, sid = api_server
    path = "/api/v1/" + tail.format(sid=sid)
    if tail.startswith("replay"):
        # The route answers "observability disabled" before it reads a
        # body; give it a journal so the body is what gets judged.
        with AjaxWebServer(SteeringClient(server.client.cm), port=0,
                           obs=True) as obs_server:
            status, _, blob = _request(obs_server, "POST", path, body)
    else:
        status, _, blob = _request(server, "POST", path, body)
    assert status == 400, (tail, body, status, blob)
    error = json.loads(blob)["error"]
    assert error["code"] == "bad_request"
    assert "malformed JSON body" in error["message"]


@pytest.mark.parametrize("spec", [
    {"n_cycles": "abc"}, {"n_cycles": 0}, {"n_cycles": 2.5},
    {"push_every": 0}, {"push_every": True},
    # ...nor one whose pieces have the wrong JSON type (500s before), nor
    # one keyed by a non-string (a 200 and a session no route could reach)
    {"params": "oops"}, {"sim_kwargs": "oops"}, {"session_id": 5},
    {"simulator": ["heat"]}, {"variable": 3},
])
def test_session_that_cannot_step_is_refused_not_created(api_server, spec):
    server, _ = api_server
    before = set(server.manager.sessions())
    spec = {"simulator": "heat", "sim_kwargs": {"shape": [8, 8, 8]}, **spec}
    status, _, blob = _request(server, "POST", "/api/v1/sessions",
                               json.dumps(spec).encode())
    assert status == 400, (spec, status, blob)
    assert json.loads(blob)["error"]["code"] == "bad_request"
    assert set(server.manager.sessions()) == before


def test_refused_creates_leave_the_registry_as_it_was(api_server):
    """``configure`` refusing a create (400) used to leave a never-running
    ``sessionN`` behind, counted against the capacity until the idle sweep."""
    server, _ = api_server
    before = server.manager.sessions().keys()
    refused = [{"params": {"no_such_parameter": 1}}, {"technique": "nope"},
               {"variable": "nope"}, {"params": {"source_strength": "hot"}}]
    for i in range(20):
        spec = {"simulator": "heat", "sim_kwargs": {"shape": [8, 8, 8]},
                **refused[i % len(refused)]}
        status, _, blob = _request(server, "POST", "/api/v1/sessions",
                                   json.dumps(spec).encode())
        assert status == 400, (spec, status, blob)
    assert server.manager.sessions().keys() == before
    assert len(server.manager) == len(before)


@pytest.mark.parametrize("body", [
    b'{"rotate_azimuth": "abc"}', b'{"zoom": "x"}', b'{"zoom": [1]}',
    b'{"rotate_azimuth": NaN}', b'{"zoom": Infinity}',
    b'{"rotate_elevation": -Infinity}', b'{"rotate_azimuth": 1e999}',
])
def test_view_body_must_hold_finite_numbers(api_server, body):
    server, sid = api_server
    status, _, blob = _request(server, "POST", f"/api/v1/{sid}/view", body)
    assert status == 400, (body, status, blob)
    assert json.loads(blob)["error"]["code"] == "bad_request"


def test_frames_keep_their_geometry_after_a_refused_nan_view(api_server):
    """``{"rotate_azimuth": NaN}`` was a 200 and a NaN camera: every later
    frame rendered empty, and no finite rotate could repair it."""
    server, _ = api_server
    web = SteeringWebClient(server.url)
    sid = web.create_session(simulator="heat", n_cycles=400, push_every=2,
                             sim_kwargs={"shape": [12, 12, 12]})
    try:
        web.wait_for_component("image", polls=40, timeout=2.0)
        assert web.fetch_image(tier=0).nonblank_fraction() > 0.0
        status, _, _ = _request(server, "POST", f"/api/v1/{sid}/view",
                                b'{"rotate_azimuth": NaN}')
        assert status == 400
        assert web.view(rotate_azimuth=10.0)["ok"]
        camera = server.manager.get(sid)._camera
        assert camera.azimuth == camera.azimuth  # not NaN
        seen = web.since
        while web.since < seen + 4:  # frames rendered after the refusal
            web.wait_for_component("image", polls=40, timeout=2.0)
        assert web.fetch_image(tier=0).nonblank_fraction() > 0.0
    finally:
        server.manager.close(sid)


@pytest.mark.parametrize("body", [
    b'{"rate_hz": "abc"}', b'{"rate_hz": [1]}', b'{"rate_hz": Infinity}',
    b'{"rate_hz": -2}',
])
def test_replay_rate_must_be_a_finite_number(api_server, body):
    server, sid = api_server
    with AjaxWebServer(SteeringClient(server.client.cm), port=0,
                       obs=True) as obs_server:
        obs_server.manager.open_monitor("run").publish_status("session", 0)
        status, _, blob = _request(obs_server, "POST", "/api/v1/replay/run", body)
        assert status == 400, (body, status, blob)
        assert json.loads(blob)["error"]["code"] == "bad_request"
        assert set(obs_server.manager.sessions()) == {"run"}
        assert obs_server.stats()["replays_active"] == 0


def test_missing_version_is_a_404_on_the_inline_and_the_offloaded_arm(api_server):
    """One status rule: tier 0 is answered on the IO loop, a tier variant
    on a worker — the same missing version used to read 404 and 400."""
    server, sid = api_server
    for tail in ("image?v=99999", "image?v=99999&tier=1",
                 "image.png?v=99999", "image.png?v=99999&tier=1"):
        status, _, blob = _request(server, "GET", f"/api/v1/{sid}/{tail}")
        assert status == 404, (tail, status, blob)
        assert json.loads(blob)["error"]["code"] == "not_found"
    status, _, blob = _request(server, "GET", f"/api/v1/{sid}/brick?lod=0&id=99999")
    assert status == 404 and json.loads(blob)["error"]["code"] == "not_found"


def test_a_poll_answerable_on_arrival_is_never_registered(api_server):
    """Events past the cursor, or no time to wait: answered this pass."""
    server, _ = api_server
    store = server.manager.open_monitor("quiet")
    try:
        store.publish_status("probe", 0, value=1)
        before = server.scheduler.stats()
        status, _, blob = _request(server, "GET", "/api/v1/quiet/poll?since=0")
        assert status == 200 and json.loads(blob)["version"] == store.seq
        status, _, blob = _request(
            server, "GET", f"/api/v1/quiet/poll?since={store.seq}&timeout=0")
        assert status == 200 and json.loads(blob)["timeout"] is True
        assert server.scheduler.stats() == before  # nothing parked or expired
    finally:
        server.manager.close("quiet")


# -- request framing the parser must refuse ---------------------------------------


@pytest.mark.parametrize("framing", [
    b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    b"Content-Length: 1_0\r\n\r\n{\"zoom\":1}",
])
def test_unsupported_request_framing_closes_the_connection(api_server, framing):
    """A body the parser cannot delimit must not be dispatched as empty."""
    server, sid = api_server
    with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
        sock.sendall(f"POST /api/v1/{sid}/view HTTP/1.1\r\nHost: x\r\n"
                     .encode("latin-1") + framing)
        try:
            answer = sock.recv(65536)
        except ConnectionResetError:
            answer = b""
        assert answer == b""  # closed, no 200 for an unread body
