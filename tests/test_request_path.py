"""The request path against what it replaced: target parsing, routing, parse count.

Socket-free.  ``HttpRequest`` splits its target and decodes the query
itself; the standard library's ``urlparse`` + ``parse_qs`` are the oracle
on origin-form and absolute-form targets, with two documented
differences, each pinned below: ``;`` is path data (RFC 3986), where
``urlparse`` splits off "params", and a path that begins with ``//`` is
a path (RFC 9112 §3.2.1), where ``urlparse`` reads an authority.
``match_route`` is a dict lookup; the linear scan it replaced
(``tests/route_oracle.py``) must give the same route, sid or 404 / 405
for every method and every path built from the table's own segments.
And the IO loop parses each pipelined request once, never an empty
buffer.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from urllib.parse import parse_qs, urlparse

import pytest
from hypothesis import given, settings, strategies as st

from repro.web import connection
from repro.web.connection import _IOLoop
from repro.web.routes import API_ROUTES, Response, _HttpError, match_route
from repro.wire import HttpRequest, parse_request

from tests.route_oracle import linear_match_route


def _oracle(target: str) -> tuple[str, dict]:
    parsed = urlparse(target)
    return parsed.path, parse_qs(parsed.query)


def _parsed(target: str) -> tuple[str, dict]:
    request = HttpRequest("GET", target, "HTTP/1.1", {}, b"")
    return request.path, request.query


# -- the target: path and query, against urlparse + parse_qs ----------------------------

#: Path characters: unreserved, sub-delims, ``:`` / ``@``, escapes good and
#: bad, and non-ASCII text (a head is decoded as latin-1, escapes as UTF-8).
_PATH_CHAR = st.sampled_from([*"azAZ09-._~!$&'()*+,=:@", "%41", "%2F", "%zz", "%",
                              "é", "ß", "中"])
#: Query characters: the same, plus what the form rule gives meaning to.
_QUERY_CHAR = st.sampled_from([*"azAZ09-._~!$'()*,:@/?", "+", "%20", "%2B", "%26",
                               "%3D", "%C3%A9", "%e9", "%zz", "%", "é", "中"])
_TEXT = st.lists(_QUERY_CHAR, max_size=4).map("".join)
_NAME = st.one_of(st.sampled_from(["a", "b", "since", "a+b", "%61", ""]), _TEXT)
_PAIR = st.one_of(
    st.tuples(_NAME, _TEXT).map("=".join),                  # name=value, either blank
    st.tuples(_NAME, _TEXT, _TEXT).map("=".join),           # "=" inside the value
    _NAME,                                                  # no "=" at all
)
_QUERY = st.one_of(
    st.just(""),
    st.lists(_PAIR, max_size=6).map(lambda pairs: "?" + "&".join(pairs)),
)
_SEGMENT = st.lists(_PATH_CHAR, max_size=4).map("".join)
_FIRST = st.lists(_PATH_CHAR, min_size=1, max_size=4).map("".join)
_PATH = st.tuples(_FIRST, st.lists(_SEGMENT, max_size=4)).map(
    lambda p: "/" + "/".join([p[0], *p[1]]))
_FRAGMENT = st.one_of(st.just(""), _TEXT.map(lambda t: "#" + t))


@settings(max_examples=400, deadline=None)
@given(path=st.one_of(st.just("/"), _PATH), query=_QUERY, fragment=_FRAGMENT)
def test_origin_form_targets_parse_as_urlparse_and_parse_qs(path, query, fragment):
    target = path + query + fragment
    assert _parsed(target) == _oracle(target)


@settings(max_examples=300, deadline=None)
@given(scheme=st.sampled_from(["http", "https", "HTTP"]),
       host=st.sampled_from(["h", "127.0.0.1:8080", "example.org"]),
       path=st.one_of(st.just(""), st.just("/"), _PATH), query=_QUERY, fragment=_FRAGMENT)
def test_absolute_form_targets_parse_as_urlparse_and_parse_qs(scheme, host, path, query,
                                                               fragment):
    target = f"{scheme}://{host}{path}{query}{fragment}"
    assert _parsed(target) == _oracle(target)


@pytest.mark.parametrize("target, query", [
    ("/p?since=3&timeout=0.5", {"since": ["3"], "timeout": ["0.5"]}),
    ("/p?a=%41%2b+b", {"a": ["A+ b"]}),                     # %XX and "+"
    ("/p?a=&b&=&c=1", {"c": ["1"]}),                        # blank values are no values
    ("/p?a=1&a=2&a=3", {"a": ["1", "2", "3"]}),             # repeated keys keep order
    ("/p?expr=a=b=c", {"expr": ["a=b=c"]}),                 # "=" inside a value
    ("/p?&&a=1&&", {"a": ["1"]}),                           # empty pairs
    ("/p?=x", {"": ["x"]}),                                 # a blank name is still a name
    ("/p?n=%C3%A9%E4%B8%AD&m=%e9", {"n": ["é中"], "m": ["\ufffd"]}),  # else U+FFFD
    ("http://h:1/p?a=1#b=2", {"a": ["1"]}),                 # absolute-form, fragment dropped
])
def test_query_decoding_cases(target, query):
    assert _parsed(target)[1] == query == _oracle(target)[1]


def test_a_semicolon_is_path_data_where_urlparse_splits_off_params():
    assert _parsed("/api/v1/s;x/state;y?v=1") == ("/api/v1/s;x/state;y", {"v": ["1"]})
    assert _oracle("/api/v1/s;x/state;y?v=1")[0] == "/api/v1/s;x/state"


def test_a_path_starting_with_two_slashes_is_a_path_not_an_authority():
    assert _parsed("//api/v1/s/state") == ("//api/v1/s/state", {})
    assert _oracle("//api/v1/s/state")[0] == "/v1/s/state"


def test_absolute_form_without_a_path_has_an_empty_path():
    assert _parsed("http://h") == ("", {}) == _oracle("http://h")
    assert _parsed("http://h?a=1") == ("", {"a": ["1"]}) == _oracle("http://h?a=1")


# -- routing: the dict lookup against the linear scan it replaced ------------------------

_METHODS = ("GET", "POST", "PUT", "DELETE", "HEAD")
_SEGMENTS = tuple(dict.fromkeys(
    [s for route in API_ROUTES for s in route.pattern]
    + ["mon", "replay", "state", "stats", "sessions", "api", "v1", "x"]))


def _outcome(match, method: str, path: str) -> tuple:
    try:
        sid, route = match(method, path)
    except _HttpError as exc:
        return exc.status, exc.code, exc.message
    return sid, route.action, route


def _paths():
    for n in range(4):  # missing, exact and extra segments
        for segments in itertools.product(_SEGMENTS, repeat=n):
            yield "/api/v1/" + "/".join(segments)
    for prefix in ("/api/v1//", "api/v1/", "/api//v1/", "/api/v2/", "/api/", "/v1/", ""):
        for n in range(3):
            for segments in itertools.product(_SEGMENTS, repeat=n):
                yield prefix + "/".join(segments)
                yield prefix + "/".join(segments) + "/"


def test_match_route_is_the_linear_scan_for_every_method_and_path():
    checked = 0
    for path in _paths():
        for method in _METHODS:
            assert (_outcome(match_route, method, path)
                    == _outcome(linear_match_route, method, path)), (method, path)
            checked += 1
    assert checked > 80_000


@pytest.mark.parametrize("method, path, sid, action", [
    ("GET", "/api/v1/replay/state", "replay", "state"),     # a sid named like a literal
    ("POST", "/api/v1/replay/state", "state", "replay"),
    ("POST", "/api/v1/replay/stop", "stop", "replay"),      # first in table order wins
    ("GET", "/api/v1/stats/poll", "stats", "poll"),
    ("GET", "/api/v1/{sid}/state", "{sid}", "state"),       # the wildcard spelled literally
])
def test_literal_looking_sids_bind_as_the_table_says(method, path, sid, action):
    got_sid, route = match_route(method, path)
    assert (got_sid, route.action) == (sid, action)


# -- the IO loop parses each pipelined request once ---------------------------------------

_GET = b"GET /api/v1/sessions HTTP/1.1\r\nHost: x\r\n\r\n"


def test_parse_request_runs_once_per_pipelined_request(monkeypatch):
    calls = []

    def counting_parse(buf):
        calls.append(bytes(buf))
        return parse_request(buf)

    monkeypatch.setattr(connection, "parse_request", counting_parse)
    monkeypatch.setattr(connection, "dispatch", lambda request, ctx: Response(200, b"{}"))
    replies = []
    loop = SimpleNamespace(requests_served=0, ctx=None,
                           _reply=lambda handler, reply: replies.append(reply))
    handler = SimpleNamespace(mode="http", inbuf=bytearray(_GET * 3), closed=False,
                              subscriber=None, busy=False, keep_alive=True)
    _IOLoop._process_input(loop, handler)
    assert (len(calls), len(replies), loop.requests_served) == (3, 3, 3)
    assert not handler.inbuf
    _IOLoop._process_input(loop, handler)  # nothing buffered: nothing parsed
    assert len(calls) == 3
    handler.inbuf += _GET[:10]  # half a request waits, parsed once per read
    _IOLoop._process_input(loop, handler)
    handler.inbuf += _GET[10:]
    _IOLoop._process_input(loop, handler)
    assert (len(calls), len(replies)) == (5, 4) and not handler.inbuf
