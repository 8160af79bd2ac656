"""``repro.web.framing.parse_request``: the incremental HTTP request parser.

Socket-free: the parser is a pure function of a byte buffer, so
split-invariance (any chunking of the same bytes parses the same) and
every rejection path are checked without a server.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WebServerError
from repro.web.framing import (
    _MAX_BODY_BYTES,
    _MAX_HEADER_BYTES,
    HttpRequest,
    parse_request,
)


def _fields(request: HttpRequest) -> tuple:
    return (request.method, request.path, request.query, request.headers,
            request.body, request.http11, request.keep_alive)


def _feed(chunks) -> tuple[list[tuple], bytes]:
    """Parse as a connection would: append a chunk, drain complete requests."""
    buf = bytearray()
    parsed = []
    for chunk in chunks:
        buf += chunk
        while (request := parse_request(buf)) is not None:
            parsed.append(_fields(request))
    return parsed, bytes(buf)


_TOKEN = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8)


@st.composite
def _request_bytes(draw) -> bytes:
    method = draw(st.sampled_from(["GET", "POST"]))
    path = "/api/v1/" + "/".join(draw(st.lists(_TOKEN, min_size=1, max_size=3)))
    query = draw(st.lists(st.tuples(_TOKEN, _TOKEN), max_size=2))
    if query:
        path += "?" + "&".join(f"{k}={v}" for k, v in query)
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    body = draw(st.binary(max_size=64)) if method == "POST" else b""
    headers = [f"X-{k}: {v}" for k, v in draw(
        st.lists(st.tuples(_TOKEN, _TOKEN), max_size=3))]
    if draw(st.booleans()):
        headers.append("Connection: " + draw(st.sampled_from(["close", "keep-alive"])))
    if body or draw(st.booleans()):
        headers.append(f"Content-Length: {len(body)}")
    head = "\r\n".join([f"{method} {path} {version}", *headers])
    return head.encode("latin-1") + b"\r\n\r\n" + body


@settings(max_examples=150, deadline=None)
@given(
    requests=st.lists(_request_bytes(), min_size=1, max_size=4),
    tail=st.sampled_from([b"", b"GET /api/v1/x", b"POST /p HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc"]),
    data=st.data(),
)
def test_any_chunking_parses_the_same_requests(requests, tail, data):
    stream = b"".join(requests) + tail  # pipelined requests + an unfinished one
    whole, remainder = _feed([stream])
    assert len(whole) == len(requests)
    assert remainder == tail
    cuts = sorted(set(data.draw(
        st.lists(st.integers(0, len(stream)), max_size=12))))
    bounds = [0, *cuts, len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    assert _feed(chunks) == (whole, remainder)


def test_incomplete_request_leaves_the_buffer_untouched():
    buf = bytearray(b"POST /api/v1/s/steer HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")
    before = bytes(buf)
    assert parse_request(buf) is None
    assert bytes(buf) == before
    buf += b"cde"
    request = parse_request(buf)
    assert request.body == b"abcde" and not buf


def test_head_without_terminator_trips_the_header_cap():
    buf = bytearray(b"GET /" + b"a" * _MAX_HEADER_BYTES)
    assert len(buf) > _MAX_HEADER_BYTES
    with pytest.raises(WebServerError):
        parse_request(buf)
    # at the cap it is still just "incomplete"
    assert parse_request(bytearray(b"a" * _MAX_HEADER_BYTES)) is None


@pytest.mark.parametrize("length", [
    str(_MAX_BODY_BYTES + 1),   # over the body cap
    "9" * 5000,                 # past int()'s own digit limit
    "-1", "+10", "1_0", "0x10", "ten", "1 0", "١٠".encode("utf-8").decode("latin-1"),
    "\xb2",                     # "²": isdigit() but not a number
])
def test_content_length_must_be_plain_digits_within_the_cap(length):
    buf = bytearray(("POST /api/v1/s/view HTTP/1.1\r\n"
                     f"Content-Length: {length}\r\n\r\n").encode("latin-1"))
    with pytest.raises(WebServerError):
        parse_request(buf)


def test_body_at_the_cap_is_accepted_once_buffered():
    head = f"POST /p HTTP/1.1\r\nContent-Length: {_MAX_BODY_BYTES}\r\n\r\n".encode()
    buf = bytearray(head)
    assert parse_request(buf) is None  # waits for the body, no error
    buf += b"x" * _MAX_BODY_BYTES
    assert len(parse_request(buf).body) == _MAX_BODY_BYTES


@pytest.mark.parametrize("value", ["chunked", "identity", "gzip, chunked", ""])
def test_any_transfer_encoding_header_is_rejected(value):
    buf = bytearray(("POST /api/v1/s/view HTTP/1.1\r\n"
                     f"Transfer-Encoding: {value}\r\n\r\n"
                     "2\r\n{}\r\n0\r\n\r\n").encode("latin-1"))
    with pytest.raises(WebServerError):
        parse_request(buf)


@pytest.mark.parametrize("line", [
    b"GET /only-two-parts", b"GET / HTTP/2.0", b"GET  /  extra  HTTP/1.1 x", b"",
])
def test_malformed_request_line_is_rejected(line):
    with pytest.raises(WebServerError):
        parse_request(bytearray(line + b"\r\nHost: x\r\n\r\n"))
