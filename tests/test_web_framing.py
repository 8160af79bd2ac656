"""``repro.wire``: HTTP heads, WebSocket frames, ``ws+bin``, SSE over chunks.

Socket-free: the parsers are pure functions of a byte buffer, so
split-invariance (any chunking of the same bytes parses the same) and
every rejection path are checked without a server.  The WebSocket half
holds the vectorized (un)masking to the per-byte loop it replaced, the
frame parser to one answer however its bytes arrive, and both it and the
binary-delta decoder to one exception type whatever the bytes say.
Every format is checked in both directions — what one side of the
module frames, the other side parses back to exactly what was sent.
"""

from __future__ import annotations

import json
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WebServerError
from repro.web.client import read_response
from repro.wire import (
    _MAX_BODY_BYTES,
    _MAX_HEADER_BYTES,
    _MAX_WS_PAYLOAD,
    CHUNKED_END,
    HttpRequest,
    binary_delta_json,
    decode_binary_delta,
    decode_chunks,
    parse_request,
    parse_response_head,
    parse_ws_frames,
    split_sse_events,
    sse_comment_chunk,
    sse_event_chunk,
    ws_client_frame,
    ws_header,
    ws_server_frame,
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


def _chunkings(data, stream: bytes) -> list[bytes]:
    """``stream`` cut at up to a dozen drawn offsets, as reads off a socket would."""
    cuts = sorted(set(data.draw(st.lists(st.integers(0, len(stream)), max_size=12))))
    bounds = [0, *cuts, len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


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
    assert _feed(_chunkings(data, stream)) == (whole, remainder)


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


@pytest.mark.parametrize("header", [
    b"Content-Length : 2",                           # whitespace before the colon (RFC 9112 §5.1)
    b"no colon here",                                # not a field line at all
    b": no name",
    b"Host: x\r\n folded: 2",                        # obs-fold continuation (§5.2)
    b"Host: x\r\n\tfolded",
    b"Content-Length: 2\r\nContent-Length: 20",      # which one frames the body? (§6.3)
])
def test_a_header_line_that_is_not_name_colon_value_is_rejected(header):
    with pytest.raises(WebServerError):
        parse_request(bytearray(b"POST /api/v1/s/view HTTP/1.1\r\n" + header
                                + b"\r\n\r\n{}" + b"x" * 18))


def test_a_repeated_content_length_that_agrees_is_one_length():
    buf = bytearray(b"POST /p HTTP/1.1\r\nContent-Length: 2\r\ncontent-length:  2\r\n\r\n{}")
    assert parse_request(buf).body == b"{}" and not buf


@pytest.mark.parametrize("body, want", [
    (b"", {}),
    (b'{"zoom": 2}', {"zoom": 2}),
    (b"[1,2]", None), (b"null", None), (b"5", None), (b'"x"', None),
    (b"true", None), (b"{not json", None), (b"\xff\xfe", None),
])
def test_json_body_is_an_object_or_malformed(body, want):
    request = HttpRequest("POST", "/api/v1/s/view", "HTTP/1.1", {}, body)
    if want is None:
        with pytest.raises(WebServerError, match="malformed JSON body"):
            request.json_body()
    else:
        assert request.json_body() == want


# -- WebSocket masking ---------------------------------------------------------

_WS_BINARY = 0x2


def _mask_per_byte(data: bytes, mask: bytes) -> bytes:
    """RFC 6455 §5.3 as the parser spelled it before: one byte at a time."""
    return bytes(b ^ mask[i % 4] for i, b in enumerate(data))


def _client_header(length: int, opcode: int = _WS_BINARY) -> bytes:
    if length < 126:
        return bytes((0x80 | opcode, 0x80 | length))
    if length < 65536:
        return bytes((0x80 | opcode, 0x80 | 126)) + struct.pack(">H", length)
    return bytes((0x80 | opcode, 0x80 | 127)) + struct.pack(">Q", length)


_LENGTHS = st.one_of(
    st.integers(0, 300),
    st.sampled_from([125, 126, 127, 65535, 65536, 65537, 70000]),
    st.integers(0, 70000),
)


@settings(max_examples=120, deadline=None)
@given(length=_LENGTHS, seed=st.integers(0, 2**16),
       mask=st.binary(min_size=4, max_size=4),
       tail=st.sampled_from([b"", b"\x82", b"\x82\x85", b"\x82\x85mask12"]))
def test_masked_frames_parse_to_what_the_per_byte_loop_gave(length, seed, mask, tail):
    payload = np.random.default_rng(seed).bytes(length)
    wire = _client_header(length) + mask + _mask_per_byte(payload, mask)
    buf = bytearray(wire + tail)  # an unfinished next frame stays buffered
    assert parse_ws_frames(buf, require_mask=True) == [(_WS_BINARY, payload)]
    assert bytes(buf) == tail


@settings(max_examples=60, deadline=None)
@given(length=_LENGTHS, seed=st.integers(0, 2**16))
def test_client_frame_masks_like_the_per_byte_loop(length, seed):
    payload = np.random.default_rng(seed).bytes(length)
    frame = ws_client_frame(payload, _WS_BINARY)
    header = _client_header(length)
    assert frame[:len(header)] == header
    mask = frame[len(header):len(header) + 4]
    assert frame[len(header) + 4:] == _mask_per_byte(payload, mask)
    assert parse_ws_frames(bytearray(frame), require_mask=True) == [
        (_WS_BINARY, payload)]


def test_oversized_frame_is_refused_from_its_header_alone():
    head = bytes((0x80 | _WS_BINARY, 0x80 | 127))
    with pytest.raises(WebServerError, match="too large"):
        parse_ws_frames(bytearray(head + struct.pack(">Q", _MAX_WS_PAYLOAD + 1)),
                        require_mask=True)
    # at the cap the header is legal and the parser just waits for the payload
    buf = bytearray(head + struct.pack(">Q", _MAX_WS_PAYLOAD))
    assert parse_ws_frames(buf, require_mask=True) == []
    assert len(buf) == 10


def test_a_mebibyte_unmasks_in_milliseconds():
    # The IO thread parses this between two selects: the per-byte loop
    # took 75 ms of CPU per MiB and stalled every connection of the shard.
    payload = np.random.default_rng(1).bytes(1 << 20)
    frame = ws_client_frame(payload, _WS_BINARY)
    costs = []
    for _ in range(3):
        buf = bytearray(frame)
        started = time.thread_time()
        frames = parse_ws_frames(buf, require_mask=True)
        costs.append(time.thread_time() - started)
        assert frames == [(_WS_BINARY, payload)]
    assert min(costs) < 0.025


# -- WebSocket frames: one answer however the bytes arrive ---------------------

def _feed_ws(chunks, require_mask: bool) -> tuple[list[tuple[int, bytes]], bytes]:
    """Parse as a connection would: append a chunk, take the complete frames."""
    buf = bytearray()
    frames = []
    for chunk in chunks:
        buf += chunk
        frames += parse_ws_frames(buf, require_mask)
    return frames, bytes(buf)


#: Every length encoding and its edges, up to the frame a published image makes.
_FRAME_LENGTHS = st.one_of(
    st.integers(0, 200),
    st.sampled_from([125, 126, 127, 65535, 65536, 262_508, 300_000]),
)
_DATA_FRAME = st.tuples(st.sampled_from([0x0, 0x1, 0x2]), _FRAME_LENGTHS)
_CONTROL_FRAME = st.tuples(st.sampled_from([0x8, 0x9, 0xA]), st.integers(0, 125))


@pytest.mark.parametrize("masked", [False, True], ids=["server-frames", "client-frames"])
@settings(max_examples=60, deadline=None)
@given(frames=st.lists(st.one_of(_DATA_FRAME, _CONTROL_FRAME), min_size=1, max_size=5),
       seed=st.integers(0, 2**16),
       tail=st.sampled_from([b"", b"\x82", b"\x82\x7e\x01", b"\x82\x7f\0\0\0\0\0\1",
                             b"\x89\x03ab"]),
       data=st.data())
def test_any_chunking_parses_the_same_frames(masked, frames, seed, tail, data):
    rng = np.random.default_rng(seed)
    sent = [(opcode, rng.bytes(length)) for opcode, length in frames]
    build = ws_client_frame if masked else ws_server_frame
    if masked:  # an unfinished *masked* frame, so the tail is legal this way too
        tail = bytes(b | 0x80 if i == 1 else b for i, b in enumerate(tail))
    stream = b"".join(build(payload, opcode) for opcode, payload in sent) + tail
    whole, residue = _feed_ws([stream], masked)
    assert whole == sent and residue == tail
    assert all(type(payload) is bytes for _, payload in whole)
    assert _feed_ws(_chunkings(data, stream), masked) == (whole, residue)
    assert _feed_ws([stream[i:i + 1] for i in range(min(len(stream), 400))]
                    + [stream[400:]], masked) == (whole, residue)


@pytest.mark.parametrize("frame,why", [
    (b"\x82\x83mask123", "masked"),              # a server never masks
    (b"\xc2\x03abc", "reserved"),                # RSV1
    (b"\x92\x03abc", "reserved"),                # RSV3
    (b"\x82\x7f" + struct.pack(">Q", _MAX_WS_PAYLOAD + 1), "too large"),
    (b"\x82\x7f" + struct.pack(">Q", 1 << 63), "too large"),
    (b"\x89\x7e\x00\x7e" + bytes(126), "control"),  # a 126-byte ping
    (b"\x09\x00", "control"),                     # a fragmented ping
    (b"\x08\x02\x03\xe8", "control"),            # a close without FIN
])
def test_a_frame_the_client_must_refuse_raises_one_error_type(frame, why):
    good = ws_server_frame(b"before", 0x2)
    for prefix in (b"", good):
        for chunks in ([prefix + frame], [prefix, frame[:1], frame[1:]]):
            with pytest.raises(WebServerError, match=why):
                _feed_ws(chunks, require_mask=False)
    with pytest.raises(WebServerError, match="masked"):  # and the server's side of it
        parse_ws_frames(bytearray(good), require_mask=True)


@settings(max_examples=300, deadline=None)
@given(garbage=st.binary(max_size=64), require_mask=st.booleans(), data=st.data())
def test_garbage_frames_parse_or_raise_web_server_error(garbage, require_mask, data):
    def outcome(chunks):
        try:
            return _feed_ws(chunks, require_mask)
        except WebServerError:
            return "refused"

    assert outcome(_chunkings(data, garbage)) == outcome([garbage])


# -- decode_binary_delta: bytes straight off a socket --------------------------

def _binary_delta(header, blobs: bytes = b"") -> bytes:
    base = header if isinstance(header, bytes) else json.dumps(header).encode()
    return struct.pack(">I", len(base)) + base + blobs


def _image(**props) -> dict:
    return {"id": "image", "version": 2, "props": props}


def _pointing(**pointer) -> bytes:
    return _binary_delta({"components": [_image(**pointer)]}, b"abcdef")


@pytest.mark.parametrize("payload", [
    pytest.param(_pointing(blob_offset=7, blob_len=0), id="offset-past-the-section"),
    pytest.param(_pointing(blob_offset=4, blob_len=3), id="blob-runs-past-the-section"),
    pytest.param(_pointing(blob_offset=-2, blob_len=1), id="negative-offset"),
    pytest.param(_pointing(blob_offset=2, blob_len=-1), id="negative-length"),
    pytest.param(_pointing(blob_offset="0", blob_len=1), id="string-offset"),
    pytest.param(_pointing(blob_offset=0, blob_len=1.0), id="float-length"),
    pytest.param(_pointing(blob_offset=True, blob_len=1), id="bool-offset"),
    pytest.param(_pointing(blob_offset=0, blob_len=None), id="null-length"),
    pytest.param(_pointing(blob_offset=0), id="no-length"),
    pytest.param(_pointing(blob_offset=1 << 70, blob_len=1), id="huge-offset"),
    pytest.param(_binary_delta([{"components": []}]), id="json-list"),
    pytest.param(_binary_delta("components"), id="json-string"),
    pytest.param(_binary_delta(None), id="json-null"),
    pytest.param(_binary_delta({"components": {"id": "image"}}), id="components-object"),
    pytest.param(_binary_delta({"components": ["image"]}), id="component-string"),
    pytest.param(_binary_delta({"components": [None]}), id="component-null"),
    pytest.param(_binary_delta({"components": [{"id": "image", "props": [1, 2]}]}),
                 id="props-list"),
    pytest.param(_binary_delta(b"{not json"), id="not-json"),
    pytest.param(_binary_delta(b""), id="empty-header"),
    pytest.param(_binary_delta(b'{"components": "\xff\xfe"}'), id="bad-utf8"),
    pytest.param(_binary_delta(b'{"version": ' + b"9" * 5000 + b"}"),
                 id="5000-digit-int"),
    pytest.param(_binary_delta(b"[" * 100_000), id="100000-deep"),
    pytest.param(struct.pack(">I", 50) + b'{"components": []}', id="length-lies"),
    pytest.param(b"\x00\x00", id="no-length-prefix"),
])
def test_a_lying_binary_delta_raises_web_server_error(payload):
    with pytest.raises(WebServerError):
        decode_binary_delta(payload)


def test_the_json_header_alone_is_checked_not_sliced():
    # what a reader that defers the JSON parse keeps of a ws+bin payload
    assert binary_delta_json(_binary_delta({"version": 2}, b"blobs")) == b'{"version": 2}'
    assert binary_delta_json(_binary_delta(b"", b"blobs")) == b""
    for lying in (struct.pack(">I", 50) + b'{"components": []}', b"\x00\x00", b""):
        with pytest.raises(WebServerError, match="binary delta"):
            binary_delta_json(lying)


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-4, 12), st.floats(allow_nan=False),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
_POINTER = st.one_of(st.integers(-4, 12), _JSON)
_COMPONENT = st.one_of(_JSON, st.fixed_dictionaries(
    {"id": st.just("image"), "props": st.one_of(_JSON, st.fixed_dictionaries(
        {}, optional={"blob_offset": _POINTER, "blob_len": _POINTER, "cycle": _JSON}))}))
_HEADER = st.one_of(_JSON, st.fixed_dictionaries(
    {"version": _JSON}, optional={"components": st.one_of(_JSON, st.lists(_COMPONENT, max_size=3))}))


@settings(max_examples=400, deadline=None)
@given(header=st.one_of(_HEADER, st.binary(max_size=24)), blobs=st.binary(max_size=8),
       lie=st.integers(-6, 6), cut=st.integers(0, 12))
def test_any_binary_delta_decodes_or_raises_web_server_error(header, blobs, lie, cut):
    payload = bytearray(_binary_delta(header, blobs))
    struct.pack_into(">I", payload, 0, max(0, len(payload) - 4 - len(blobs) + lie))
    payload = bytes(payload[:len(payload) - cut])
    try:
        delta = decode_binary_delta(payload)
    except WebServerError:
        return
    # Accepted: then every pointer was honoured exactly, never forgiven.
    (json_len,) = struct.unpack_from(">I", payload)
    section = payload[4 + json_len:]
    sent = json.loads(payload[4:4 + json_len])
    assert isinstance(delta, dict)
    for comp, was in zip(delta.get("components", []), sent.get("components", [])):
        if "blob_offset" in was.get("props", {}):
            start, length = was["props"]["blob_offset"], was["props"]["blob_len"]
            assert 0 <= start and 0 <= length and start + length <= len(section)
            assert comp["props"]["blob"] == section[start:start + length]
            assert type(comp["props"]["blob"]) is bytes
            assert "blob_offset" not in comp["props"] and "blob_len" not in comp["props"]


# -- both directions of a WebSocket frame, at every length encoding's edge ------

@pytest.mark.parametrize("masked", [False, True], ids=["server-frames", "client-frames"])
@pytest.mark.parametrize("length,header_len", [
    (0, 2), (125, 2), (126, 4), (65535, 4), (65536, 10)])
def test_a_frame_at_a_length_boundary_parses_back(masked, length, header_len):
    payload = np.random.default_rng(length).bytes(length)
    frame = (ws_client_frame if masked else ws_server_frame)(payload, _WS_BINARY)
    header = ws_header(length, _WS_BINARY, masked)
    assert len(header) == header_len and frame.startswith(header)
    assert len(frame) == header_len + 4 * masked + length
    buf = bytearray(frame + frame[:1])  # and the first byte of the next one
    assert parse_ws_frames(buf, require_mask=masked) == [(_WS_BINARY, payload)]
    assert bytes(buf) == frame[:1]


# -- SSE over chunked transfer: what the server frames, a client reads back ------

def _feed_sse(chunks) -> tuple[list[tuple[int | None, bytes]], bool, bytes, bytes]:
    """Read as the SSE client does: de-chunk into an event buffer, split events."""
    buf, eventbuf = bytearray(), bytearray()
    events, ended = [], False
    for chunk in chunks:
        buf += chunk
        payloads, done = decode_chunks(buf)
        ended = ended or done
        for payload in payloads:
            eventbuf += payload
        events += split_sse_events(eventbuf)
    return events, ended, bytes(buf), bytes(eventbuf)


_ONE_LINE = st.binary(max_size=120).filter(lambda b: b"\n" not in b)
_SSE_ITEM = st.one_of(
    st.tuples(st.just("event"), st.none() | st.integers(0, 10**17), _ONE_LINE),
    st.tuples(st.just("comment"), st.none(), _ONE_LINE))


@settings(max_examples=150, deadline=None)
@given(items=st.lists(_SSE_ITEM, max_size=6), end=st.booleans(),
       tail=st.sampled_from([b"", b"1", b"1f\r\nid: 3\ndata: {", b"5;x=y\r\nab"]),
       data=st.data())
def test_sse_chunks_read_back_as_the_events_sent_under_any_chunking(
        items, end, tail, data):
    stream = b"".join(
        sse_event_chunk(text, event_id) if kind == "event" else sse_comment_chunk(text)
        for kind, event_id, text in items) + (CHUNKED_END if end else b"") + tail
    sent = [(event_id, text) for kind, event_id, text in items if kind == "event"]
    whole = _feed_sse([stream])
    assert whole == (sent, end, tail, b"")  # heartbeats dropped, the tail left be
    assert _feed_sse(_chunkings(data, stream)) == whole
    assert _feed_sse([stream[i:i + 1] for i in range(len(stream))]) == whole


@pytest.mark.parametrize("size_line", [
    b"1_0", b"+3", b"0x3", b" 3 ", b"3 ", b"-2", b"", b";ext", b"\xb2", b"g",
    b"FFFFFFFFFFFFFFFF",                     # would be buffered without limit
    b"%x" % (_MAX_WS_PAYLOAD + 1),           # one past the cap the WS side uses
])
def test_a_chunk_size_is_hex_digits_under_the_cap_or_refused(size_line):
    # Refused from the size line alone: no payload byte has arrived yet.
    for prefix in (b"", sse_comment_chunk(b"ok")):
        with pytest.raises(WebServerError, match="chunk"):
            decode_chunks(bytearray(prefix + size_line + b"\r\n"))


def test_chunk_sizes_that_are_plain_hex_are_read_as_before():
    buf = bytearray(b"3;ext=1\r\nabc\r\nA\r\n0123456789\r\n00a\r\n0123456789\r\n"
                    b"%x\r\n" % _MAX_WS_PAYLOAD)
    assert decode_chunks(buf) == ([b"abc", b"0123456789", b"0123456789"], False)
    assert bytes(buf) == b"%x\r\n" % _MAX_WS_PAYLOAD  # at the cap: awaited, not refused
    with pytest.raises(WebServerError, match="CRLF"):
        decode_chunks(bytearray(b"3\r\nabcde"))
    with pytest.raises(WebServerError, match="header limit"):
        decode_chunks(bytearray(b"1" * (_MAX_HEADER_BYTES + 1)))


@pytest.mark.parametrize("token", [b"1_0", b"-7", b"+7", b"\xc2\xb2", b"abc", b"1.0",
                                    b"", b"9" * 19])
def test_an_sse_event_id_is_ascii_digits_or_refused(token):
    with pytest.raises(WebServerError, match="event id"):
        split_sse_events(bytearray(b"id: " + token + b"\ndata: {}\n\n"))


def test_sse_fields_parse_as_the_server_writes_them():
    buf = bytearray(b": ok\n\nid: 7\ndata: {}\n\nid:  12 \ndata:a\ndata:  b\n\nid: 3")
    assert split_sse_events(buf) == [(7, b"{}"), (12, b"a\n b")]
    assert bytes(buf) == b"id: 3"  # an unfinished event stays for the next read


@settings(max_examples=300, deadline=None)
@given(garbage=st.binary(max_size=64), data=st.data())
def test_garbage_chunks_and_events_parse_or_raise_web_server_error(garbage, data):
    def outcome(feed, chunks):
        try:
            return feed(chunks)
        except WebServerError:
            return "refused"

    def feed_events(chunks):
        buf, events = bytearray(), []
        for chunk in chunks:
            buf += chunk
            events += split_sse_events(buf)
        return events, bytes(buf)

    for feed in (_feed_sse, feed_events):
        assert outcome(feed, _chunkings(data, garbage)) == outcome(feed, [garbage])


# -- parse_response_head: the head the three socket loops used to split by hand ---

def _feed_head(chunks) -> tuple[tuple[int, dict[str, str]] | None, bytes]:
    """Read as a client would: append a chunk, stop at the first complete head."""
    buf, head = bytearray(), None
    for chunk in chunks:
        buf += chunk
        if head is None:
            head = parse_response_head(buf)
    return head, bytes(buf)


@st.composite
def _response_bytes(draw) -> tuple[bytes, int, dict[str, str]]:
    status = draw(st.sampled_from([101, 200, 400, 404, 500]))
    reason = draw(st.sampled_from(["", " OK", " Switching Protocols", " Not Found"]))
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    fields = draw(st.lists(st.tuples(_TOKEN, _TOKEN), max_size=4))
    head = "\r\n".join([f"{version} {status}{reason}",
                         *(f"X-{k}: {v}" for k, v in fields)])
    return (head.encode("latin-1") + b"\r\n\r\n", status,
            {f"x-{k}": v for k, v in fields})


@settings(max_examples=150, deadline=None)
@given(response=_response_bytes(), body=st.binary(max_size=64), data=st.data())
def test_any_chunking_parses_the_same_response_head(response, body, data):
    head, status, headers = response
    whole = _feed_head([head + body])
    assert whole == ((status, headers), body)  # the body's bytes are left in place
    assert _feed_head(_chunkings(data, head + body)) == whole
    assert _feed_head([(head + body)[i:i + 1] for i in range(len(head + body))]) == whole
    for cut in (1, len(head) // 2, len(head) - 1):  # incomplete: untouched
        buf = bytearray(head[:cut])
        assert parse_response_head(buf) is None and bytes(buf) == head[:cut]


@pytest.mark.parametrize("line", [
    b"", b"HTTP/1.1", b"HTTP/1.1 OK", b"HTTP/1.1 20 OK", b"HTTP/1.1 2000 OK",
    b"HTTP/1.1 2_0 OK", b"HTTP/1.1 +20 OK", b"HTTP/1.1 \xb2\xb2\xb2 OK",
    b"HTTP/2 200 OK", b"ICY 200 OK", b"GET / HTTP/1.1",
])
def test_a_malformed_status_line_is_refused(line):
    with pytest.raises(WebServerError, match="status line"):
        parse_response_head(bytearray(line + b"\r\nServer: x\r\n\r\n"))


def test_a_response_head_without_terminator_trips_the_header_cap():
    buf = bytearray(b"HTTP/1.1 200 OK\r\n" + b"X-Pad: " + b"a" * _MAX_HEADER_BYTES)
    with pytest.raises(WebServerError, match="header limit"):
        parse_response_head(buf)


@settings(max_examples=300, deadline=None)
@given(garbage=st.binary(max_size=64), tail=st.sampled_from([b"", b"\r\n\r\n"]),
       data=st.data())
def test_a_garbage_response_head_parses_or_raises_web_server_error(garbage, tail, data):
    def outcome(chunks):
        try:
            return _feed_head(chunks)
        except WebServerError:
            return "refused"

    assert outcome(_chunkings(data, garbage + tail)) == outcome([garbage + tail])


# -- read_response: a whole Content-Length-framed response off a socket's receive side ---

class _Wire:
    """The receive side of a socket: hands out its chunks, then EOF."""

    def __init__(self, chunks) -> None:
        self._chunks = iter([chunk for chunk in chunks if chunk])

    def recv(self, _size: int) -> bytes:
        return next(self._chunks, b"")


def _read_all(chunks) -> tuple[list[tuple[int, dict[str, str], bytes]], bytes]:
    """Every complete response ``chunks`` holds, and what was left unread."""
    wire, buf, responses = _Wire(chunks), bytearray(), []
    try:
        while True:
            responses.append(read_response(wire, buf))
    except ConnectionError:  # EOF: the stream held no further whole response
        return responses, bytes(buf)


def _rendered(status: int, body: bytes, length: str | None = None) -> bytes:
    """``Response(status, body)`` as the server's head renderer writes it."""
    return (f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body) if length is None else length}\r\n"
            "Server: RICSA/2.0\r\nConnection: keep-alive\r\n\r\n").encode("latin-1") + body


@settings(max_examples=150, deadline=None)
@given(responses=st.lists(st.tuples(st.sampled_from([200, 400, 404, 503]),
                                    st.binary(max_size=200)), min_size=1, max_size=3),
       tail=st.sampled_from([b"", b"HTTP/1.1 200", _rendered(200, b"abcdef")[:-3]]),
       data=st.data())
def test_any_chunking_reads_the_same_responses(responses, tail, data):
    stream = b"".join(_rendered(status, body) for status, body in responses) + tail
    whole, left = _read_all([stream])
    assert [(status, body) for status, _headers, body in whole] == responses
    assert all(headers["content-length"] == str(len(body)) for _s, headers, body in whole)
    # an unfinished follow-up is never returned short (EOF ends the
    # connection: its head may be consumed, its bytes are not invented)
    assert tail.endswith(left)
    assert _read_all(_chunkings(data, stream)) == (whole, left)
    assert _read_all([stream[i:i + 1] for i in range(len(stream))]) == (whole, left)


@pytest.mark.parametrize("length", [
    "1_0", "+3", "-1", "0x10", "", "ten", "\xb2", "9" * 5000, str(_MAX_WS_PAYLOAD + 1)])
def test_a_response_length_is_plain_digits_under_the_cap_or_refused(length):
    with pytest.raises(WebServerError, match="Content-Length|too large|not Content-Length"):
        read_response(_Wire([_rendered(200, b"x" * 16, length)]), bytearray())


@pytest.mark.parametrize("head", [
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\nabc",
    b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\nread-until-close body",
])
def test_a_response_without_a_length_is_refused_not_a_key_error(head):
    with pytest.raises(WebServerError, match="not Content-Length framed"):
        read_response(_Wire([head]), bytearray())


def test_a_length_that_lies_is_never_sliced_short():
    # more announced than sent: EOF is an error, not a 3-byte body
    with pytest.raises(ConnectionError, match="response body"):
        read_response(_Wire([_rendered(200, b"abc", "10")]), bytearray())
    # less announced than sent: exactly that much, the rest left for the next read
    buf = bytearray()
    assert read_response(_Wire([_rendered(200, b"abcdef", "2")]), buf)[2] == b"ab"
    assert bytes(buf) == b"cdef"
    # at the cap the head is legal and the reader just waits for the body
    with pytest.raises(ConnectionError, match="response body"):
        read_response(_Wire([_rendered(200, b"", str(_MAX_WS_PAYLOAD))]), bytearray())


@settings(max_examples=300, deadline=None)
@given(garbage=st.binary(max_size=64), tail=st.sampled_from([b"", b"\r\n\r\n"]),
       data=st.data())
def test_a_garbage_response_reads_or_raises_web_server_error(garbage, tail, data):
    def outcome(chunks):
        try:
            return _read_all(chunks)
        except WebServerError:
            return "refused"

    assert outcome(_chunkings(data, garbage + tail)) == outcome([garbage + tail])
