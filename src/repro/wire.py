"""Every wire format, both directions, in one leaf module.

Pure byte manipulation: no sockets, no threads, and nothing imported
from :mod:`repro` but the error types and the brick payload codec — so
the steering package (which *builds* frames), the web package (which
sends and parses them), the clients and the benchmark stand-ins share
one implementation of each format, and no import cycle can run through
it.  Which format, which direction:

* **HTTP/1.x heads** — client -> server :func:`parse_request` (the IO
  loop's), server -> client :func:`parse_response_head` then
  :func:`response_body_length` (the clients').
* **WebSocket (RFC 6455)** — :func:`ws_header` is the one length ladder;
  :func:`ws_server_frame` is parsed by ``parse_ws_frames(buf, False)``,
  :func:`ws_client_frame` (masked) by ``parse_ws_frames(buf, True)``.
* **``ws+bin`` delta** (``[u32 json length][json][raw blobs]``) —
  :func:`ws_binary_frame` / :func:`decode_binary_delta` (its JSON alone:
  :func:`binary_delta_json`).
* **SSE over chunked transfer** — :func:`sse_event_chunk`,
  :func:`sse_comment_chunk`, :data:`CHUNKED_END` / :func:`decode_chunks`
  then :func:`split_sse_events`.
* **``RBK1`` bricks** — encoded in :mod:`repro.window.bricks`, whose
  :func:`decode_brick_payload` is re-exported for the clients.

The ``FRAME_*`` names are the delta framings: what a subscriber record,
a frame-cache key and a ``?images=`` mode name alike.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import struct
from urllib.parse import unquote

import numpy as np

from repro.errors import WebServerError

# The brick payload format lives with the sliding-window plane; web
# clients decode it alongside the other wire formats collected here.
from repro.window.bricks import decode_brick_payload

__all__ = [
    "FRAME_JSON",
    "FRAME_SSE",
    "FRAME_WS",
    "FRAME_WS_BINARY",
    "FRAMINGS",
    "WS_TEXT",
    "WS_BINARY",
    "WS_CLOSE",
    "WS_PING",
    "WS_PONG",
    "WS_GUID",
    "HttpRequest",
    "parse_request",
    "parse_response_head",
    "response_body_length",
    "ws_accept_key",
    "ws_header",
    "ws_server_frame",
    "ws_client_frame",
    "parse_ws_frames",
    "ws_binary_frame",
    "binary_delta_json",
    "decode_binary_delta",
    "decode_brick_payload",
    "sse_event_chunk",
    "sse_comment_chunk",
    "CHUNKED_END",
    "decode_chunks",
    "split_sse_events",
]

FRAME_JSON = "json"          # plain JSON delta (long-poll body)
FRAME_SSE = "sse"            # chunked-transfer SSE event carrying the delta
FRAME_WS = "ws"              # WebSocket text frame carrying the delta
FRAME_WS_BINARY = "ws+bin"   # WS binary frame, image blobs appended raw

FRAMINGS = (FRAME_JSON, FRAME_SSE, FRAME_WS, FRAME_WS_BINARY)

WS_TEXT = 0x1
WS_BINARY = 0x2
WS_CLOSE = 0x8
WS_PING = 0x9
WS_PONG = 0xA

WS_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Frames (and SSE chunks) past this size are a protocol violation for
#: our payloads — treat as an attack / corruption and drop.
_MAX_WS_PAYLOAD = 16 * 1024 * 1024

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024


# -- HTTP/1.x heads ------------------------------------------------------------

def _refuse_constant(name: str):
    """Decoder hook: ``NaN`` / ``Infinity`` / ``-Infinity`` are not JSON."""
    raise WebServerError(f"malformed JSON body: {name} is not a JSON number")


#: Built once: ``json.loads(..., parse_constant=)`` builds a decoder per call.
_BODY_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _split_target(target: str) -> tuple[str, dict[str, list[str]]]:
    """A request target's path, still percent-encoded, and its query.

    Origin-form (``/p?q``) and absolute-form (``http://host/p?q``, which
    a server must accept, RFC 9112 §3.2.2) alike; a fragment is dropped
    and ``;`` is path data (RFC 3986).  Query names and values decode by
    the form-urlencoded rule — ``+`` is a space, then ``%XX`` is UTF-8
    (U+FFFD where it is not) — and every value of a repeated name is
    kept in order; a pair with no ``=`` or an empty value is skipped.
    """
    path, _, query = target.partition("#")[0].partition("?")
    if path[:1] != "/":
        _, absolute, rest = path.partition("://")
        if absolute:  # the path starts where the authority ends
            path = rest[rest.find("/"):] if "/" in rest else ""
    params: dict[str, list[str]] = {}
    for pair in query.split("&"):
        name, _, value = pair.partition("=")
        if value:
            params.setdefault(unquote(name.replace("+", " ")), []).append(
                unquote(value.replace("+", " ")))
    return path, params


class HttpRequest:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body", "http11")

    def __init__(self, method: str, target: str, version: str,
                 headers: dict[str, str], body: bytes) -> None:
        self.method = method
        self.path, self.query = _split_target(target)
        self.headers = headers
        self.body = body
        self.http11 = version == "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        token = self.headers.get("connection", "").lower()
        if self.http11:
            return token != "close"
        return token == "keep-alive"

    def json_body(self) -> dict:
        """The body as a JSON object ({} when empty); anything else —
        undecodable, a list / number / string / null, or holding a
        non-finite number literal — is malformed."""
        if not self.body:
            return {}
        try:
            obj = _BODY_DECODER.decode(self.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise WebServerError("malformed JSON body")
        if not isinstance(obj, dict):
            raise WebServerError("malformed JSON body: expected an object")
        return obj


def _split_head(buf: bytearray, what: str) -> tuple[str, dict[str, str], int] | None:
    """The head at the front of ``buf`` (never consumed here): its start
    line, its headers (names lower-cased) and the offset its body starts
    at.  None until the blank line is buffered; a head that outgrows the
    header limit first is refused, and so is a header line that is not
    ``name: value`` — no colon, whitespace before it, an obs-fold
    continuation (RFC 9112 §5.1, §5.2) — and a second ``Content-Length``
    that disagrees with the first (§6.3: which one frames the body?)."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        if len(buf) > _MAX_HEADER_BYTES:
            raise WebServerError(f"{what} head exceeds the header limit")
        return None
    lines = buf[:end].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon or not name or name.strip() != name:
            raise WebServerError(f"malformed header line {line[:64]!r}")
        name, value = name.lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise WebServerError("conflicting Content-Length headers")
        headers[name] = value
    return lines[0], headers, end + 4


def _content_length(raw_length: str, cap: int, what: str) -> int:
    """A ``Content-Length`` value as a body size no larger than ``cap``."""
    # ASCII digits only: int() would also take "1_0", "+10" and "١٠".  The
    # length cap keeps int() away from its own digit-count limit.
    if not (raw_length.isascii() and raw_length.isdigit()) or len(raw_length) > 18:
        raise WebServerError(f"malformed Content-Length {raw_length[:32]!r}")
    length = int(raw_length)
    if length > cap:
        raise WebServerError(f"{what} body of {length} bytes is too large")
    return length


def parse_request(buf: bytearray) -> HttpRequest | None:
    """Consume one complete HTTP/1.x request from the front of ``buf``.

    Incremental: returns None (leaving ``buf`` untouched) until the head
    and the ``Content-Length`` body are both buffered.  Raises
    :class:`WebServerError` for a head the connection cannot recover
    from — oversized, a malformed request line or header line (see
    :func:`_split_head`), a ``Content-Length`` that is not plain ASCII
    digits or exceeds the body cap, or any ``Transfer-Encoding``
    (request bodies are length-framed only; a chunked body read as
    length 0 would be parsed as the next request).
    """
    head = _split_head(buf, "request")
    if head is None:
        return None
    line, headers, body_at = head
    parts = line.split()
    if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise WebServerError("malformed request line")
    if "transfer-encoding" in headers:
        raise WebServerError("Transfer-Encoding request bodies are not supported")
    total = body_at + _content_length(
        headers.get("content-length") or "0", _MAX_BODY_BYTES, "request")
    if len(buf) < total:
        return None
    body = bytes(buf[body_at:total])
    del buf[:total]
    return HttpRequest(parts[0], parts[1], parts[2], headers, body)


def parse_response_head(buf: bytearray) -> tuple[int, dict[str, str]] | None:
    """Consume one HTTP/1.x response head from the front of ``buf``.

    Incremental like :func:`parse_request`: None (``buf`` untouched)
    until the blank line is buffered, then ``(status, headers)`` with the
    body's first bytes left at the front of ``buf`` (how much to read —
    ``Content-Length``, chunks, frames after a 101 — is the caller's
    protocol).  Raises :class:`WebServerError` for an oversized head or
    a status line that is not ``HTTP/1.x <three digits> ...``.
    """
    head = _split_head(buf, "response")
    if head is None:
        return None
    line, headers, body_at = head
    parts = line.split(None, 2)
    if (len(parts) < 2 or parts[0] not in ("HTTP/1.0", "HTTP/1.1")
            or not (len(parts[1]) == 3 and parts[1].isascii() and parts[1].isdigit())):
        raise WebServerError(f"malformed status line {line[:64]!r}")
    del buf[:body_at]
    return int(parts[1]), headers


def response_body_length(headers: dict[str, str]) -> int:
    """How many body bytes follow a response head :func:`parse_response_head`
    returned, for the one body framing the request / response routes use.

    :func:`parse_request`'s rule, the other way: ``Content-Length`` is
    plain ASCII digits under the cap the push payloads share.  A head
    without one (a chunked stream, a 101) has no length to read: that is
    refused, not read as 0.
    """
    if "transfer-encoding" in headers or "content-length" not in headers:
        raise WebServerError("response body is not Content-Length framed")
    return _content_length(headers["content-length"], _MAX_WS_PAYLOAD, "response")


# -- WebSocket (RFC 6455) ------------------------------------------------------

def ws_accept_key(client_key: str) -> str:
    """``Sec-WebSocket-Accept`` for a ``Sec-WebSocket-Key`` (RFC 6455 §4.2.2)."""
    digest = hashlib.sha1(client_key.strip().encode("ascii") + WS_GUID).digest()
    return base64.b64encode(digest).decode("ascii")


def _ws_mask(data, mask: bytes) -> bytes:
    """``data`` XORed with the repeating 4-byte ``mask`` (RFC 6455 §5.3).

    Masking is its own inverse.  Vectorized because the server unmasks on
    its IO thread: a Python loop over the bytes costs 76 ms per MiB there.
    """
    n = len(data)
    key = np.frombuffer(mask * (n // 4 + 1), dtype=np.uint8)[:n]
    return (np.frombuffer(data, dtype=np.uint8) ^ key).tobytes()


def ws_header(length: int, opcode: int, masked: bool = False) -> bytes:
    """The final-fragment frame header announcing ``length`` payload
    bytes — the one spelling of the RFC 6455 §5.2 length ladder."""
    mask_bit = 0x80 if masked else 0
    if length < 126:
        return bytes((0x80 | opcode, mask_bit | length))
    if length < 65536:
        return bytes((0x80 | opcode, mask_bit | 126)) + struct.pack(">H", length)
    return bytes((0x80 | opcode, mask_bit | 127)) + struct.pack(">Q", length)


def ws_server_frame(payload: bytes, opcode: int = WS_TEXT) -> bytes:
    """One complete unmasked (server->client) frame."""
    return ws_header(len(payload), opcode) + payload


def ws_client_frame(payload: bytes, opcode: int) -> bytes:
    """One complete masked (client->server) frame."""
    mask = os.urandom(4)
    return ws_header(len(payload), opcode, masked=True) + mask + _ws_mask(payload, mask)


def parse_ws_frames(buf: bytearray, require_mask: bool) -> list[tuple[int, bytes]]:
    """Consume every complete frame in ``buf``; return ``(opcode, payload)``.

    Incremental: partial frames stay in ``buf`` for the next read.
    ``require_mask=True`` is the server side (RFC 6455 §5.1: a server
    MUST fail the connection on an unmasked client frame); ``False`` is
    the client side, which must equally reject masked server frames.
    Raises :class:`WebServerError` on protocol violations so the caller
    can fail the connection.
    """
    frames: list[tuple[int, bytes]] = []
    while True:
        if len(buf) < 2:
            return frames
        first, second = buf[0], buf[1]
        if first & 0x70:
            raise WebServerError("WS frame with reserved bits set")
        opcode = first & 0x0F
        masked = bool(second & 0x80)
        if masked != require_mask:
            raise WebServerError(
                "WS frame masked wrong for direction "
                f"(masked={masked}, require_mask={require_mask})"
            )
        length = second & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < 4:
                return frames
            length = struct.unpack_from(">H", buf, 2)[0]
            offset = 4
        elif length == 127:
            if len(buf) < 10:
                return frames
            length = struct.unpack_from(">Q", buf, 2)[0]
            offset = 10
        if length > _MAX_WS_PAYLOAD:
            raise WebServerError(f"WS frame payload {length} bytes is too large")
        if opcode >= 0x8 and (length > 125 or not first & 0x80):
            raise WebServerError("malformed WS control frame")
        end = offset + 4 * masked + length
        if len(buf) < end:
            return frames
        # One copy out of the buffer, through a view released before the
        # resize below (a bytearray with a live export cannot shrink).
        with memoryview(buf) as view:
            if masked:
                payload = _ws_mask(view[offset + 4:end], bytes(view[offset:offset + 4]))
            else:
                payload = bytes(view[offset:end])
        del buf[:end]
        # Continuation frames (opcode 0) are tolerated but collapsed
        # into standalone payloads: our peers never fragment.
        frames.append((opcode, payload))


# -- the ws+bin delta: [u32 json length][json][raw blobs] ----------------------

def ws_binary_frame(base: bytes, blobs: list[bytes]) -> tuple[bytes, ...]:
    """The ``FRAME_WS_BINARY`` frame for a delta's JSON and its raw blobs,
    as a gather tuple: the frame header, length prefix and JSON in one
    ``bytes``, then the blobs themselves — written by reference, never
    copied into a frame of their own (``b"".join`` gives the wire bytes).

    The JSON's image components point into the blob section with
    ``blob_offset`` / ``blob_len``.
    """
    length = 4 + len(base) + sum(map(len, blobs))
    return (ws_header(length, WS_BINARY) + struct.pack(">I", len(base)) + base,
            *blobs)


def binary_delta_json(payload: bytes) -> bytes:
    """The JSON header of a ``FRAME_WS_BINARY`` payload, still encoded —
    what a reader that wants the delta but not its blobs keeps."""
    if len(payload) < 4:
        raise WebServerError("binary delta shorter than its length prefix")
    json_len = struct.unpack_from(">I", payload, 0)[0]
    if 4 + json_len > len(payload):
        raise WebServerError("binary delta JSON header is truncated")
    return payload[4:4 + json_len]


def decode_binary_delta(payload: bytes) -> dict:
    """Decode a ``FRAME_WS_BINARY`` payload back into a delta dict.

    Image components regain a ``blob`` bytes prop (the raw fixed-size
    container) in place of their ``blob_offset``/``blob_len`` pointers
    into the trailing blob section.
    """
    base = binary_delta_json(payload)
    try:
        delta = json.loads(base.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise WebServerError(f"binary delta header is not JSON: {exc}") from None
    components = delta.get("components", []) if isinstance(delta, dict) else None
    if not isinstance(components, list):
        raise WebServerError("binary delta is not an object holding a component list")
    # A view: each blob is copied once, out of the payload into its own bytes.
    blob_section = memoryview(payload)[4 + len(base):]
    for comp in components:
        props = comp.get("props", {}) if isinstance(comp, dict) else None
        if not isinstance(props, dict):
            raise WebServerError("binary delta component is not an object with props")
        if "blob_offset" in props:
            start, length = props.pop("blob_offset"), props.pop("blob_len", None)
            # Checked, not sliced: a slice forgives a pointer past the
            # section (b"") and wraps a negative one.
            if not (type(start) is type(length) is int
                    and 0 <= start <= start + length <= len(blob_section)):
                raise WebServerError("binary delta blob pointer leaves the blob section")
            props["blob"] = bytes(blob_section[start:start + length])
    return delta


# -- SSE over chunked transfer -------------------------------------------------

def sse_event_chunk(payload: bytes, event_id: int | None = None) -> bytes:
    """One SSE event (``id:`` + ``data:`` lines) as an HTTP/1.1 chunk.

    ``payload`` must be newline-free (compact JSON is).  The ``id`` line
    carries the head sequence so a dropped client resumes with
    ``Last-Event-ID`` exactly like a poller resumes with ``since``.
    """
    if event_id is not None:
        event = b"id: %d\ndata: %s\n\n" % (event_id, payload)
    else:
        event = b"data: %s\n\n" % payload
    return b"%x\r\n%s\r\n" % (len(event), event)


def sse_comment_chunk(text: bytes = b"keep-alive") -> bytes:
    """An SSE comment line as an HTTP chunk (heartbeat; clients ignore it)."""
    event = b": %s\n\n" % text
    return b"%x\r\n%s\r\n" % (len(event), event)


#: The zero-length chunk that ends a chunked body (and so an SSE stream).
CHUNKED_END = b"0\r\n\r\n"


#: A chunk size is hex digits and nothing else: int(x, 16) would also
#: take "1_0", "+3", "0x3", " 3 " and "-2".
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")


def decode_chunks(buf: bytearray) -> tuple[list[bytes], bool]:
    """Consume complete HTTP/1.1 chunks from ``buf``.

    Returns ``(payloads, ended)`` where ``ended`` is True once the
    zero-length terminal chunk has been seen.  Partial chunks stay in
    ``buf``.  Raises :class:`WebServerError` for a size line that is not
    plain hex digits (a chunk extension after ``;`` is ignored), for a
    chunk past the payload cap — refused from its size line alone, never
    buffered — and for a missing CRLF.
    """
    payloads: list[bytes] = []
    while True:
        head_end = buf.find(b"\r\n")
        if head_end < 0:
            if len(buf) > _MAX_HEADER_BYTES:
                raise WebServerError("chunk size line exceeds the header limit")
            return payloads, False
        size_token = bytes(buf[:head_end]).split(b";", 1)[0]
        if not _CHUNK_SIZE.fullmatch(size_token):
            raise WebServerError(f"malformed chunk size {size_token[:32]!r}")
        size = int(size_token, 16)
        if size > _MAX_WS_PAYLOAD:
            raise WebServerError(f"chunk of {size} bytes is too large")
        total = head_end + 2 + size + 2
        if len(buf) < total:
            return payloads, False
        if buf[total - 2:total] != b"\r\n":
            raise WebServerError("chunk missing CRLF terminator")
        if size == 0:
            del buf[:total]
            return payloads, True
        payloads.append(bytes(buf[head_end + 2:total - 2]))
        del buf[:total]


def split_sse_events(buf: bytearray) -> list[tuple[int | None, bytes]]:
    """Consume complete SSE events from ``buf``; return ``(id, data)``.

    Comment-only events (heartbeats) are dropped.  ``data`` is the
    joined ``data:`` payload; ``id`` the last ``id:`` field if present,
    which must be plain ASCII digits (``int()`` would read ``1_0`` as 10
    and ``-7`` as a cursor before the log) — anything else raises
    :class:`WebServerError`.
    """
    events: list[tuple[int | None, bytes]] = []
    while True:
        end = buf.find(b"\n\n")
        if end < 0:
            return events
        block = bytes(buf[:end])
        del buf[:end + 2]
        event_id: int | None = None
        data: list[bytes] = []
        for line in block.split(b"\n"):
            if line.startswith(b"data:"):
                data.append(line[5:].removeprefix(b" "))
            elif line.startswith(b"id:"):
                token = line[3:].strip()
                if not token.isdigit() or len(token) > 18:
                    raise WebServerError(f"malformed SSE event id {token[:32]!r}")
                event_id = int(token)
        if data:
            events.append((event_id, b"\n".join(data)))
