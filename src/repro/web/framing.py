"""Wire-level parsers: HTTP request framing, RFC 6455 and SSE.

The *server->client* framing byte-math lives in
:mod:`repro.steering.events` next to the encode-once memoization (so
pre-framed delta buffers can be cached per window); this module owns the
complementary pieces the serving loop and the programmatic clients need:

* the incremental HTTP/1.x request parser the IO loop feeds its
  connection buffers through,
* the WebSocket opening-handshake accept key (SHA-1 over the client key
  and the RFC 6455 GUID),
* an incremental WebSocket frame parser usable on both sides — the
  server requires masked (client->server) frames, the client rejects
  them,
* client->server frame construction (masked, as the RFC demands),
* the binary delta payload decoder (``[u32 json length][json][blobs]``)
  matching ``EventSequenceStore.framed_delta(..., FRAME_WS_BINARY)``,
* an incremental chunked-transfer decoder plus an SSE event splitter
  for the client side of ``GET /api/v1/<sid>/stream``.

Everything here is pure byte manipulation: no sockets, no threads, no
imports from the serving loop, so both ``server.py`` and ``client.py``
(and the benchmark client stand-ins) share one implementation of every
format.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
import urllib.parse

import numpy as np

from repro.errors import WebServerError

# Re-exported for client symmetry: the brick payload format lives with
# the sliding-window plane, but web clients decode it alongside the
# other wire formats collected here.
from repro.window.bricks import decode_brick_payload

__all__ = [
    "HttpRequest",
    "parse_request",
    "WS_GUID",
    "ws_accept_key",
    "ws_client_frame",
    "parse_ws_frames",
    "decode_binary_delta",
    "decode_brick_payload",
    "decode_chunks",
    "split_sse_events",
]

WS_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Frames past this size are a protocol violation for our tiny control
#: and steering payloads — treat as an attack / corruption and drop.
_MAX_WS_PAYLOAD = 16 * 1024 * 1024

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024


def _refuse_constant(name: str):
    """Decoder hook: ``NaN`` / ``Infinity`` / ``-Infinity`` are not JSON."""
    raise WebServerError(f"malformed JSON body: {name} is not a JSON number")


#: Built once: ``json.loads(..., parse_constant=)`` builds a decoder per call.
_BODY_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


class HttpRequest:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body", "http11")

    def __init__(self, method: str, target: str, version: str,
                 headers: dict[str, str], body: bytes) -> None:
        parsed = urllib.parse.urlparse(target)
        self.method = method
        self.path = parsed.path
        self.query = urllib.parse.parse_qs(parsed.query)
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


def parse_request(buf: bytearray) -> HttpRequest | None:
    """Consume one complete HTTP/1.x request from the front of ``buf``.

    Incremental: returns None (leaving ``buf`` untouched) until the head
    and the ``Content-Length`` body are both buffered.  Raises
    :class:`WebServerError` for a head the connection cannot recover
    from — oversized, a malformed request line, a ``Content-Length``
    that is not plain ASCII digits or exceeds the body cap, or any
    ``Transfer-Encoding`` (request bodies are length-framed only; a
    chunked body read as length 0 would be parsed as the next request).
    """
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        if len(buf) > _MAX_HEADER_BYTES:
            raise WebServerError("request head exceeds the header limit")
        return None
    lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise WebServerError("malformed request line")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise WebServerError("Transfer-Encoding request bodies are not supported")
    raw_length = headers.get("content-length") or "0"
    # ASCII digits only: int() would also take "1_0", "+10" and "١٠".  The
    # length cap keeps int() away from its own digit-count limit.
    if not (raw_length.isascii() and raw_length.isdigit()) or len(raw_length) > 18:
        raise WebServerError(f"malformed Content-Length {raw_length[:32]!r}")
    length = int(raw_length)
    if length > _MAX_BODY_BYTES:
        raise WebServerError(f"request body of {length} bytes is too large")
    total = end + 4 + length
    if len(buf) < total:
        return None
    body = bytes(buf[end + 4:total])
    del buf[:total]
    return HttpRequest(parts[0], parts[1], parts[2], headers, body)


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


def ws_client_frame(payload: bytes, opcode: int) -> bytes:
    """One complete masked (client->server) frame."""
    mask = os.urandom(4)
    length = len(payload)
    if length < 126:
        header = bytes((0x80 | opcode, 0x80 | length))
    elif length < 65536:
        header = bytes((0x80 | opcode, 0x80 | 126)) + struct.pack(">H", length)
    else:
        header = bytes((0x80 | opcode, 0x80 | 127)) + struct.pack(">Q", length)
    return header + mask + _ws_mask(payload, mask)


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


def decode_binary_delta(payload: bytes) -> dict:
    """Decode a ``FRAME_WS_BINARY`` payload back into a delta dict.

    Image components regain a ``blob`` bytes prop (the raw fixed-size
    container) in place of their ``blob_offset``/``blob_len`` pointers
    into the trailing blob section.
    """
    if len(payload) < 4:
        raise WebServerError("binary delta shorter than its length prefix")
    json_len = struct.unpack_from(">I", payload, 0)[0]
    if 4 + json_len > len(payload):
        raise WebServerError("binary delta JSON header is truncated")
    try:
        delta = json.loads(payload[4:4 + json_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise WebServerError(f"binary delta header is not JSON: {exc}") from None
    components = delta.get("components", []) if isinstance(delta, dict) else None
    if not isinstance(components, list):
        raise WebServerError("binary delta is not an object holding a component list")
    # A view: each blob is copied once, out of the payload into its own bytes.
    blob_section = memoryview(payload)[4 + json_len:]
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


def decode_chunks(buf: bytearray) -> tuple[list[bytes], bool]:
    """Consume complete HTTP/1.1 chunks from ``buf``.

    Returns ``(payloads, ended)`` where ``ended`` is True once the
    zero-length terminal chunk has been seen.  Partial chunks stay in
    ``buf``.
    """
    payloads: list[bytes] = []
    while True:
        head_end = buf.find(b"\r\n")
        if head_end < 0:
            return payloads, False
        size_token = bytes(buf[:head_end]).split(b";", 1)[0].strip()
        try:
            size = int(size_token, 16)
        except ValueError:
            raise WebServerError(f"malformed chunk size {size_token!r}")
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
    joined ``data:`` payload; ``id`` the last ``id:`` field if present.
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
                data.append(line[5:].lstrip())
            elif line.startswith(b"id:"):
                try:
                    event_id = int(line[3:].strip())
                except ValueError:
                    event_id = None
        if data:
            events.append((event_id, b"\n".join(data)))
