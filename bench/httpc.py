"""The load generator's connections: raw keep-alive HTTP and WebSocket.

One :class:`HttpConn` is one socket that stays open for the whole run,
so a request costs the server a parse and a route, never an accept.
``send`` and ``recv`` are separate so a long poll can be written now and
read after the publish that wakes it.  Every byte a socket receives is
counted in ``rx_bytes`` (headers, framing and payload alike); that is the
numerator of ``wire_bytes_per_update``.
"""

from __future__ import annotations

import base64
import json
import os
import socket
from collections import deque

from repro.steering.events import WS_BINARY, WS_PING, WS_PONG
from repro.web.framing import parse_ws_frames, ws_accept_key, ws_client_frame

__all__ = ["HttpConn", "WsConn"]

_RECV = 1 << 20


class HttpConn:
    """A blocking HTTP/1.1 keep-alive connection to ``127.0.0.1:port``."""

    def __init__(self, port: int, tracer, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.rx_bytes = 0
        self.tracer = tracer
        self._host = f"Host: 127.0.0.1:{port}\r\n".encode("ascii")

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(_RECV)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.rx_bytes += len(chunk)
        self.buf += chunk

    def send(self, method: str, path: str, body: dict | None = None) -> None:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = b"%s %s HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n" % (
            method.encode("ascii"), path.encode("ascii"), self._host, len(payload))
        self.sock.sendall(head + payload)

    def _read_head(self) -> tuple[int, bytes]:
        """Consume one response head; returns (status, lower-cased head)."""
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        head = bytes(buf[:end]).lower()
        del buf[:end + 4]
        return int(head[9:12]), head

    def recv(self) -> tuple[int, bytes]:
        """Read one Content-Length-framed response: (status, body)."""
        status, head = self._read_head()
        marker = head.index(b"content-length:") + 15
        eol = head.find(b"\r\n", marker)
        length = int(head[marker:eol if eol >= 0 else len(head)])
        buf = self.buf
        while len(buf) < length:
            self._fill()
        body = bytes(buf[:length])
        del buf[:length]
        return status, body

    def request(self, span: str, method: str, path: str,
                body: dict | None = None) -> tuple[int, bytes]:
        """One closed-loop request inside a boundary span named ``span``."""
        with self.tracer.span(span):
            self.send(method, path, body)
            return self.recv()


class WsConn(HttpConn):
    """A WebSocket subscriber (RFC 6455 client side, read-mostly)."""

    def __init__(self, port: int, tracer, path: str, timeout: float = 30.0) -> None:
        super().__init__(port, tracer, timeout)
        self._frames: deque[bytes] = deque()
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self.sock.sendall(
            b"GET %s HTTP/1.1\r\n%sUpgrade: websocket\r\nConnection: Upgrade\r\n"
            b"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n"
            % (path.encode("ascii"), self._host, key.encode("ascii")))
        status, head = self._read_head()
        accept = ws_accept_key(key).lower().encode("ascii")
        if status != 101 or accept not in head:
            raise ConnectionError(f"WebSocket upgrade refused (HTTP {status})")

    def recv_binary(self) -> bytes:
        """Block until one complete binary frame has arrived; its payload."""
        while not self._frames:
            for opcode, payload in parse_ws_frames(self.buf, require_mask=False):
                if opcode == WS_BINARY:
                    self._frames.append(payload)
                elif opcode == WS_PING:
                    self.sock.sendall(ws_client_frame(payload, WS_PONG))
            if not self._frames:
                self._fill()
        return self._frames.popleft()
