"""In-process message bus between the RICSA component nodes.

Stands in for the socket plumbing of the paper's shared C++ library: each
simulator registers a mailbox under its node name, and the client side
sends it :class:`~repro.steering.messages.Message` objects by that name
(the Fig. 7 hop).  Thread-safe; the web server threads and the executor
workers share one bus.
"""

from __future__ import annotations

import queue
import threading

from repro.errors import SteeringError
from repro.steering.messages import Message

__all__ = ["Mailbox", "MessageBus"]


class Mailbox:
    """A named receive queue on the bus."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._q: queue.Queue[Message] = queue.Queue()

    def recv(self, timeout: float | None = None) -> Message:
        """Blocking receive; raises :class:`SteeringError` on timeout."""
        try:
            return self._q.get(timeout=timeout)
        except queue.Empty:
            raise SteeringError(f"{self.name}: receive timed out") from None

    def poll(self) -> Message | None:
        """Non-blocking receive; ``None`` when empty."""
        try:
            return self._q.get_nowait()
        except queue.Empty:
            return None

    def _deliver(self, msg: Message) -> None:
        self._q.put(msg)


class MessageBus:
    """Registry of mailboxes with name-addressed delivery."""

    def __init__(self) -> None:
        self._boxes: dict[str, Mailbox] = {}
        self._lock = threading.Lock()

    def register(self, name: str) -> Mailbox:
        """Create (or return the existing) mailbox for ``name``."""
        with self._lock:
            if name not in self._boxes:
                self._boxes[name] = Mailbox(name)
            return self._boxes[name]

    def send(self, to: str, msg: Message) -> None:
        """Deliver ``msg`` to mailbox ``to``."""
        with self._lock:
            box = self._boxes.get(to)
        if box is None:
            raise SteeringError(f"no mailbox registered for {to!r}")
        box._deliver(msg)
