"""Session state machine.

The paper implements RICSA with "a message-driven programming model and a
state machine-based methodology".  This is that state machine: a session
moves ``IDLE -> REQUESTED -> CONFIGURED -> RUNNING -> DONE``; an invalid
transition, or a message its state does not accept, raises
:class:`~repro.errors.ProtocolError` instead of silently corrupting the
loop.
"""

from __future__ import annotations

import threading
from enum import Enum

from repro.errors import ProtocolError
from repro.steering.messages import MessageKind

__all__ = ["SessionState", "SessionStateMachine"]


class SessionState(str, Enum):
    IDLE = "IDLE"
    REQUESTED = "REQUESTED"
    CONFIGURED = "CONFIGURED"
    RUNNING = "RUNNING"
    DONE = "DONE"


#: Allowed transitions: state -> the one next state.
_TRANSITIONS: dict[SessionState, SessionState] = {
    SessionState.IDLE: SessionState.REQUESTED,
    SessionState.REQUESTED: SessionState.CONFIGURED,
    SessionState.CONFIGURED: SessionState.RUNNING,
    SessionState.RUNNING: SessionState.DONE,
}

#: Which message kinds are legal to *process* in each state.
_ACCEPTS: dict[SessionState, frozenset[MessageKind]] = {
    SessionState.IDLE: frozenset({MessageKind.SIMULATION_REQUEST}),
    SessionState.RUNNING: frozenset(
        {MessageKind.SIMULATION_PARAMS, MessageKind.SHUTDOWN}),
}


class SessionStateMachine:
    """Thread-safe state holder with validated transitions."""

    def __init__(self, session_id: str = "session0") -> None:
        self.session_id = session_id
        self._state = SessionState.IDLE
        self._lock = threading.Lock()

    @property
    def state(self) -> SessionState:
        with self._lock:
            return self._state

    def transition(self, new: SessionState) -> None:
        """Move to ``new``; raises on an illegal edge."""
        with self._lock:
            if _TRANSITIONS.get(self._state) is not new:
                raise ProtocolError(
                    f"session {self.session_id}: illegal transition "
                    f"{self._state.value} -> {new.value}"
                )
            self._state = new

    def check_accepts(self, kind: MessageKind) -> None:
        """Raise unless ``kind`` may be processed in the current state."""
        with self._lock:
            if kind not in _ACCEPTS.get(self._state, ()):
                raise ProtocolError(
                    f"session {self.session_id}: message {kind.value} not "
                    f"allowed in state {self._state.value}"
                )

    @property
    def terminal(self) -> bool:
        return self.state is SessionState.DONE
