"""Steering messages: what travels the Fig. 7 client-to-simulator hop.

The in-process bus passes :class:`Message` objects by reference; nothing
is framed or decoded on the way (the HTTP wire formats live in
:mod:`repro.wire`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["MessageKind", "Message"]


class MessageKind(str, Enum):
    """Message types the steering loop sends (Fig. 1)."""

    SIMULATION_REQUEST = "SIMULATION_REQUEST"  # client -> CM -> simulator
    SIMULATION_PARAMS = "SIMULATION_PARAMS"  # steering updates
    SHUTDOWN = "SHUTDOWN"


@dataclass(slots=True)
class Message:
    """A steering message: kind and payload, addressed from a session."""

    kind: MessageKind
    payload: dict = field(default_factory=dict)
    sender: str = ""
    session: str = ""

    @classmethod
    def simulation_request(
        cls, simulator: str, variable: str, params: dict | None = None,
        session: str = "", sender: str = "client",
    ) -> "Message":
        return cls(
            MessageKind.SIMULATION_REQUEST,
            {"simulator": simulator, "variable": variable, "params": params or {}},
            session=session,
            sender=sender,
        )

    @classmethod
    def steering_update(
        cls, params: dict, session: str = "", sender: str = "client"
    ) -> "Message":
        return cls(
            MessageKind.SIMULATION_PARAMS, {"params": params},
            session=session, sender=sender,
        )
