"""Import-only alias: the wire formats live in :mod:`repro.wire`.

``bench/`` imports these five names from here and is edited only by a
``benchmark`` PR; nothing under ``src/`` or ``examples/`` imports
through this module.
"""

from repro.wire import (
    decode_binary_delta,
    decode_brick_payload,
    parse_ws_frames,
    ws_accept_key,
    ws_client_frame,
)

__all__ = [
    "decode_binary_delta",
    "decode_brick_payload",
    "parse_ws_frames",
    "ws_accept_key",
    "ws_client_frame",
]
