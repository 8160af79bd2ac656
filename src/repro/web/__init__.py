"""The Ajax web server and client (the paper's user-facing tier).

A real HTTP server (stdlib, non-blocking selector loop, loopback)
exposing session-keyed XMLHttpRequest-style endpoints:

* ``GET /``                    — the embedded single-page UI,
* ``GET /api/v1/sessions``     — session registry,
* ``POST /api/v1/sessions``    — start a new steered session,
* ``GET /api/v1/<sid>/state``  — merged component snapshot,
* ``GET /api/v1/<sid>/poll``   — long-poll event-sequence deltas (a
  parked poll is a subscriber record with a deadline on the shared
  scheduler, not a thread),
* ``GET /api/v1/<sid>/stream`` — chunked-transfer SSE push stream (a
  persistent, deadline-less subscriber on the same scheduler),
* ``GET /api/v1/<sid>/ws``     — WebSocket upgrade (RFC 6455) carrying
  pushed deltas; ``?images=b64|binary`` inlines image blobs,
* ``GET /api/v1/<sid>/image``  — fixed-size image file
  (``application/octet-stream``), ``image.png`` for browsers,
* ``POST /api/v1/<sid>/steer`` — computational steering parameters,
* ``POST /api/v1/<sid>/view``  — visualization operations (rotate/zoom),
* ``POST /api/v1/<sid>/stop``  — request simulation shutdown,
* ``GET /api/v1/stats``        — server / executor / session counters,
  including per-transport delivery counts.

:class:`~repro.web.client.SteeringWebClient` is the programmatic browser
used by tests and examples; it speaks all three event transports
behind one :meth:`events` generator with since-resume reconnects.  :class:`~repro.web.longpoll.LongPollScheduler`
is the subscriber registry + deadline wheel behind the non-blocking
polls and push streams; :mod:`repro.web.delivery` is the one path that
frames a wake once per group and hands it to every transport.
"""

from repro.web.client import SteeringWebClient
from repro.web.longpoll import LongPollScheduler, Subscriber
from repro.web.server import AjaxWebServer

__all__ = [
    "SteeringWebClient",
    "AjaxWebServer",
    "LongPollScheduler",
    "Subscriber",
]
