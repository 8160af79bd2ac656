"""The Ajax web server and client (the paper's user-facing tier).

A real HTTP server (stdlib, non-blocking selector loop, loopback)
exposing session-keyed XMLHttpRequest-style endpoints:

* ``GET /``                    — the embedded single-page UI,
* ``GET /api/sessions``        — session registry,
* ``POST /api/sessions``       — start a new steered session,
* ``GET /api/<sid>/state``     — merged component snapshot,
* ``GET /api/<sid>/poll``      — long-poll event-sequence deltas (a
  parked poll is a subscriber record with a deadline on the shared
  scheduler, not a thread),
* ``GET /api/<sid>/stream``    — chunked-transfer SSE push stream (a
  persistent, deadline-less subscriber on the session's owner shard),
* ``GET /api/<sid>/ws``        — WebSocket upgrade (RFC 6455) carrying
  pushed deltas; ``?images=b64|binary`` inlines image blobs,
* ``GET /api/<sid>/image``     — fixed-size image file
  (``application/octet-stream``), ``image.png`` for browsers,
* ``POST /api/<sid>/steer``    — computational steering parameters,
* ``POST /api/<sid>/view``     — visualization operations (rotate/zoom),
* ``POST /api/<sid>/stop``     — request simulation shutdown,
* ``GET /api/stats``           — server / executor / session counters,
  including per-transport delivery counts.

:class:`~repro.web.client.SteeringWebClient` is the programmatic browser
used by tests and examples (``AjaxClient`` is its legacy alias); it
speaks all three event transports behind one :meth:`events` generator
with since-resume reconnects.  :class:`~repro.web.longpoll.LongPollScheduler`
is the subscriber registry + deadline wheel behind the non-blocking
polls and push streams; :mod:`repro.web.delivery` is the one path that
frames a wake once per group and hands it to every transport.
"""

from repro.web.client import AjaxClient, SteeringWebClient
from repro.web.longpoll import LongPollScheduler, Subscriber
from repro.web.server import AjaxWebServer

__all__ = [
    "AjaxClient",
    "SteeringWebClient",
    "AjaxWebServer",
    "LongPollScheduler",
    "Subscriber",
]
