"""The Ajax web server and client (the paper's user-facing tier).

A real HTTP server (stdlib, non-blocking selector loop, loopback)
serving ``GET /`` (the embedded single-page UI) and the session-keyed
XMLHttpRequest-style ``/api/v1`` endpoints — the table is
:data:`repro.web.routes.API_ROUTES`, the contract ``API.md``.  Events
reach a client over a long poll (a parked poll is a subscriber record
with a deadline on the shared scheduler, not a thread), a chunked SSE
stream or a WebSocket (persistent, deadline-less subscribers on the same
scheduler); images as fixed-size files or PNGs.

:class:`~repro.web.client.SteeringWebClient` is the programmatic browser
used by tests and examples; it speaks all three event transports
behind one :meth:`events` generator with since-resume reconnects.  A
client author starts from :mod:`repro.web.client`: the class for the
whole protocol, or the socket level beside it (``connect``,
``read_response``, ``open_stream`` and its decoder) that it and the
concurrency harness's viewer both read a stream through.
:class:`~repro.web.longpoll.LongPollScheduler` is the subscriber
registry + deadline wheel behind the non-blocking polls and push
streams; :mod:`repro.web.delivery` is the one path that frames a wake
once per group and hands it to every transport.
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
