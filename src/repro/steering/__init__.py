"""The RICSA steering framework (Sections 2 and 5.2).

Message-driven, state-machine based — the paper's own description of its
implementation.  The pieces:

* :mod:`~repro.steering.messages` — the messages of the Fig. 7 hop
  (simulation request, steering update, shutdown),
* :mod:`~repro.steering.bus` — in-process delivery of those messages from
  the client side to each simulator's mailbox (socket stand-in; the web
  package exposes the same traffic over real HTTP),
* :mod:`~repro.steering.protocol` — the session state machine,
* :mod:`~repro.steering.api` — the six ``RICSA_*`` calls of Fig. 7 that
  instrument a simulation code,
* :mod:`~repro.steering.central_manager` — CM node: profiling + DP
  mapping -> VRT (read-only per request; each session keeps its decision),
* :mod:`~repro.steering.events` — per-session monotonic event-sequence
  store (images, status, steering), composing the image ring of
  :mod:`~repro.steering.images` (shared-encode caching) and the frame
  plane of :mod:`~repro.steering.frames` (encode-once delta frames),
* :mod:`~repro.steering.manager` — SessionManager: many named sessions
  with create/attach/detach, idle eviction and capped capacity,
* :mod:`~repro.steering.executor` — the shared SimulationExecutor: every
  session's simulation loop as step-slices on one bounded worker pool,
* :mod:`~repro.steering.loop` — executes a visualization loop along the
  VRT: every CS node's modules run live, transport is modelled,
* :mod:`~repro.steering.client` — the steering/monitoring client,
* :mod:`~repro.steering.session` — end-to-end steering session.
"""

from repro.steering.api import (
    SteeringServer,
    run_steered_cycles,
    steered_cycle_slices,
)
from repro.steering.bus import Mailbox, MessageBus
from repro.steering.central_manager import CentralManager, VizRequest
from repro.steering.client import SteeringClient
from repro.steering.events import EventSequenceStore, SessionEvent
from repro.steering.executor import SessionTask, SimulationExecutor
from repro.steering.loop import LoopResult, VisualizationLoopRunner
from repro.steering.manager import ManagedSession, SessionManager
from repro.steering.messages import Message, MessageKind
from repro.steering.protocol import SessionState, SessionStateMachine
from repro.steering.session import SteeringSession

__all__ = [
    "CentralManager",
    "EventSequenceStore",
    "LoopResult",
    "Mailbox",
    "ManagedSession",
    "Message",
    "MessageBus",
    "MessageKind",
    "SessionEvent",
    "SessionManager",
    "SessionState",
    "SessionStateMachine",
    "SessionTask",
    "SimulationExecutor",
    "SteeringClient",
    "SteeringServer",
    "SteeringSession",
    "VisualizationLoopRunner",
    "VizRequest",
    "run_steered_cycles",
    "steered_cycle_slices",
]
