"""Discrete-event simulation (DES) kernel.

A minimal, deterministic event-driven simulator in the style of SimPy:
an event heap with a virtual clock (:class:`~repro.des.simulator.Simulator`),
generator-based processes (:class:`~repro.des.process.Process`) that
``yield`` waitables (timeouts, triggerable events, other processes).

This kernel is the substrate under the simulated wide-area network
(:mod:`repro.net`) and the transport protocols (:mod:`repro.transport`).
Determinism matters: two runs with the same seeds produce identical event
orders, which the experiment harness relies on.
"""

from repro.des.event import Event, EventQueue, ScheduledCallback
from repro.des.process import Process, ProcessExit
from repro.des.simulator import Simulator, Timeout, Trigger

__all__ = [
    "Event",
    "EventQueue",
    "ScheduledCallback",
    "Process",
    "ProcessExit",
    "Simulator",
    "Timeout",
    "Trigger",
]
