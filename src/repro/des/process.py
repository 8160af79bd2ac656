"""Generator-based processes for the DES kernel.

A process is a Python generator that yields *waitables*:

* :class:`~repro.des.simulator.Timeout` — sleep virtual time,
* :class:`~repro.des.simulator.Trigger` — wait for a triggerable event,
* another :class:`Process` — join it.

The value the waitable resolves with becomes the result of the ``yield``
expression, so transport code reads naturally::

    def sender(sim, chan):
        ack = yield Trigger(ack_event)
        yield sim.timeout(controller.sleep_time)
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.des.event import Event

__all__ = ["Process", "ProcessExit"]


class ProcessExit(Exception):
    """Raised *into* a process generator by :meth:`Process.interrupt`."""


class Process:
    """Handle for a running generator process.

    The process starts immediately (its first segment runs synchronously
    until the first ``yield``).  ``done`` / ``result`` expose completion;
    ``completion`` is an :class:`Event` other processes can wait on.
    """

    def __init__(self, sim, gen: Generator) -> None:
        self._sim = sim
        self._gen = gen
        self.completion = Event()
        self._failed: BaseException | None = None
        self._resume(None)

    # -- public state --------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the generator has finished (normally or with error)."""
        return self.completion.triggered

    @property
    def result(self) -> Any:
        """Return value of the generator (``None`` until done)."""
        return self.completion.value

    @property
    def error(self) -> BaseException | None:
        """Exception that terminated the process, if any."""
        return self._failed

    def interrupt(self, reason: str = "interrupted") -> None:
        """Throw :class:`ProcessExit` into the process at its yield point."""
        if self.done:
            return
        try:
            waitable = self._gen.throw(ProcessExit(reason))
        except (StopIteration, ProcessExit):
            self.completion.trigger(None)
        else:
            self._wait_on(waitable)

    # -- waitable protocol (processes can be yielded on to join) -------------

    def _bind(self, sim, resume: Callable[[Any], None]) -> None:
        self.completion.subscribe(resume)

    # -- engine ---------------------------------------------------------------

    def _resume(self, value: Any) -> None:
        try:
            waitable = self._gen.send(value)
        except StopIteration as stop:
            self.completion.trigger(stop.value)
            return
        except ProcessExit:
            self.completion.trigger(None)
            return
        except Exception as exc:
            self._failed = exc
            self.completion.trigger(None)
            raise
        self._wait_on(waitable)

    def _wait_on(self, waitable: Any) -> None:
        bind = getattr(waitable, "_bind", None)
        if bind is None:
            raise TypeError(
                f"process yielded non-waitable {waitable!r}; expected Timeout, "
                "Trigger, or Process"
            )
        bind(self._sim, self._resume)
