"""Unit tests for the simulator clock, processes and stores."""

from __future__ import annotations

import pytest

from repro.des import Trigger
from repro.des.process import ProcessExit
from repro.errors import ConfigurationError


class TestScheduling:
    def test_clock_advances_to_event_times(self, sim):
        times = []
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.0]
        assert sim.now == 2.0

    def test_schedule_in_past_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_stops_clock_at_bound(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(True))
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert not fired
        sim.run()
        assert fired == [True]

    def test_nested_scheduling_from_callbacks(self, sim):
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_max_events_guard(self, sim):
        def rearm():
            sim.schedule(0.1, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=100)


class TestProcesses:
    def test_timeout_sequence(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.5)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 1.0, 3.5]

    def test_process_result_and_done(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "finished"

        p = sim.process(proc())
        assert not p.done
        sim.run()
        assert p.done
        assert p.result == "finished"

    def test_process_join(self, sim):
        def worker():
            yield sim.timeout(2.0)
            return 99

        def waiter(w):
            value = yield w
            return ("got", value)

        w = sim.process(worker())
        j = sim.process(waiter(w))
        sim.run()
        assert j.result == ("got", 99)

    def test_wait_on_trigger_event(self, sim):
        ev = sim.event()
        result = []

        def waiter():
            value = yield Trigger(ev)
            result.append((sim.now, value))

        sim.process(waiter())
        sim.schedule(3.0, ev.trigger, "ping")
        sim.run()
        assert result == [(3.0, "ping")]

    def test_interrupt_terminates_process(self, sim):
        reached = []

        def proc():
            try:
                yield sim.timeout(100.0)
                reached.append("end")
            except ProcessExit:
                reached.append("interrupted")

        p = sim.process(proc())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert reached == ["interrupted"]
        assert p.done

    def test_yielding_garbage_raises(self, sim):
        def proc():
            yield 12345

        with pytest.raises(TypeError, match="non-waitable"):
            sim.process(proc())

    def test_process_exception_propagates_and_marks_done(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        p = sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()
        assert p.done
        assert isinstance(p.error, ValueError)
