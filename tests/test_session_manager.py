"""Tests for the SessionManager lifecycle and the long-poll scheduler."""

from __future__ import annotations

import threading

import pytest

from repro.costmodel.calibration import default_calibration
from repro.errors import ReproError, SteeringError, WebServerError
from repro.net import build_paper_testbed
from repro.obs import SessionJournal
from repro.steering import CentralManager, SessionManager
from repro.steering.executor import SimulationExecutor
from repro.web.longpoll import LongPollScheduler


@pytest.fixture(scope="module")
def cm():
    topo, roles = build_paper_testbed(with_cross_traffic=False)
    return CentralManager(topo, roles, calibration=default_calibration())


SIM = dict(simulator="heat", sim_kwargs={"shape": (8, 8, 8)})


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSessionLifecycle:
    def test_create_get_and_auto_naming(self, cm):
        mgr = SessionManager(cm)
        s0 = mgr.create(configure=False, **SIM)
        s1 = mgr.create(configure=False, **SIM)
        assert s0.session_id == "session0" and s1.session_id == "session1"
        assert mgr.get("session1") is s1
        assert len(mgr) == 2
        assert "session0" in mgr

    def test_duplicate_and_unknown_ids_rejected(self, cm):
        mgr = SessionManager(cm)
        mgr.create("a", configure=False, **SIM)
        with pytest.raises(WebServerError, match="already exists"):
            mgr.create("a", configure=False, **SIM)
        with pytest.raises(WebServerError, match="unknown session"):
            mgr.get("ghost")

    def test_configured_session_runs_end_to_end(self, cm):
        mgr = SessionManager(cm)
        session = mgr.create("run", n_cycles=6, **SIM)
        session.join_background(timeout=30.0)
        assert session.events.image_record().version >= 1
        assert mgr.sessions()["run"]["version"] >= 1

    def test_refused_create_leaves_no_session_behind(self, cm):
        """``configure`` or ``start_background`` raising must unregister:
        a zombie counted against the capacity and competed with finished
        sessions for eviction until the idle sweep."""
        journal = SessionJournal()
        mgr = SessionManager(cm, capacity=4, journal=journal)
        mgr.create("keep", configure=False, **SIM)
        before = (mgr.sessions().keys(), len(mgr), journal.sessions())
        for refused in (dict(initial_params={"no_such_parameter": 1}),
                        dict(technique="nope"), dict(variable="nope"),
                        dict(initial_params={"source_strength": "hot"})):
            for sid in (None, "named"):
                with pytest.raises(ReproError):
                    mgr.create(sid, n_cycles=3, **{**SIM, **refused})
        assert (mgr.sessions().keys(), len(mgr), journal.sessions()) == before
        assert mgr.evictions == 0  # and nobody was evicted to make room
        mgr.create("named", configure=False, **SIM)  # the id is free again
        # a start that is refused after a good configure is rolled back too
        dead = SimulationExecutor(workers=1)
        dead.shutdown(wait=True)
        late = SessionManager(cm, executor=dead, journal=journal)
        with pytest.raises(SteeringError):
            late.create("late", n_cycles=3, **SIM)
        assert "late" not in late and "late" not in journal.sessions()

    def test_refused_create_keeps_an_earlier_runs_journal(self, cm):
        """Journals outlive eviction (replay targets finished or evicted
        sessions), so rolling back a refused create must drop only what
        that attempt added under a reused id."""
        journal = SessionJournal()
        mgr = SessionManager(cm, journal=journal)
        mgr.create("run1", n_cycles=4, **SIM).join_background(timeout=30.0)
        mgr.close("run1")
        history = journal.rows("run1")
        assert history
        for refused in (dict(technique="nope"),
                        dict(initial_params={"no_such_parameter": 1})):
            with pytest.raises(ReproError):
                mgr.create("run1", n_cycles=3, **{**SIM, **refused})
        assert "run1" not in mgr and journal.rows("run1") == history

    def test_attach_detach_refcounting(self, cm):
        mgr = SessionManager(cm)
        mgr.create("a", configure=False, **SIM)
        mgr.attach("a")
        mgr.attach("a")
        mgr.detach("a")
        mgr.detach("a")
        with pytest.raises(SteeringError, match="not attached"):
            mgr.detach("a")

    def test_close_removes_session(self, cm):
        mgr = SessionManager(cm)
        mgr.create("a", configure=False, **SIM)
        mgr.close("a")
        assert "a" not in mgr
        with pytest.raises(WebServerError):
            mgr.close("a")


class TestEvictionAndCapacity:
    def test_idle_eviction_respects_attach(self, cm):
        clock = FakeClock()
        mgr = SessionManager(cm, idle_timeout=10.0, clock=clock)
        mgr.create("idle", configure=False, **SIM)
        mgr.create("pinned", configure=False, **SIM)
        mgr.attach("pinned")
        clock.now = 100.0
        evicted = mgr.evict_idle()
        assert evicted == ["idle"]
        assert "pinned" in mgr and "idle" not in mgr

    def test_touch_refreshes_idle_clock(self, cm):
        clock = FakeClock()
        mgr = SessionManager(cm, idle_timeout=10.0, clock=clock)
        mgr.create("a", configure=False, **SIM)
        clock.now = 8.0
        mgr.touch("a")
        clock.now = 15.0  # 7s after touch, 15s after creation
        assert mgr.evict_idle() == []
        assert "a" in mgr

    def test_capacity_evicts_oldest_idle(self, cm):
        clock = FakeClock()
        mgr = SessionManager(cm, capacity=2, clock=clock)
        mgr.create("old", configure=False, **SIM)
        clock.now = 5.0
        mgr.create("new", configure=False, **SIM)
        clock.now = 10.0
        mgr.create("newest", configure=False, **SIM)
        assert "old" not in mgr
        assert set(mgr.sessions()) == {"new", "newest"}
        assert mgr.evictions == 1

    def test_capacity_refuses_when_all_attached(self, cm):
        mgr = SessionManager(cm, capacity=2)
        mgr.create("a", configure=False, **SIM)
        mgr.create("b", configure=False, **SIM)
        mgr.attach("a")
        mgr.attach("b")
        with pytest.raises(WebServerError, match="capacity"):
            mgr.create("c", configure=False, **SIM)

    def test_monitor_channel_counts_against_capacity(self, cm):
        mgr = SessionManager(cm, capacity=1)
        store = mgr.open_monitor("feed", meta={"source": "external"})
        store.publish_status("session", tick=1)
        assert mgr.sessions()["feed"]["simulator"] == "external"
        mgr.create("sim", configure=False, **SIM)  # evicts the idle monitor
        assert "feed" not in mgr

    def test_per_session_locks_are_distinct(self, cm):
        mgr = SessionManager(cm)
        mgr.create("a", configure=False, **SIM)
        mgr.create("b", configure=False, **SIM)
        lock_a, lock_b = mgr.locked("a"), mgr.locked("b")
        assert lock_a is not lock_b
        with lock_a:
            # holding a's lock must not block b's
            assert lock_b.acquire(timeout=0.5)
            lock_b.release()


class TestLongPollScheduler:
    def test_notify_pops_only_stale_cursors(self):
        sched = LongPollScheduler()
        w1 = sched.register("s", since=3, deadline=100.0)
        w2 = sched.register("s", since=7, deadline=100.0)
        ready = sched.notify("s", seq=5)
        assert ready == [w1]
        assert sched.pending() == 1
        assert sched.notify("s", seq=8) == [w2]
        assert sched.pending() == 0

    def test_notify_other_key_is_isolated(self):
        sched = LongPollScheduler()
        sched.register("a", since=0, deadline=100.0)
        assert sched.notify("b", seq=9) == []
        assert sched.pending_for("a") == 1

    def test_expire_due_pops_by_deadline(self):
        sched = LongPollScheduler()
        w1 = sched.register("s", since=0, deadline=1.0)
        w2 = sched.register("s", since=0, deadline=2.0)
        assert sched.next_deadline() == 1.0
        assert sched.expire_due(1.5) == [w1]
        assert sched.next_deadline() == 2.0
        assert sched.expire_due(2.5) == [w2]
        assert sched.expire_due(99.0) == []

    def test_cancel_prevents_delivery(self):
        sched = LongPollScheduler()
        w = sched.register("s", since=0, deadline=1.0)
        assert sched.remove(w) is True
        assert sched.remove(w) is False  # already gone
        assert sched.notify("s", seq=5) == []
        assert sched.expire_due(2.0) == []

    def test_drop_key_flushes_session_waiters(self):
        sched = LongPollScheduler()
        sched.register("dead", since=0, deadline=100.0)
        sched.register("dead", since=0, deadline=100.0)
        sched.register("live", since=0, deadline=100.0)
        dropped = sched.drop_key("dead")
        assert len(dropped) == 2
        assert sched.pending() == 1

    def test_thread_safe_register_notify_storm(self):
        sched = LongPollScheduler()
        stop = threading.Event()
        delivered = []

        def notifier():
            seq = 1
            while not stop.is_set():
                delivered.extend(sched.notify("s", seq))
                seq += 1

        t = threading.Thread(target=notifier)
        t.start()
        waiters = [sched.register("s", since=0, deadline=1e9) for _ in range(500)]
        while sched.pending():
            pass
        stop.set()
        t.join(timeout=10.0)
        # every waiter delivered exactly once, none lost, none duplicated
        assert sorted(w.id for w in delivered) == sorted(w.id for w in waiters)
