"""LongPollScheduler edge cases + the Subscriber registry.

Parked polls (records with a deadline) and push streams (records
without) share one registry; these tests pin the parked-poll behaviours
— drop_key flushing an evicted session, expiry with tied deadlines,
remove racing notify — and the stream semantics the push path relies on
(persistence across publishes, cursor-gated targeting, per-transport
accounting).
"""

from __future__ import annotations

from repro.web.longpoll import LongPollScheduler


class TestWaiterEdgeCases:
    def test_drop_key_wakes_every_waiter_of_evicted_session(self):
        """Eviction must flush ALL parked waiters at once, marking each
        done so stale heap entries can never resurrect them."""
        sched = LongPollScheduler()
        waiters = [
            sched.register("evicted", since=i, deadline=100.0 + i)
            for i in range(5)
        ]
        survivor = sched.register("live", since=0, deadline=100.0)
        dropped = sched.drop_key("evicted")
        assert sorted(w.id for w in dropped) == sorted(w.id for w in waiters)
        assert all(w.done for w in dropped)
        assert sched.pending_for("evicted") == 0
        assert sched.pending() == 1
        # The dropped waiters' heap entries must be inert: neither a
        # notify nor an expiry sweep may hand them out again.
        assert sched.notify("evicted", seq=10**9) == []
        assert sched.expire_due(10**9) == [survivor]

    def test_drop_key_on_unknown_key_is_empty(self):
        sched = LongPollScheduler()
        assert sched.drop_key("never-registered") == []

    def test_expire_due_with_identical_deadlines_pops_all(self):
        """Tied deadlines must all expire in one sweep — the heap's
        (deadline, id) tiebreaker keeps ordering total, so equal floats
        can never wedge a comparison or strand a waiter."""
        sched = LongPollScheduler()
        tied = [sched.register("s", since=0, deadline=5.0) for _ in range(4)]
        later = sched.register("s", since=0, deadline=6.0)
        expired = sched.expire_due(5.0)  # boundary: deadline <= now pops
        assert sorted(w.id for w in expired) == sorted(w.id for w in tied)
        assert sched.pending() == 1
        assert sched.expire_due(5.9) == []
        assert sched.expire_due(6.0) == [later]

    def test_cancel_of_already_notified_waiter_is_noop(self):
        """A connection closing right after its poll was answered must
        not corrupt the registry: remove sees done=True and declines."""
        sched = LongPollScheduler()
        w = sched.register("s", since=0, deadline=100.0)
        assert sched.notify("s", seq=1) == [w]
        assert w.done
        assert sched.remove(w) is False
        assert sched.pending() == 0
        # and the heap entry left behind expires harmlessly
        assert sched.expire_due(10**9) == []

    def test_cancel_of_expired_waiter_is_noop(self):
        sched = LongPollScheduler()
        w = sched.register("s", since=0, deadline=1.0)
        assert sched.expire_due(2.0) == [w]
        assert sched.remove(w) is False


class TestSubscriberRegistry:
    def test_subscriber_survives_repeated_pushes(self):
        """The defining difference from a waiter: push_targets returns
        the subscriber without removing it, every time its cursor lags."""
        sched = LongPollScheduler()
        sub = sched.subscribe("s", since=0, transport="sse", framing="sse")
        for seq in (1, 2, 3):
            assert sched.push_targets("s", seq) == [sub]
            sub.since = seq  # delivery advances the cursor in place
        assert sched.subscribers() == 1
        assert sched.pushed_total == 3

    def test_push_targets_respects_cursor(self):
        sched = LongPollScheduler()
        behind = sched.subscribe("s", since=0)
        ahead = sched.subscribe("s", since=10)
        assert sched.push_targets("s", seq=5) == [behind]
        assert sched.push_targets("other", seq=5) == []

    def test_unsubscribe_removes_and_is_idempotent(self):
        sched = LongPollScheduler()
        sub = sched.subscribe("s", since=0)
        assert sched.remove(sub) is True
        assert sched.remove(sub) is False
        assert sched.subscribers() == 0
        assert sched.push_targets("s", seq=99) == []

    def test_drop_subscribers_flushes_session(self):
        sched = LongPollScheduler()
        subs = [sched.subscribe("dead", since=0) for _ in range(3)]
        keeper = sched.subscribe("live", since=0)
        parked = sched.register("dead", since=0, deadline=100.0)
        dropped = sched.drop_key("dead")  # one verb flushes polls and streams
        assert sorted(s.id for s in dropped) == sorted(
            s.id for s in [*subs, parked])
        assert all(s.done for s in dropped)
        assert sched.subscribers_for("dead") == 0
        assert sched.watchers_for("dead") == 0
        assert sched.push_targets("live", seq=1) == [keeper]

    def test_subscriber_counts_by_transport(self):
        sched = LongPollScheduler()
        sched.subscribe("a", since=0, transport="sse")
        sched.subscribe("a", since=0, transport="ws")
        sched.subscribe("b", since=0, transport="ws")
        assert sched.subscriber_counts() == {"sse": 1, "ws": 2}

    def test_waiters_and_subscribers_are_independent(self):
        """notify pops waiters only; push_targets reads subscribers only
        — a publish drives both populations without crosstalk."""
        sched = LongPollScheduler()
        waiter = sched.register("s", since=0, deadline=100.0)
        sub = sched.subscribe("s", since=0)
        assert sched.notify("s", seq=1) == [waiter]
        assert sched.push_targets("s", seq=1) == [sub]
        assert sched.pending() == 0
        assert sched.subscribers() == 1
        assert sched.watchers_for("s") == 1
        assert waiter.deadline == 100.0 and sub.deadline is None

    def test_stats_cover_subscriber_counters(self):
        sched = LongPollScheduler()
        sched.register("s", since=0, deadline=100.0)
        sub = sched.subscribe("s", since=0)
        sched.push_targets("s", seq=1)
        sched.remove(sub)
        stats = sched.stats()
        assert stats["parked"] == 1
        assert stats["subscribers"] == 0
        assert stats["subscribed_total"] == 1
        assert stats["pushed_total"] == 1
