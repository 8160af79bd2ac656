"""The one delivery path, with no socket: stub connections, real store.

``Delivery.deliver`` is handed records the way the IO loop hands them —
popped by ``notify``, returned by ``push_targets``, expired, dropped —
and the stub connection records what would have been written.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.errors import WebServerError
from repro.steering.events import EventSequenceStore
from repro.web.delivery import Delivery
from repro.web.longpoll import LongPollScheduler, Subscriber
from repro.window import WindowCursor, WindowedDomainSource
from repro.window.source import MAX_WINDOWS
from repro.wire import (
    FRAME_JSON,
    FRAME_SSE,
    FRAME_WS,
    WS_CLOSE,
    sse_comment_chunk,
    ws_server_frame,
)


class StubConn:
    """What ``Delivery`` needs of a connection, and a log of its output."""

    def __init__(self, keep_alive: bool = True) -> None:
        self.closed = False
        self.subscriber = None
        self.keep_alive = keep_alive
        self.close_after = False
        self.inbuf = bytearray()
        self.window_source = self.window_wid = None
        self.lod_bias = 0
        self.sent: list[bytes] = []
        self.errors: list[tuple] = []

    def _send_error(self, status: int, code: str, message: str) -> None:
        self.errors.append((status, code))


def _render_head(code, ctype, length, keep_alive) -> bytes:
    return f"HEAD {code} {length} {int(keep_alive)}|".encode()


class Rig:
    """Two sessions' stores, one scheduler, one ``Delivery`` over stubs."""

    def __init__(self) -> None:
        self.stores = {"a": EventSequenceStore(), "b": EventSequenceStore()}
        self.scheduler = LongPollScheduler()
        self.resumed: list[StubConn] = []
        self.delivery = Delivery(
            events=self._events,
            enqueue=lambda conn, bufs: conn.sent.extend(bytes(b) for b in bufs),
            close=lambda conn: setattr(conn, "closed", True),
            resume=self.resumed.append,
            remove=self.scheduler.remove,
            render_head=_render_head,
        )

    def _events(self, sid: str) -> EventSequenceStore:
        if sid not in self.stores:
            raise WebServerError(f"no session {sid!r}")
        return self.stores[sid]

    def poll(self, sid: str, since: int, deadline: float = 1e9, **kw) -> Subscriber:
        conn = StubConn(**kw)
        conn.subscriber = self.scheduler.add(Subscriber(
            sid, since, conn, "longpoll", FRAME_JSON, deadline=deadline))
        return conn.subscriber

    def stream(self, sid: str, since: int, transport: str, framing: str) -> Subscriber:
        conn = StubConn()
        conn.subscriber = self.scheduler.subscribe(
            sid, since, conn, transport=transport, framing=framing)
        return conn.subscriber

    def publish(self, sid: str, **props) -> list[Subscriber]:
        """Publish and collect the wake exactly as ``_on_publish`` does."""
        seq = self.stores[sid].publish_status("session", 0, **props)
        return (self.scheduler.notify(sid, seq)
                + self.scheduler.push_targets(sid, seq))


@pytest.fixture()
def rig() -> Rig:
    return Rig()


class TestMixedHerd:
    def test_one_encode_and_each_transport_gets_its_framing(self, rig):
        store = rig.stores["a"]
        polls = [rig.poll("a", 0) for _ in range(3)]
        sse = rig.stream("a", 0, "sse", FRAME_SSE)
        ws = rig.stream("a", 0, "ws", FRAME_WS)
        woken = rig.publish("a", tick=1)
        assert len(woken) == 5
        before = store.json_encodes
        rig.delivery.deliver(woken)
        assert store.json_encodes - before == 1
        body = store.framed_delta_with_head(0, FRAME_JSON)[0]
        expected = _render_head(200, "application/json", len(body), True) + body
        for poll in polls:
            assert poll.handle.sent == [expected]
        assert sse.handle.sent == [store.framed_delta_with_head(0, FRAME_SSE)[0]]
        assert ws.handle.sent == [store.framed_delta_with_head(0, FRAME_WS)[0]]
        assert store.json_encodes - before == 1  # the comparisons were cache hits
        assert json.loads(body)["components"][0]["props"]["tick"] == 1

    def test_polls_detach_and_streams_advance(self, rig):
        poll = rig.poll("a", 0)
        sse = rig.stream("a", 0, "sse", FRAME_SSE)
        rig.delivery.deliver(rig.publish("a", tick=1))
        head = rig.stores["a"].seq
        assert poll.handle.subscriber is None and poll.done
        assert rig.scheduler.pending() == 0
        assert sse.handle.subscriber is sse and sse.since == head
        assert rig.scheduler.subscribers() == 1
        assert rig.delivery.polls_served == 1
        counters = rig.delivery.transports
        assert counters["longpoll"]["delivered"] == 1
        assert counters["sse"]["delivered"] == 1

    def test_herd_shares_one_rendered_response_per_keep_alive_shape(self, rig):
        keep = [rig.poll("a", 0) for _ in range(2)]
        close = rig.poll("a", 0, keep_alive=False)
        rig.delivery.deliver(rig.publish("a", tick=1))
        assert keep[0].handle.sent[0] is keep[1].handle.sent[0]  # one buffer
        assert close.handle.sent[0].startswith(b"HEAD 200")
        assert b" 0|" in close.handle.sent[0] and close.handle.close_after
        assert not keep[0].handle.close_after

    def test_pipelined_input_resumes_after_the_poll_is_answered(self, rig):
        poll = rig.poll("a", 0)
        poll.handle.inbuf += b"GET / HTTP/1.1\r\n\r\n"
        idle = rig.poll("a", 0)
        rig.delivery.deliver(rig.publish("a", tick=1))
        assert rig.resumed == [poll.handle]
        assert idle.handle.sent

    def test_every_woken_transport_feeds_the_wake_gauge(self, rig):
        rig.poll("a", 0)
        rig.stream("a", 0, "sse", FRAME_SSE)
        rig.stream("a", 0, "ws", FRAME_WS)
        woken = rig.publish("a", tick=1)
        for rec in woken:
            rec.woken_at = 1e-9  # stamped by the publish path
        rig.delivery.deliver(woken)
        assert rig.delivery.wakes_measured == 3


class TestNothingNew:
    def test_expired_poll_gets_the_timeout_delta(self, rig):
        head = rig.stores["a"].publish_status("session", 0, tick=0)
        poll = rig.poll("a", head, deadline=5.0)
        expired = rig.scheduler.expire_due(6.0)
        assert expired == [poll]
        rig.delivery.deliver(expired)
        (response,) = poll.handle.sent
        delta = json.loads(response.split(b"|", 1)[1])
        assert delta["timeout"] is True and delta["components"] == []
        assert poll.handle.subscriber is None

    def test_duplicate_wake_on_a_stream_enqueues_nothing(self, rig):
        sse = rig.stream("a", 0, "sse", FRAME_SSE)
        woken = rig.publish("a", tick=1)
        rig.delivery.deliver(woken)
        assert len(sse.handle.sent) == 1
        encodes = rig.stores["a"].json_encodes
        rig.delivery.deliver(woken)  # store.seq <= since now
        assert len(sse.handle.sent) == 1
        assert rig.stores["a"].json_encodes == encodes

    def test_stream_queued_twice_in_one_batch_is_delivered_once(self, rig):
        sse = rig.stream("a", 0, "sse", FRAME_SSE)
        woken = rig.publish("a", tick=1) + rig.publish("a", tick=2)
        assert woken == [sse, sse]
        rig.delivery.deliver(woken)
        assert len(sse.handle.sent) == 1 and sse.since == rig.stores["a"].seq

    def test_closed_or_answered_connections_are_skipped(self, rig):
        gone = rig.poll("a", 0)
        gone.handle.closed = True
        answered = rig.poll("a", 0)
        answered.handle.subscriber = None
        rig.delivery.deliver(rig.publish("a", tick=1))
        assert gone.handle.sent == [] and answered.handle.sent == []


class TestSessionGone:
    def test_each_transport_says_goodbye_its_own_way(self, rig):
        poll = rig.poll("a", 0)
        sse = rig.stream("a", 0, "sse", FRAME_SSE)
        ws = rig.stream("a", 0, "ws", FRAME_WS)
        del rig.stores["a"]
        dropped = rig.scheduler.drop_key("a")
        assert all(rec.done for rec in dropped)  # still answered below
        rig.delivery.deliver(dropped)
        assert poll.handle.errors == [(404, "not_found")]
        assert sse.handle.sent == [sse_comment_chunk(b"session closed"),
                                   b"0\r\n\r\n"]
        assert ws.handle.sent == [ws_server_frame(b"\x03\xe8", WS_CLOSE)]
        assert sse.handle.close_after and ws.handle.close_after
        for rec in (poll, sse, ws):
            assert rec.handle.subscriber is None
        assert rig.delivery.transports["sse"]["farewells"] == 1
        assert rig.delivery.transports["ws"]["farewells"] == 1

    def test_stream_still_registered_is_removed_on_farewell(self, rig):
        ws = rig.stream("a", 0, "ws", FRAME_WS)
        woken = rig.publish("a", tick=1)
        del rig.stores["a"]  # evicted between publish and delivery
        rig.delivery.deliver(woken)
        assert ws.done and rig.scheduler.subscribers() == 0


class TestDeliveryErrors:
    def test_failing_session_is_counted_and_closed_others_still_served(
            self, rig, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("frame cache exploded")

        monkeypatch.setattr(rig.stores["a"], "framed_delta_with_head", boom)
        doomed = [rig.poll("a", 0), rig.stream("a", 0, "sse", FRAME_SSE)]
        healthy = [rig.poll("b", 0) for _ in range(3)]
        batch = rig.publish("a", tick=1) + rig.publish("b", tick=1)
        rig.delivery.deliver(batch)  # one pass
        assert all(rec.handle.closed and not rec.handle.sent for rec in doomed)
        assert all(len(rec.handle.sent) == 1 for rec in healthy)
        assert not any(rec.handle.closed for rec in healthy)
        # one count per failed group: the JSON herd and the SSE group
        assert rig.delivery.delivery_errors == 2


class TestBoundedWindowRegistry:
    def test_a_bound_poll_keeps_its_window_while_other_wids_churn(self, rig):
        """Delivery reads the bound window's key, which keeps it the most
        recently used: MAX_WINDOWS - 1 strangers between two deliveries
        cannot push it out of the registry."""
        store = rig.stores["a"]
        source = WindowedDomainSource(
            Octree(StructuredGrid(np.zeros((33, 33, 33), np.float32)), leaf_cells=16))
        store.set_window_source(source)
        mine = WindowCursor((0, 0, 0), (17, 17, 17), 0)
        source.set_cursor("mine", mine)
        strangers = 0
        for step in range(3):
            for _ in range(MAX_WINDOWS - 1):
                source.set_cursor(f"stranger{strangers}",
                                  WindowCursor((16, 16, 16), (33, 33, 33), 0))
                strangers += 1
            poll = rig.poll("a", store.seq)
            poll.handle.window_source, poll.handle.window_wid = source, "mine"
            seq = store.publish_window_step(step)
            rig.delivery.deliver(rig.scheduler.notify("a", seq))
            delta = json.loads(poll.handle.sent[0].split(b"|", 1)[1])
            assert delta["window"] == mine.to_props()
            assert {m["brick"] for m in delta["bricks"]} == {0}
        assert source.stats()["windows"] == MAX_WINDOWS
        assert source.cursor("stranger0") is None
