"""monitor_poll: the same frames, pulled the paper's Ajax way.

Why it exists: it shares ``web.server`` and ``steering.events`` with
``monitor_push`` but uses them differently — request parse, route, park,
``notify`` and one shared herd response per update instead of a persistent
subscriber.  The pair shows whether a gain for push costs poll.

Two long-poll viewers on two keep-alive connections, both driven by the main
thread: it writes on one socket while the server answers on the other, as two
browsers would, but no second generator thread competes with the server for
the interpreter lock (with one, the rate measured the lock's 5 ms hand-over,
not the program).  Each publish wakes both parked polls; each viewer fetches
``image?v=`` and polls again; the publisher goes on when both hold the blob
and have *sent* their next poll (never a look at server state).

update: ``publish_image`` called -> a viewer holds the fetched blob (two
per publish).
action: every 20th publish, the cold ``image.png?v=`` snapshot on viewer
0's connection, between its blob and its next poll.
"""

from __future__ import annotations

import json
import time

from bench.harness import API
from bench.httpc import HttpConn
from bench.workloads.base import (SNAPSHOT_EVERY, VERIFY_EVERY, DeltaCheck,
                                  Workload, blob_matches, capture_frames,
                                  png_matches)

SID = "monitor"


class _Viewer:
    """One long-polling browser stand-in on its own connection."""

    def __init__(self, port: int, tracer, since: int) -> None:
        self.conn = HttpConn(port, tracer)
        self.check = DeltaCheck(since)

    def send_poll(self) -> None:
        self.conn.send(
            "GET", f"{API}/{SID}/poll?since={self.check.version}&timeout=25")

    def take_poll(self) -> tuple[bool, int]:
        """Read the woken poll and ask for the blob it announces: (ok, version)."""
        with self.conn.tracer.span("web.server.rtt.poll_wake"):
            status, body = self.conn.recv()
        delta = json.loads(body)
        images = [c for c in delta["components"] if c["id"] == "image"]
        version = images[-1]["version"] if images else 0
        self.conn.send("GET", f"{API}/{SID}/image?v={version}")
        return status == 200 and self.check(delta) and len(images) == 1, version

    def take_blob(self) -> tuple[int, bytes]:
        with self.conn.tracer.span("web.server.rtt.image"):
            return self.conn.recv()


class MonitorPoll(Workload):
    name = "monitor_poll"
    warmup_ops = 100

    def setup(self, tb) -> None:
        self.frames = capture_frames(self.seed, self.scale)
        self.store = tb.manager.open_monitor(SID)
        self.viewers = [_Viewer(tb.port, self.tracer, self.store.seq)
                        for _ in range(2)]
        self.conns = [v.conn for v in self.viewers]
        self.published = 0
        for viewer in self.viewers:
            viewer.send_poll()

    def step(self, rec) -> None:
        index = self.published
        self.published += 1
        frame = self.frames[index % len(self.frames)]
        span = self.tracer.span
        with span("update", op=index):
            started = time.perf_counter()
            with span("steering.events.publish_image"):
                seq = self.store.publish_image(frame, cycle=index)
            polled = [viewer.take_poll() for viewer in self.viewers]
            for viewer, (ok, version) in zip(self.viewers, polled):
                status, blob = viewer.take_blob()
                done = time.perf_counter()
                ok = (ok and version == seq and status == 200
                      and len(blob) == self.store.file_size)
                if ok and index % VERIFY_EVERY == 0:
                    ok = blob_matches(blob, frame)
                if rec is not None:
                    rec.update(started, done, ok)
        if index % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
            with span("action", op=index):
                started = time.perf_counter()
                status, body = self.viewers[0].conn.request(
                    "web.server.rtt.image_png_cold", "GET",
                    f"{API}/{SID}/image.png?v={seq}")
                done = time.perf_counter()
                if rec is not None:
                    rec.action(started, done,
                               status == 200 and png_matches(body, frame))
        for viewer in self.viewers:
            viewer.send_poll()
