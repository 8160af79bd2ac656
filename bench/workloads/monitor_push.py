"""monitor_push: big frames pushed to one WebSocket subscriber.

Why it exists: the bytes-bound serving path with no request parsing per
update — ``encode_fixed_size``, ``publish_image``, the ``FRAME_WS_BINARY``
framing and a ``sendmsg`` of a 256 KiB buffer.  A render or solver change
must not move it; a framing or write-path change must.

update: ``publish_image`` called -> the subscriber has parsed and decoded
the binary delta and holds the blob.
action: every 20th publish, ``GET image.png?v=<that version>`` on a second
keep-alive connection — a cold PNG encode through the worker-pool offload.
"""

from __future__ import annotations

import time

from bench.harness import API
from bench.httpc import HttpConn, WsConn
from bench.workloads.base import (SNAPSHOT_EVERY, VERIFY_EVERY, DeltaCheck,
                                  Workload, blob_matches, capture_frames,
                                  png_matches)
from repro.web.framing import decode_binary_delta

SID = "monitor"


class MonitorPush(Workload):
    name = "monitor_push"
    warmup_ops = 100

    def setup(self, tb) -> None:
        self.frames = capture_frames(self.seed, self.scale)
        self.store = tb.manager.open_monitor(SID)
        since = self.store.seq
        self.ws = WsConn(tb.port, self.tracer,
                         f"{API}/{SID}/ws?images=binary&since={since}")
        self.http = HttpConn(tb.port, self.tracer)
        self.conns = [self.ws, self.http]
        self.check = DeltaCheck(since)
        self.published = 0

    def step(self, rec) -> None:
        index = self.published
        self.published += 1
        frame = self.frames[index % len(self.frames)]
        span = self.tracer.span
        with span("update", op=index):
            started = time.perf_counter()
            with span("steering.events.publish_image"):
                seq = self.store.publish_image(frame, cycle=index)
            with span("web.server.rtt.ws_push"):
                payload = self.ws.recv_binary()
            with span("web.framing.decode_binary"):
                delta = decode_binary_delta(payload)
            done = time.perf_counter()
            images = [c for c in delta["components"] if c["id"] == "image"]
            ok = (self.check(delta) and len(images) == 1
                  and images[0]["version"] == seq
                  and len(images[0]["props"]["blob"]) == self.store.file_size)
            if ok and index % VERIFY_EVERY == 0:
                ok = blob_matches(images[0]["props"]["blob"], frame)
            if rec is not None:
                rec.update(started, done, ok)
        if index % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
            with span("action", op=index):
                started = time.perf_counter()
                status, body = self.http.request(
                    "web.server.rtt.image_png_cold", "GET",
                    f"{API}/{SID}/image.png?v={seq}")
                done = time.perf_counter()
                if rec is not None:
                    rec.action(started, done,
                               status == 200 and png_matches(body, frame))
