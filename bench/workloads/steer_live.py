"""steer_live: the paper's loop — simulate, visualize, deliver, steer.

Why it exists: it is the only workload where ``sims``, ``viz.isosurface``,
``viz.render`` and ``steering.loop`` do the work (a frame costs ~100 ms of
CPU, its delivery ~1 ms), so a render or solver change moves only this
workload and a serving-path change must not move it.

A bow-shock session steps on the shared thread executor behind the server.
One viewer long-polls and fetches each announced frame with ``GET image?v=``
on the same connection; a second connection carries ``POST steer``.

update: frame published (stamped from outside by a store listener) -> the
viewer has fetched and decoded its 256 KiB blob.
action: every 4th frame, ``POST steer`` with a seeded ``wind_speed`` sent ->
receipt of the second image sequenced after the ``steering`` event (the
first frame that certainly stepped with the new parameter).
"""

from __future__ import annotations

import json
import time

import numpy as np

from bench.harness import API
from bench.httpc import HttpConn
from bench.workloads.base import (VERIFY_EVERY, DeltaCheck, Workload, pre_cycles,
                                  sim_shape, wind_speeds)
from repro.viz.image import decode_fixed_size

SID = "bowshock"
STEER_EVERY = 4
#: Far more cycles than any window can consume; the run ends by shutdown.
N_CYCLES = 1_000_000


class SteerLive(Workload):
    name = "steer_live"
    warmup_ops = 8

    def setup(self, tb) -> None:
        session = tb.manager.create(
            SID, configure=False, simulator="bowshock", variable="pressure",
            technique="isosurface", sim_kwargs={"shape": sim_shape(self.scale)}, push_every=1)
        tb.client.session = session
        session.simulation.run(pre_cycles(self.scale))
        session.configure()
        self.store = session.events
        self.published_at: dict[int, float] = {}
        self.store.add_listener(self._stamp)
        self.viewer = HttpConn(tb.port, self.tracer)
        self.steerer = HttpConn(tb.port, self.tracer)
        self.conns = [self.viewer, self.steerer]
        self.check = DeltaCheck(self.store.seq)
        self.frames_seen = 0
        self._next_steer = 0  # the frame count at which the next steer is due
        self._steer: dict | None = None  # the action in flight
        self.session = session
        self.speeds = wind_speeds(self.rng)
        self.steers = 0
        self._rec = None  # the recorder of the window being measured

    def _stamp(self, seq: int) -> None:
        """Store listener, on the session's thread: the publish time of ``seq``.

        This is also where the reference kernel runs.  The listener was
        registered before the server's, so at this moment nothing is awake but
        the publishing thread: the viewer is parked, the IO thread has not been
        told yet.  The kernel's time is excluded from the window, and the
        update is stamped after it; it is skipped while an action is in flight.
        """
        rec = self._rec
        if rec is not None and self._steer is None and rec.reference_due():
            rec.reference()
        self.published_at[seq] = time.perf_counter()

    def warmup(self) -> None:
        self.session.start_background(N_CYCLES)
        while self.frames_seen < self.warmup_ops:
            self.step(None)

    def run(self, rec) -> None:
        self._rec = rec
        try:
            while rec.running():
                self.step(rec)
        finally:
            self._rec = None

    def step(self, rec) -> None:
        """One long poll; then, between two actions, the next ``POST steer``."""
        self._poll(rec)
        if self._steer is None and self.frames_seen >= self._next_steer:
            self._next_steer = self.frames_seen + STEER_EVERY
            self._post_steer(measured=rec is not None)

    def _poll(self, rec) -> None:
        """One long poll, then every frame and steering echo it announces."""
        status, body = self.viewer.request(
            "web.server.rtt.poll", "GET",
            f"{API}/{SID}/poll?since={self.check.version}&timeout=25")
        delta = json.loads(body)
        delta_ok = status == 200 and self.check(delta)
        for comp in delta["components"]:
            if comp["id"] == "image":
                self._frame(comp["version"], delta_ok, rec)
            elif comp["id"] == "params" and self._steer is not None:
                self._steer["seq"] = comp["version"]
                self._steer["ok"] &= comp["props"] == self._steer["params"]

    def _frame(self, version: int, delta_ok: bool, rec) -> None:
        with self.tracer.span("update", op=version):
            status, blob = self.viewer.request(
                "web.server.rtt.image", "GET", f"{API}/{SID}/image?v={version}")
            ok = delta_ok and status == 200 and len(blob) == self.store.file_size
            image = decode_fixed_size(blob) if ok else None
            done = time.perf_counter()
            if ok and self.frames_seen % VERIFY_EVERY == 0:
                ok = np.array_equal(
                    image.pixels, self.store.image_record(version).image.pixels)
        self.frames_seen += 1
        published = self.published_at.pop(version, None)
        if rec is not None:
            rec.update(published or done, done, ok and published is not None)
        steer = self._steer
        if steer is not None and version > steer.get("seq", version):
            steer["frames"] += 1
            if steer["frames"] == 2:
                if rec is not None and steer["measured"]:
                    rec.action(steer["started"], done, steer["ok"])
                self._steer = None

    def _post_steer(self, measured: bool) -> None:
        params = {"wind_speed": self.speeds[self.steers % len(self.speeds)]}
        self.steers += 1
        started = time.perf_counter()
        status, body = self.steerer.request(
            "web.server.rtt.steer", "POST", f"{API}/{SID}/steer", params)
        self._steer = {
            "params": params, "started": started, "frames": 0,
            "measured": measured,
            "ok": status == 200 and json.loads(body).get("staged") == params,
        }
