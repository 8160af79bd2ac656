"""window_pan: the out-of-core sliding-window plane.

Why it exists: the work sits in ``data.octree``, ``window.source``,
``window.bricks`` and the offloaded brick route; ``viz``/``sims`` and the
image framings do nothing, so it is the control for every change to those.

A monitor store serves ``WindowedDomainSource(Octree(129^3 seeded f32,
leaf_cells=16))``.  One connection; the generator is single-threaded.

action: ``POST window`` moves a 33^3-sample viewport one brick along its
tour (every 8th iteration toggles LOD 0 <-> 1) -> every brick the client
lacks is fetched with ``GET brick``, decoded, and the viewport is complete
(coverage 1.0).
update: ``publish_window_step`` dirties a seeded 8^3 box inside one seeded
brick of the viewport -> the already-sent ``poll?window=`` returns the
announce list -> the dirty brick is refetched and decoded.

The tour is one fixed snake through all 7^3 viewport positions and back, each
step one brick along one axis, mostly straight on (which is what the source's
prefetch bets on).  The seed picks where on the tour the run starts and which
of the cube's 48 symmetries the tour is seen through, so every seed fetches the
same mix of bricks and bytes per update do not depend on the seed.

The client keeps only the bricks of its current viewport, as a viewer with a
window-sized buffer does: a pan reuses the overlap and fetches the newly
visible bricks, a LOD toggle fetches the whole window.  (A client that kept
every brick it ever saw would fetch less and less as the run went on, and
bytes per update would depend on how long the run was.)
"""

from __future__ import annotations

import json
import time

import numpy as np

from bench.harness import API
from bench.httpc import HttpConn
from bench.workloads.base import VERIFY_EVERY, DeltaCheck, Workload
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.web.framing import decode_brick_payload
from repro.window import WindowCursor, WindowedDomainSource, WindowView

SID = "domain"
WID = "w"
DOMAIN = 129
LEAF_CELLS = 16
VIEWPORT = 33
DIRTY = 8
LOD_EVERY = 8
_SIDE = (DOMAIN - VIEWPORT) // LEAF_CELLS + 1  # viewport positions per axis
_TOUR = 2 * _SIDE ** 3 - 2  # there and back, the two ends visited once


def tour(k: int) -> list[int]:
    """Viewport position ``k`` of the snake: neighbours differ by one brick."""
    k %= _TOUR
    if k >= _SIDE ** 3:
        k = _TOUR - k
    z, r = divmod(k, _SIDE * _SIDE)
    if z % 2:
        r = _SIDE * _SIDE - 1 - r
    y, x = divmod(r, _SIDE)
    if y % 2:
        x = _SIDE - 1 - x
    return [x, y, z]


def dirty_box(rng, lo) -> tuple[tuple, tuple]:
    """A seeded 8^3 box inside one seeded brick of the viewport at ``lo``.

    It stays inside that brick at either LOD, so exactly one brick is dirty
    and bytes per update do not depend on where the seed puts the box.
    """
    bricks = (VIEWPORT - 1) // LEAF_CELLS
    corner = tuple(
        v + LEAF_CELLS * int(b) + int(o) for v, b, o in
        zip(lo, rng.integers(0, bricks, 3),
            rng.integers(0, LEAF_CELLS - DIRTY + 1, 3)))
    return corner, tuple(v + DIRTY for v in corner)


class WindowPan(Workload):
    name = "window_pan"
    warmup_ops = 200

    def setup(self, tb) -> None:
        grid = StructuredGrid(
            self.rng.random((DOMAIN,) * 3, dtype=np.float32))
        self.tree = Octree(grid, leaf_cells=LEAF_CELLS)
        self.store = tb.manager.open_monitor(SID)
        self.store.set_window_source(WindowedDomainSource(self.tree))
        self.store.publish_window_step(0)
        self.conn = HttpConn(tb.port, self.tracer)
        self.conns = [self.conn]
        self.check = DeltaCheck(self.store.seq)
        self.held: dict[tuple[int, int], dict] = {}
        self.fetched = 0
        self.refetched = 0  # fetches caused by a publish, not by a pan
        self.iteration = 0
        self.start = int(self.rng.integers(0, _TOUR))
        self.axes = [int(a) for a in self.rng.permutation(3)]
        self.mirrored = [bool(m) for m in self.rng.integers(0, 2, 3)]
        self.lod = 0

    def layer_counts(self) -> dict:
        return {"fetches_per_update": self.fetched / max(self.iteration, 1),
                "refetches_per_update": self.refetched / max(self.iteration, 1)}

    def _position(self, iteration: int) -> list[int]:
        """The tour's position for ``iteration`` under this seed's symmetry."""
        at = tour(self.start + iteration)
        return [_SIDE - 1 - at[a] if m else at[a]
                for a, m in zip(self.axes, self.mirrored)]

    def _fetch(self, meta: dict) -> bool:
        """``GET brick`` + decode; keeps the brick; False on a wrong answer."""
        lod, index = meta["lod"], meta["brick"]
        status, body = self.conn.request(
            "web.server.rtt.brick", "GET",
            f"{API}/{SID}/brick?lod={lod}&id={index}")
        if status != 200:
            return False
        with self.tracer.span("window.bricks.decode"):
            decoded = decode_brick_payload(body)
        self.held[(lod, index)] = decoded
        self.fetched += 1
        ok = decoded["version"] >= meta["version"] and decoded["brick"] == index
        if ok and self.fetched % VERIFY_EVERY == 0:
            brick = self.tree.bricks(lod)[index]
            ok = np.array_equal(decoded["values"], self.tree.brick_values(brick))
        return ok

    def _refresh(self, metas: list[dict]) -> bool:
        """Fetch every announced brick the client lacks or holds stale."""
        ok = True
        for meta in metas:
            held = self.held.get((meta["lod"], meta["brick"]))
            if held is None or held["version"] < meta["version"]:
                ok &= self._fetch(meta)
        return ok

    def step(self, rec) -> None:
        index = self.iteration
        self.iteration += 1
        if index % LOD_EVERY == LOD_EVERY - 1:
            self.lod ^= 1
        span = self.tracer.span
        lo = [p * LEAF_CELLS for p in self._position(self.iteration)]
        hi = [v + VIEWPORT for v in lo]

        with span("action", op=index):
            started = time.perf_counter()
            status, body = self.conn.request(
                "web.server.rtt.window_set", "POST", f"{API}/{SID}/window",
                {"lo": lo, "hi": hi, "lod": self.lod, "wid": WID})
            resp = json.loads(body)
            ok = status == 200 and self._refresh(resp["bricks"])
            visible = {(m["lod"], m["brick"]) for m in resp["bricks"]}
            self.held = {k: v for k, v in self.held.items() if k in visible}
            view = WindowView(WindowCursor.from_props(resp["window"]))
            for key in visible:
                view.apply(self.held[key])
            done = time.perf_counter()
            ok = ok and view.coverage == 1.0 and resp["window"]["lod"] == self.lod
            self.check.version = resp["version"]
            if rec is not None:
                rec.action(started, done, ok)

        self.conn.send(
            "GET", f"{API}/{SID}/poll?since={self.check.version}"
                   f"&timeout=25&window={WID}")
        box = dirty_box(self.rng, lo)
        with span("update", op=index):
            started = time.perf_counter()
            with span("steering.events.publish_window_step"):
                seq = self.store.publish_window_step(index, box)
            with span("web.server.rtt.poll_wake"):
                status, body = self.conn.recv()
            delta = json.loads(body)
            before = self.fetched
            ok = (status == 200 and self.check(delta) and delta["version"] == seq
                  and len(delta["bricks"]) == 1 and self._refresh(delta["bricks"]))
            done = time.perf_counter()
            self.refetched += self.fetched - before
            ok = ok and all(
                self.held[(m["lod"], m["brick"])]["version"] == seq
                for m in delta["bricks"])
            if rec is not None:
                rec.update(started, done, ok)
