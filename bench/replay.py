"""The layer replay: per-layer cost, with no workload running.

The same seeded inputs the workloads use (solver steps, grids, frames,
cursors, dirty boxes) are pushed through each layer's public functions in
pipeline order without sockets, one root span per operation, so a layer's
cost is the median duration of its spans.  The ``web.server`` layer cannot be
entered without a socket: its routes are probed one at a time on an idle
server and timed from outside (request written -> response complete).

Spans are recorded from here, around the calls into each layer; spans inside
the program are a later change.  :func:`shares` then prices a workload's
update as the sum of the layer calls it makes.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict

import numpy as np

from bench.harness import API, Testbed, percentile
from bench.httpc import HttpConn, WsConn
from bench.workloads.base import (SNAPSHOT_EVERY, pre_cycles, sim_shape,
                                  wind_speeds)
from bench.workloads.window_pan import DOMAIN, LEAF_CELLS, VIEWPORT, dirty_box
from repro.adaptive.controller import AdaptiveDeliveryController
from repro.data.grid import StructuredGrid
from repro.data.octree import Octree
from repro.mapping.dp import map_pipeline
from repro.net.measurement import PathEstimate
from repro.sims.base import SteerableSimulation
from repro.sims.registry import create_simulation
from repro.steering.api import RICSA_StartupSimulationServer, run_steered_cycles
from repro.steering.bus import MessageBus
from repro.steering.events import (FRAME_JSON, FRAME_SSE, FRAME_WS,
                                   FRAME_WS_BINARY, WS_BINARY, EventSequenceStore,
                                   ws_server_frame)
from repro.steering.executor import SimulationExecutor
from repro.steering.messages import Message
from repro.viz.camera import OrthoCamera
from repro.viz.image import encode_fixed_size
from repro.viz.isosurface import extract_isosurface
from repro.viz.render import render_mesh
from repro.web.framing import decode_binary_delta, parse_ws_frames
from repro.web.longpoll import LongPollScheduler
from repro.window import (WindowCursor, WindowedDomainSource,
                          decode_brick_payload, encode_brick_payload)

__all__ = ["run", "shares", "LAYERS", "ROUTES"]

#: Layers of the share table, by module name.
LAYERS = ("sims", "viz.isosurface", "viz.render", "viz.image", "steering.loop",
          "steering.session", "steering.events", "web.framing", "web.server",
          "data.octree", "window.source", "window.bricks")
#: Routes probed for ``web.server.rtt_ms.*`` / ``web.server.self_ms.*``.
ROUTES = ("poll_ready", "poll_wake", "image", "image_png_cold", "state",
          "steer", "window_set", "brick", "ws_push")
HERD = 1000
_SPIN_LIMIT = 5.0


class _Clock:
    """Times calls into a layer: one span per call, seconds per call kept."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)

    def __call__(self, name: str, fn, inner: int = 1):
        """Run ``fn`` ``inner`` times inside one span; returns its last result."""
        with self.tracer.span(name):
            started = time.perf_counter()
            for _ in range(inner):
                out = fn()
            elapsed = time.perf_counter() - started
        self.samples[name].append(elapsed / inner)
        return out

    def median(self, name: str, scale: float) -> float:
        return statistics.median(self.samples[name]) * scale


def run(seed: int, tracer, scale: float, calibration, calibration_s: float):
    """All per-layer metrics as ``{name: (value, unit)}`` plus (checks, failed)."""
    clock = _Clock(tracer)
    out: dict[str, tuple[float, str]] = {}
    checks = [0, 0]

    def check(ok: bool) -> None:
        checks[0] += 1
        checks[1] += not ok

    tb = Testbed(calibration)
    try:
        images = _replay_frames(seed, clock, tb, out, check, scale)
        _replay_session(clock, out, max(50, int(2000 * scale)))
        _replay_executor(out, max(200, int(10_000 * scale)))
        _replay_longpoll(out, check)
        tree = _replay_window(seed, clock, out, check, max(8, int(64 * scale)))
        _replay_decisions(clock, tb, out, calibration_s, max(3, int(20 * scale)))
        _probe_routes(clock, tb, tree, images, out, check,
                      max(8, int(100 * scale)))
    finally:
        tb.close()
    return out, tuple(checks)


# -- compute and image path ---------------------------------------------------


def _replay_frames(seed, clock, tb, out, check, scale: float) -> list:
    """sim.step -> extract -> render -> encode -> publish -> frame -> parse.

    Four frames per steered value, through the whole ladder of values as
    ``steer_live`` goes through it: a frame's cost depends on the value.
    """
    speeds = wind_speeds(np.random.default_rng(seed))
    frames = max(3, int(4 * len(speeds) * scale))
    sim = create_simulation("bowshock", shape=sim_shape(scale))
    sim.run(pre_cycles(scale))
    session = tb.manager.create(
        "frames", configure=False, simulator="bowshock", variable="pressure",
        technique="isosurface", sim_kwargs={"shape": sim_shape(scale)})
    session.simulation.run(pre_cycles(scale))
    session.configure()
    vrt, runner = session.decision.vrt, session.runner
    camera = OrthoCamera.framing(*sim.get_field("pressure").bounds(),
                                 width=192, height=192)
    # One store per framing, so each framing's first build of a window is a
    # true miss (the SSE and WS text framings otherwise wrap a cached base).
    stores = {f: EventSequenceStore() for f in
              (FRAME_JSON, FRAME_SSE, FRAME_WS_BINARY, "herd")}
    size = stores[FRAME_JSON].file_size
    images, triangles, glue, encodes = [], [], [], []
    for index in range(frames):
        with clock.tracer.span("replay.frame", op=index):
            if index % 4 == 0:
                sim.apply_steering({"wind_speed": speeds[index // 4 % len(speeds)]})
            clock("sims.step", sim.step)
            grid = sim.get_field("pressure")
            params = {"isovalue": grid.vmin + 0.5 * (grid.vmax - grid.vmin),
                      "camera": camera, "max_triangles": 60_000}
            mesh = clock("viz.isosurface.extract",
                         lambda: extract_isosurface(grid, params["isovalue"]))
            image = clock("viz.render.mesh",
                          lambda: render_mesh(mesh, camera, max_triangles=60_000))
            cycle = clock("steering.loop.run_cycle",
                          lambda: runner.run_cycle(vrt, grid, params, cycle=index))
            check(np.array_equal(cycle.image.pixels, image.pixels))
            glue.append(clock.samples["steering.loop.run_cycle"][-1]
                        - clock.samples["viz.isosurface.extract"][-1]
                        - clock.samples["viz.render.mesh"][-1])
            triangles.append(mesh.n_triangles)
            images.append(image)
            encode_fixed_size(image, size)  # touch the pixels: both timings warm
            clock("viz.image.encode_fixed", lambda: encode_fixed_size(image, size))

            since = {f: s.seq for f, s in stores.items()}
            store = stores[FRAME_JSON]
            seq = clock("steering.events.publish_image",
                        lambda: store.publish_image(image, cycle=index))
            for framing in (FRAME_SSE, FRAME_WS_BINARY, "herd"):
                stores[framing].publish_image(image, cycle=index)
            clock("steering.events.frame_miss.json",
                  lambda: store.framed_delta(since[FRAME_JSON], FRAME_JSON))
            clock("steering.events.frame_hit",
                  lambda: store.framed_delta(since[FRAME_JSON], FRAME_JSON), inner=50)
            clock("steering.events.frame_miss.sse",
                  lambda: stores[FRAME_SSE].framed_delta(since[FRAME_SSE], FRAME_SSE))
            frame = clock(
                "steering.events.frame_miss.ws_binary",
                lambda: stores[FRAME_WS_BINARY].framed_delta(
                    since[FRAME_WS_BINARY], FRAME_WS_BINARY))
            wire = bytearray(frame)
            payload = clock("web.framing.parse_ws",
                            lambda: parse_ws_frames(wire, require_mask=False))[0][1]
            clock("web.framing.ws_frame", lambda: ws_server_frame(payload, WS_BINARY))
            delta = clock("web.framing.decode_binary",
                          lambda: decode_binary_delta(payload))
            blob = clock("steering.events.image_blob",
                         lambda: store.image_blob(seq), inner=50)
            check(delta["components"][-1]["props"]["blob"] == blob)
            clock("viz.image.png", lambda: store.image_png(seq))
            clock("steering.events.publish_status",
                  lambda: store.publish_status("session", index, frame=index))
            # A herd at one cursor: two pollers, an SSE and a WS text stream.
            herd = stores["herd"]
            before = herd.json_encodes
            for framing in (FRAME_JSON, FRAME_JSON, FRAME_SSE, FRAME_WS):
                herd.framed_delta(since["herd"], framing)
            encodes.append(herd.json_encodes - before)

    for name in ("sims.step", "viz.isosurface.extract", "viz.render.mesh",
                 "steering.loop.run_cycle", "viz.image.encode_fixed",
                 "steering.events.publish_image", "viz.image.png"):
        out[name + "_ms"] = (clock.median(name, 1e3), "ms")
    out["steering.loop.glue_ms"] = (statistics.median(glue) * 1e3, "ms")
    out["viz.isosurface.triangles"] = (statistics.median(triangles), "count")
    for name in ("steering.events.image_blob", "steering.events.frame_hit",
                 "steering.events.publish_status", "web.framing.ws_frame",
                 "web.framing.parse_ws", "web.framing.decode_binary"):
        out[name + "_us"] = (clock.median(name, 1e6), "us")
    for framing in ("json", "ws_binary", "sse"):
        out[f"steering.events.frame_miss_us.{framing}"] = (
            clock.median(f"steering.events.frame_miss.{framing}", 1e6), "us")
    out["steering.events.json_encodes_per_publish"] = (
        statistics.fmean(encodes), "count")
    return images


class _IdleSimulation(SteerableSimulation):
    """A solver whose step costs nothing, so a frame is only its glue."""

    name = "idle"

    def __init__(self) -> None:
        super().__init__()
        self._grid = StructuredGrid(np.zeros((2, 2, 2), dtype=np.float32))

    @classmethod
    def param_specs(cls) -> list:
        return []

    def variables(self) -> list[str]:
        return ["zero"]

    def get_field(self, variable: str) -> StructuredGrid:
        return self._grid

    def _advance(self) -> None:
        pass


def _replay_session(clock, out, cycles: int) -> None:
    """The Fig. 7 loop around an idle solver and a consumer that does nothing.

    What is left of ``step -> push -> handle-message`` when its children are
    free is the per-frame glue the session adds: the bus mailbox poll, the
    push hook, the state machine.  (Subtracting replayed children from a live
    ``session.run`` cannot resolve it: the glue is tens of microseconds, the
    children tens of milliseconds.)
    """
    bus = MessageBus()
    server = RICSA_StartupSimulationServer(
        _IdleSimulation(), bus, data_consumer=lambda grid, cycle: None)
    bus.send(server.node_name, Message.simulation_request("idle", "zero"))
    server.RICSA_WaitAcceptConnection(timeout=5.0)
    for _ in range(5):
        clock("steering.session.frame",
              lambda: run_steered_cycles(server, cycles), inner=1)
    out["steering.session.frame_overhead_ms"] = (
        clock.median("steering.session.frame", 1e3) / cycles, "ms")


def _replay_executor(out, slices: int) -> None:
    """No-op slices through ``SimulationExecutor.submit``: the cost of a slice."""
    executor = SimulationExecutor()
    finished = threading.Event()
    remaining = [slices]

    def step() -> bool:
        remaining[0] -= 1
        return remaining[0] > 0

    started = time.perf_counter()
    executor.submit("noop", step, on_done=lambda task: finished.set())
    finished.wait(60.0)
    elapsed = time.perf_counter() - started
    executor.shutdown(wait=True)
    out["steering.executor.slice_overhead_us"] = (elapsed / slices * 1e6, "us")


def _replay_longpoll(out, check) -> None:
    """Register / notify / push_targets / expire_due with 1000 records."""
    samples = defaultdict(list)
    for _ in range(5):
        sched = LongPollScheduler()
        far = time.monotonic() + 60.0
        started = time.perf_counter()
        for _ in range(HERD):
            sched.register("k", 0, far)
        samples["register"].append((time.perf_counter() - started) / HERD)
        started = time.perf_counter()
        ready = sched.notify("k", 1)
        samples["notify"].append((time.perf_counter() - started) / HERD)
        for _ in range(HERD):
            sched.subscribe("k", 0)
        started = time.perf_counter()
        targets = sched.push_targets("k", 1)
        samples["push"].append((time.perf_counter() - started) / HERD)
        now = time.monotonic()
        for _ in range(HERD):
            sched.register("due", 0, now - 1.0)
        started = time.perf_counter()
        expired = sched.expire_due(now)
        samples["expire"].append(time.perf_counter() - started)
        check(len(ready) == len(targets) == len(expired) == HERD)
    us = {k: statistics.median(v) * 1e6 for k, v in samples.items()}
    out["web.longpoll.register_us"] = (us["register"], "us")
    out["web.longpoll.notify_us_per_waiter_at_1000"] = (us["notify"], "us")
    out["web.longpoll.push_targets_us_per_sub_at_1000"] = (us["push"], "us")
    out["web.longpoll.expire_due_us_at_1000"] = (us["expire"], "us")


# -- sliding-window path ------------------------------------------------------


def _replay_window(seed, clock, out, check, pans: int) -> Octree:
    """set_cursor -> bricks_in -> payload -> encode/decode; mark_step -> publish."""
    rng = np.random.default_rng(seed)
    grid = StructuredGrid(rng.random((DOMAIN,) * 3, dtype=np.float32))
    tree = clock("data.octree.build", lambda: Octree(grid, leaf_cells=LEAF_CELLS))
    source = WindowedDomainSource(tree)
    store = EventSequenceStore()
    store.set_window_source(source)
    held: set[tuple] = set()
    last = (DOMAIN - VIEWPORT) // LEAF_CELLS
    x, sign = 0, 1
    for index in range(pans):
        with clock.tracer.span("replay.pan", op=index):
            if not 0 <= x + sign <= last:
                sign = -sign
            x += sign
            lo = (x * LEAF_CELLS, LEAF_CELLS, LEAF_CELLS)
            hi = tuple(v + VIEWPORT for v in lo)
            cursor = WindowCursor(lo, hi, 0)
            metas = clock("window.source.set_cursor",
                          lambda: source.set_cursor("w", cursor))
            bricks = clock("data.octree.bricks_in",
                           lambda: tree.bricks_in(lo, hi, 0), inner=20)
            check(len(bricks) == len(metas))
            for meta in metas:
                key = (meta["brick"], meta["version"])
                if key not in held:  # what a panning client fetches
                    held.add(key)
                    source.payload(0, meta["brick"])
            brick = bricks[0]
            clock("window.source.payload_hit",
                  lambda: source.payload(0, brick.index), inner=20)
            values = clock("data.octree.brick_values",
                           lambda: tree.brick_values(brick), inner=20)
            payload = clock("window.bricks.encode",
                            lambda: encode_brick_payload(brick, values, index))
            decoded = clock("window.bricks.decode",
                            lambda: decode_brick_payload(payload), inner=20)
            check(np.array_equal(decoded["values"], values))
            box = dirty_box(rng, lo)
            clock("window.source.mark_step",
                  lambda: source.mark_step(store.seq + 1, box))
            clock("steering.events.publish_window_step",
                  lambda: store.publish_window_step(index, box))
            dirty = tree.bricks_in(box[0], box[1], 0)[0]
            clock("window.source.payload_miss",
                  lambda: source.payload(0, dirty.index))
    stats = source.stats()
    out["data.octree.build_ms"] = (clock.median("data.octree.build", 1e3), "ms")
    for name in ("data.octree.bricks_in", "data.octree.brick_values",
                 "window.source.set_cursor", "window.source.payload_miss",
                 "window.source.payload_hit", "window.source.mark_step",
                 "window.bricks.encode", "window.bricks.decode",
                 "steering.events.publish_window_step"):
        out[name + "_us"] = (clock.median(name, 1e6), "us")
    out["window.source.prefetch_hit_rate"] = (stats["prefetch_hit_rate"], "ratio")
    return tree


# -- set-up-time decisions ----------------------------------------------------


def _replay_decisions(clock, tb, out, calibration_s: float, reps: int) -> None:
    decision = tb.manager.get("frames").decision
    controller = AdaptiveDeliveryController()
    estimate = PathEstimate(epb=2.0e6, d_min=0.002, r2=1.0, n_samples=8)
    for _ in range(reps):
        clock("mapping.dp.map_pipeline", lambda: map_pipeline(
            decision.pipeline, tb.cm.topology, decision.source,
            decision.destination, bandwidths=tb.cm.bandwidths))
        clock("adaptive.controller.decide",
              lambda: controller.decide(estimate, current_tier=0), inner=10)
        clock("adaptive.controller.decide_lod",
              lambda: controller.decide_lod(estimate, 0, 0, 3, 8 * 20_000), inner=10)
    out["costmodel.calibration_s"] = (calibration_s, "s")
    out["mapping.dp.map_pipeline_ms"] = (
        clock.median("mapping.dp.map_pipeline", 1e3), "ms")
    out["adaptive.controller.decide_us"] = (
        clock.median("adaptive.controller.decide", 1e6), "us")
    out["adaptive.controller.decide_lod_us"] = (
        clock.median("adaptive.controller.decide_lod", 1e6), "us")


# -- web.server: boundary spans taken from outside on the socket --------------


def _spin_until(predicate) -> None:
    limit = time.monotonic() + _SPIN_LIMIT
    while not predicate():
        if time.monotonic() > limit:
            raise RuntimeError("the server never reached the probed state")


def _probe_routes(clock, tb, tree, images, out, check, reps: int) -> None:
    """Each route alone on an idle server: request written -> response complete."""
    sid = "probe"
    store = tb.manager.open_monitor(sid)
    store.set_window_source(WindowedDomainSource(tree))
    # Registered before the server hooks the store, so the stamp precedes the
    # wake: ws_push runs from "event appended" to "frame complete" and covers
    # all of the server's work, which starts before publish_image returns.
    appended: list[float] = []
    store.add_listener(lambda seq: appended.append(time.perf_counter()))
    conn = HttpConn(tb.port, clock.tracer)
    base = f"{API}/{sid}"

    def rtt(route: str, method: str, path: str, body=None, expect: int = 200):
        def once():
            conn.send(method, path, body)
            return conn.recv()
        status, payload = clock(f"web.server.rtt.{route}", once)
        check(status == expect)
        return payload

    try:
        rtt("state", "GET", f"{base}/state")  # first request hooks nothing yet
        for index in range(reps):
            with clock.tracer.span("replay.routes", op=index):
                image = images[index % len(images)]
                since = store.seq
                store.publish_status("probe", index, n=index)
                rtt("poll_ready", "GET", f"{base}/poll?since={since}&timeout=5")

                head = store.seq
                conn.send("GET", f"{base}/poll?since={head}&timeout=25")
                _spin_until(lambda: tb.server.parked_polls() == 1)

                def wake():
                    store.publish_status("probe", index, woke=index)
                    return conn.recv()
                status, _ = clock("web.server.rtt.poll_wake", wake)
                check(status == 200)

                rtt("state", "GET", f"{base}/state")
                rtt("steer", "POST", f"{API}/frames/steer",
                    {"wind_speed": 2.0 + (index % 10) / 10})
                x = (index % 2) * LEAF_CELLS
                rtt("window_set", "POST", f"{base}/window",
                    {"lo": [x, 0, 0], "hi": [x + VIEWPORT, VIEWPORT, VIEWPORT],
                     "lod": 0, "wid": "w"})
                rtt("brick", "GET", f"{base}/brick?lod=0&id={index % 8}")
                if index % 4 == 0:
                    seq = store.publish_image(image, cycle=index)
                    rtt("image_png_cold", "GET", f"{base}/image.png?v={seq}")
                rtt("image", "GET", f"{base}/image")

        ws = WsConn(tb.port, clock.tracer,
                    f"{base}/ws?images=binary&since={store.seq}")
        try:
            for index in range(reps):
                store.publish_image(images[index % len(images)], cycle=index)
                payload = ws.recv_binary()
                clock.samples["web.server.rtt.ws_push"].append(
                    time.perf_counter() - appended[-1])
                check(len(payload) > store.file_size)
        finally:
            ws.close()
    finally:
        conn.close()

    for route in ROUTES:
        values = [v * 1e3 for v in clock.samples[f"web.server.rtt.{route}"]]
        out[f"web.server.rtt_ms.{route}.p50"] = (statistics.median(values), "ms")
        out[f"web.server.rtt_ms.{route}.p99"] = (percentile(sorted(values), 0.99), "ms")
    # What a route costs beyond the replayed layers it calls into.
    beneath = {
        "poll_ready": out["steering.events.frame_miss_us.json"][0],
        "poll_wake": (out["steering.events.frame_miss_us.json"][0]
                      + out["steering.events.publish_status_us"][0]),
        "image": out["steering.events.image_blob_us"][0],
        "image_png_cold": out["viz.image.png_ms"][0] * 1e3,
        "state": 0.0,
        "steer": out["steering.events.publish_status_us"][0],
        "window_set": out["window.source.set_cursor_us"][0],
        "brick": out["window.source.payload_hit_us"][0],
        "ws_push": (out["steering.events.frame_miss_us.ws_binary"][0]
                    + out["web.framing.parse_ws_us"][0]),
    }
    for route in ROUTES:
        out[f"web.server.self_ms.{route}"] = (
            out[f"web.server.rtt_ms.{route}.p50"][0] - beneath[route] / 1e3, "ms")


# -- shares --------------------------------------------------------------------


def shares(workload: str, m: dict, wall_ms: float, counts: dict) -> dict:
    """``share.<layer>``: replayed layer time per update / measured wall per update.

    The table below is the interaction model of README.md made executable:
    which layer calls one update of each workload makes, and how many.
    ``share.unattributed`` is what the replay cannot see from outside —
    socket path, GIL waits, the generator's own checks.
    """
    ms = {k: v for k, (v, u) in m.items() if u == "ms"}
    ms.update({k: v / 1e3 for k, (v, u) in m.items() if u == "us"})
    publish = ms["steering.events.publish_image_ms"] - ms["viz.image.encode_fixed_ms"]
    snapshot = 1.0 / SNAPSHOT_EVERY
    cost = dict.fromkeys(LAYERS, 0.0)
    if workload == "steer_live":
        # The frame loop on the executor bounds the rate; delivery of frame k
        # overlaps the computation of frame k+1 on the other core.
        cost["sims"] = ms["sims.step_ms"]
        cost["viz.isosurface"] = ms["viz.isosurface.extract_ms"]
        cost["viz.render"] = ms["viz.render.mesh_ms"]
        cost["steering.loop"] = ms["steering.loop.glue_ms"]
        cost["steering.session"] = ms["steering.session.frame_overhead_ms"]
        cost["viz.image"] = ms["viz.image.encode_fixed_ms"]
        cost["steering.events"] = publish
    elif workload == "monitor_push":
        cost["viz.image"] = (ms["viz.image.encode_fixed_ms"]
                             + snapshot * ms["viz.image.png_ms"])
        cost["steering.events"] = (
            publish + ms["steering.events.frame_miss_us.ws_binary"]
            - ms["web.framing.ws_frame_us"])
        cost["web.framing"] = (ms["web.framing.ws_frame_us"]
                               + ms["web.framing.parse_ws_us"]
                               + ms["web.framing.decode_binary_us"])
        cost["web.server"] = (ms["web.server.self_ms.ws_push"]
                              + snapshot * ms["web.server.self_ms.image_png_cold"])
    elif workload == "monitor_poll":
        # Two updates per publish; the one IO thread serves both viewers.
        cost["viz.image"] = (ms["viz.image.encode_fixed_ms"] / 2
                             + snapshot / 2 * ms["viz.image.png_ms"])
        cost["steering.events"] = (
            (publish + ms["steering.events.frame_miss_us.json"]) / 2
            + ms["steering.events.image_blob_us"])
        cost["web.server"] = (
            ms["web.server.self_ms.poll_wake"] / 2 + ms["web.server.self_ms.image"]
            + snapshot / 2 * ms["web.server.self_ms.image_png_cold"])
    elif workload == "window_pan":
        fetches = counts["fetches_per_update"]
        refetches = counts["refetches_per_update"]
        cost["data.octree"] = (2 * ms["data.octree.bricks_in_us"]
                               + refetches * ms["data.octree.brick_values_us"])
        cost["window.bricks"] = (refetches * ms["window.bricks.encode_us"]
                                 + fetches * ms["window.bricks.decode_us"])
        cost["window.source"] = (
            ms["window.source.set_cursor_us"] + ms["window.source.mark_step_us"]
            + (fetches - refetches) * ms["window.source.payload_hit_us"]
            + refetches * (ms["window.source.payload_miss_us"]
                           - ms["window.bricks.encode_us"]
                           - ms["data.octree.brick_values_us"]))
        cost["steering.events"] = (
            ms["steering.events.publish_window_step_us"]
            - ms["window.source.mark_step_us"]
            + ms["steering.events.frame_miss_us.json"])
        cost["web.server"] = (ms["web.server.self_ms.window_set"]
                              + ms["web.server.self_ms.poll_wake"]
                              + fetches * ms["web.server.self_ms.brick"])
    out = {f"share.{layer}": (cost[layer] / wall_ms, "ratio") for layer in LAYERS}
    out["share.unattributed"] = (1.0 - sum(cost.values()) / wall_ms, "ratio")
    return out
