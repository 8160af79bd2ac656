"""What the four workloads share: the interface, the inputs, the checks."""

from __future__ import annotations

import struct

import numpy as np

from repro.sims.registry import create_simulation
from repro.viz.camera import OrthoCamera
from repro.viz.image import Image, decode_fixed_size
from repro.viz.isosurface import extract_isosurface
from repro.viz.render import render_mesh

__all__ = ["Workload", "DeltaCheck", "blob_matches", "capture_frames",
           "png_matches", "pre_cycles", "sim_shape", "wind_speeds",
           "VERIFY_EVERY", "SNAPSHOT_EVERY"]

#: The bow-shock grid every workload that renders uses.
SIM_SHAPE = (24, 16, 16)
#: Solver cycles run before anything is measured or captured: the shock
#: has formed by then, so triangle counts (and with them the cost of a
#: frame) no longer drift with the age of the run.
PRE_CYCLES = 100
#: Every n-th blob / brick is decoded and compared with what was published.
VERIFY_EVERY = 50
#: The monitor workloads take a cold PNG snapshot every n-th publish.
SNAPSHOT_EVERY = 20

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class Workload:
    """One closed-loop traffic mix against a :class:`bench.harness.Testbed`.

    ``setup`` builds sessions, inputs and connections; ``step`` issues the
    next operations of the seeded sequence and hands their timings to the
    recorder (``None`` while warming up); ``close`` releases the generator's
    sockets and threads (the testbed is closed by the caller).
    """

    name = ""
    #: Warm-up operations, scaled down by the smoke test.
    warmup_ops = 0

    def __init__(self, seed: int, tracer, scale: float = 1.0) -> None:
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.tracer = tracer
        self.scale = scale  # below 1 only in the smoke test
        self.warmup_ops = max(2, int(self.warmup_ops * scale))
        self.conns: list = []

    @property
    def sizes(self) -> dict:
        return {"warmup_ops": self.warmup_ops}

    def setup(self, tb) -> None:
        raise NotImplementedError

    def step(self, rec) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        for _ in range(self.warmup_ops):
            self.step(None)

    def run(self, rec) -> None:
        """Operations until the window closes, the reference kernel in between."""
        while rec.running():
            if rec.reference_due():
                rec.reference()
            self.step(rec)

    def set_tracer(self, tracer) -> None:
        """Switch the span recorder on for the traced window."""
        self.tracer = tracer
        for conn in self.conns:
            conn.tracer = tracer

    def layer_counts(self) -> dict:
        """Per-update operation counts the share table cannot know a priori."""
        return {}

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


def wind_speeds(rng, count: int = 16) -> list[float]:
    """The steered inflow speeds: one fixed ladder across the legal range, in a
    seeded order.  Every seed steers through the same values (a frame's cost
    depends on them), only in another sequence; callers cycle through the list.
    """
    return [round(float(v), 3) for v in rng.permutation(np.linspace(1.5, 4.0, count))]


def pre_cycles(scale: float) -> int:
    return max(1, int(PRE_CYCLES * scale))


def sim_shape(scale: float) -> tuple[int, int, int]:
    """The full grid for a real run, a quarter-cost one for the smoke test."""
    return SIM_SHAPE if scale >= 1.0 else tuple(n // 2 for n in SIM_SHAPE)


def capture_frames(seed: int, scale: float = 1.0) -> list[Image]:
    """Real renders of a steered bow shock, so blobs compress as live ones do."""
    rng = np.random.default_rng(seed)
    count = max(2, int(8 * scale))
    sim = create_simulation("bowshock", shape=sim_shape(scale))
    sim.run(pre_cycles(scale))
    camera = OrthoCamera.framing(*sim.get_field("pressure").bounds(),
                                 width=192, height=192)
    frames = []
    for speed in wind_speeds(rng, count):
        sim.apply_steering({"wind_speed": speed})
        sim.run(4)
        grid = sim.get_field("pressure")
        mesh = extract_isosurface(grid, grid.vmin + 0.5 * (grid.vmax - grid.vmin))
        frames.append(render_mesh(mesh, camera, max_triangles=60_000))
    return frames


class DeltaCheck:
    """Versions strictly increase, nothing was dropped, nothing degraded."""

    def __init__(self, since: int = 0) -> None:
        self.version = since

    def __call__(self, delta: dict) -> bool:
        ok = (delta["version"] > self.version and delta["dropped"] == 0
              and delta.get("tier", 0) == 0)
        self.version = max(self.version, delta["version"])
        return ok


def blob_matches(blob: bytes, frame: Image) -> bool:
    return np.array_equal(decode_fixed_size(blob).pixels, frame.pixels)


def png_matches(body: bytes, frame: Image) -> bool:
    """PNG signature plus the IHDR size of the published frame."""
    return (body[:8] == _PNG_SIGNATURE and body[12:16] == b"IHDR"
            and struct.unpack(">II", body[16:24]) == (frame.width, frame.height))
