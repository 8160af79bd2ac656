"""``extract_cells`` (one table-driven gather) == the per-(tet, case) loop it replaced.

``tests/iso_oracle.py`` keeps that loop verbatim.  Equality is of bytes: the
same float32 triangles, in the same order, with the same winding, on
Hypothesis fields built to hit the edge cases (samples equal to
``float32(iso)``, plateaus, axes two samples long, empty and full volumes,
non-unit origin and spacing), on bow-shock frames like the ones the steering
loop extracts, and on the cost-model calibration grids; and the rendered
pixels of a bow-shock frame are the same.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.calibration import make_calibration_grids
from repro.sims.registry import create_simulation
from repro.viz.camera import OrthoCamera
from repro.viz.isosurface import TriangleMesh, extract_cells
from repro.viz.render import render_mesh

from tests.iso_oracle import extract_cells_loop


def _same(values, iso, origin=(0.0, 0.0, 0.0), spacing=(1.0, 1.0, 1.0)) -> np.ndarray:
    got = extract_cells(values, iso, origin, spacing)
    want = extract_cells_loop(values, iso, origin, spacing)
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


@st.composite
def _fields(draw) -> tuple[np.ndarray, float]:
    shape = draw(st.tuples(*[st.integers(2, 6)] * 3))
    # 1/3 and 0.6 are not float32 numbers: a sample equal to float32(iso)
    # sits on the far side of the float64 compare from iso itself.
    iso = draw(st.sampled_from([0.5, 0.0, 1 / 3, 0.6, -1.25]))
    kind = draw(st.sampled_from(["levels", "noise", "empty", "full"]))
    if kind == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.normal(iso, 1.0, size=shape).astype(np.float32), iso
    if kind in ("empty", "full"):
        return np.full(shape, iso - 1.0 if kind == "empty" else iso + 1.0, np.float32), iso
    levels = [np.float32(iso), iso - 1.0, iso + 1.0, iso - 0.25, iso + 0.5]
    picks = draw(st.lists(st.integers(0, len(levels) - 1),
                          min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.asarray([levels[i] for i in picks], dtype=np.float32).reshape(shape), iso


_coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
_step = st.floats(min_value=0.01, max_value=7.5, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(field=_fields(), origin=st.tuples(_coord, _coord, _coord),
       spacing=st.tuples(_step, _step, _step), unit=st.booleans())
def test_kernel_equals_the_loop_on_any_field(field, origin, spacing, unit):
    values, iso = field
    if unit:
        origin, spacing = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    _same(values, iso, origin, spacing)


@pytest.fixture(scope="module")
def bowshock_frames() -> list:
    sim = create_simulation("bowshock", shape=(24, 16, 16))
    frames = []
    for _ in range(4):
        for _ in range(25):
            sim.step()
        frames.append(sim.get_field("pressure"))
    return frames


def test_kernel_equals_the_loop_on_bowshock_frames(bowshock_frames):
    for grid in bowshock_frames:
        for frac in (0.25, 0.5, 0.75):
            iso = grid.vmin + frac * (grid.vmax - grid.vmin)
            assert _same(grid.values, iso, grid.origin, grid.spacing).shape[0] > 0


def test_kernel_equals_the_loop_on_the_calibration_grids():
    for grid in make_calibration_grids(seed=0):
        lo, hi = grid.vmin, grid.vmax
        for iso in np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), 3):
            _same(grid.values, float(iso), grid.origin, grid.spacing)


def test_rendered_bowshock_pixels_are_identical(bowshock_frames):
    grid = bowshock_frames[-1]
    iso = grid.vmin + 0.5 * (grid.vmax - grid.vmin)
    camera = OrthoCamera.framing(*grid.bounds(), width=192, height=192)
    got = render_mesh(TriangleMesh(extract_cells(grid.values, iso, grid.origin, grid.spacing)),
                      camera)
    want = render_mesh(TriangleMesh(extract_cells_loop(grid.values, iso, grid.origin,
                                                       grid.spacing)), camera)
    assert np.array_equal(got.pixels, want.pixels)
    assert np.count_nonzero(got.pixels != got.pixels[0, 0]) > 0  # the surface is in view
