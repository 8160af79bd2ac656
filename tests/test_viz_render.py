"""Tests for the camera, rasterizer, ray caster and streamlines."""

from __future__ import annotations

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import StructuredGrid, VectorField
from repro.errors import ConfigurationError
from repro.viz import OrthoCamera, TransferFunction, raycast, render_mesh, trace_streamlines
from repro.viz import render as render_module
from repro.viz.isosurface import TriangleMesh, extract_isosurface
from repro.viz.render import render_points
from repro.viz.streamline import seed_grid

from tests.raster_oracle import render_mesh_loop
from tests.test_data_grid import sphere_grid


class TestCamera:
    def test_axes_orthonormal(self):
        cam = OrthoCamera(azimuth=33.0, elevation=21.0)
        r, u, f = cam.axes()
        for v in (r, u, f):
            assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.dot(r, u) == pytest.approx(0.0, abs=1e-12)
        assert np.dot(r, f) == pytest.approx(0.0, abs=1e-12)
        assert np.dot(u, f) == pytest.approx(0.0, abs=1e-12)

    def test_center_projects_to_viewport_center(self):
        cam = OrthoCamera(center=(1.0, 2.0, 3.0), width=100, height=80)
        px = cam.project(np.array([[1.0, 2.0, 3.0]]))[0]
        assert px[0] == pytest.approx(49.5)
        assert px[1] == pytest.approx(39.5)

    def test_zoom_magnifies(self):
        cam1 = OrthoCamera(zoom=1.0, width=101, height=101)
        cam2 = cam1.zoomed(2.0)
        p = np.array([[0.3, 0.1, 0.0]])
        d1 = cam1.project(p)[0][:2] - 50.0
        d2 = cam2.project(p)[0][:2] - 50.0
        assert np.linalg.norm(d2) == pytest.approx(2 * np.linalg.norm(d1), rel=1e-6)

    def test_rotation_steering(self):
        cam = OrthoCamera(azimuth=10.0, elevation=0.0)
        cam2 = cam.rotated(20.0, 5.0)
        assert cam2.azimuth == pytest.approx(30.0)
        assert cam2.elevation == pytest.approx(5.0)
        assert cam2.rotated(0, 100).elevation == 89.0  # clamped

    def test_framing_covers_bounds(self):
        lo, hi = np.zeros(3), np.array([4.0, 2.0, 1.0])
        cam = OrthoCamera.framing(lo, hi, width=64, height=64)
        corners = np.array([[0, 0, 0], [4, 2, 1], [4, 0, 0], [0, 2, 1]], dtype=float)
        screen = cam.project(corners)
        assert screen[:, 0].min() >= 0 and screen[:, 0].max() <= 63
        assert screen[:, 1].min() >= 0 and screen[:, 1].max() <= 63

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            OrthoCamera(zoom=0.0)
        with pytest.raises(ConfigurationError):
            OrthoCamera(width=0)


class TestRenderMesh:
    def test_sphere_renders_disk(self):
        g = sphere_grid(16)
        mesh = extract_isosurface(g, 0.6)
        cam = OrthoCamera.framing(*g.bounds(), width=96, height=96)
        img = render_mesh(mesh, cam)
        frac = img.nonblank_fraction(background=(10, 10, 20))
        # projected sphere of radius ~0.6*extent/2 -> covered area fraction
        assert 0.05 < frac < 0.6

    def test_empty_mesh_is_background(self):
        from repro.viz.isosurface import TriangleMesh

        img = render_mesh(TriangleMesh(np.zeros((0, 3, 3))), OrthoCamera(width=32, height=32))
        assert img.nonblank_fraction(background=(10, 10, 20)) == 0.0

    def test_depth_occlusion(self):
        """The triangle nearer the viewer must hide the farther one."""
        from repro.viz.isosurface import TriangleMesh

        big = 4.0
        tri_lo = [[-big, -big, -1.0], [big, -big, -1.0], [0.0, big, -1.0]]
        tri_hi = [[-big, -big, 1.0], [big, -big, 1.0], [0.0, big, 1.0]]
        mesh = TriangleMesh(np.array([tri_lo, tri_hi], dtype=np.float32))
        cam = OrthoCamera(azimuth=0.0, elevation=90.0, width=64, height=64, extent=8.0)
        # The camera looks *along* +z (forward ~ +z), so the z=-1 plane has
        # the smaller view depth and occludes the z=+1 plane.
        img_both = render_mesh(mesh, cam, color=(1.0, 0.0, 0.0))
        only_near = render_mesh(
            TriangleMesh(np.array([tri_lo], dtype=np.float32)), cam, color=(1.0, 0.0, 0.0)
        )
        np.testing.assert_array_equal(img_both.pixels, only_near.pixels)

    def test_max_triangles_subsampling(self):
        g = sphere_grid(16)
        mesh = extract_isosurface(g, 0.6)
        img = render_mesh(mesh, max_triangles=50)
        assert img.nonblank_fraction(background=(10, 10, 20)) > 0.0

    def test_render_points(self):
        cam = OrthoCamera(width=32, height=32, extent=4.0)
        pts = np.array([[0.0, 0.0, 0.0], [np.nan, 0, 0]])
        img = render_points(pts, cam)
        assert img.pixels[:, :, 0].max() == 255


# -- batched kernel == the per-triangle loop it replaced ----------------------

_coord = st.floats(-1.5, 1.5, allow_nan=False, width=32)
_vertex = st.tuples(_coord, _coord, _coord)


@st.composite
def _triangle_group(draw):
    """A handful of triangles of one kind the rasterizer must get right."""
    kind = draw(st.sampled_from(
        ["generic", "small", "degenerate", "offscreen", "covering", "coplanar"]))
    if kind == "generic":
        return [draw(st.tuples(_vertex, _vertex, _vertex))]
    a = np.asarray(draw(_vertex))
    if kind == "small":  # a few pixels, like marching-cubes output
        e = draw(st.sampled_from([0.05, 0.3, 1.0]))
        return [(a, a + e * np.asarray(draw(_vertex)), a + e * np.asarray(draw(_vertex)))]
    if kind == "degenerate":  # zero area: repeated vertex, or collinear (|d| < 1e-12)
        b = np.asarray(draw(_vertex))
        return [(a, a, b), (a, b, a + draw(st.sampled_from([0.5, 2.0])) * (b - a))]
    if kind == "offscreen":  # fully outside, or straddling the viewport edge
        shift = np.asarray(draw(st.sampled_from(
            [(40.0, 0.0, 0.0), (0.0, -40.0, 0.0), (1.2, 1.2, 0.0), (1e30, 0.0, -1e30)])))
        return [(a + shift, np.asarray(draw(_vertex)) + shift,
                 np.asarray(draw(_vertex)) + shift)]
    if kind == "covering":  # bbox is the whole viewport from any angle
        z = draw(_coord)
        return [((-60.0, -50.0, z), (60.0, -50.0, z), (0.0, 70.0, z)),
                ((-60.0, z, -50.0), (60.0, z, -50.0), (0.0, z, 70.0))]
    # Coplanar duplicates: every shared pixel is an exact depth tie.  They share
    # a shade, so this only walks the tie path; the lattice property below has
    # ties between *different* shades, where a wrong winner shows.
    tri = (a, np.asarray(draw(_vertex)), np.asarray(draw(_vertex)))
    return [tri] * draw(st.integers(2, 4))


_meshes = st.lists(_triangle_group(), min_size=1, max_size=8).map(
    lambda groups: TriangleMesh(np.asarray([t for g in groups for t in g], dtype=np.float32))
)
_cameras = st.builds(
    OrthoCamera,
    azimuth=st.floats(0.0, 360.0),
    elevation=st.floats(-89.0, 89.0),
    zoom=st.sampled_from([0.2, 1.0, 3.0, 25.0]),
    extent=st.just(4.0),
    width=st.sampled_from([1, 2, 7, 33, 64]),
    height=st.sampled_from([1, 3, 16, 48]),
)


# World (x, y, z) -> (depth, px - 4, 4 - py) with no rounding: integer vertices
# land on pixel centres, so triangles of *different* planes (different shades)
# that share a vertex or cross on a lattice line tie in depth exactly there.
_LATTICE_CAMERA = OrthoCamera(azimuth=0.0, elevation=0.0, extent=8.0, width=9, height=9)
_lattice_vertex = st.tuples(st.integers(-2, 2), st.integers(-6, 6), st.integers(-6, 6))
_lattice_meshes = st.lists(
    st.tuples(_lattice_vertex, _lattice_vertex, _lattice_vertex), min_size=2, max_size=10
).map(lambda tris: TriangleMesh(np.asarray(tris, dtype=np.float32)))


# Vertices given in screen space, at pixel centres +- 2**-k: float32 world
# coordinates through a projection cannot hold 4 + 2**-40, so the camera hands
# the float64 array to both rasterizers as (px, py, depth).
class _ScreenCamera(OrthoCamera):
    def project(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(points, dtype=np.float64))


def _screen_mesh(tris) -> TriangleMesh:
    mesh = TriangleMesh(np.zeros((0, 3, 3)))
    mesh.triangles = np.asarray(tris, dtype=np.float64).reshape(-1, 3, 3)
    return mesh


_SCREEN_CAMERA = _ScreenCamera(width=9, height=9)
_near_coord = st.builds(lambda c, sign, k: c + sign * 2.0**-k, st.integers(-1, 9),
                        st.sampled_from([-1.0, 0.0, 1.0]), st.integers(10, 52))
_near_vertex = st.tuples(_near_coord, _near_coord, st.floats(-1.0, 1.0))
_near_lattice_meshes = st.lists(
    st.tuples(_near_vertex, _near_vertex, _near_vertex), min_size=1, max_size=8
).map(_screen_mesh)


def _boxes(screen: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixels per triangle in ``render_mesh``'s boxes and in the ``floor``/``ceil`` boxes."""
    xs, ys = screen[:, :, 0], screen[:, :, 1]
    d = (ys[:, 1] - ys[:, 2]) * (xs[:, 0] - xs[:, 2]) + (xs[:, 2] - xs[:, 1]) * (
        ys[:, 0] - ys[:, 2])
    floor_ceil = (np.maximum(np.floor(xs.min(axis=1)), 0.0),
                  np.minimum(np.ceil(xs.max(axis=1)), width - 1.0),
                  np.maximum(np.floor(ys.min(axis=1)), 0.0),
                  np.minimum(np.ceil(ys.max(axis=1)), height - 1.0))
    sizes = []
    for x0, x1, y0, y1 in (render_module._lattice_boxes(xs, ys, d, width, height), floor_ceil):
        sizes.append(np.maximum(x1 - x0 + 1, 0) * np.maximum(y1 - y0 + 1, 0))
    return sizes[0], sizes[1]


@functools.lru_cache(maxsize=1)
def _bowshock_mesh() -> tuple[StructuredGrid, TriangleMesh]:
    """The frame ``steer_live`` renders: a formed bow shock's pressure isosurface."""
    from repro.sims.registry import create_simulation

    sim = create_simulation("bowshock", shape=(24, 16, 16))
    for _ in range(100):
        sim.step()
    grid = sim.get_field("pressure")
    return grid, extract_isosurface(grid, grid.vmin + 0.5 * (grid.vmax - grid.vmin))


def _covering_mesh(n: int) -> TriangleMesh:
    """``n`` stacked triangles whose bbox is the whole default viewport."""
    z = np.linspace(-0.5, 0.5, n, dtype=np.float32)
    tris = np.empty((n, 3, 3), dtype=np.float32)
    tris[:, 0] = (-60.0, -50.0, 0.0)
    tris[:, 1] = (60.0, -50.0, 0.0)
    tris[:, 2] = (0.0, 70.0, 0.0)
    tris[:, :, 2] = z[:, None]
    return TriangleMesh(tris)


class TestRasterEquivalence:
    """``render_mesh`` must produce the oracle loop's pixels, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        mesh=_meshes,
        camera=_cameras,
        max_triangles=st.sampled_from([None, None, 3]),
        budget=st.sampled_from([1, 50, render_module._FRAGMENT_BUDGET]),
    )
    def test_random_meshes_and_cameras(self, mesh, camera, max_triangles, budget):
        expected = render_mesh_loop(mesh, camera, max_triangles=max_triangles)
        # Small budgets cut the same fragments into many batches: ties that
        # straddle a batch boundary must still go to the earlier triangle.
        with mock.patch.object(render_module, "_FRAGMENT_BUDGET", budget):
            got = render_mesh(mesh, camera, max_triangles=max_triangles)
        assert np.array_equal(got.pixels, expected.pixels)

    @settings(max_examples=150, deadline=None)
    @given(mesh=_lattice_meshes,
           budget=st.sampled_from([1, 50, render_module._FRAGMENT_BUDGET]))
    def test_exact_depth_ties_go_to_the_first_in_order(self, mesh, budget):
        expected = render_mesh_loop(mesh, _LATTICE_CAMERA)
        with mock.patch.object(render_module, "_FRAGMENT_BUDGET", budget):
            got = render_mesh(mesh, _LATTICE_CAMERA)
        assert np.array_equal(got.pixels, expected.pixels)

    @pytest.mark.parametrize("roll", [0, 1, 2])
    @pytest.mark.parametrize(
        "pixel_tri, painted",
        [
            # Slivers along row 4 with |d| = 8 * height: 7e-9 is drawn, 2e-13 is cut.
            ([(0, 4), (8, 4), (4, 4 + 2.0**-30)], 9),
            ([(0, 4), (8, 4), (4, 4 + 2.0**-45)], 0),
            # Row 4 lies 9e-13 px outside the top edge: inside the -1e-9 tolerance
            # (rows 5..8 of the triangle add 7 + 5 + 3 + 1 pixels).
            ([(0, 4 + 2.0**-40), (8, 4 + 2.0**-40), (4, 8)], 9 + 16),
        ],
    )
    def test_degenerate_cut_and_cover_tolerance(self, pixel_tri, painted, roll):
        tri = [(0.0, px - 4.0, 4.0 - py) for px, py in pixel_tri]
        mesh = TriangleMesh(np.asarray([tri[roll:] + tri[:roll]], dtype=np.float32))
        img = render_mesh(mesh, _LATTICE_CAMERA)
        assert np.array_equal(img.pixels, render_mesh_loop(mesh, _LATTICE_CAMERA).pixels)
        assert img.nonblank_fraction(background=(10, 10, 20)) * 81 == pytest.approx(painted)

    @pytest.mark.parametrize("size", [192, 256])
    def test_bowshock_isosurface(self, size):
        grid, mesh = _bowshock_mesh()
        assert mesh.n_triangles > 1000
        framed = OrthoCamera.framing(*grid.bounds(), width=size, height=size)
        for camera in (framed, framed.rotated(70.0, 35.0), framed.zoomed(3.0)):
            for max_triangles in (60_000, 400):
                got = render_mesh(mesh, camera, max_triangles=max_triangles)
                expected = render_mesh_loop(mesh, camera, max_triangles=max_triangles)
                assert np.array_equal(got.pixels, expected.pixels)

    def test_default_camera_and_colors(self):
        mesh = extract_isosurface(sphere_grid(12), 0.6)
        kwargs = dict(color=(1.0, 0.4, 0.1), light_dir=(0.0, 1.0, 0.2),
                      background=(1, 2, 3, 0), ambient=0.6)
        assert np.array_equal(render_mesh(mesh, **kwargs).pixels,
                              render_mesh_loop(mesh, **kwargs).pixels)

    def test_fragments_span_several_batches(self):
        mesh = extract_isosurface(sphere_grid(24), 0.6)
        camera = OrthoCamera.framing(*mesh.bounds(), width=256, height=256)
        boxes, _ = _boxes(camera.project(mesh.triangles.reshape(-1, 3)).reshape(-1, 3, 3),
                          camera.width, camera.height)
        assert boxes.sum() > 3 * render_module._FRAGMENT_BUDGET
        assert np.array_equal(render_mesh(mesh, camera).pixels,
                              render_mesh_loop(mesh, camera).pixels)

    def test_peak_memory_does_not_scale_with_triangles(self):
        """300 viewport-covering triangles are 19.7 M candidate fragments: one
        unbatched pass would allocate gigabytes; a batch is one triangle."""
        mesh = _covering_mesh(300)
        camera = OrthoCamera(extent=4.0, width=256, height=256)
        tracemalloc.start()
        try:
            img = render_mesh(mesh, camera)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert np.array_equal(img.pixels, render_mesh_loop(mesh, camera).pixels)

    @settings(max_examples=200, deadline=None)
    @given(mesh=_near_lattice_meshes,
           budget=st.sampled_from([1, 50, render_module._FRAGMENT_BUDGET]))
    def test_vertices_near_the_pixel_lattice(self, mesh, budget):
        """Extents 2**-52..2**-10 px to either side of a lattice line: the
        tight box must still hold every pixel the -1e-9 cover test passes."""
        expected = render_mesh_loop(mesh, _SCREEN_CAMERA)
        with mock.patch.object(render_module, "_FRAGMENT_BUDGET", budget):
            got = render_mesh(mesh, _SCREEN_CAMERA)
        assert np.array_equal(got.pixels, expected.pixels)

    @pytest.mark.parametrize("roll", [0, 1, 2])
    @pytest.mark.parametrize("offset", [-(2.0**-40), 2.0**-40])
    @pytest.mark.parametrize("span", [8.0, 100.0, 1000.0])
    @pytest.mark.parametrize("tight", [True, False])
    def test_slivers_either_side_of_the_ratio_threshold(self, tight, span, offset, roll):
        """Height (L + 1) / 4096 x (1 +- 2**-20): |d| = L x height straddles
        L(L + 1) / 4096, and row 4 lies 2**-40 px inside or outside the edge."""
        y = 4.0 + offset
        nudge = 1.0 + 2.0**-20 if tight else 1.0 - 2.0**-20
        height = (span + 1.0) / render_module._TIGHT_MAX_RATIO * nudge
        tri = [(-0.25, y, 0.0), (span - 0.25, y, 0.0), (span / 2.0, y + height, 0.0)]
        mesh = _screen_mesh([tri[roll:] + tri[:roll]])
        boxes, floor_ceil = _boxes(mesh.triangles, 9, 9)
        assert (boxes[0] < floor_ceil[0]) == tight
        img = render_mesh(mesh, _SCREEN_CAMERA)
        assert np.array_equal(img.pixels, render_mesh_loop(mesh, _SCREEN_CAMERA).pixels)
        painted = min(9, int(span))  # row 4 from x = 0 to the base's end or the viewport's
        assert img.nonblank_fraction(background=(10, 10, 20)) * 81 == pytest.approx(painted)

    @pytest.mark.parametrize("axis, sign", [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)])
    @pytest.mark.parametrize("inside", [True, False])
    def test_triangles_either_side_of_the_span_guard(self, inside, axis, sign):
        """A vertex 1024 x (1 +- 2**-20) px away along one axis, the others in the viewport."""
        span = render_module._TIGHT_MAX_SPAN * (1.0 - 2.0**-20 if inside else 1.0 + 2.0**-20)
        e, f = np.eye(2)[axis] * sign, np.eye(2)[1 - axis]
        a = np.array([4.25, 4.75])
        tri = [np.append(v, z) for v, z in
               ((a, 0.0), (a + span * e + 0.5 * f, 1.0), (a + 0.5 * e + 6.0 * f, -1.0))]
        mesh = _screen_mesh([tri])
        boxes, floor_ceil = _boxes(mesh.triangles, 9, 9)
        assert (boxes[0] < floor_ceil[0]) == inside
        assert np.array_equal(render_mesh(mesh, _SCREEN_CAMERA).pixels,
                              render_mesh_loop(mesh, _SCREEN_CAMERA).pixels)

    def test_tight_boxes_are_at_most_40_percent_of_floor_ceil_boxes(self):
        """The ``steer_live`` frame at 192 x 192: about 11.5k of 35.3k box pixels."""
        grid, mesh = _bowshock_mesh()
        camera = OrthoCamera.framing(*grid.bounds(), width=192, height=192)
        boxes, floor_ceil = _boxes(
            camera.project(mesh.triangles.reshape(-1, 3)).reshape(-1, 3, 3), 192, 192)
        assert boxes.sum() <= 0.4 * floor_ceil.sum()

    def test_peak_bytes_of_one_bowshock_frame(self):
        """One call on the ``steer_live`` frame at 192 x 192 peaks at <= 2.68 MB of
        new allocations (tracemalloc, no timing): 2.44 MB measured with numpy 2.4.6
        plus 10 %; the floor/ceil boxes peaked at 3.21 MB.  The least of three
        calls is taken, as in the VH1 step guard."""
        grid, mesh = _bowshock_mesh()
        camera = OrthoCamera.framing(*grid.bounds(), width=192, height=192)
        render_mesh(mesh, camera)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                render_mesh(mesh, camera)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert min(peaks) <= 2_680_000, peaks

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_drops_its_triangle(self, bad):
        good = extract_isosurface(sphere_grid(10), 0.6)
        camera = OrthoCamera.framing(*good.bounds(), width=48, height=48)
        tris = np.concatenate([good.triangles[:5], good.triangles])
        tris[0, 1, 0] = bad
        tris[2, :, :] = bad
        tris[4, 2, 2] = bad
        with np.errstate(invalid="ignore"):
            img = render_mesh(TriangleMesh(tris), camera)
        kept = TriangleMesh(np.delete(tris, [0, 2, 4], axis=0))
        assert np.array_equal(img.pixels, render_mesh_loop(kept, camera).pixels)

    def test_all_triangles_non_finite_is_background(self):
        tris = np.full((3, 3, 3), np.nan, dtype=np.float32)
        with np.errstate(invalid="ignore"):
            img = render_mesh(TriangleMesh(tris), OrthoCamera(width=16, height=16))
        assert img.nonblank_fraction(background=(10, 10, 20)) == 0.0


class TestRaycast:
    def test_empty_volume_is_background(self):
        g = StructuredGrid(np.zeros((8, 8, 8), dtype=np.float32))
        tf = TransferFunction.grayscale(0.0, 1.0)
        res = raycast(g, transfer=tf, step=1.0)
        assert res.image.nonblank_fraction() == 0.0

    def test_dense_center_lights_center_pixels(self):
        g = sphere_grid(16)
        # invert: bright blob in the middle
        inv = StructuredGrid(g.vmax - g.values, g.spacing, g.origin, "blob")
        cam = OrthoCamera.framing(*inv.bounds(), width=48, height=48)
        res = raycast(inv, camera=cam, step=0.5)
        px = res.image.pixels
        center_lum = px[20:28, 20:28, :3].mean()
        corner_lum = px[:4, :4, :3].mean()
        assert center_lum > corner_lum + 10

    def test_sampling_statistics(self):
        g = sphere_grid(12)
        res = raycast(g, step=1.0)
        assert res.n_rays == 256 * 256
        assert res.n_samples_total > 0
        assert res.n_samples_per_ray >= 2

    def test_isolating_transfer_highlights_shell(self):
        g = sphere_grid(20)
        tf = TransferFunction.isolating(0.6, 0.05)
        cam = OrthoCamera.framing(*g.bounds(), width=40, height=40)
        res = raycast(g, camera=cam, transfer=tf, step=0.5)
        assert res.image.nonblank_fraction() > 0.05

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigurationError):
            raycast(sphere_grid(8), step=0.0)


class TestStreamlines:
    def _uniform_field(self, n=8):
        shape = (n, n, n)
        return VectorField(
            np.full(shape, 1.0, dtype=np.float32),
            np.zeros(shape, dtype=np.float32),
            np.zeros(shape, dtype=np.float32),
        )

    def test_straight_advection_in_uniform_field(self):
        f = self._uniform_field()
        seeds = np.array([[1.0, 3.0, 3.0]])
        res = trace_streamlines(f, seeds, n_steps=4, h=0.5)
        path = res.paths[0]
        np.testing.assert_allclose(path[:, 1], 3.0, atol=1e-9)
        np.testing.assert_allclose(
            path[:, 0], [1.0, 1.5, 2.0, 2.5, 3.0], atol=1e-9
        )

    def test_terminates_at_boundary(self):
        f = self._uniform_field(8)
        seeds = np.array([[6.5, 3.0, 3.0]])
        res = trace_streamlines(f, seeds, n_steps=10, h=0.5)
        assert res.terminated_early == 1
        assert np.isnan(res.paths[0, -1]).all()

    def test_zero_field_stalls(self):
        shape = (6, 6, 6)
        f = VectorField(np.zeros(shape), np.zeros(shape), np.zeros(shape))
        res = trace_streamlines(f, np.array([[3.0, 3.0, 3.0]]), n_steps=5, h=1.0)
        assert res.terminated_early == 1

    def test_advection_counts(self):
        f = self._uniform_field()
        seeds = seed_grid(f, n_per_axis=2)
        res = trace_streamlines(f, seeds, n_steps=3, h=0.1, method="rk4")
        assert res.advections == 8 * 3 * 4  # seeds * steps * rk4 stages

    def test_rk2_vs_rk4_agree_on_linear_field(self):
        f = self._uniform_field()
        seeds = np.array([[1.0, 3.0, 3.0]])
        p2 = trace_streamlines(f, seeds, n_steps=5, h=0.3, method="rk2").paths
        p4 = trace_streamlines(f, seeds, n_steps=5, h=0.3, method="rk4").paths
        np.testing.assert_allclose(p2, p4, atol=1e-9)

    def test_circular_field_stays_on_circle(self):
        """v = (-y, x, 0) around the domain center: radius is conserved."""
        n = 17
        ax = np.arange(n, dtype=np.float32) - 8.0
        X, Y, _ = np.meshgrid(ax, ax, ax, indexing="ij")
        f = VectorField(-Y, X, np.zeros_like(X))
        # field origin is at index space; center world = (8, 8, 8)
        seeds = np.array([[11.0, 8.0, 8.0]])  # radius 3 from center
        res = trace_streamlines(f, seeds, n_steps=60, h=0.02, method="rk4")
        path = res.paths[0]
        good = ~np.isnan(path[:, 0])
        radii = np.linalg.norm(path[good][:, :2] - 8.0, axis=1)
        np.testing.assert_allclose(radii, 3.0, rtol=0.02)

    def test_lengths_reported(self):
        f = self._uniform_field()
        res = trace_streamlines(f, np.array([[1.0, 3.0, 3.0]]), n_steps=4, h=0.5)
        assert res.lengths()[0] == pytest.approx(2.0)

    def test_invalid_args(self):
        f = self._uniform_field()
        with pytest.raises(ConfigurationError):
            trace_streamlines(f, np.zeros((1, 2)), 5, 0.5)
        with pytest.raises(ConfigurationError):
            trace_streamlines(f, np.zeros((1, 3)), 0, 0.5)
        with pytest.raises(ConfigurationError):
            trace_streamlines(f, np.zeros((1, 3)), 5, 0.5, method="euler5")
