"""Tests for the camera, rasterizer, ray caster and streamlines."""

from __future__ import annotations

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
        camera = OrthoCamera.framing(*mesh.bounds(), width=128, height=128)
        tri_px = camera.project(mesh.triangles.reshape(-1, 3))[:, :2].reshape(-1, 3, 2)
        bbox = np.ceil(tri_px.max(axis=1)) - np.floor(tri_px.min(axis=1)) + 1
        assert bbox.prod(axis=1).sum() > 3 * render_module._FRAGMENT_BUDGET
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
