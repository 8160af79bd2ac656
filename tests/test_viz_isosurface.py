"""Tests for marching-tetrahedra isosurface extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import build_blocks
from repro.viz import (
    TriangleMesh,
    classify_cells,
    estimate_triangles,
    extract_blocks,
    extract_isosurface,
)
from repro.viz.isosurface import extract_cells

from tests.test_data_grid import sphere_grid


class TestExtractCells:
    def test_empty_volume_no_triangles(self):
        vals = np.zeros((4, 4, 4), dtype=np.float32)
        assert extract_cells(vals, 0.5).shape == (0, 3, 3)

    def test_full_volume_no_triangles(self):
        vals = np.ones((4, 4, 4), dtype=np.float32)
        assert extract_cells(vals, 0.5).shape == (0, 3, 3)

    def test_planar_interface_is_flat(self):
        """A linear ramp field must yield triangles exactly on the plane."""
        ax = np.arange(5, dtype=np.float32)
        X, _, _ = np.meshgrid(ax, ax, ax, indexing="ij")
        tris = extract_cells(X, 1.5)
        assert tris.shape[0] > 0
        np.testing.assert_allclose(tris[:, :, 0], 1.5, atol=1e-6)

    def test_vertices_interpolate_isovalue(self):
        """Every output vertex must sit where interpolation gives iso."""
        g = sphere_grid(12)
        iso = 0.6
        mesh = extract_isosurface(g, iso)
        # evaluate the field at the triangle vertices by interpolation
        vals = g.sample_world(mesh.triangles.reshape(-1, 3))
        # trilinear vs per-edge linear interp differ slightly off-edge;
        # all vertices lie *on* cell edges so agreement should be tight
        assert np.percentile(np.abs(vals - iso), 95) < 0.05

    def test_triangle_count_matches_table_estimate(self):
        g = sphere_grid(12)
        iso = 0.6
        mesh = extract_isosurface(g, iso)
        assert mesh.n_triangles == estimate_triangles(g.values, iso)

    def test_world_transform_applied(self):
        vals = sphere_grid(8).values
        t0 = extract_cells(vals, 0.5)
        t1 = extract_cells(vals, 0.5, origin=(10, 0, 0), spacing=(2, 1, 1))
        assert t1.shape == t0.shape
        np.testing.assert_allclose(t1[:, :, 0], t0[:, :, 0] * 2 + 10, atol=1e-5)
        np.testing.assert_allclose(t1[:, :, 1], t0[:, :, 1], atol=1e-5)


class TestSphereSurface:
    def test_closed_surface(self):
        """A sphere fully inside the domain must produce a watertight mesh."""
        g = sphere_grid(20)
        mesh = extract_isosurface(g, 0.6)
        assert mesh.n_triangles > 100
        assert mesh.boundary_edge_count() == 0

    def test_consistent_orientation(self):
        """Normals of a sphere's r-field surface must point outward
        (away from r>iso region is inward ... the inside region here is
        r > iso, i.e. the shell exterior, so normals point toward the
        centre)."""
        g = sphere_grid(20)
        mesh = extract_isosurface(g, 0.6)
        centers = mesh.triangles.mean(axis=1)
        to_center = (np.array(g.center()) - centers)
        to_center /= np.linalg.norm(to_center, axis=1, keepdims=True)
        dots = np.einsum("ij,ij->i", mesh.normals(), to_center)
        # "inside" (value > iso) is the region far from the centre, so
        # normals must point away from it: toward the centre.
        assert (dots > 0).mean() > 0.99

    def test_area_approximates_sphere(self):
        n = 28
        g = sphere_grid(n)
        # radius in world units: field is r in [-1,1]^3 box mapped onto
        # an n-point lattice with spacing 1 -> world radius = iso*(n-1)/2
        iso = 0.6
        mesh = extract_isosurface(g, iso)
        r_world = iso * (n - 1) / 2.0
        expected = 4.0 * np.pi * r_world**2
        assert mesh.areas().sum() == pytest.approx(expected, rel=0.05)

    def test_surface_near_radius(self):
        g = sphere_grid(24)
        iso = 0.5
        mesh = extract_isosurface(g, iso)
        center = np.array(g.center())
        d = np.linalg.norm(mesh.triangles.reshape(-1, 3) - center, axis=1)
        r_world = iso * 23 / 2.0
        assert np.abs(d - r_world).max() < 1.0  # within one cell


class TestIsovalueOnASample:
    """One definition of "inside" when a float32 sample equals ``float32(iso)``.

    The cell scan used to compare in float32 (such a sample: outside) and
    the tetrahedron cases in float64 (inside, when ``float32(iso) > iso``),
    so the "exact" estimate and the extraction disagreed.
    """

    def test_sphere_with_samples_at_the_isovalue(self):
        g = sphere_grid(21)
        iso = 0.6
        assert np.float64(np.float32(iso)) > iso
        assert np.count_nonzero(g.values == np.float32(iso)) == 30
        mesh = extract_isosurface(g, iso)
        assert mesh.n_triangles == 3960
        assert mesh.boundary_edge_count() == 0
        assert estimate_triangles(g.values, iso) == 3960
        scan = classify_cells(g.values, iso)
        assert scan.sum() == g.n_cells
        merged, recs = extract_blocks(g, build_blocks(g, block_cells=5), iso)
        assert merged.n_triangles == 3960
        assert merged.boundary_edge_count() == 0
        assert sum(int(r.class_histogram[1:].sum()) for r in recs) == scan[1:].sum()

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(*[st.integers(2, 6)] * 3),
        iso=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(0, 2**16),
        planted=st.floats(min_value=0.0, max_value=0.6),
    )
    def test_estimate_is_exact_with_samples_planted_at_the_isovalue(
            self, shape, iso, seed, planted):
        rng = np.random.default_rng(seed)
        values = rng.random(shape, dtype=np.float32)
        # the float32 nearest to iso and its two neighbours
        at = np.float32(iso)
        near = np.array([np.nextafter(at, np.float32(0)), at,
                         np.nextafter(at, np.float32(1))], dtype=np.float32)
        mask = rng.random(shape) < planted
        values[mask] = rng.choice(near, size=int(mask.sum()))
        tris = extract_cells(values, iso)
        assert estimate_triangles(values, iso) == tris.shape[0]
        assert np.isfinite(tris).all()


class TestClassification:
    def test_histogram_counts_all_cells(self):
        g = sphere_grid(10)
        hist = classify_cells(g.values, 0.5)
        assert hist.sum() == g.n_cells
        assert hist.shape == (15,)

    def test_empty_iso_all_class_zero(self):
        g = sphere_grid(10)
        hist = classify_cells(g.values, 99.0)
        assert hist[0] == g.n_cells
        assert hist[1:].sum() == 0

    def test_active_classes_present_for_real_surface(self):
        g = sphere_grid(16)
        hist = classify_cells(g.values, 0.6)
        assert hist[1:].sum() > 0


class TestBlockExtraction:
    def test_block_union_matches_full_extraction(self):
        g = sphere_grid(17)
        iso = 0.6
        full = extract_isosurface(g, iso)
        blocks = build_blocks(g, block_cells=8)
        merged, recs = extract_blocks(g, blocks, iso)
        assert merged.n_triangles == full.n_triangles
        # same total area (ordering may differ)
        assert merged.areas().sum() == pytest.approx(full.areas().sum(), rel=1e-5)

    def test_blockwise_surface_still_closed(self):
        g = sphere_grid(17)
        blocks = build_blocks(g, block_cells=8)
        merged, _ = extract_blocks(g, blocks, 0.6)
        assert merged.boundary_edge_count() == 0

    def test_empty_blocks_skipped(self):
        g = sphere_grid(17)
        blocks = build_blocks(g, block_cells=4)
        _, recs = extract_blocks(g, blocks, 0.25)  # small sphere: few blocks
        assert len(recs) < len(blocks)

    def test_records_carry_stats(self):
        g = sphere_grid(17)
        blocks = build_blocks(g, block_cells=8)
        _, recs = extract_blocks(g, blocks, 0.6)
        for r in recs:
            assert r.seconds >= 0
            assert r.class_histogram.sum() == r.n_cells


class TestTriangleMesh:
    def test_concatenate_empty(self):
        m = TriangleMesh.concatenate([])
        assert m.n_triangles == 0

    def test_nbytes(self):
        tris = np.zeros((5, 3, 3), dtype=np.float32)
        assert TriangleMesh(tris).nbytes == 5 * 9 * 4

    def test_weld_merges_shared_vertices(self):
        g = sphere_grid(12)
        mesh = extract_isosurface(g, 0.6)
        verts, faces = mesh.weld()
        assert verts.shape[0] < mesh.n_triangles * 3
        assert faces.shape == (mesh.n_triangles, 3)

    @settings(max_examples=10, deadline=None)
    @given(iso=st.floats(min_value=0.3, max_value=0.9))
    def test_closed_for_any_interior_isovalue(self, iso):
        g = sphere_grid(14)
        mesh = extract_isosurface(g, iso)
        assert mesh.boundary_edge_count() == 0
