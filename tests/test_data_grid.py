"""Unit tests for structured grids and vector fields."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import StructuredGrid, VectorField
from repro.errors import ConfigurationError


def sphere_grid(n=16, spacing=(1.0, 1.0, 1.0)) -> StructuredGrid:
    ax = np.linspace(-1, 1, n, dtype=np.float32)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    return StructuredGrid(np.sqrt(X**2 + Y**2 + Z**2), spacing=spacing, name="r")


class TestStructuredGrid:
    def test_basic_properties(self):
        g = sphere_grid(8)
        assert g.shape == (8, 8, 8)
        assert g.n_samples == 512
        assert g.n_cells == 343
        assert g.nbytes == 512 * 4
        assert g.vmin >= 0.0

    def test_rejects_non_3d(self):
        with pytest.raises(ConfigurationError):
            StructuredGrid(np.zeros((4, 4)))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ConfigurationError):
            StructuredGrid(np.zeros((4, 4, 4)), spacing=(1.0, 0.0, 1.0))

    def test_bounds_and_center(self):
        g = StructuredGrid(np.zeros((5, 5, 5)), spacing=(2.0, 1.0, 1.0), origin=(1, 0, 0))
        lo, hi = g.bounds()
        assert lo.tolist() == [1, 0, 0]
        assert hi.tolist() == [9, 4, 4]
        assert g.center().tolist() == [5, 2, 2]

    def test_normalized_range(self):
        g = sphere_grid()
        n = g.normalized()
        assert n.vmin == pytest.approx(0.0)
        assert n.vmax == pytest.approx(1.0)

    def test_normalized_constant_field(self):
        g = StructuredGrid(np.full((4, 4, 4), 7.0))
        assert g.normalized().vmax == 0.0

    def test_octants_cover_volume_with_shared_plane(self):
        g = sphere_grid(16)
        total = 0
        for i in range(8):
            o = g.octant(i)
            assert min(o.shape) >= 8
            total += o.n_samples
        # Lower halves keep the shared mid plane (9 samples), upper halves
        # have 8: per axis 9 + 8 = 17 samples counted across octants.
        assert total == 17 * 17 * 17

    def test_octant_values_match_source(self):
        g = sphere_grid(16)
        o = g.octant(7)  # upper halves on all axes
        np.testing.assert_array_equal(o.values, g.values[8:, 8:, 8:])
        assert o.origin == (8.0, 8.0, 8.0)

    def test_octant_bad_index(self):
        with pytest.raises(ConfigurationError):
            sphere_grid().octant(8)

    def test_gradient_of_linear_field(self):
        ax = np.arange(8, dtype=np.float32)
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        g = StructuredGrid(2 * X + 3 * Y - Z)
        grad = g.gradient()
        np.testing.assert_allclose(grad.u, 2.0, atol=1e-5)
        np.testing.assert_allclose(grad.v, 3.0, atol=1e-5)
        np.testing.assert_allclose(grad.w, -1.0, atol=1e-5)

    def test_sample_world_on_nodes(self):
        g = sphere_grid(8)
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 2.0, 1.0]])
        vals = g.sample_world(pts)
        assert vals[0] == pytest.approx(g.values[0, 0, 0])
        assert vals[1] == pytest.approx(g.values[3, 2, 1])

    def test_sample_world_interpolates(self):
        ax = np.arange(4, dtype=np.float32)
        X, _, _ = np.meshgrid(ax, ax, ax, indexing="ij")
        g = StructuredGrid(X)
        assert g.sample_world(np.array([[1.5, 0, 0]]))[0] == pytest.approx(1.5)


class TestVectorField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            VectorField(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), np.zeros((4, 3, 3)))

    def test_magnitude(self):
        shape = (4, 4, 4)
        f = VectorField(np.full(shape, 3.0), np.full(shape, 4.0), np.zeros(shape))
        mag = f.magnitude()
        np.testing.assert_allclose(mag.values, 5.0, rtol=1e-6)

    def test_sample_world_components(self):
        shape = (5, 5, 5)
        f = VectorField(np.full(shape, 1.0), np.full(shape, 2.0), np.full(shape, 3.0))
        v = f.sample_world(np.array([[2.2, 2.7, 1.1]]))
        np.testing.assert_allclose(v, [[1.0, 2.0, 3.0]], rtol=1e-6)

    def test_nbytes(self):
        f = VectorField(*[np.zeros((4, 4, 4), dtype=np.float32)] * 3)
        assert f.nbytes == 3 * 64 * 4
