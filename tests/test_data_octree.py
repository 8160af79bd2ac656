"""Tests for block tiling and octree decomposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import StructuredGrid, build_blocks
from repro.data.octree import Octree
from repro.errors import ConfigurationError

from tests.octree_oracle import OctreeGeometryOracle
from tests.test_data_grid import sphere_grid


class TestBuildBlocks:
    def test_blocks_tile_all_cells(self):
        g = sphere_grid(17)  # 16 cells per axis
        blocks = build_blocks(g, block_cells=8)
        assert len(blocks) == 8
        assert sum(b.n_cells for b in blocks) == g.n_cells

    def test_uneven_tiling(self):
        g = sphere_grid(13)  # 12 cells per axis, blocks of 8 -> 8 + 4
        blocks = build_blocks(g, block_cells=8)
        assert sum(b.n_cells for b in blocks) == g.n_cells
        shapes = {b.shape for b in blocks}
        assert (9, 9, 9) in shapes and (5, 5, 5) in shapes

    def test_blocks_share_sample_planes(self):
        g = sphere_grid(17)
        blocks = build_blocks(g, block_cells=8)
        b0 = next(b for b in blocks if b.offset == (0, 0, 0))
        b1 = next(b for b in blocks if b.offset == (8, 0, 0))
        # last sample plane of b0 == first of b1
        assert b0.offset[0] + b0.shape[0] - 1 == b1.offset[0]

    def test_minmax_correct(self):
        g = sphere_grid(17)
        for b in build_blocks(g, block_cells=8):
            sub = g.values[b.slices()]
            assert b.vmin == pytest.approx(float(sub.min()))
            assert b.vmax == pytest.approx(float(sub.max()))

    def test_extract_block_grid(self):
        g = sphere_grid(17)
        b = build_blocks(g, block_cells=8)[0]
        sub = b.extract(g)
        assert sub.shape == b.shape
        np.testing.assert_array_equal(sub.values, g.values[b.slices()])

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigurationError):
            build_blocks(StructuredGrid(np.zeros((1, 4, 4))), 4)

    def test_rejects_bad_block_cells(self):
        with pytest.raises(ConfigurationError):
            build_blocks(sphere_grid(), 0)


class TestOctree:
    def test_leaves_tile_cells(self):
        g = sphere_grid(33)
        tree = Octree(g, leaf_cells=8)
        assert sum(b.n_cells for b in tree.leaves()) == g.n_cells

    def test_active_blocks_bracket_isovalue(self):
        g = sphere_grid(33)
        iso = 0.5
        active = Octree(g, leaf_cells=8).active_blocks(iso)
        for b in active:
            assert b.vmin <= iso <= b.vmax

    def test_active_blocks_match_linear_scan(self):
        g = sphere_grid(33)
        tree = Octree(g, leaf_cells=8)
        iso = 0.5
        linear = {b.offset for b in tree.leaves() if b.contains_isovalue(iso)}
        pruned = {b.offset for b in tree.active_blocks(iso)}
        assert linear == pruned

    def test_pruning_visits_fewer_nodes(self):
        g = sphere_grid(65)
        tree = Octree(g, leaf_cells=8)
        # isovalue near zero -> only central blocks active
        assert tree.nodes_visited(0.1) < tree.nodes_visited(0.9)

    def test_out_of_range_iso_prunes_everything(self):
        g = sphere_grid(33)
        tree = Octree(g, leaf_cells=8)
        assert tree.active_blocks(99.0) == []
        assert tree.nodes_visited(99.0) == 1  # root only

    def test_leaf_count_property(self):
        g = sphere_grid(33)
        tree = Octree(g, leaf_cells=8)
        assert tree.n_leaves == len(list(tree.leaves()))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=5, max_value=24), leaf=st.integers(min_value=2, max_value=16))
    def test_cell_conservation_property(self, n, leaf):
        g = sphere_grid(n)
        tree = Octree(g, leaf_cells=leaf)
        assert sum(b.n_cells for b in tree.leaves()) == g.n_cells


@st.composite
def _thick_box(draw, shape):
    """A sample box at least 2 samples thick on every axis once clamped to
    ``shape``; an axis that reaches the domain's edge may run past it."""
    lo, hi = [], []
    for n in shape:
        a = draw(st.integers(0, n - 2))
        b = draw(st.integers(a + 2, n))
        lo.append(a - (draw(st.integers(0, 5)) if a == 0 else 0))
        hi.append(b + (draw(st.integers(0, 5)) if b == n else 0))
    return tuple(lo), tuple(hi)


class TestBrickGeometryOracle:
    """The geometry computed once in ``__init__`` equals the geometry the
    tree used to derive from its shape on every call (tests/octree_oracle.py)."""

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(*[st.integers(2, 33)] * 3),
           leaf=st.integers(1, 32), data=st.data())
    def test_levels_grids_and_bricks_equal_the_oracle(self, shape, leaf, data):
        tree = Octree(StructuredGrid(np.zeros(shape, dtype=np.float32)),
                      leaf_cells=leaf)
        oracle = OctreeGeometryOracle(tree)
        assert tree.max_lod == oracle.max_lod
        for lod in range(-1, tree.max_lod + 2):
            assert tree.clamp_lod(lod) == oracle.clamp_lod(lod)
            assert tree.brick_grid(lod) == oracle.brick_grid(lod)
            assert tree.bricks(lod) == oracle.bricks(lod)
        for _ in range(8):
            lo, hi = data.draw(_thick_box(shape))
            lod = data.draw(st.integers(-1, tree.max_lod + 1))
            assert tree.bricks_in(lo, hi, lod) == oracle.bricks_in(lo, hi, lod), (
                lo, hi, lod)

    def test_a_one_sample_slab_is_where_the_oracle_saw_nothing(self):
        """The x = 16 slice of a 65^3 domain: the old cell rule found no
        cell between one sample and itself; the slab now takes the bricks
        holding it, and the last sample plane takes the last bricks."""
        tree = Octree(StructuredGrid(np.zeros((65,) * 3, dtype=np.float32)),
                      leaf_cells=16)
        oracle = OctreeGeometryOracle(tree)
        assert oracle.bricks_in((16, 0, 0), (17, 65, 65), 0) == []
        slab = tree.bricks_in((16, 0, 0), (17, 65, 65), 0)
        assert {b.ijk[0] for b in slab} == {1} and len(slab) == 16
        last = tree.bricks_in((64, 0, 0), (65, 65, 65), 0)
        assert {b.ijk[0] for b in last} == {3} and len(last) == 16
        assert tree.bricks_in((65, 0, 0), (66, 65, 65), 0) == []
