"""Test-only oracle: the octree brick geometry that was derived on every call.

This is the text of ``repro.data.octree.Octree``'s ``max_lod``,
``clamp_lod``, ``brick_grid``, ``bricks`` and ``bricks_in`` as they stood
before the geometry became values computed once in ``__init__``, kept
verbatim on a class that reads only the tree's ``grid`` and ``leaf_cells``,
so that the tests can require equal levels, grids and bricks on any grid
shape, leaf size, box and level.  It keeps the old cell rule: a box one
sample thick on an axis intersects no brick.
"""

from __future__ import annotations

from repro.data.octree import Brick


class OctreeGeometryOracle:
    """The brick geometry of ``tree``, recomputed from its shape every call."""

    def __init__(self, tree) -> None:
        self.grid = tree.grid
        self.leaf_cells = tree.leaf_cells
        self._brick_lists: dict[int, list[Brick]] = {}

    @property
    def max_lod(self) -> int:
        """Coarsest useful level: one brick tile spans the whole domain."""
        cells = max(max(s - 1, 1) for s in self.grid.shape)
        lod = 0
        while self.leaf_cells << lod < cells:
            lod += 1
        return lod

    def clamp_lod(self, lod: int) -> int:
        """Clamp ``lod`` to the tree's valid range (0 = finest = leaf depth)."""
        return min(max(int(lod), 0), self.max_lod)

    def brick_grid(self, lod: int) -> tuple[int, int, int]:
        """Brick counts per axis at ``lod``."""
        tile = self.leaf_cells << self.clamp_lod(lod)
        return tuple(  # type: ignore[return-value]
            (max(s - 1, 1) + tile - 1) // tile for s in self.grid.shape
        )

    def bricks(self, lod: int) -> list[Brick]:
        """Every brick at ``lod`` (built once per level, then cached)."""
        lod = self.clamp_lod(lod)
        cached = self._brick_lists.get(lod)
        if cached is not None:
            return cached
        tile = self.leaf_cells << lod
        step = 1 << lod
        nbx, nby, nbz = self.brick_grid(lod)
        shape = self.grid.shape
        out: list[Brick] = []
        index = 0
        for ix in range(nbx):
            for iy in range(nby):
                for iz in range(nbz):
                    offset = (ix * tile, iy * tile, iz * tile)
                    # One shared sample plane with the next brick, like
                    # build_blocks, so strided payloads tile seamlessly.
                    extent = tuple(
                        min(tile, shape[a] - 1 - offset[a]) + 1 for a in range(3)
                    )
                    out.append(Brick(lod, index, (ix, iy, iz), offset,
                                     extent, step))  # type: ignore[arg-type]
                    index += 1
        self._brick_lists[lod] = out
        return out

    def bricks_in(self, lo, hi, lod: int) -> list[Brick]:
        """Bricks at ``lod`` intersecting the ROI sample box ``[lo, hi)``.

        The box is clamped to the domain; a box fully outside (or empty
        after clamping) intersects nothing.  This is the sliding-window
        query: the web tier streams exactly these bricks to a client
        whose cursor covers ``[lo, hi)``.
        """
        lod = self.clamp_lod(lod)
        tile = self.leaf_cells << lod
        ranges: list[tuple[int, int]] = []
        for a in range(3):
            n_cells = max(self.grid.shape[a] - 1, 0)
            c0 = max(0, min(int(lo[a]), n_cells))
            c1 = max(0, min(int(hi[a]) - 1, n_cells))  # cells in [lo, hi)
            if c1 <= c0:
                return []
            ranges.append((c0 // tile, (c1 - 1) // tile + 1))
        bricks = self.bricks(lod)
        _, nby, nbz = self.brick_grid(lod)
        out: list[Brick] = []
        for ix in range(*ranges[0]):
            for iy in range(*ranges[1]):
                for iz in range(*ranges[2]):
                    out.append(bricks[(ix * nby + iy) * nbz + iz])
        return out
