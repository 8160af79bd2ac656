"""Octree / block decomposition of structured grids.

The paper's isosurface cost model (Section 4.4.1) is block-based: "one
typically traverses an octree to identify data blocks containing
isosurfaces ... the extraction is performed at the block level".  This
module provides that decomposition:

* :func:`build_blocks` — flat tiling into cell blocks of a given shape
  (with one-sample overlap so block-wise extraction is seam-free),
* :class:`Octree` — recursive subdivision whose leaves are blocks, with
  per-node value ranges enabling ``O(log)`` culling of empty regions.

The sliding-window delivery plane (Mundani et al., see PAPERS.md) adds a
second view over the same tree: :class:`Brick` tiles at a level of
detail.  At LOD ``L`` one brick covers ``leaf_cells * 2**L`` cells per
axis but its payload is sampled with stride ``2**L``, so every brick's
payload stays roughly leaf-sized regardless of level — a client panning
a fixed-size window over an out-of-core domain always streams the same
order of bytes per step, only the spatial extent changes.
:meth:`Octree.bricks_in` is the ROI intersection query the web tier's
window routes are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


from repro.data.grid import StructuredGrid
from repro.errors import ConfigurationError

__all__ = ["Block", "Brick", "Octree", "build_blocks"]


@dataclass(frozen=True, slots=True)
class Block:
    """A rectangular sub-volume of cells.

    ``offset`` is the sample index of the block's lowest corner and
    ``shape`` the *sample* extent (cells = shape - 1 per axis).  Blocks
    built by :func:`build_blocks` overlap by one sample plane so that
    marching over each block independently produces a seamless surface.
    """

    index: int
    offset: tuple[int, int, int]
    shape: tuple[int, int, int]
    vmin: float
    vmax: float

    @property
    def n_cells(self) -> int:
        return (
            max(self.shape[0] - 1, 0)
            * max(self.shape[1] - 1, 0)
            * max(self.shape[2] - 1, 0)
        )

    def contains_isovalue(self, iso: float) -> bool:
        """Whether an isosurface at ``iso`` can intersect this block."""
        return self.vmin <= iso <= self.vmax

    def slices(self) -> tuple[slice, slice, slice]:
        """Numpy slices selecting this block's samples from the grid."""
        return tuple(  # type: ignore[return-value]
            slice(o, o + s) for o, s in zip(self.offset, self.shape)
        )

    def extract(self, grid: StructuredGrid) -> StructuredGrid:
        """Materialize the block as a standalone grid (view, not copy)."""
        vals = grid.values[self.slices()]
        origin = tuple(
            grid.origin[a] + self.offset[a] * grid.spacing[a] for a in range(3)
        )
        return StructuredGrid(vals, grid.spacing, origin, grid.name)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class Brick:
    """One LOD tile of the sliding-window decomposition.

    ``offset`` is the full-resolution sample index of the brick's lowest
    corner, ``shape`` the full-resolution sample extent it covers, and
    ``step`` the sample stride (``2**lod``) its payload is read with —
    so the payload holds ``ceil(shape/step)`` samples per axis.  Brick
    offsets are multiples of ``leaf_cells * 2**lod``, which keeps every
    brick's strided samples on one global lattice per LOD: payloads from
    neighbouring bricks tile seamlessly into a window view.
    """

    lod: int
    index: int
    ijk: tuple[int, int, int]
    offset: tuple[int, int, int]
    shape: tuple[int, int, int]
    step: int

    @property
    def payload_shape(self) -> tuple[int, int, int]:
        """Samples per axis in the strided payload."""
        return tuple(  # type: ignore[return-value]
            (s + self.step - 1) // self.step for s in self.shape
        )

    @property
    def payload_samples(self) -> int:
        nx, ny, nz = self.payload_shape
        return nx * ny * nz

    def slices(self) -> tuple[slice, slice, slice]:
        """Strided numpy slices selecting this brick's payload samples."""
        return tuple(  # type: ignore[return-value]
            slice(o, o + s, self.step) for o, s in zip(self.offset, self.shape)
        )


def build_blocks(
    grid: StructuredGrid, block_cells: int | tuple[int, int, int] = 16
) -> list[Block]:
    """Tile ``grid`` into blocks of at most ``block_cells`` cells per axis.

    Consecutive blocks share one sample plane (cells never overlap, but
    samples do), so per-block marching cubes tiles the full volume.
    """
    if isinstance(block_cells, int):
        block_cells = (block_cells, block_cells, block_cells)
    if any(b < 1 for b in block_cells):
        raise ConfigurationError("block_cells must be >= 1 per axis")
    nx, ny, nz = grid.shape
    if min(nx, ny, nz) < 2:
        raise ConfigurationError("grid too small to decompose into cell blocks")

    starts = []
    for n, b in zip((nx, ny, nz), block_cells):
        starts.append(list(range(0, n - 1, b)))

    blocks: list[Block] = []
    idx = 0
    for i0 in starts[0]:
        for j0 in starts[1]:
            for k0 in starts[2]:
                shape = (
                    min(block_cells[0], nx - 1 - i0) + 1,
                    min(block_cells[1], ny - 1 - j0) + 1,
                    min(block_cells[2], nz - 1 - k0) + 1,
                )
                sub = grid.values[
                    i0 : i0 + shape[0], j0 : j0 + shape[1], k0 : k0 + shape[2]
                ]
                blocks.append(
                    Block(
                        index=idx,
                        offset=(i0, j0, k0),
                        shape=shape,
                        vmin=float(sub.min()),
                        vmax=float(sub.max()),
                    )
                )
                idx += 1
    return blocks


class _Node:
    __slots__ = ("offset", "shape", "vmin", "vmax", "children", "block")

    def __init__(self, offset, shape, vmin, vmax):
        self.offset = offset
        self.shape = shape
        self.vmin = vmin
        self.vmax = vmax
        self.children: list["_Node"] = []
        self.block: Block | None = None


class Octree:
    """Recursive octree over a grid with per-node min/max ranges.

    Leaves are :class:`Block` objects of roughly ``leaf_cells`` cells per
    axis.  :meth:`active_blocks` prunes whole subtrees whose value range
    excludes the isovalue — the traversal the paper's Eq. 4 counts as
    ``n_blocks``.

    ``max_lod`` is the coarsest useful brick level: one brick tile spans
    the whole domain.  It and the per-level brick grid are plain values
    computed here, since a tree's shape never changes: the window plane
    reads them on every pan, fetch and publish.
    """

    def __init__(self, grid: StructuredGrid, leaf_cells: int = 16) -> None:
        if leaf_cells < 1:
            raise ConfigurationError("leaf_cells must be >= 1")
        self.grid = grid
        self.leaf_cells = leaf_cells
        self._leaf_count = 0
        nx, ny, nz = grid.shape
        self.root = self._build((0, 0, 0), (nx, ny, nz))
        self._samples = (nx, ny, nz)
        cells = [max(s - 1, 1) for s in self._samples]
        lod = 0
        while leaf_cells << lod < max(cells):
            lod += 1
        self.max_lod = lod
        self._grids = [tuple(-(-c // (leaf_cells << level)) for c in cells)
                       for level in range(lod + 1)]
        self._brick_lists: list[list[Brick] | None] = [None] * (lod + 1)

    def _build(self, offset: tuple[int, int, int], shape: tuple[int, int, int]) -> _Node:
        sub = self.grid.values[
            offset[0] : offset[0] + shape[0],
            offset[1] : offset[1] + shape[1],
            offset[2] : offset[2] + shape[2],
        ]
        node = _Node(offset, shape, float(sub.min()), float(sub.max()))
        cells = [max(s - 1, 0) for s in shape]
        if all(c <= self.leaf_cells for c in cells):
            node.block = Block(
                index=self._leaf_count,
                offset=offset,
                shape=shape,
                vmin=node.vmin,
                vmax=node.vmax,
            )
            self._leaf_count += 1
            return node
        # Split every axis whose cell count exceeds the leaf size; halves
        # share the central sample plane (cell-exact split).
        halves: list[list[tuple[int, int]]] = []
        for a in range(3):
            if cells[a] > self.leaf_cells:
                half = cells[a] // 2
                halves.append(
                    [(offset[a], half + 1), (offset[a] + half, shape[a] - half)]
                )
            else:
                halves.append([(offset[a], shape[a])])
        for ox, sx in halves[0]:
            for oy, sy in halves[1]:
                for oz, sz in halves[2]:
                    node.children.append(self._build((ox, oy, oz), (sx, sy, sz)))
        return node

    # -- queries -----------------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return self._leaf_count

    def leaves(self) -> Iterator[Block]:
        """All leaf blocks (depth-first order)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.block is not None:
                yield node.block
            else:
                stack.extend(reversed(node.children))

    def active_blocks(self, iso: float) -> list[Block]:
        """Leaf blocks whose range brackets ``iso`` (pruned traversal)."""
        out: list[Block] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not (node.vmin <= iso <= node.vmax):
                continue
            if node.block is not None:
                out.append(node.block)
            else:
                stack.extend(reversed(node.children))
        return out

    # -- LOD bricks (sliding-window decomposition) --------------------------------

    def clamp_lod(self, lod: int) -> int:
        """Clamp ``lod`` to the tree's valid range (0 = finest = leaf depth)."""
        return min(max(int(lod), 0), self.max_lod)

    def brick_grid(self, lod: int) -> tuple[int, int, int]:
        """Brick counts per axis at ``lod``."""
        return self._grids[self.clamp_lod(lod)]  # type: ignore[return-value]

    def bricks(self, lod: int) -> list[Brick]:
        """Every brick at ``lod`` (built once per level, then cached)."""
        lod = self.clamp_lod(lod)
        cached = self._brick_lists[lod]
        if cached is not None:
            return cached
        tile = self.leaf_cells << lod
        step = 1 << lod
        nbx, nby, nbz = self._grids[lod]
        shape = self._samples
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

        The box is clamped to the domain's samples first; a box fully
        outside (or empty after clamping) intersects nothing.  The bricks
        are those of the cells ``[lo, hi - 1)`` between the box's
        samples, and an axis one sample thick takes the cell holding its
        sample (the last cell for the last sample), so every sample of
        the box lies in a returned brick.  This is the sliding-window
        query: the web tier streams exactly these bricks to a client
        whose cursor covers ``[lo, hi)``, and dirties exactly these when a
        step touches ``[lo, hi)``.
        """
        lod = self.clamp_lod(lod)
        tile = self.leaf_cells << lod
        ranges: list[range] = []
        for a, n in enumerate(self._samples):
            s0 = max(int(lo[a]), 0)
            s1 = min(int(hi[a]), n)  # samples [s0, s1) inside the domain
            if s1 <= s0:
                return []
            c0 = min(s0, max(n - 2, 0))
            c1 = max(s1 - 1, c0 + 1)  # cells [c0, c1), at least one
            ranges.append(range(c0 // tile, (c1 - 1) // tile + 1))
        bricks = self._brick_lists[lod] or self.bricks(lod)
        _, nby, nbz = self._grids[lod]
        return [bricks[(ix * nby + iy) * nbz + iz]
                for ix in ranges[0] for iy in ranges[1] for iz in ranges[2]]

    def brick_values(self, brick: Brick):
        """The brick's strided payload samples (a view into the grid)."""
        return self.grid.values[brick.slices()]

    def nodes_visited(self, iso: float) -> int:
        """Number of octree nodes touched by a pruned traversal."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not (node.vmin <= iso <= node.vmax):
                continue
            if node.block is None:
                stack.extend(node.children)
        return count
