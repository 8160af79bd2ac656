"""Isosurface extraction (the paper's "transformation" module).

Marching cubes with tetrahedral triangulation: each active cell (one
whose corner values bracket the isovalue) is split into the six
tetrahedra of :data:`~repro.viz.mc_tables.TET_DECOMPOSITION`; each tet is
triangulated by the 16-case table.  The result is a topologically
consistent (watertight on closed surfaces) triangle soup.

Block-level extraction (:func:`extract_blocks`) follows the paper's
octree-accelerated formulation of Eq. 4: only blocks whose value range
brackets the isovalue are marched, optionally in parallel across worker
threads (the MPI-cluster substitute).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.grid import StructuredGrid
from repro.data.octree import Block
from repro.errors import ConfigurationError
from repro.viz.mc_tables import (
    CUBE_VERTICES,
    MC_CASE_CLASS,
    N_MC_CLASSES,
    TET_CASE_TRIS,
    TET_DECOMPOSITION,
    TRIANGLES_PER_CONFIG,
)

__all__ = [
    "TriangleMesh",
    "BlockExtractionRecord",
    "classify_cells",
    "estimate_triangles",
    "extract_cells",
    "extract_isosurface",
    "extract_blocks",
]


@dataclass
class TriangleMesh:
    """Triangle soup produced by extraction.

    ``triangles`` has shape ``(M, 3, 3)``: M triangles, 3 vertices, xyz.
    """

    triangles: np.ndarray
    isovalue: float = 0.0
    name: str = "isosurface"

    def __post_init__(self) -> None:
        self.triangles = np.asarray(self.triangles, dtype=np.float32)
        if self.triangles.size == 0:
            self.triangles = self.triangles.reshape(0, 3, 3)
        if self.triangles.ndim != 3 or self.triangles.shape[1:] != (3, 3):
            raise ConfigurationError(
                f"triangles must have shape (M, 3, 3), got {self.triangles.shape}"
            )

    @property
    def n_triangles(self) -> int:
        return int(self.triangles.shape[0])

    @property
    def nbytes(self) -> int:
        """Geometry payload size (what the data channel must move)."""
        return int(self.triangles.nbytes)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n_triangles == 0:
            return np.zeros(3), np.zeros(3)
        flat = self.triangles.reshape(-1, 3)
        return flat.min(axis=0), flat.max(axis=0)

    def normals(self) -> np.ndarray:
        """Unit face normals, shape (M, 3)."""
        a = self.triangles[:, 1] - self.triangles[:, 0]
        b = self.triangles[:, 2] - self.triangles[:, 0]
        n = np.cross(a, b)
        norms = np.linalg.norm(n, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return n / norms

    def areas(self) -> np.ndarray:
        """Per-triangle areas."""
        a = self.triangles[:, 1] - self.triangles[:, 0]
        b = self.triangles[:, 2] - self.triangles[:, 0]
        return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)

    def weld(self, decimals: int = 5) -> tuple[np.ndarray, np.ndarray]:
        """Merge coincident vertices; returns (vertices (V,3), faces (M,3))."""
        flat = np.round(self.triangles.reshape(-1, 3), decimals)
        verts, inverse = np.unique(flat, axis=0, return_inverse=True)
        faces = inverse.reshape(-1, 3)
        return verts, faces

    def boundary_edge_count(self, decimals: int = 5) -> int:
        """Edges used by exactly one triangle (0 for a closed surface)."""
        _, faces = self.weld(decimals)
        if faces.size == 0:
            return 0
        edges = np.concatenate(
            [faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0
        )
        edges.sort(axis=1)
        # Discard degenerate (zero-length) edges from triangles that
        # touch a cell corner exactly.
        edges = edges[edges[:, 0] != edges[:, 1]]
        _, counts = np.unique(edges, axis=0, return_counts=True)
        return int(np.sum(counts == 1))

    @staticmethod
    def concatenate(meshes: list["TriangleMesh"], isovalue: float = 0.0) -> "TriangleMesh":
        """Merge triangle soups (block-wise extraction results)."""
        arrays = [m.triangles for m in meshes if m.n_triangles > 0]
        if not arrays:
            return TriangleMesh(np.zeros((0, 3, 3), dtype=np.float32), isovalue)
        return TriangleMesh(np.concatenate(arrays, axis=0), isovalue)


@dataclass(slots=True)
class BlockExtractionRecord:
    """Timing/size record for one extracted block (cost-model input)."""

    block_index: int
    n_cells: int
    n_triangles: int
    seconds: float
    class_histogram: np.ndarray = field(default=None)  # type: ignore[assignment]


def _cell_configs(values: np.ndarray, iso: float) -> np.ndarray:
    """8-bit corner configuration for every cell, shape (nx-1, ny-1, nz-1).

    "Inside" is decided in float64, like the tetrahedron cases of
    :func:`extract_cells` and ``Block.contains_isovalue``: against a bare
    Python float, float32 samples would compare in float32, and a sample
    equal to ``float32(iso)`` would be outside here but inside there.
    """
    inside = values > np.float64(iso)
    nx, ny, nz = values.shape
    cfg = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint8)
    for vi, (dx, dy, dz) in enumerate(CUBE_VERTICES):
        cfg |= (
            inside[dx : dx + nx - 1, dy : dy + ny - 1, dz : dz + nz - 1].astype(np.uint8)
            << vi
        )
    return cfg


def classify_cells(values: np.ndarray, iso: float) -> np.ndarray:
    """Histogram of cells over the 15 MC classes (Eq. 5's ``P_Case``)."""
    cfg = _cell_configs(np.asarray(values), iso)
    classes = MC_CASE_CLASS[cfg.ravel()]
    return np.bincount(classes, minlength=N_MC_CLASSES)


def estimate_triangles(values: np.ndarray, iso: float) -> int:
    """Exact triangle count without constructing geometry (table lookup)."""
    cfg = _cell_configs(np.asarray(values), iso)
    return int(TRIANGLES_PER_CONFIG[cfg.ravel()].sum())


def _gather_tables() -> tuple[np.ndarray, ...]:
    """Per group key ``(tet * 16 + case) * 2 + k`` (triangle k of the case):
    its edges' cube vertices (a, b), a's offset and b - a per axis, and the
    summed offsets and count of the tet's inside vertices."""
    ends = np.zeros((2, 3, 192), dtype=np.intp)
    inside = np.zeros((3, 192))
    n_inside = np.ones(192)
    for t, tet in enumerate(TET_DECOMPOSITION):
        for case in range(1, 15):
            verts = [v for i, v in enumerate(tet) if (case >> i) & 1]
            for k, tri_edges in enumerate(TET_CASE_TRIS[case]):
                key = (t * 16 + case) * 2 + k
                ends[:, :, key] = tet[np.array(tri_edges)].T
                inside[:, key] = CUBE_VERTICES[verts].sum(axis=0)
                n_inside[key] = len(verts)
    xyz = CUBE_VERTICES.T.astype(np.float64)
    return ends, xyz[:, ends[0]], xyz[:, ends[1]] - xyz[:, ends[0]], inside, n_inside


_TRI_ENDS, _EDGE_OFFSET, _EDGE_STEP, _INSIDE_SUM, _N_INSIDE = _gather_tables()
_N_TRIS = np.array([len(TET_CASE_TRIS[case]) for case in range(16)])


def extract_cells(
    values: np.ndarray,
    iso: float,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> np.ndarray:
    """Marching-tetrahedra extraction over a raw sample array.

    Returns a float32 triangle array of shape (M, 3, 3) in world space,
    ordered by (tet, case, triangle, cell).  One axis-major gather over all
    triangles, each float64 operation that of the per-(tet, case) loop in
    ``tests/iso_oracle.py``, so the bytes do not depend on the batching.
    """
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 3 or min(values.shape) < 2:
        raise ConfigurationError("need a 3-D array with >= 2 samples per axis")
    cfg = _cell_configs(values, iso)
    active = np.flatnonzero((cfg.ravel() > 0) & (cfg.ravel() < 255))
    if active.size == 0:
        return np.zeros((0, 3, 3), dtype=np.float32)

    ci, cj, ck = np.unravel_index(active, cfg.shape)
    corners = np.stack([ci, cj, ck]).astype(np.float64)  # (3, A)

    # Gather the 8 corner values of each active cell: (A, 8).
    cell_vals = np.empty((active.size, 8), dtype=np.float64)
    for vi, (dx, dy, dz) in enumerate(CUBE_VERTICES):
        cell_vals[:, vi] = values[ci + dx, cj + dy, ck + dz]

    # One entry per triangle: all first triangles, then the quads' second
    # ones, each in (cell, tet) order, so a stable sort on the group key
    # leaves the cells ascending within a group.
    cases = ((cell_vals[:, TET_DECOMPOSITION] > iso) @ (1, 2, 4, 8)).ravel()
    n_tris = _N_TRIS[cases]
    slots = np.concatenate([np.flatnonzero(n_tris > 0), np.flatnonzero(n_tris > 1)])
    second = np.arange(slots.size) >= np.count_nonzero(n_tris)
    row, tet = np.divmod(slots, 6)
    key = (tet * 16 + cases[slots]) * 2 + second
    order = np.argsort(key.astype(np.uint8), kind="stable")
    row, key = row[order], key[order]

    # Interpolate along the 3 edges of every triangle: (axis, vertex, N).
    a, b = _TRI_ENDS.take(key, axis=2) + row * 8
    fa, fb = cell_vals.ravel().take(a), cell_vals.ravel().take(b)
    denom = fb - fa
    denom = np.where(np.abs(denom) < 1e-30, 1e-30, denom)
    t = np.clip((iso - fa) / denom, 0.0, 1.0)
    base = corners.take(row, axis=1)[:, None]
    pts = _EDGE_STEP.take(key, axis=2)  # pa + t * (pb - pa), pb - pa exact
    pts *= t
    pts += base + _EDGE_OFFSET.take(key, axis=2)

    # Normalize winding: the face normal must point away from the inside
    # (> iso) vertices' centroid.  np.cross and mean, per axis; the dot
    # stays an einsum over (N, 3) rows (its summation order is its own).
    (x1, y1, z1), (x2, y2, z2) = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    n = np.stack([y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2], axis=1)
    n_inside = _N_INSIDE.take(key)
    inside = (base[:, 0] * n_inside + _INSIDE_SUM.take(key, axis=1)) / n_inside
    to_inside = np.stack(list(inside - (pts[:, 0] + pts[:, 1] + pts[:, 2]) / 3), axis=1)
    flip = np.einsum("ij,ij->i", n, to_inside) > 0
    pts[:, 1], pts[:, 2] = np.where(flip, pts[:, 2], pts[:, 1]), np.where(flip, pts[:, 1], pts[:, 2])

    pts *= np.asarray(spacing, dtype=np.float64)[:, None, None]
    pts += np.asarray(origin, dtype=np.float64)[:, None, None]
    tris = np.empty((row.size, 3, 3), dtype=np.float32)
    tris.transpose(2, 1, 0)[...] = pts
    return tris


def extract_isosurface(grid: StructuredGrid, iso: float) -> TriangleMesh:
    """Extract the ``iso`` surface of a grid in world coordinates."""
    tris = extract_cells(grid.values, iso, grid.origin, grid.spacing)
    return TriangleMesh(tris, isovalue=iso, name=f"iso({grid.name})")


def _extract_one_block(
    grid: StructuredGrid, block: Block, iso: float
) -> tuple[np.ndarray, BlockExtractionRecord]:
    t0 = time.perf_counter()
    sub = grid.values[block.slices()]
    origin = tuple(
        grid.origin[a] + block.offset[a] * grid.spacing[a] for a in range(3)
    )
    tris = extract_cells(sub, iso, origin, grid.spacing)
    dt = time.perf_counter() - t0
    rec = BlockExtractionRecord(
        block_index=block.index,
        n_cells=block.n_cells,
        n_triangles=int(tris.shape[0]),
        seconds=dt,
        class_histogram=classify_cells(sub, iso),
    )
    return tris, rec


def extract_blocks(
    grid: StructuredGrid,
    blocks: list[Block],
    iso: float,
    skip_empty: bool = True,
) -> tuple[TriangleMesh, list[BlockExtractionRecord]]:
    """Block-level extraction per the paper's Eq. 4 formulation.

    Blocks whose value range excludes ``iso`` are skipped (that is the
    octree's whole point); the rest are marched one after another.
    """
    todo = [b for b in blocks if (not skip_empty) or b.contains_isovalue(iso)]
    results = [_extract_one_block(grid, b, iso) for b in todo]

    meshes = [TriangleMesh(t, iso) for t, _ in results]
    records = [r for _, r in results]
    return TriangleMesh.concatenate(meshes, iso), records
