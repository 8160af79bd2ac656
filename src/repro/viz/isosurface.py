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
from concurrent.futures import ThreadPoolExecutor
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


def extract_cells(
    values: np.ndarray,
    iso: float,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> np.ndarray:
    """Marching-tetrahedra extraction over a raw sample array.

    Returns a float32 triangle array of shape (M, 3, 3) in world space.
    """
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 3 or min(values.shape) < 2:
        raise ConfigurationError("need a 3-D array with >= 2 samples per axis")
    cfg = _cell_configs(values, iso)
    active = np.flatnonzero((cfg.ravel() > 0) & (cfg.ravel() < 255))
    if active.size == 0:
        return np.zeros((0, 3, 3), dtype=np.float32)

    ci, cj, ck = np.unravel_index(active, cfg.shape)
    corners = np.stack([ci, cj, ck], axis=1).astype(np.float64)  # (A, 3)

    # Gather the 8 corner values of each active cell: (A, 8).
    cell_vals = np.empty((active.size, 8), dtype=np.float64)
    for vi, (dx, dy, dz) in enumerate(CUBE_VERTICES):
        cell_vals[:, vi] = values[ci + dx, cj + dy, ck + dz]

    spacing_arr = np.asarray(spacing, dtype=np.float64)
    origin_arr = np.asarray(origin, dtype=np.float64)
    verts_local = CUBE_VERTICES.astype(np.float64)

    tris_out: list[np.ndarray] = []
    for tet in TET_DECOMPOSITION:
        tvals = cell_vals[:, tet]  # (A, 4)
        tmask = (
            (tvals[:, 0] > iso).astype(np.int8)
            | ((tvals[:, 1] > iso).astype(np.int8) << 1)
            | ((tvals[:, 2] > iso).astype(np.int8) << 2)
            | ((tvals[:, 3] > iso).astype(np.int8) << 3)
        )
        for case in range(1, 15):
            rows = np.flatnonzero(tmask == case)
            if rows.size == 0:
                continue
            base = corners[rows]  # (R, 3) cell corner indices
            vals = tvals[rows]  # (R, 4)
            inside_bits = [i for i in range(4) if (case >> i) & 1]
            # Centroid of the inside vertices, used to orient normals
            # outward from the inside (> iso) region.
            inside_pts = np.zeros((rows.size, 3))
            for i in inside_bits:
                inside_pts += base + verts_local[tet[i]]
            inside_pts /= len(inside_bits)

            for tri_edges in TET_CASE_TRIS[case]:
                pts = np.empty((rows.size, 3, 3))
                for t_i, (a, b) in enumerate(tri_edges):
                    fa = vals[:, a]
                    fb = vals[:, b]
                    denom = fb - fa
                    denom = np.where(np.abs(denom) < 1e-30, 1e-30, denom)
                    t = np.clip((iso - fa) / denom, 0.0, 1.0)
                    pa = base + verts_local[tet[a]]
                    pb = base + verts_local[tet[b]]
                    pts[:, t_i, :] = pa + t[:, None] * (pb - pa)
                # Normalize winding: face normal must point away from the
                # inside region (consistent orientation across the mesh).
                n = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
                to_inside = inside_pts - pts.mean(axis=1)
                flip = np.einsum("ij,ij->i", n, to_inside) > 0
                if np.any(flip):
                    pts[flip] = pts[flip][:, [0, 2, 1], :]
                tris_out.append(pts)

    if not tris_out:
        return np.zeros((0, 3, 3), dtype=np.float32)
    tris = np.concatenate(tris_out, axis=0)
    tris = tris * spacing_arr + origin_arr
    return tris.astype(np.float32)


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
    parallel: bool = False,
    max_workers: int = 4,
    skip_empty: bool = True,
) -> tuple[TriangleMesh, list[BlockExtractionRecord]]:
    """Block-level extraction per the paper's Eq. 4 formulation.

    Blocks whose value range excludes ``iso`` are skipped (that is the
    octree's whole point); the rest are marched serially or in a thread
    pool (the large numpy kernels release the GIL).
    """
    todo = [b for b in blocks if (not skip_empty) or b.contains_isovalue(iso)]
    results: list[tuple[np.ndarray, BlockExtractionRecord]] = []
    if parallel and len(todo) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(lambda b: _extract_one_block(grid, b, iso), todo))
    else:
        results = [_extract_one_block(grid, b, iso) for b in todo]

    meshes = [TriangleMesh(t, iso) for t, _ in results]
    records = [r for _, r in results]
    return TriangleMesh.concatenate(meshes, iso), records
