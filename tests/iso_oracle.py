"""Test-only oracle: the per-(tet, case) marching-tetrahedra loop ``extract_cells`` replaced.

This is the text of ``repro.viz.isosurface.extract_cells`` as it stood before
the table-driven gather, kept verbatim (only the name changed) so that the
tests can require byte-identical ``(M, 3, 3)`` float32 triangle arrays from the
kernel on any field, isovalue, origin and spacing: the same triangles, in the
same order, with the same winding.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.viz.isosurface import _cell_configs
from repro.viz.mc_tables import CUBE_VERTICES, TET_CASE_TRIS, TET_DECOMPOSITION


def extract_cells_loop(
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
