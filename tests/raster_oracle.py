"""Test-only oracle: the per-triangle rasterizer loop ``render_mesh`` replaced.

This is the text of ``repro.viz.render.render_mesh`` as it stood before the
batched kernel, kept verbatim (only the name changed) so that the tests can
require ``np.array_equal`` pixels from the kernel on any mesh and camera.  It
raises on a triangle with a non-finite vertex, as the old code did.
"""

from __future__ import annotations

import numpy as np

from repro.viz.camera import OrthoCamera
from repro.viz.image import Image
from repro.viz.isosurface import TriangleMesh


def render_mesh_loop(
    mesh: TriangleMesh,
    camera: OrthoCamera | None = None,
    color: tuple[float, float, float] = (0.75, 0.78, 0.85),
    light_dir: tuple[float, float, float] = (0.4, 0.3, 0.85),
    background: tuple[int, int, int, int] = (10, 10, 20, 255),
    ambient: float = 0.25,
    max_triangles: int | None = None,
) -> Image:
    """Rasterize a triangle mesh with flat shading and a z-buffer.

    ``max_triangles`` randomly (but deterministically) subsamples very
    large meshes — interactive preview semantics, like level-of-detail.
    """
    if camera is None:
        lo, hi = mesh.bounds()
        camera = OrthoCamera.framing(lo, hi)
    width, height = camera.width, camera.height
    img = Image.blank(width, height, background)
    if mesh.n_triangles == 0:
        return img

    tris = mesh.triangles
    if max_triangles is not None and mesh.n_triangles > max_triangles:
        rng = np.random.default_rng(0)
        pick = rng.choice(mesh.n_triangles, size=max_triangles, replace=False)
        tris = tris[pick]

    # Project all vertices at once.
    flat = tris.reshape(-1, 3)
    screen = camera.project(flat).reshape(-1, 3, 3)  # (M, 3, [px, py, depth])

    # Flat shading from world-space normals.
    a = tris[:, 1] - tris[:, 0]
    b = tris[:, 2] - tris[:, 0]
    normals = np.cross(a, b)
    norm = np.linalg.norm(normals, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    normals /= norm
    light = np.asarray(light_dir, dtype=np.float64)
    light = light / np.linalg.norm(light)
    # Two-sided lighting: geometry orientation must not black out faces.
    lambert = np.abs(normals @ light)
    shade = ambient + (1.0 - ambient) * lambert
    base = np.asarray(color, dtype=np.float64)

    zbuf = np.full((height, width), np.inf, dtype=np.float64)
    frame = img.pixels

    order = np.argsort(-screen[:, :, 2].mean(axis=1))  # far-to-near helps locality
    for ti in order:
        v = screen[ti]  # (3, 3)
        xs, ys, zs = v[:, 0], v[:, 1], v[:, 2]
        x0 = max(int(np.floor(xs.min())), 0)
        x1 = min(int(np.ceil(xs.max())), width - 1)
        y0 = max(int(np.floor(ys.min())), 0)
        y1 = min(int(np.ceil(ys.max())), height - 1)
        if x1 < x0 or y1 < y0:
            continue
        # Barycentric coordinates over the bbox pixel lattice.
        px, py = np.meshgrid(
            np.arange(x0, x1 + 1, dtype=np.float64),
            np.arange(y0, y1 + 1, dtype=np.float64),
        )
        d = (ys[1] - ys[2]) * (xs[0] - xs[2]) + (xs[2] - xs[1]) * (ys[0] - ys[2])
        if abs(d) < 1e-12:
            continue
        w0 = ((ys[1] - ys[2]) * (px - xs[2]) + (xs[2] - xs[1]) * (py - ys[2])) / d
        w1 = ((ys[2] - ys[0]) * (px - xs[2]) + (xs[0] - xs[2]) * (py - ys[2])) / d
        w2 = 1.0 - w0 - w1
        cover = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9)
        if not np.any(cover):
            continue
        depth = w0 * zs[0] + w1 * zs[1] + w2 * zs[2]
        sub_z = zbuf[y0 : y1 + 1, x0 : x1 + 1]
        win = cover & (depth < sub_z)
        if not np.any(win):
            continue
        sub_z[win] = depth[win]
        rgb = np.clip(shade[ti] * base * 255.0, 0.0, 255.0).astype(np.uint8)
        sub_f = frame[y0 : y1 + 1, x0 : x1 + 1]
        sub_f[win, 0] = rgb[0]
        sub_f[win, 1] = rgb[1]
        sub_f[win, 2] = rgb[2]
        sub_f[win, 3] = 255

    return img
