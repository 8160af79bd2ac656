"""Software rasterizer: geometry to framebuffer (the "rendering" module).

A z-buffered, flat-shaded triangle rasterizer that evaluates barycentric
coverage for all (triangle, pixel) candidate fragments of a batch in one
NumPy pass.  This is deliberately a *software* renderer: the paper's PC
nodes without graphics cards render in software too.  The cost models do
not time this code path (``costmodel/calibration.py`` never calls it);
their render term is ``NodeSpec.triangles_per_sec``.
"""

from __future__ import annotations

import numpy as np

from repro.viz.camera import OrthoCamera
from repro.viz.image import Image
from repro.viz.isosurface import TriangleMesh

__all__ = ["render_mesh", "render_points"]

#: Candidate fragments (bbox pixels summed over triangles) rasterized per
#: batch.  Bounds the kernel's temporaries (~20 float64/intp arrays of this
#: length) however many triangles cover the viewport; one triangle larger
#: than the budget is a batch of its own.
_FRAGMENT_BUDGET = 1 << 14


def render_mesh(
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
    # A NaN/inf vertex has no bbox: drop its triangle, as render_points drops points.
    finite = np.isfinite(screen).all(axis=(1, 2))
    tris, screen = tris[finite], screen[finite]

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

    order = np.argsort(-screen[:, :, 2].mean(axis=1))  # far-to-near helps locality
    xs, ys, zs = np.moveaxis(screen[order], 2, 0)  # (M, 3) each, in rank order
    # Clipped bboxes, compared as floats: a huge coordinate must cull, not wrap.
    x0 = np.maximum(np.floor(xs.min(axis=1)), 0.0)
    x1 = np.minimum(np.ceil(xs.max(axis=1)), width - 1.0)
    y0 = np.maximum(np.floor(ys.min(axis=1)), 0.0)
    y1 = np.minimum(np.ceil(ys.max(axis=1)), height - 1.0)
    d = (ys[:, 1] - ys[:, 2]) * (xs[:, 0] - xs[:, 2]) + (xs[:, 2] - xs[:, 1]) * (
        ys[:, 0] - ys[:, 2]
    )
    keep = (x1 >= x0) & (y1 >= y0) & ~(np.abs(d) < 1e-12)
    xs, ys, zs, d = xs[keep], ys[keep], zs[keep], d[keep]
    x0, x1, y0, y1 = (v[keep].astype(np.intp) for v in (x0, x1, y0, y1))
    nx = x1 - x0 + 1
    count = nx * (y1 - y0 + 1)  # bbox pixels (candidate fragments) per triangle
    # Barycentric edge coefficients, one row per surviving triangle.
    a0, b0 = ys[:, 1] - ys[:, 2], xs[:, 2] - xs[:, 1]
    a1, b1 = ys[:, 2] - ys[:, 0], xs[:, 0] - xs[:, 2]

    zbuf = np.full(height * width, np.inf, dtype=np.float64)
    winner = np.full(height * width, -1, dtype=np.intp)  # rank of the visible triangle
    ends = np.cumsum(count)
    lo = 0
    while lo < len(count):
        # As many whole triangles as fit the budget, and never fewer than one.
        begin = ends[lo] - count[lo]
        hi = max(int(np.searchsorted(ends, begin + _FRAGMENT_BUDGET, side="right")), lo + 1)
        n = count[lo:hi]
        t = np.repeat(np.arange(lo, hi), n)  # fragment -> triangle rank
        k = np.arange(ends[hi - 1] - begin) - np.repeat(ends[lo:hi] - n - begin, n)
        row, dt = nx[t], d[t]
        iy = k // row
        ix = k - iy * row + x0[t]
        iy += y0[t]
        dx = ix.astype(np.float64) - xs[t, 2]
        dy = iy.astype(np.float64) - ys[t, 2]
        w0 = (a0[t] * dx + b0[t] * dy) / dt
        w1 = (a1[t] * dx + b1[t] * dy) / dt
        w2 = 1.0 - w0 - w1
        cover = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9)
        t = t[cover]
        depth = w0[cover] * zs[t, 0] + w1[cover] * zs[t, 1] + w2[cover] * zs[t, 2]
        pix = iy[cover] * width + ix[cover]
        # Strictly nearer than every earlier batch: an earlier triangle keeps a tie.
        live = depth < zbuf[pix]
        t, depth, pix = t[live], depth[live], pix[live]
        np.minimum.at(zbuf, pix, depth)
        front = depth == zbuf[pix]
        t, pix = t[front], pix[front]
        winner[pix] = len(count)
        np.minimum.at(winner, pix, t)  # equal depths: the first in rank order wins
        lo = hi

    hit = np.flatnonzero(winner >= 0)
    rgb = np.clip(shade[order][keep][:, None] * base * 255.0, 0.0, 255.0).astype(np.uint8)
    frame = img.pixels.reshape(-1, 4)
    frame[hit, :3] = rgb[winner[hit]]
    frame[hit, 3] = 255
    return img


def render_points(
    points: np.ndarray,
    camera: OrthoCamera,
    color: tuple[int, int, int] = (255, 200, 80),
    background: tuple[int, int, int, int] = (10, 10, 20, 255),
) -> Image:
    """Fast point-splat rendering (streamline polylines, previews)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pts = pts[~np.isnan(pts).any(axis=1)]
    img = Image.blank(camera.width, camera.height, background)
    if pts.size == 0:
        return img
    screen = camera.project(pts)
    xs = np.round(screen[:, 0]).astype(int)
    ys = np.round(screen[:, 1]).astype(int)
    ok = (xs >= 0) & (xs < camera.width) & (ys >= 0) & (ys < camera.height)
    img.pixels[ys[ok], xs[ok], :3] = np.asarray(color, dtype=np.uint8)
    img.pixels[ys[ok], xs[ok], 3] = 255
    return img
