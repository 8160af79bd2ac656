"""Software rasterizer: geometry to framebuffer (the "rendering" module).

A z-buffered, flat-shaded triangle rasterizer that evaluates barycentric
coverage for all (triangle, pixel) candidate fragments of a batch in one
NumPy pass.  This is deliberately a *software* renderer: the paper's PC
nodes without graphics cards render in software too.  The cost models do
not time this code path (``costmodel/calibration.py`` never calls it);
their render term is ``NodeSpec.triangles_per_sec``.

A triangle's candidate fragments are the integer pixels of a box around it.
Where a rounding bound proves it safe (span at most 1024 px and
``L(L + 1) / |d| <= 4096``, see :func:`_lattice_boxes`), the box holds only
the lattice points within 1e-3 px of the triangle's extent; every other
triangle keeps the ``floor(min)..ceil(max)`` box.  Either box holds every
pixel the ``w >= -1e-9`` cover test can pass, so the pixels do not depend on
the rule.
"""

from __future__ import annotations

import numpy as np

from repro.viz.camera import OrthoCamera
from repro.viz.image import Image
from repro.viz.isosurface import TriangleMesh

__all__ = ["render_mesh", "render_points"]

#: Candidate fragments (box pixels summed over triangles) rasterized per
#: batch.  Bounds the kernel's temporaries (~20 float64/intp arrays of this
#: length) however many triangles cover the viewport; one triangle larger
#: than the budget is a batch of its own.
_FRAGMENT_BUDGET = 1 << 14

#: The tight-box rule of :func:`_lattice_boxes`: the slack past the extent
#: (px), the largest span (px) and the largest ``L(L + 1) / |d|`` it holds for.
_BOX_SLACK = 1e-3
_TIGHT_MAX_SPAN = 1024.0
_TIGHT_MAX_RATIO = 4096.0


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
    d = (ys[:, 1] - ys[:, 2]) * (xs[:, 0] - xs[:, 2]) + (xs[:, 2] - xs[:, 1]) * (
        ys[:, 0] - ys[:, 2]
    )
    x0, x1, y0, y1 = _lattice_boxes(xs, ys, d, width, height)
    keep = (x1 >= x0) & (y1 >= y0) & ~(np.abs(d) < 1e-12)
    xs, ys, zs, d = xs[keep], ys[keep], zs[keep], d[keep]
    x0, x1, y0, y1 = (v[keep].astype(np.intp) for v in (x0, x1, y0, y1))
    nx = x1 - x0 + 1
    count = nx * (y1 - y0 + 1)  # box pixels (candidate fragments) per triangle
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


def _lattice_boxes(xs, ys, d, width, height):
    """Each triangle's candidate pixels: a box ``x0..x1`` by ``y0..y1``.

    The bounds are inclusive floats, clipped to the viewport (compared as
    floats, so a huge coordinate culls instead of wrapping).  A triangle
    whose span ``L`` (the larger side of its extent) is at most
    ``_TIGHT_MAX_SPAN`` and whose ``S = L(L + 1) / |d|`` is at most
    ``_TIGHT_MAX_RATIO`` gets the lattice points within ``_BOX_SLACK`` of its
    extent, ``ceil(min - 1e-3)..floor(max + 1e-3)``; any other keeps
    ``floor(min)..ceil(max)``.  Near-degenerate slivers fail the ratio, and a
    triangle reaching far outside the viewport fails the span.

    The bound.  Only points of the ``floor``/``ceil`` box are tested, and each
    lies less than ``L + 1`` px from every vertex along x and along y.  Every
    edge coefficient, offset, product and sum of ``render_mesh``'s cover test
    rounds once (``u = 2**-53``, ``g = 4u / (1 - 4u)``).  So at such a point
    the numerators of ``w0``, ``w1`` are within ``2g L(L + 1)`` of the exact
    ones, and ``d`` is within ``2g L**2``.  The exact barycentrics there are
    at most ``2S`` in size, so the computed ``w0``, ``w1`` are within
    ``e = 2g S(1 + 2S) / (1 - 2g S) + u(2S + 1)`` of them, and ``w2`` within
    ``2e + u(6S + 3)``: under 1e-7 for ``S <= 4096`` (the ratio is judged on
    the rounded ``d`` and ``L``, within a relative 1e-11 of the exact one).
    A point that passes ``w >= -1e-9`` thus has every exact barycentric
    ``>= -(1e-9 + 1e-7)``.  As ``x = sum(w_i x_i)`` with ``sum(w_i) = 1``,
    it lies at most ``2L(1e-9 + 1e-7) <= 2.1e-4`` px outside the extent
    along x (``L <= 1024``), and the same along y.  That is inside the 1e-3
    slack, less the rounding of ``min - 1e-3``, which is at most ``u`` times
    the viewport size wherever the box is not clipped.
    """
    xlo, xhi = xs.min(axis=1), xs.max(axis=1)
    ylo, yhi = ys.min(axis=1), ys.max(axis=1)
    span = np.maximum(xhi - xlo, yhi - ylo)
    tight = (span <= _TIGHT_MAX_SPAN) & (np.abs(d) * _TIGHT_MAX_RATIO >= span * (span + 1.0))
    x0 = np.where(tight, np.ceil(xlo - _BOX_SLACK), np.floor(xlo))
    x1 = np.where(tight, np.floor(xhi + _BOX_SLACK), np.ceil(xhi))
    y0 = np.where(tight, np.ceil(ylo - _BOX_SLACK), np.floor(ylo))
    y1 = np.where(tight, np.floor(yhi + _BOX_SLACK), np.ceil(yhi))
    return (np.maximum(x0, 0.0), np.minimum(x1, width - 1.0),
            np.maximum(y0, 0.0), np.minimum(y1, height - 1.0))


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
