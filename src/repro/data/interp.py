"""Order-1 interpolation in numpy, bit-identical to ``scipy.ndimage``.

``trilinear`` is ``map_coordinates(order=1)`` (mode ``"nearest"`` or
``"constant"``) and ``zoom`` is ``zoom(order=1, mode="nearest")``, in
SciPy's arithmetic: weights ``w0 = 1 - (x - floor(x))``, ``w1 = 1 - w0``;
``"nearest"`` clamps the two gathered indices, not the coordinate;
``"constant"`` gives ``cval`` where a coordinate is ``< 0`` or ``> n - 1``;
corners sum in float64 as ``t = t + ((v * w0) * w1) * w2``, last axis
fastest, then cast to the input dtype.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["gather", "stencil", "trilinear", "zoom"]

_SLAB = 1 << 18  # zoom output samples per slab: bounds the temporaries


def _axis(coord: np.ndarray, n: int, stride: int):
    """Flat offsets and weights of the two samples bracketing ``coord``."""
    f = np.floor(coord)
    w0 = 1.0 - (coord - f)
    lo, hi = (np.minimum(np.maximum(g, 0.0), n - 1).astype(np.intp) * stride
              for g in (f, f + 1.0))
    return (lo, hi), (w0, 1.0 - w0)


def stencil(coords, shape: tuple[int, ...]) -> list:
    """Per-axis offsets and weights of ``coords`` (one array per axis) in a
    3-D volume of ``shape``; reusable for every volume of that shape."""
    strides = (shape[1] * shape[2], shape[2], 1)
    return [_axis(np.asarray(c, dtype=np.float64), n, s)
            for c, n, s in zip(coords, shape, strides)]


def gather(volumes: list[np.ndarray], axes: list) -> list[np.ndarray]:
    """Float64 8-corner weighted sum of each volume at ``axes``, in SciPy's order."""
    flats = [np.ascontiguousarray(v).ravel() for v in volumes]
    (o0, w0), (o1, w1), (o2, w2) = axes
    sums: list = [0.0] * len(flats)
    for a in (0, 1):
        for b in (0, 1):
            ab = o0[a] + o1[b]
            for c in (0, 1):
                idx = ab + o2[c]
                for k, flat in enumerate(flats):
                    sums[k] = sums[k] + ((flat.take(idx) * w0[a]) * w1[b]) * w2[c]
    return sums


def trilinear(values: np.ndarray, coords: np.ndarray, mode: str = "nearest",
              cval: float = 0.0) -> np.ndarray:
    """``map_coordinates(values, coords, order=1, mode=mode, cval=cval)``, coords (3, N)."""
    if mode not in ("nearest", "constant"):
        raise ConfigurationError(f"unknown interpolation mode {mode!r}")
    values = np.asarray(values)
    coords = np.asarray(coords, dtype=np.float64)
    [out] = gather([values], stencil(coords, values.shape))
    if mode == "constant":
        last = np.asarray(values.shape)[:, None] - 1.0
        out[((coords < 0.0) | (coords > last)).any(axis=0)] = cval
    return out.astype(values.dtype)


def zoom(values: np.ndarray, factors) -> np.ndarray:
    """``scipy.ndimage.zoom(values, factors, order=1, mode="nearest")``: ``round(n * f)``
    samples per axis, sample ``k`` at ``k * ((n - 1) / (o - 1))``; all factors 1 is a
    copy, as in SciPy (the sum would turn ``-0.0`` into ``0.0``)."""
    values = np.ascontiguousarray(values)
    if all(f == 1 for f in factors):
        return values.copy()
    out = np.empty([int(round(n * f)) for n, f in zip(values.shape, factors)], values.dtype)
    # Per-axis coordinates shaped to broadcast against each other: no meshgrid.
    coords = [(np.arange(o) * ((n - 1) / (o - 1) if o > 1 else 1.0)).reshape(
        [-1 if i == a else 1 for i in range(3)])
        for a, (n, o) in enumerate(zip(values.shape, out.shape))]
    ((lo, hi), (w0, w1)), *rest = stencil(coords, values.shape)
    rows = max(1, _SLAB // max(1, out.shape[1] * out.shape[2]))
    for r in range(0, out.shape[0], rows):
        s = slice(r, r + rows)
        out[s] = gather([values], [((lo[s], hi[s]), (w0[s], w1[s])), *rest])[0]
    return out
