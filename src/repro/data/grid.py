"""Regular structured grids and vector fields."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.interp import gather, stencil, trilinear
from repro.errors import ConfigurationError

__all__ = ["StructuredGrid", "VectorField"]


@dataclass
class StructuredGrid:
    """A regular 3-D scalar field (node-centred samples).

    Attributes
    ----------
    values:
        float32 array of shape ``(nx, ny, nz)``.
    spacing:
        Physical sample spacing per axis.
    origin:
        World coordinate of sample ``(0, 0, 0)``.
    name:
        Variable name (``"pressure"``, ``"density"``, ...).
    """

    values: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    name: str = "field"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise ConfigurationError(
                f"grid values must be 3-D, got shape {self.values.shape}"
            )
        if any(s <= 0 for s in self.spacing):
            raise ConfigurationError("grid spacing must be positive")

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.values.shape)  # type: ignore[return-value]

    @property
    def n_samples(self) -> int:
        return int(self.values.size)

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.shape
        return max(nx - 1, 0) * max(ny - 1, 0) * max(nz - 1, 0)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (what travels over the data channel)."""
        return int(self.values.nbytes)

    @property
    def vmin(self) -> float:
        return float(self.values.min())

    @property
    def vmax(self) -> float:
        return float(self.values.max())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) world-space corners of the sampled box."""
        lo = np.asarray(self.origin, dtype=float)
        extent = (np.asarray(self.shape) - 1) * np.asarray(self.spacing)
        return lo, lo + extent

    def center(self) -> np.ndarray:
        lo, hi = self.bounds()
        return 0.5 * (lo + hi)

    # -- derived data -----------------------------------------------------------

    def normalized(self) -> "StructuredGrid":
        """Copy with values scaled into [0, 1] (degenerate ranges -> 0)."""
        lo, hi = self.vmin, self.vmax
        if hi - lo <= 0:
            vals = np.zeros_like(self.values)
        else:
            vals = (self.values - lo) / (hi - lo)
        return StructuredGrid(vals, self.spacing, self.origin, self.name)

    def gradient(self) -> "VectorField":
        """Central-difference gradient as a vector field."""
        gx, gy, gz = np.gradient(
            self.values.astype(np.float64), *self.spacing, edge_order=1
        )
        return VectorField(
            gx.astype(np.float32),
            gy.astype(np.float32),
            gz.astype(np.float32),
            spacing=self.spacing,
            origin=self.origin,
            name=f"grad({self.name})",
        )

    def octant(self, index: int) -> "StructuredGrid":
        """One of the eight octree subsets the paper's GUI exposes.

        ``index`` is a 3-bit code: bit 0 selects the upper x half, bit 1
        the upper y half, bit 2 the upper z half.  Octants share the
        central sample plane so isosurfaces remain continuous.
        """
        if not (0 <= index < 8):
            raise ConfigurationError("octant index must be in [0, 8)")
        nx, ny, nz = self.shape
        mid = (nx // 2, ny // 2, nz // 2)
        sl = []
        offs = []
        for axis, m in enumerate(mid):
            if (index >> axis) & 1:
                sl.append(slice(m, None))
                offs.append(m)
            else:
                sl.append(slice(0, m + 1))
                offs.append(0)
        vals = self.values[tuple(sl)]
        origin = tuple(
            self.origin[a] + offs[a] * self.spacing[a] for a in range(3)
        )
        return StructuredGrid(vals, self.spacing, origin, self.name)  # type: ignore[arg-type]

    def sample_world(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation at world-space points (N, 3)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = (pts - np.asarray(self.origin)) / np.asarray(self.spacing)
        return trilinear(self.values, idx.T)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StructuredGrid(name={self.name!r}, shape={self.shape}, "
            f"range=[{self.vmin:.3g}, {self.vmax:.3g}])"
        )


@dataclass
class VectorField:
    """A regular 3-D vector field stored as three scalar components."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    name: str = "vector"

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=np.float32)
        self.v = np.asarray(self.v, dtype=np.float32)
        self.w = np.asarray(self.w, dtype=np.float32)
        if not (self.u.shape == self.v.shape == self.w.shape):
            raise ConfigurationError("vector components must share a shape")
        if self.u.ndim != 3:
            raise ConfigurationError("vector field must be 3-D")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.u.shape)  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        return int(self.u.nbytes + self.v.nbytes + self.w.nbytes)

    def magnitude(self) -> StructuredGrid:
        """Per-sample Euclidean magnitude as a scalar grid."""
        mag = np.sqrt(
            self.u.astype(np.float64) ** 2
            + self.v.astype(np.float64) ** 2
            + self.w.astype(np.float64) ** 2
        )
        return StructuredGrid(
            mag.astype(np.float32), self.spacing, self.origin, f"|{self.name}|"
        )

    def sample_world(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of all components at points (N, 3), one stencil."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = ((pts - np.asarray(self.origin)) / np.asarray(self.spacing)).T
        comps = gather([self.u, self.v, self.w], stencil(idx, self.shape))
        return np.stack(comps, axis=1).astype(np.float32)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.origin, dtype=float)
        extent = (np.asarray(self.shape) - 1) * np.asarray(self.spacing)
        return lo, lo + extent
