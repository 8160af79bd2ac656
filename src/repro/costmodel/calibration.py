"""Offline calibration of the cost models (Section 4.4's "statistical
measurements").

The harness runs the *real* visualization code on sample datasets and
fits the model constants:

* ``T_Case(i)`` — per-cell extraction time per MC class, by non-negative
  least squares over per-block (class histogram, measured seconds)
  records ("mark down the frequency of the related cells found inside a
  block as well as the time spent on each case"),
* ``t_sample`` — seconds per ray-casting sample,
* ``T_advection`` — seconds per streamline advection.

Calibrated constants are machine-specific by design: they measure *this*
host, the reference "power-1 node" of the whole cost system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.costmodel.isosurface_cost import IsosurfaceCostModel
from repro.costmodel.raycast_cost import RaycastCostModel
from repro.costmodel.streamline_cost import StreamlineCostModel
from repro.data.grid import StructuredGrid, VectorField
from repro.data.octree import build_blocks
from repro.errors import CalibrationError
from repro.viz.camera import OrthoCamera
from repro.viz.isosurface import extract_blocks
from repro.viz.mc_tables import N_MC_CLASSES
from repro.viz.raycast import raycast
from repro.viz.streamline import seed_grid, trace_streamlines

__all__ = [
    "CalibrationStore",
    "calibrate_isosurface",
    "calibrate_raycast",
    "calibrate_streamline",
    "default_calibration",
    "make_calibration_grids",
    "nnls",
]


def nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``min ||A x - b||_2`` subject to ``x >= 0``.

    Lawson & Hanson's active-set method ("Solving Least Squares
    Problems", ch. 23): free the variable with the largest positive
    gradient ``w = A^T (b - A x)``, solve least squares on the free
    set, and step back towards the last feasible point whenever a free
    variable goes non-positive.  A variable whose own least-squares
    coefficient comes out non-positive on entry is passed over (its
    column is numerically dependent on the free set), as in the
    reference algorithm.  Each column is scaled to a largest entry of 1
    first, so a column's entry test does not depend on its units.  Returns
    ``(x, ||A x - b||_2)``.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    peaks = np.abs(A).max(axis=0, initial=0.0)
    # A zero column has no gradient; it keeps x_j = 0 and never enters.
    scale = np.where(peaks > 0.0, peaks, np.inf)
    U = A / scale
    tol = 10 * max(m, n) * np.finfo(np.float64).eps * np.linalg.norm(b)

    def solve(free: np.ndarray) -> np.ndarray:
        z = np.zeros(n)
        z[free] = np.linalg.lstsq(U[:, free], b, rcond=None)[0]
        return z

    y = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    w = U.T @ b
    for _ in range(3 * n + 1):
        candidates = ~free & (w > tol)
        if not candidates.any():
            break
        j = int(np.argmax(np.where(candidates, w, -np.inf)))
        free[j] = True
        z = solve(free)
        if z[j] <= 0.0:
            free[j] = False
            w[j] = 0.0
            continue
        while (z[free] <= 0.0).any():
            hit = np.flatnonzero(free & (z <= 0.0))
            ratio = y[hit] / (y[hit] - z[hit])
            y += ratio.min() * (z - y)
            y[hit[np.argmin(ratio)]] = 0.0
            free &= y > 0.0
            y[~free] = 0.0
            z = solve(free)
        y = z
        w = U.T @ (b - U @ y)
    else:
        raise CalibrationError(f"nnls did not converge in {3 * n + 1} iterations")
    x = y / scale
    return x, float(np.linalg.norm(A @ x - b))


def calibrate_isosurface(
    grids: list[StructuredGrid],
    isovalues_per_grid: int = 5,
    block_cells: int = 8,
) -> IsosurfaceCostModel:
    """Fit ``T_Case`` from block-level extraction measurements.

    For each grid we march ``isovalues_per_grid`` isovalues spanning the
    value range and record, per active block, the 15-class histogram and
    the measured wall time; ``t_call`` is the fastest block's time and
    ``T_Case`` solves the non-negative least squares system
    ``histogram @ T_case ~= seconds - t_call``.
    """
    rows: list[np.ndarray] = []
    times: list[float] = []
    for grid in grids:
        lo, hi = grid.vmin, grid.vmax
        if hi <= lo:
            continue
        isovalues = np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo),
                                isovalues_per_grid)
        blocks = build_blocks(grid, block_cells=block_cells)
        for iso in isovalues:
            _, records = extract_blocks(grid, blocks, float(iso))
            for rec in records:
                rows.append(rec.class_histogram.astype(float))
                times.append(rec.seconds)
    if len(rows) < N_MC_CLASSES:
        raise CalibrationError(
            f"only {len(rows)} block samples; need >= {N_MC_CLASSES}"
        )
    A = np.vstack(rows)
    b = np.asarray(times)
    # The fastest block is the kernel's per-call floor (timing noise only
    # adds); the per-class terms fit what each block costs beyond it.
    t_call = float(b.min())
    t_case, _residual = nnls(A, b - t_call)
    # Classes never observed get the median positive cost so predictions
    # on unseen data stay finite and sane.
    seen = A.sum(axis=0) > 0
    positive = t_case[(t_case > 0) & seen]
    fallback = float(np.median(positive)) if positive.size else 1e-7
    t_case = np.where(seen, t_case, fallback)
    # Class 0 (empty) cells still pay the configuration scan; nnls may
    # zero it out on noisy data, which is fine (it is a lower-order term).
    return IsosurfaceCostModel(t_case=t_case, t_call=t_call)


def calibrate_raycast(
    grids: list[StructuredGrid],
    viewport: int = 64,
    step_factor: float = 1.0,
) -> RaycastCostModel:
    """Measure seconds/sample over representative casts."""
    total_seconds = 0.0
    total_samples = 0
    for grid in grids:
        cam = OrthoCamera.framing(*grid.bounds(), width=viewport, height=viewport)
        step = float(min(grid.spacing)) * step_factor
        t0 = time.perf_counter()
        res = raycast(grid, camera=cam, step=step, early_termination=1.1)
        total_seconds += time.perf_counter() - t0
        # Eq. 7 counts every (ray, step) evaluation, so calibrate against
        # attempted samples — the same unit the predictor multiplies out.
        total_samples += res.n_samples_attempted
    if total_samples == 0:
        raise CalibrationError("raycast calibration produced zero samples")
    return RaycastCostModel(t_sample=max(total_seconds / total_samples, 1e-12))


def calibrate_streamline(
    fields: list[VectorField],
    n_seeds_per_axis: int = 3,
    n_steps: int = 50,
) -> StreamlineCostModel:
    """Measure seconds/advection over representative traces."""
    total_seconds = 0.0
    total_advections = 0
    for field_ in fields:
        seeds = seed_grid(field_, n_per_axis=n_seeds_per_axis)
        t0 = time.perf_counter()
        res = trace_streamlines(field_, seeds, n_steps=n_steps, h=0.25)
        total_seconds += time.perf_counter() - t0
        total_advections += res.advections
    if total_advections == 0:
        raise CalibrationError("streamline calibration produced zero advections")
    return StreamlineCostModel(t_advection=max(total_seconds / total_advections, 1e-12))


@dataclass
class CalibrationStore:
    """Bundle of calibrated models, JSON-serializable."""

    isosurface: IsosurfaceCostModel
    raycast: RaycastCostModel
    streamline: StreamlineCostModel
    host_note: str = "calibrated on the reference (power-1) host"

    def to_dict(self) -> dict:
        return {
            "isosurface": self.isosurface.to_dict(),
            "raycast": self.raycast.to_dict(),
            "streamline": self.streamline.to_dict(),
            "host_note": self.host_note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationStore":
        return cls(
            isosurface=IsosurfaceCostModel.from_dict(data["isosurface"]),
            raycast=RaycastCostModel.from_dict(data["raycast"]),
            streamline=StreamlineCostModel.from_dict(data["streamline"]),
            host_note=data.get("host_note", ""),
        )


def make_calibration_grids(seed: int = 0) -> list[StructuredGrid]:
    """Small sample datasets "from various applications" (Section 4.4.1)."""
    from repro.data.datasets import make_jet, make_rage, make_viswoman

    return [
        make_jet(scale=0.14, seed=seed),
        make_rage(scale=0.12, seed=seed),
        make_viswoman(scale=0.08, seed=seed),
    ]


_DEFAULT_CACHE: dict[int, CalibrationStore] = {}


def default_calibration(seed: int = 0) -> CalibrationStore:
    """Calibrate all three models on the standard sample set (cached)."""
    if seed not in _DEFAULT_CACHE:
        grids = make_calibration_grids(seed)
        fields = [g.gradient() for g in grids[:2]]
        _DEFAULT_CACHE[seed] = CalibrationStore(
            isosurface=calibrate_isosurface(grids),
            raycast=calibrate_raycast([grids[0]]),
            streamline=calibrate_streamline(fields),
        )
    return _DEFAULT_CACHE[seed]
