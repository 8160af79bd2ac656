"""Orthographic volume ray casting (Section 4.4.2).

Front-to-back compositing along parallel rays: at each depth step a full
plane of samples is interpolated from the volume (vectorized across all
rays), mapped through the transfer function and composited.  The
returned :class:`RaycastResult` carries the sample counts the Eq. 7 cost
model (``n_blocks * n_rays * n_samples * t_sample``) is calibrated on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.grid import StructuredGrid
from repro.data.interp import trilinear
from repro.errors import ConfigurationError
from repro.viz.camera import OrthoCamera
from repro.viz.image import Image
from repro.viz.transfer import TransferFunction

__all__ = ["RaycastResult", "raycast"]


@dataclass
class RaycastResult:
    """Image plus the sampling statistics of the cast.

    ``n_samples_attempted`` counts every (ray, step) evaluation — the
    quantity Eq. 7 models; ``n_samples_total`` counts only samples that
    landed inside the volume (interpolation work).
    """

    image: Image
    n_rays: int
    n_samples_per_ray: int
    n_samples_total: int
    n_samples_attempted: int
    early_terminated_rays: int


def raycast(
    grid: StructuredGrid,
    camera: OrthoCamera | None = None,
    transfer: TransferFunction | None = None,
    step: float | None = None,
    background: tuple[float, float, float] = (0.0, 0.0, 0.0),
    early_termination: float = 0.99,
) -> RaycastResult:
    """Render ``grid`` by orthographic ray casting.

    Parameters
    ----------
    grid:
        Scalar volume to render.
    camera:
        View; defaults to framing the grid bounds.
    transfer:
        Transfer function over *raw* grid values; defaults to a
        grayscale ramp over the value range.
    step:
        World-space sample spacing along rays; defaults to the smallest
        grid spacing (one sample per voxel).
    early_termination:
        Stop accumulating once every ray's opacity exceeds this.
    """
    lo, hi = grid.bounds()
    if camera is None:
        camera = OrthoCamera.framing(lo, hi)
    if transfer is None:
        transfer = TransferFunction.grayscale(grid.vmin, grid.vmax)
    if step is None:
        step = float(min(grid.spacing))
    if step <= 0:
        raise ConfigurationError("step must be positive")

    origins, direction = camera.ray_grid()  # (R, 3), (3,)
    n_rays = origins.shape[0]
    # March from the near plane far enough to cross the whole volume.
    travel = 2.0 * camera.extent + float(np.linalg.norm(hi - lo))
    n_steps = max(2, int(np.ceil(travel / step)))

    spacing = np.asarray(grid.spacing, dtype=np.float64)
    origin = np.asarray(grid.origin, dtype=np.float64)

    color = np.zeros((n_rays, 3), dtype=np.float64)
    alpha = np.zeros(n_rays, dtype=np.float64)
    active = np.arange(n_rays)
    pos = origins.copy()
    ref_step = float(min(grid.spacing))
    samples_done = 0
    samples_attempted = 0

    for _ in range(n_steps):
        if active.size == 0:
            break
        pts = pos[active]
        idx = ((pts - origin) / spacing).T  # (3, A)
        # Skip samples outside the volume entirely (cval=nan marks them).
        vals = trilinear(grid.values, idx, mode="constant", cval=np.nan)
        inside = ~np.isnan(vals)
        samples_attempted += int(vals.size)
        samples_done += int(inside.sum())
        if np.any(inside):
            rows = active[inside]
            rgba = transfer(vals[inside])
            a = transfer.corrected_alpha(rgba[:, 3], step, ref_step)
            weight = (1.0 - alpha[rows]) * a
            color[rows] += weight[:, None] * rgba[:, :3]
            alpha[rows] += weight
        pos[active] += direction * step
        still = alpha[active] < early_termination
        active = active[still]

    early_terminated = int(n_rays - alpha[alpha < early_termination].size) if n_rays else 0
    bg = np.asarray(background, dtype=np.float64)
    rgb = color + (1.0 - alpha)[:, None] * bg
    rgba_img = np.concatenate([rgb, np.ones((n_rays, 1))], axis=1)
    img = Image.from_float(rgba_img.reshape(camera.height, camera.width, 4))
    return RaycastResult(
        image=img,
        n_rays=n_rays,
        n_samples_per_ray=n_steps,
        n_samples_total=samples_done,
        n_samples_attempted=samples_attempted,
        early_terminated_rays=early_terminated,
    )
