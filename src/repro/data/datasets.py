"""Synthetic stand-ins for the paper's experiment datasets.

Section 5.3 visualizes three pre-generated volumes replicated at the OSU
and GaTech data sources:

* **Jet** — 16 MB (a turbulent jet; we synthesize an axial plume with
  shear-layer instabilities),
* **Rage** — 64 MB (a radiation/hydro blast; we synthesize nested
  Sedov-style shells),
* **Visible Woman** — 108 MB (CT anatomy; we synthesize layered
  skin/tissue/bone ellipsoid shells).

Byte sizes match the paper exactly at ``scale=1.0`` (float32 samples).
The generators are deterministic given a seed, and ``scale`` shrinks
every axis for laptop-scale live runs (tests use ``scale<=0.25``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.grid import StructuredGrid
from repro.data.interp import zoom
from repro.errors import ConfigurationError
from repro.rng import derive_rng
from repro.units import MB

__all__ = [
    "DatasetInfo",
    "DATASET_REGISTRY",
    "make_dataset",
    "make_jet",
    "make_rage",
    "make_viswoman",
]


@dataclass(frozen=True, slots=True)
class DatasetInfo:
    """Catalog entry for a synthetic dataset."""

    name: str
    full_shape: tuple[int, int, int]
    nominal_mb: int
    description: str


def _scaled_shape(full: tuple[int, int, int], scale: float) -> tuple[int, int, int]:
    if not (0.0 < scale <= 1.0):
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    return tuple(max(8, int(round(n * scale))) for n in full)  # type: ignore[return-value]


def _axes(shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized coordinate axes in [-1, 1] with correct aspect."""
    return tuple(  # type: ignore[return-value]
        np.linspace(-1.0, 1.0, n, dtype=np.float32) for n in shape
    )


def _smooth_noise(
    shape: tuple[int, int, int], rng: np.random.Generator, octaves: int = 3
) -> np.ndarray:
    """Band-limited noise by upsampling coarse random lattices."""
    out = np.zeros(shape, dtype=np.float32)
    amp = 1.0
    for o in range(octaves):
        coarse_shape = tuple(max(2, s // (2 ** (octaves - o))) for s in shape)
        coarse = rng.standard_normal(coarse_shape).astype(np.float32)
        factors = [s / c for s, c in zip(shape, coarse_shape)]
        out += amp * zoom(coarse, factors)  # round(c * (s / c)) == s samples
        amp *= 0.5
    denom = float(np.abs(out).max())
    return out / denom if denom > 0 else out


def make_jet(scale: float = 1.0, seed: int = 0) -> StructuredGrid:
    """Jet dataset: an axial plume with shear instabilities (16 MB full)."""
    shape = _scaled_shape((256, 128, 128), scale)
    x, y, z = _axes(shape)
    X = x[:, None, None]
    Y = y[None, :, None]
    Z = z[None, None, :]
    r2 = Y**2 + Z**2
    # Core plume: gaussian cross-section widening downstream, sinusoidal
    # flapping and decaying intensity.
    width = 0.08 + 0.25 * (X + 1.0) / 2.0
    wiggle = 0.12 * np.sin(6.0 * np.pi * (X + 1.0) / 2.0)
    core = np.exp(-((np.sqrt(r2) - np.abs(wiggle)) ** 2) / (2.0 * width**2))
    decay = np.exp(-0.8 * (X + 1.0))
    rng = derive_rng(seed, "jet")
    turb = _smooth_noise(shape, rng, octaves=4)
    vals = (core * decay * (1.0 + 0.35 * turb)).astype(np.float32)
    vals = np.clip(vals, 0.0, None)
    return StructuredGrid(vals, spacing=(1.0, 1.0, 1.0), name="jet")


def make_rage(scale: float = 1.0, seed: int = 0) -> StructuredGrid:
    """Rage dataset: nested blast-wave shells (64 MB full)."""
    shape = _scaled_shape((256, 256, 256), scale)
    x, y, z = _axes(shape)
    R = np.sqrt(
        x[:, None, None] ** 2 + y[None, :, None] ** 2 + z[None, None, :] ** 2
    )
    rng = derive_rng(seed, "rage")
    noise = _smooth_noise(shape, rng, octaves=3)
    # Sedov-style dense shell at the shock front plus hot rarefied
    # interior.  The shell is kept sharp and the noise mild so the
    # isosurface-active region is a band, not the whole volume —
    # matching the sparse-surface character of real blast datasets.
    front = 0.50
    shell = np.exp(-(((R - front) / 0.04) ** 2))
    interior = 0.25 * np.exp(-((R / 0.30) ** 2))
    vals = (shell + interior) * (1.0 + 0.12 * noise)
    return StructuredGrid(np.clip(vals, 0.0, None).astype(np.float32), name="rage")


def make_viswoman(scale: float = 1.0, seed: int = 0) -> StructuredGrid:
    """Visible Woman dataset: layered anatomy-like shells (108 MB full).

    The paper downsamples the original CT by 8x to 108 MB; we synthesize
    at that size directly.  Values mimic CT densities: ~0.1 air, ~0.35
    skin/fat, ~0.5 tissue, ~0.9 bone.
    """
    shape = _scaled_shape((512, 256, 216), scale)
    x, y, z = _axes(shape)
    X = x[:, None, None]
    Y = y[None, :, None]
    Z = z[None, None, :]
    rng = derive_rng(seed, "viswoman")
    noise = _smooth_noise(shape, rng, octaves=3)

    def ellipsoid(ax: float, ay: float, az: float) -> np.ndarray:
        return np.sqrt((X / ax) ** 2 + (Y / ay) ** 2 + (Z / az) ** 2)

    body = ellipsoid(0.95, 0.62, 0.55)
    bone = ellipsoid(0.80, 0.22, 0.20)
    organ = ellipsoid(0.55, 0.40, 0.33)
    lungs = np.minimum(
        np.sqrt(((X - 0.25) / 0.28) ** 2 + ((Y - 0.18) / 0.22) ** 2 + (Z / 0.30) ** 2),
        np.sqrt(((X - 0.25) / 0.28) ** 2 + ((Y + 0.18) / 0.22) ** 2 + (Z / 0.30) ** 2),
    )

    vals = np.full(shape, 0.08, dtype=np.float32)  # air
    vals = np.where(body < 1.0, 0.35, vals)  # skin/fat envelope
    vals = np.where(organ < 1.0, 0.52, vals)  # soft tissue
    vals = np.where(lungs < 1.0, 0.22, vals)  # air-filled lungs
    vals = np.where(bone < 0.35, 0.92, vals)  # skeleton core
    # CT-like acquisition noise: real Visible-Woman isosurfaces are
    # notoriously dense because tissue texture ripples cross mid-range
    # isovalues throughout the soft-tissue volume.
    vals = vals * (1.0 + 0.14 * noise)
    return StructuredGrid(np.clip(vals, 0.0, 1.2).astype(np.float32), name="viswoman")


DATASET_REGISTRY: dict[str, tuple[DatasetInfo, Callable[..., StructuredGrid]]] = {
    "jet": (
        DatasetInfo("jet", (256, 128, 128), 16, "turbulent jet plume"),
        make_jet,
    ),
    "rage": (
        DatasetInfo("rage", (256, 256, 256), 64, "blast-wave shells"),
        make_rage,
    ),
    "viswoman": (
        DatasetInfo("viswoman", (512, 256, 216), 108, "layered anatomy"),
        make_viswoman,
    ),
}


def make_dataset(name: str, scale: float = 1.0, seed: int = 0) -> StructuredGrid:
    """Construct a registered dataset by name."""
    try:
        _, factory = DATASET_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; known: {sorted(DATASET_REGISTRY)}"
        ) from None
    return factory(scale=scale, seed=seed)
