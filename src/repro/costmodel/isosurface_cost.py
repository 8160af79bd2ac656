"""Isosurface extraction and rendering cost models (Eqs. 4-6).

.. math::

    t_{extraction}(n_{blocks}, S_{block}) = n_{blocks} \\times t_{block}(S_{block})
    \\qquad (Eq.\\ 4)

    t_{block}(S_{block}) = t_{call} + S_{block} \\times \\sum_{i=0}^{14}
        T_{Case}(i) P_{Case}(i) \\qquad (Eq.\\ 5)

    t_{rendering} = n_{blocks} S_{block} \\sum_{i=0}^{14}
        n_{triangle}(i) P_{Case}(i) \\; / \\; R_{tri}
    \\qquad (Eq.\\ 6, with R_{tri} the node's triangles/second)

``T_Case(i)`` is fitted offline by the calibration harness; class
probabilities ``P_Case(i)`` come from :class:`~repro.costmodel.base.DatasetStats`.
``t_call`` is the extraction kernel's cost per block whatever its cells
(0 in the paper's Eq. 5); a batched kernel's per-call constant, which
no per-cell term can fit across block sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.costmodel.base import DatasetStats
from repro.errors import ConfigurationError
from repro.viz.mc_tables import N_MC_CLASSES, TRIANGLES_PER_CLASS

__all__ = ["IsosurfaceCostModel"]

#: Bytes per triangle in the geometry stream (3 vertices x 3 float32).
TRIANGLE_BYTES = 36.0


@dataclass(frozen=True)
class IsosurfaceCostModel:
    """Calibrated per-case extraction times, seconds/cell on a power-1 node."""

    t_case: np.ndarray
    n_triangle: np.ndarray = None  # type: ignore[assignment]
    t_call: float = 0.0

    def __post_init__(self) -> None:
        t = np.asarray(self.t_case, dtype=float)
        if t.shape != (N_MC_CLASSES,):
            raise ConfigurationError(f"t_case must have shape (15,), got {t.shape}")
        if np.any(t < 0):
            raise ConfigurationError("t_case entries must be non-negative")
        object.__setattr__(self, "t_case", t)
        n = self.n_triangle
        n = TRIANGLES_PER_CLASS.copy() if n is None else np.asarray(n, dtype=float)
        if n.shape != (N_MC_CLASSES,):
            raise ConfigurationError("n_triangle must have shape (15,)")
        object.__setattr__(self, "n_triangle", n)

    # -- Eq. 5 -------------------------------------------------------------------

    def t_block(self, s_block: int, p_case: np.ndarray) -> float:
        """Average extraction seconds for one block of ``s_block`` cells."""
        return self.t_call + float(s_block) * float(np.dot(self.t_case, p_case))

    # -- Eq. 4 -------------------------------------------------------------------

    def extraction_seconds(self, stats: DatasetStats, power: float = 1.0) -> float:
        """Total extraction time on a node of normalized ``power``."""
        if power <= 0:
            raise ConfigurationError("power must be positive")
        return stats.n_blocks * self.t_block(stats.s_block, stats.p_case) / power

    # -- Eq. 6 -------------------------------------------------------------------

    def triangle_estimate(self, stats: DatasetStats) -> float:
        """Expected extracted triangle count."""
        per_cell = float(np.dot(self.n_triangle, stats.p_case))
        return stats.n_blocks * stats.s_block * per_cell

    def geometry_bytes(self, stats: DatasetStats) -> float:
        """Expected geometry payload (bytes) leaving the extract module."""
        return self.triangle_estimate(stats) * TRIANGLE_BYTES

    def rendering_seconds(
        self, stats: DatasetStats, triangles_per_sec: float
    ) -> float:
        """Rendering time on a node of throughput ``triangles_per_sec``."""
        if triangles_per_sec <= 0:
            raise ConfigurationError("triangles_per_sec must be positive")
        return self.triangle_estimate(stats) / triangles_per_sec

    # -- pipeline adapters ----------------------------------------------------------

    def extract_complexity(self, stats: DatasetStats) -> float:
        """Per-input-byte complexity ``c_j`` of the extract module."""
        return self.extraction_seconds(stats, power=1.0) / stats.nbytes

    def render_complexity(
        self, stats: DatasetStats, reference_triangles_per_sec: float = 2.0e6
    ) -> float:
        """Per-input-byte complexity of rendering the geometry stream.

        The reference rate corresponds to a power-1 PC; the DP divides by
        node power, which the testbed couples to rendering capability.
        """
        geo = max(self.geometry_bytes(stats), 1.0)
        return self.rendering_seconds(stats, reference_triangles_per_sec) / geo

    def geometry_ratio(self, stats: DatasetStats) -> float:
        """``m_extract / m_input`` for the pipeline's output sizing."""
        return max(self.geometry_bytes(stats) / stats.nbytes, 1e-6)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "t_case": self.t_case.tolist(),
            "n_triangle": self.n_triangle.tolist(),
            "t_call": self.t_call,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IsosurfaceCostModel":
        return cls(
            t_case=np.asarray(data["t_case"], dtype=float),
            n_triangle=np.asarray(data["n_triangle"], dtype=float),
            t_call=float(data.get("t_call", 0.0)),
        )
