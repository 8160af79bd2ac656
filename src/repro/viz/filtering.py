"""Dataset filtering / preprocessing modules (Fig. 3's first stage).

"The filtering module extracts the information of interest from the raw
data and performs necessary preprocessing to improve processing
efficiency and save communication resources."  A filter transforms a
:class:`~repro.data.grid.StructuredGrid` into a smaller one and declares
its *output ratio* (bytes out / bytes in) so the mapping optimizer can
size the downstream messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.grid import StructuredGrid
from repro.errors import ConfigurationError

__all__ = ["SubsetFilter"]


@dataclass(frozen=True)
class SubsetFilter:
    """Select one of the eight octree subsets (or the whole dataset).

    ``octant`` is -1 for the entire volume or 0..7 for an octant — the
    exact UI control of the paper's Fig. 6 ("one of the eight octree
    subsets or entire dataset").
    """

    octant: int = -1

    def __post_init__(self) -> None:
        if not (-1 <= self.octant < 8):
            raise ConfigurationError("octant must be -1 (all) or in [0, 8)")

    @property
    def output_ratio(self) -> float:
        return 1.0 if self.octant < 0 else 0.125

    def __call__(self, grid: StructuredGrid) -> StructuredGrid:
        if self.octant < 0:
            return grid
        return grid.octant(self.octant)
