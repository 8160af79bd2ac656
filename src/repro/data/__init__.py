"""Scientific data substrate: grids, octrees, datasets, containers.

The paper's pipelines consume multivariate volumetric data "organized in
structures such as CDF, HDF, and NetCDF".  This package provides the
equivalents we control end-to-end:

* :mod:`~repro.data.grid` — regular structured scalar/vector grids,
* :mod:`~repro.data.octree` — block decomposition with per-block ranges
  (the octree traversal that accelerates isosurface extraction),
* :mod:`~repro.data.datasets` — synthetic stand-ins for the paper's Jet
  (16 MB), Rage (64 MB) and Visible Woman (108 MB) volumes.
"""

from repro.data.datasets import (
    DATASET_REGISTRY,
    DatasetInfo,
    make_dataset,
    make_jet,
    make_rage,
    make_viswoman,
)
from repro.data.grid import StructuredGrid, VectorField
from repro.data.octree import Block, Octree, build_blocks

__all__ = [
    "Block",
    "DATASET_REGISTRY",
    "DatasetInfo",
    "Octree",
    "StructuredGrid",
    "VectorField",
    "build_blocks",
    "make_dataset",
    "make_jet",
    "make_rage",
    "make_viswoman",
]
