"""Visualization substrate: the paper's pipeline modules.

Implements the processing stages of the general visualization pipeline
(Fig. 3): filtering, transformation (isosurface extraction via marching
cubes with tetrahedral triangulation, Section 4.4.1), ray casting
(Section 4.4.2), streamlines (Section 4.4.3), and software rendering of
geometry to images, plus the pipeline abstraction the mapping optimizer
partitions (Fig. 4).
"""

from repro.viz.camera import OrthoCamera
from repro.viz.filtering import SubsetFilter
from repro.viz.image import Image, decode_fixed_size, encode_fixed_size
from repro.viz.isosurface import (
    TriangleMesh,
    classify_cells,
    estimate_triangles,
    extract_blocks,
    extract_isosurface,
)
from repro.viz.mc_tables import MC_CASE_CLASS, N_MC_CLASSES, TRIANGLES_PER_CONFIG
from repro.viz.pipeline import ModuleSpec, VisualizationPipeline, standard_pipeline
from repro.viz.raycast import raycast
from repro.viz.render import render_mesh
from repro.viz.streamline import trace_streamlines
from repro.viz.transfer import TransferFunction

__all__ = [
    "Image",
    "MC_CASE_CLASS",
    "ModuleSpec",
    "N_MC_CLASSES",
    "OrthoCamera",
    "SubsetFilter",
    "TRIANGLES_PER_CONFIG",
    "TransferFunction",
    "TriangleMesh",
    "VisualizationPipeline",
    "classify_cells",
    "decode_fixed_size",
    "encode_fixed_size",
    "estimate_triangles",
    "extract_blocks",
    "extract_isosurface",
    "raycast",
    "render_mesh",
    "standard_pipeline",
    "trace_streamlines",
]
