"""Execute one visualization loop: live modules + modelled WAN transport.

Given a VRT and a real dataset, the runner plays every node of the loop
in-process: it *actually executes* the visualization modules assigned to
each node (filter, marching cubes, software rendering) and *models* the
wide-area transport between nodes from link bandwidth (EPB) and message
sizes.  The result carries both the image and a delay breakdown whose
structure matches Eq. 2 — compute terms measured, transport terms
modelled — which is how the repo's "live mode" experiments produce
end-to-end delays on one laptop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


from repro.data.grid import StructuredGrid
from repro.errors import SteeringError
from repro.mapping.model import link_bandwidth
from repro.mapping.vrt import VisualizationRoutingTable
from repro.net.topology import Topology
from repro.viz.filtering import SubsetFilter
from repro.viz.image import Image
from repro.viz.isosurface import extract_isosurface
from repro.viz.render import render_mesh

__all__ = ["LoopResult", "StageTiming", "VisualizationLoopRunner"]


@dataclass(slots=True)
class StageTiming:
    """One node's contribution to the loop delay."""

    node: str
    modules: tuple[str, ...]
    compute_seconds: float
    transport_seconds: float
    output_bytes: float


@dataclass
class LoopResult:
    """Image plus the per-stage delay breakdown."""

    image: Image
    stages: list[StageTiming] = field(default_factory=list)
    cycle: int = 0

    @property
    def compute_seconds(self) -> float:
        return sum(s.compute_seconds for s in self.stages)

    @property
    def transport_seconds(self) -> float:
        return sum(s.transport_seconds for s in self.stages)

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.transport_seconds


class VisualizationLoopRunner:
    """Executes VRT-described loops on real data.

    Parameters
    ----------
    topology:
        Supplies link bandwidths and node powers for the transport model
        and the compute-time scaling.
    bandwidths:
        Optional measured EPB table overriding spec bandwidths.

    Measured module times on this host are divided by the hosting node's
    normalized power — this machine plays every node, so a power-4
    cluster runs 4x faster than measured — and every hop pays its link's
    propagation delay on top of its transfer time.
    """

    def __init__(
        self,
        topology: Topology,
        bandwidths: dict[tuple[str, str], float] | None = None,
    ) -> None:
        self.topology = topology
        self.bandwidths = bandwidths

    # -- module execution --------------------------------------------------------

    def _run_module(self, name: str, data, params: dict):
        """Execute one named module; returns (output, output_bytes)."""
        if name == "data-source":
            return data, float(data.nbytes)
        if name == "filter":
            octant = params.get("octant", -1)
            out = SubsetFilter(octant)(data)
            return out, float(out.nbytes)
        if name == "isosurface-extract":
            mesh = extract_isosurface(data, params["isovalue"])
            return mesh, float(mesh.nbytes)
        if name == "geometry-render":
            img = render_mesh(
                data, params.get("camera"), max_triangles=params.get("max_triangles")
            )
            return img, float(img.nbytes)
        if name == "raycast":
            from repro.viz.raycast import raycast
            from repro.viz.transfer import TransferFunction

            camera = params.get("camera")
            tf = params.get("transfer")
            if tf is None:
                tf = TransferFunction.hot_metal(data.vmin, data.vmax)
            res = raycast(data, camera=camera, transfer=tf)
            return res.image, float(res.image.nbytes)
        if name in ("composite", "display", "polyline-render"):
            return data, float(getattr(data, "nbytes", 0.0))
        if name == "streamline-trace":
            from repro.viz.streamline import seed_grid, trace_streamlines

            field_ = data.gradient() if isinstance(data, StructuredGrid) else data
            seeds = seed_grid(field_, n_per_axis=params.get("seeds_per_axis", 4))
            res = trace_streamlines(
                field_, seeds, n_steps=params.get("n_steps", 100), h=params.get("h", 0.5)
            )
            return res, float(res.nbytes)
        raise SteeringError(f"loop runner has no implementation for module {name!r}")

    # -- the loop -----------------------------------------------------------------

    def run_cycle(
        self,
        vrt: VisualizationRoutingTable,
        dataset: StructuredGrid,
        params: dict | None = None,
        cycle: int = 0,
    ) -> LoopResult:
        """Play every VRT entry in order on ``dataset``."""
        params = dict(params or {})
        data = dataset
        stages: list[StageTiming] = []
        image: Image | None = None

        for entry in vrt.entries:
            node = self.topology.node(entry.node)
            t0 = time.perf_counter()
            out_bytes = float(getattr(data, "nbytes", 0.0))
            for mod_name in entry.module_names:
                data, out_bytes = self._run_module(mod_name, data, params)
            compute = (time.perf_counter() - t0) / node.power
            if node.cluster_size > 1:
                compute += node.parallel_overhead

            transport = 0.0
            if entry.next_hop is not None:
                b = link_bandwidth(
                    self.topology, entry.node, entry.next_hop, self.bandwidths
                )
                transport = (out_bytes / b
                             + self.topology.prop_delay(entry.node, entry.next_hop))

            stages.append(
                StageTiming(
                    node=entry.node,
                    modules=entry.module_names,
                    compute_seconds=compute,
                    transport_seconds=transport,
                    output_bytes=out_bytes,
                )
            )
            if isinstance(data, Image):
                image = data

        if image is None:
            raise SteeringError("loop finished without producing an image")
        return LoopResult(image=image, stages=stages, cycle=cycle)
