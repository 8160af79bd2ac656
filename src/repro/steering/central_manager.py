"""The central management (CM) node.

"The CM node determines the best system configuration ... strategically
partitions the visualization pipeline into groups and selects an
appropriate set of CS nodes", producing the VRT (Section 2).  Our CM
profiles link bandwidths (optionally), builds the calibrated pipeline for
the requested technique/dataset, runs the DP mapper and assembles the
routing table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.base import DatasetStats
from repro.costmodel.calibration import CalibrationStore, default_calibration
from repro.costmodel.pipeline_builder import build_calibrated_pipeline
from repro.errors import SteeringError
from repro.mapping.dp import DPResult, map_pipeline
from repro.mapping.vrt import VisualizationRoutingTable
from repro.net.testbed import TestbedRoles
from repro.net.topology import Topology
from repro.viz.pipeline import VisualizationPipeline

__all__ = ["VizRequest", "CentralManager", "ConfigurationDecision"]


@dataclass(frozen=True)
class VizRequest:
    """What an Ajax client asks for: simulator/dataset, variable,
    visualization method and parameters (Section 2's request fields)."""

    technique: str = "isosurface"
    variable: str = "density"
    source_node: str = ""
    isovalue: float = 0.5
    octant: int = -1
    image_bytes: float = 256 * 1024


@dataclass
class ConfigurationDecision:
    """Everything the CM decided for one request."""

    vrt: VisualizationRoutingTable
    pipeline: VisualizationPipeline
    dp: DPResult
    source: str
    destination: str


class CentralManager:
    """Holds global knowledge: topology, roles, calibration, bandwidths.

    One CM serves every session concurrently.  :meth:`configure` only
    reads the CM's state, so it needs no lock, and the CM keeps nothing
    per session: each session holds its own decision.
    """

    def __init__(
        self,
        topology: Topology,
        roles: TestbedRoles,
        calibration: CalibrationStore | None = None,
        bandwidths: dict[tuple[str, str], float] | None = None,
    ) -> None:
        self.topology = topology
        self.roles = roles
        self.calibration = calibration if calibration is not None else default_calibration()
        self.bandwidths = bandwidths

    def choose_source(self, request: VizRequest) -> str:
        """Pick the data-source node (request override or first DS)."""
        if request.source_node:
            if request.source_node not in self.topology.node_names:
                raise SteeringError(f"unknown source node {request.source_node!r}")
            return request.source_node
        if not self.roles.data_sources:
            raise SteeringError("no data source nodes configured")
        return self.roles.data_sources[0]

    def configure(
        self,
        request: VizRequest,
        stats: DatasetStats,
    ) -> ConfigurationDecision:
        """Run the full CM decision: pipeline -> DP -> VRT."""
        source = self.choose_source(request)
        destination = self.roles.client
        filter_ratio = 0.125 if request.octant >= 0 else 1.0
        pipeline = build_calibrated_pipeline(
            request.technique,
            stats,
            self.calibration,
            image_bytes=request.image_bytes,
            filter_ratio=filter_ratio,
        )
        dp = map_pipeline(
            pipeline,
            self.topology,
            source,
            destination,
            bandwidths=self.bandwidths,
        )
        control_path = (destination, self.roles.central_manager, source)
        vrt = VisualizationRoutingTable.from_mapping(
            pipeline, dp.mapping, control_path=control_path, expected_delay=dp.delay
        )
        return ConfigurationDecision(
            vrt=vrt, pipeline=pipeline, dp=dp, source=source, destination=destination
        )
