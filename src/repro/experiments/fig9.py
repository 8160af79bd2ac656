"""Fig. 9: end-to-end delay of the six visualization loops.

For each dataset (Jet 16 MB, Rage 64 MB, Visible Woman 108 MB) and each
loop, compute the Eq. 2 end-to-end delay of the calibrated isosurface
pipeline.  Class statistics are measured on a ``scale``-reduced replica
and extrapolated to the full byte size (DESIGN.md §2); loop 1 comes from
the DP mapper (and is cross-checked against the static definition), the
others from the fixed mappings of Fig. 9.

``mode="modeled"`` evaluates the analytic Eq. 2 terms (fast — this is
what the benchmark regenerates).  ``mode="live"`` executes the actual
visualization modules on the scaled replica through the loop runner and
scales compute by node power, for an end-to-end sanity run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.baselines.static_loops import FIG9_LOOPS, LoopDefinition, evaluate_loop
from repro.costmodel.base import compute_dataset_stats
from repro.costmodel.calibration import CalibrationStore
from repro.costmodel.pipeline_builder import build_calibrated_pipeline
from repro.costmodel.transport_cost import bandwidth_table, profile_links
from repro.data.datasets import DATASET_REGISTRY, make_dataset
from repro.errors import ConfigurationError
from repro.mapping.dp import map_pipeline
from repro.mapping.vrt import VisualizationRoutingTable
from repro.net.testbed import build_paper_testbed
from repro.experiments.reporting import format_table
from repro.units import MB

__all__ = ["Fig9Row", "Fig9Result", "run_fig9", "pinned_calibration", "DATASETS"]

#: (name, full MB) triplets, the paper's order.
DATASETS: tuple[tuple[str, int], ...] = (("jet", 16), ("rage", 64), ("viswoman", 108))

#: Isovalue (as a fraction of the value range) per dataset: the jet
#: plume surface, the blast shell, and the skin/fat envelope (the classic
#: Visible-Woman skin surface — famously ~10M triangles at full res).
DATASET_ISO_FRACTIONS: dict[str, float] = {"jet": 0.5, "rage": 0.5, "viswoman": 0.28}


@dataclass(frozen=True, slots=True)
class Fig9Row:
    """One bar of Fig. 9."""

    loop: str
    loop_path: str
    dataset: str
    delay: float
    compute: float
    transport: float
    overhead: float


@dataclass
class Fig9Result:
    """All bars plus the derived headline numbers."""

    rows: list[Fig9Row] = field(default_factory=list)
    optimal_loop_path: str = ""
    dp_matches_loop1: bool = True

    def delay(self, loop: str, dataset: str) -> float:
        for r in self.rows:
            if r.loop == loop and r.dataset == dataset:
                return r.delay
        raise KeyError((loop, dataset))

    def loops(self) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r.loop not in seen:
                seen.append(r.loop)
        return seen

    def speedup_vs_pcpc(self, dataset: str) -> float:
        """Optimal-loop speedup over the *better* PC-PC loop."""
        best_pcpc = min(
            self.delay(l.name, dataset) for l in FIG9_LOOPS if l.kind == "pc-pc"
        )
        return best_pcpc / self.delay(FIG9_LOOPS[0].name, dataset)

    def to_table(self) -> str:
        headers = ["Loop", "Path"] + [f"{n}({mb}MB)" for n, mb in DATASETS]
        rows = []
        for loop in FIG9_LOOPS:
            row = [loop.name, loop.loop_name()]
            for ds, _ in DATASETS:
                row.append(self.delay(loop.name, ds))
            rows.append(row)
        return format_table(
            headers, rows,
            title="Fig. 9 - measured end-to-end delay (seconds) per visualization loop",
        )


def pinned_calibration() -> CalibrationStore:
    """Figs. 9 and 10's default cost model: one ``default_calibration(0)``
    run (``produced_by`` names its commit, host and command), so the figures
    do not move with the speed of the host's kernels."""
    path = Path(__file__).with_name("fig_calibration.json")
    return CalibrationStore.from_dict(json.loads(path.read_text()))


#: Full-resolution octree leaf size (cells per axis), as in Section 4.4.1.
FULL_BLOCK_CELLS = 16


def _dataset_stats(name: str, full_mb: int, scale: float, seed: int, iso_fraction: float):
    grid = make_dataset(name, scale=scale, seed=seed)
    iso = grid.vmin + iso_fraction * (grid.vmax - grid.vmin)
    info, _ = DATASET_REGISTRY[name]
    full_cells = 1
    for s in info.full_shape:
        full_cells *= s - 1
    # Physically matched extrapolation: replica blocks cover the same
    # fraction of the domain as 16-cell blocks do at full resolution, so
    # the active-block *fraction* (a surface-area quantity) carries over.
    replica_block = max(2, int(round(FULL_BLOCK_CELLS * scale)))
    return grid, compute_dataset_stats(
        grid,
        iso,
        block_cells=replica_block,
        full_nbytes=full_mb * MB,
        full_n_cells=full_cells,
        full_block_cells=FULL_BLOCK_CELLS,
    )


def run_fig9(
    mode: str = "modeled",
    scale: float = 0.25,
    seed: int = 0,
    iso_fraction: float | None = None,
    calibration: CalibrationStore | None = None,
    use_measured_bandwidth: bool = False,
) -> Fig9Result:
    """Regenerate Fig. 9.

    Parameters
    ----------
    mode:
        ``"modeled"`` (Eq. 2 with calibrated cost models) or ``"live"``
        (execute the viz modules on the scaled replica; delays are then
        live-compute + modelled-transport on the *scaled* data).
    scale:
        Linear scale of the replica used for class statistics (and for
        live execution).
    calibration:
        Default :func:`pinned_calibration`.
    use_measured_bandwidth:
        Profile per-link EPB actively (slower) instead of spec values.
    """
    if mode not in ("modeled", "live"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    calib = calibration if calibration is not None else pinned_calibration()
    topology, _roles = build_paper_testbed(with_cross_traffic=False)
    bandwidths = (
        bandwidth_table(profile_links(topology, repeats=1, no_cross_traffic=True))
        if use_measured_bandwidth
        else None
    )

    result = Fig9Result()
    for ds_name, full_mb in DATASETS:
        frac = iso_fraction if iso_fraction is not None else DATASET_ISO_FRACTIONS[ds_name]
        grid, stats = _dataset_stats(ds_name, full_mb, scale, seed, frac)
        pipeline = build_calibrated_pipeline("isosurface", stats, calib)

        # The DP-optimal configuration (what RICSA's CM computes).
        dp = map_pipeline(pipeline, topology, "GaTech", "ORNL", bandwidths=bandwidths)
        if tuple(dp.mapping.path) != FIG9_LOOPS[0].data_path:
            result.dp_matches_loop1 = False
        result.optimal_loop_path = "-".join(dp.mapping.path)

        for loop in FIG9_LOOPS:
            if mode == "modeled":
                bd = evaluate_loop(loop, pipeline, topology, bandwidths=bandwidths)
                row = Fig9Row(
                    loop=loop.name,
                    loop_path=loop.loop_name(),
                    dataset=ds_name,
                    delay=bd.total,
                    compute=bd.compute,
                    transport=bd.transport,
                    overhead=bd.overhead,
                )
            else:
                row = _live_row(loop, pipeline, topology, grid, stats, bandwidths)
            result.rows.append(row)
    return result


def _live_row(
    loop: LoopDefinition,
    pipeline,
    topology,
    grid,
    stats,
    bandwidths,
) -> Fig9Row:
    from repro.steering.loop import VisualizationLoopRunner
    from repro.viz.camera import OrthoCamera

    vrt = VisualizationRoutingTable.from_mapping(pipeline, loop.mapping())
    runner = VisualizationLoopRunner(topology, bandwidths=bandwidths)
    cam = OrthoCamera.framing(*grid.bounds(), width=128, height=128)
    res = runner.run_cycle(
        vrt, grid, params={"isovalue": stats.isovalue, "camera": cam,
                           "max_triangles": 40_000}
    )
    return Fig9Row(
        loop=loop.name,
        loop_path=loop.loop_name(),
        dataset=grid.name,
        delay=res.total_seconds,
        compute=res.compute_seconds,
        transport=res.transport_seconds,
        overhead=0.0,
    )
