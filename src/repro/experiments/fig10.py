"""Fig. 10: RICSA optimal loop vs ParaView client-render-server mode.

Both systems run the identical node mapping (the DP-optimal
GaTech -> UT -> ORNL route); ParaView pays its package overheads and a
manual-configuration setup cost per hop.  The reproduced claim is the
*shape*: comparable delays, RICSA consistently somewhat faster, gap
roughly constant in relative terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.paraview import ParaViewModel
from repro.baselines.static_loops import FIG9_LOOPS, evaluate_loop
from repro.costmodel.calibration import CalibrationStore
from repro.costmodel.pipeline_builder import build_calibrated_pipeline
from repro.experiments.fig9 import (DATASETS, DATASET_ISO_FRACTIONS, _dataset_stats,
                                   pinned_calibration)
from repro.experiments.reporting import format_table
from repro.net.testbed import build_paper_testbed

__all__ = ["Fig10Row", "Fig10Result", "run_fig10"]


@dataclass(frozen=True, slots=True)
class Fig10Row:
    dataset: str
    ricsa_delay: float
    paraview_delay: float

    @property
    def ratio(self) -> float:
        return self.paraview_delay / self.ricsa_delay


@dataclass
class Fig10Result:
    rows: list[Fig10Row] = field(default_factory=list)

    def to_table(self) -> str:
        headers = ["Dataset", "RICSA optimal loop (s)", "ParaView -crs (s)", "PV/RICSA"]
        rows = [
            [r.dataset, r.ricsa_delay, r.paraview_delay, r.ratio] for r in self.rows
        ]
        return format_table(
            headers,
            rows,
            title=(
                "Fig. 10 - RICSA (ORNL-LSU-GaTech-UT-ORNL) vs "
                "ParaView -crs (ORNL-UT-GaTech), seconds"
            ),
        )


def run_fig10(
    scale: float = 0.25,
    seed: int = 0,
    iso_fraction: float | None = None,
    calibration: CalibrationStore | None = None,
    paraview: ParaViewModel | None = None,
) -> Fig10Result:
    """Regenerate Fig. 10 (modeled mode, same machinery and calibration as Fig. 9)."""
    calib = calibration if calibration is not None else pinned_calibration()
    pv = paraview if paraview is not None else ParaViewModel()
    topology, _ = build_paper_testbed(with_cross_traffic=False)
    loop1 = FIG9_LOOPS[0]

    result = Fig10Result()
    for ds_name, full_mb in DATASETS:
        frac = iso_fraction if iso_fraction is not None else DATASET_ISO_FRACTIONS[ds_name]
        _grid, stats = _dataset_stats(ds_name, full_mb, scale, seed, frac)
        pipeline = build_calibrated_pipeline("isosurface", stats, calib)
        ricsa = evaluate_loop(loop1, pipeline, topology)
        para = pv.crs_delay(pipeline, topology, loop1.mapping())
        result.rows.append(
            Fig10Row(
                dataset=ds_name,
                ricsa_delay=ricsa.total,
                paraview_delay=para.total,
            )
        )
    return result
