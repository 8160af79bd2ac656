"""Benchmark: regenerate Fig. 10 (RICSA vs ParaView -crs).

Shape assertions: delays are *comparable* (same order of magnitude, on
the identical DP-chosen node mapping) with RICSA consistently faster —
"RICSA achieved comparable performances with ParaView ... performance
differences may have been caused by higher processing and communication
overhead".
"""

from __future__ import annotations

import pytest

from repro.baselines.paraview import ParaViewModel
from repro.experiments.fig10 import run_fig10

from benchmarks.conftest import record_report


@pytest.fixture(scope="module")
def fig10_result():
    return run_fig10()


class TestBenchFig10:
    def test_bench_fig10_regeneration(self, benchmark, fig10_result):
        result = benchmark.pedantic(run_fig10, rounds=3, iterations=1)
        record_report(result.to_table())
        assert len(result.rows) == 3

    def test_ricsa_faster_on_every_dataset(self, benchmark, fig10_result):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for row in fig10_result.rows:
            assert row.ricsa_delay < row.paraview_delay, row.dataset

    def test_systems_are_comparable(self, benchmark, fig10_result):
        """Same order of magnitude: ratio within [1.0, 2.0]."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for row in fig10_result.rows:
            assert 1.0 < row.ratio < 2.0, row.dataset

    def test_overhead_knobs_scale_the_gap(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        light = run_fig10(paraview=ParaViewModel(1.05, 1.02, 0.1))
        heavy = run_fig10(paraview=ParaViewModel(1.6, 1.4, 1.5))
        for l, h in zip(light.rows, heavy.rows):
            assert l.ratio < h.ratio
