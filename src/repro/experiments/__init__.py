"""Experiment drivers regenerating every evaluation artifact.

One module per paper artifact (see DESIGN.md §4):

* :mod:`~repro.experiments.fig9` — six-loop end-to-end delay comparison,
* :mod:`~repro.experiments.fig10` — RICSA vs ParaView ``-crs``,
* :mod:`~repro.experiments.transport_exp` — Section 3 goodput
  stabilization (plus the α-gain ablation),
* :mod:`~repro.experiments.dp_scaling` — Section 4.5 optimality and
  ``O(n |E|)`` scaling (plus the greedy-quality ablation),
* :mod:`~repro.experiments.web_concurrency` — web-tier scaling: long-poll
  throughput and wake latency across sessions x clients,
* :mod:`~repro.experiments.executor_scaling` — publish-side scaling:
  stepping sessions vs process thread count on the shared executor,
* :mod:`~repro.experiments.reporting` — ASCII tables in the paper's
  row/series format.
"""

from repro.experiments.dp_scaling import run_dp_optimality, run_dp_scaling, run_greedy_gap
from repro.experiments.executor_scaling import (
    ExecutorCell,
    ExecutorScalingResult,
    run_executor_scaling,
)
from repro.experiments.fig9 import Fig9Result, run_fig9
from repro.experiments.fig10 import Fig10Result, run_fig10
from repro.experiments.reporting import format_series, format_table
from repro.experiments.transport_exp import run_alpha_sweep, run_transport_comparison
from repro.experiments.web_concurrency import (
    ConcurrencyCell,
    SweepResult,
    run_web_concurrency,
)

__all__ = [
    "ConcurrencyCell",
    "ExecutorCell",
    "ExecutorScalingResult",
    "Fig9Result",
    "Fig10Result",
    "SweepResult",
    "format_series",
    "format_table",
    "run_alpha_sweep",
    "run_dp_optimality",
    "run_dp_scaling",
    "run_executor_scaling",
    "run_fig9",
    "run_fig10",
    "run_greedy_gap",
    "run_transport_comparison",
    "run_web_concurrency",
]
