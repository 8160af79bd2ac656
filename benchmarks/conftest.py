"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper artifact (DESIGN.md §4) and
registers its paper-style table via ``record_report`` so everything is
printed in the terminal summary after the pytest-benchmark stats.
``BENCH_*.json`` artifacts go through :func:`write_json_artifact` /
:func:`merge_json_artifact`, which write atomically (fsync before
rename, via the hardened helper in :mod:`repro.obs.atomic`) so a CI kill
— or a power cut — mid-run can never leave (and CI never uploads) a
truncated artifact.  They write only when ``RICSA_BENCH_ARTIFACT_DIR``
names a directory (the CI bench jobs set it to the workspace); without
it a run prints its tables and leaves the committed files alone, so the
Tier-1 command ends with a clean ``git status``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.reporting import drain_bench_reports, record_bench_report
from repro.obs.atomic import atomic_write_json, merge_json_file

# The registry lives in the library (not this module) because pytest may
# import this conftest under a different module name than the benchmark
# files do ('conftest' vs 'benchmarks.conftest'), which would split a
# module-level list into two instances.
record_report = record_bench_report


def _artifact_target(path) -> Path | None:
    """``path``'s file name under ``RICSA_BENCH_ARTIFACT_DIR``, or None
    (write nothing) when the variable is unset."""
    directory = os.environ.get("RICSA_BENCH_ARTIFACT_DIR")
    return Path(directory) / Path(path).name if directory else None


def write_json_artifact(path, payload: dict) -> None:
    """Serialize ``payload`` to ``path`` atomically (fsync + rename).

    A benchmark process killed mid-write leaves a truncated JSON file
    that CI would happily upload as the run's artifact; the fsync'd
    temp-file + rename makes the artifact either the complete new
    payload or the previous one, never a prefix — even across a crash
    of the machine, not just the process.
    """
    target = _artifact_target(path)
    if target is not None:
        atomic_write_json(target, payload, sort_keys=False)


def merge_json_artifact(path, updates: dict) -> None:
    """Update top-level keys of an existing JSON artifact atomically.

    Lets two CI jobs contribute to one artifact file without clobbering
    each other's sections: the base web-concurrency job rewrites the
    grid keys and ``large_herd`` while the transport job rewrites only
    ``transport_compare``, and whichever ran is layered over the
    committed version of the rest.  A section no job writes any more
    stays until it is removed from the committed file by hand.
    """
    target = _artifact_target(path)
    if target is not None:
        merge_json_file(target, updates, sort_keys=False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = drain_bench_reports()
    if reports:
        terminalreporter.write_sep("=", "paper artifact reproductions")
        for report in reports:
            terminalreporter.write_line("")
            for line in report.splitlines():
                terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def calibration():
    from repro.costmodel.calibration import default_calibration

    return default_calibration(seed=0)


@pytest.fixture(scope="session")
def testbed():
    from repro.net.testbed import build_paper_testbed

    return build_paper_testbed(with_cross_traffic=False)
