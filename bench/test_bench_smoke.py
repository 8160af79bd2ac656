"""Smoke test of the benchmark itself (collected by tier-1, a few seconds).

Every workload runs at about 1% of its size, plus one traced pass: every
metric ``BENCHMARK.json`` names must come out finite and with its unit, no
operation may fail, spans must nest, and the generator must leave no thread
or socket behind.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from pathlib import Path

import pytest

from bench import run
from bench.spans import nesting_errors
from bench.workloads import WORKLOADS
from repro.costmodel.calibration import default_calibration

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SCALE = 0.01
#: steer_live needs a handful of frames before one steering action completes.
SECONDS = {"steer_live": 1.0}
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def calibration():
    return default_calibration(0)


def _sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor is gone by now
    return count


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{metric['name']} missing"
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), f"{metric['name']} = {got['value']}"
    assert result["failed_ops_share"] == 0, result["ops_failed"]
    assert result["correct"]


def test_benchmark_json_is_well_formed():
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_yields_every_end_to_end_metric(name, calibration):
    threads, sockets = set(threading.enumerate()), _sockets()
    result = run.run_end_to_end(
        name, seed=11, seconds=SECONDS.get(name, 0.3), entry=time.perf_counter(),
        scale=SCALE, calibration=calibration, setup_samples=1)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["ops_attempted"]["update"] > 0
    assert result["ops_attempted"]["action"] > 0
    assert len(result["update_ms"]["block_p50"]) == 12
    assert set(threading.enumerate()) <= threads
    assert _sockets() == sockets


def test_traced_pass_yields_every_layer_metric(calibration):
    threads, sockets = set(threading.enumerate()), _sockets()
    result = run.run_traced("window_pan", seed=11, seconds=1.0, scale=SCALE,
                            calibration=calibration)
    _assert_metrics(result, SPEC["per_layer"])
    shares = [m["value"] for k, m in result["metrics"].items()
              if k.startswith("share.")]
    assert abs(sum(shares) - 1.0) <= 0.02
    trace = json.loads((BENCH_DIR / "out" / "trace_window_pan.json").read_text())
    spans = [[s["id"], s["name"], s["start"], s["end"], s["parent"], s["op"]]
             for s in trace["spans"]]
    assert len(spans) == result["spans"] > 0
    assert nesting_errors(spans) == []
    assert set(threading.enumerate()) <= threads
    assert _sockets() == sockets


def test_no_rate_is_set_by_a_sleep():
    """Waiting is done on blocking reads, never on a timer."""
    for path in (BENCH_DIR / "workloads").glob("*.py"):
        assert "sleep" not in path.read_text(), path.name
