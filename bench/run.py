"""One benchmark run: set up, warm up, measure, verify, report.

``--trace 0`` measures the end-to-end metrics with no tracer installed.
``--trace 1`` is the separate traced run: a short untraced window, the same
window again under the span recorder, then the layer replay; it reports the
per-layer metrics and writes the spans to ``bench/out/trace_<workload>.json``.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time

from bench import replay
from bench.harness import (BENCH_DIR, REPO_ROOT, Recorder, Testbed, envelope,
                           summarize)
from bench.reference import NOMINAL_S, kernel
from bench.spans import NullTracer, Tracer
from bench.workloads import WORKLOADS
from repro.obs.atomic import atomic_write_json

__all__ = ["run_end_to_end", "run_traced", "report"]

OUT_DIR = BENCH_DIR / "out"
#: Set-ups timed per run (this process plus fresh child processes): imports
#: and the calibration cache are paid once per process, so only a new
#: process sees what a user's first run sees.
SETUP_SAMPLES = 3


def _measure(workload, seconds: float) -> Recorder:
    rec = Recorder(seconds)
    rec.begin(workload.conns)
    try:
        workload.run(rec)
    finally:
        rec.end()
    return rec


def _setup(name: str, seed: int, scale: float, calibration, entry: float):
    """Testbed + workload, warmed up: everything ``setup_s`` covers.

    Returns ``(testbed, workload, setup)``; ``setup`` holds the seconds since
    ``entry`` as measured (``raw``) and at reference speed (``setup_s``).  The
    reference kernel is timed while the fresh server is still idle, after each
    of the two set-up phases; its own time is taken out again.
    """
    reference: list[float] = []
    tb = Testbed(calibration)
    workload = WORKLOADS[name](seed, NullTracer(), scale)
    try:
        reference += [kernel() for _ in range(3)]
        workload.setup(tb)
        reference += [kernel() for _ in range(3)]
        workload.warmup()
    except BaseException:
        workload.close()
        tb.close()
        raise
    elapsed = time.perf_counter() - entry - sum(reference)
    speed = NOMINAL_S / statistics.median(reference)
    return tb, workload, {"setup_s": elapsed * speed, "raw": elapsed}


def setup_only(name: str, seed: int, entry: float) -> dict:
    """What a child process runs: time one set-up, tear it down."""
    tb, workload, setup = _setup(name, seed, 1.0, None, entry)
    workload.close()
    tb.close()
    return setup


def _child_setups(name: str, seed: int, count: int) -> list[dict]:
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def run_end_to_end(name: str, seed: int, seconds: float, entry: float,
                   scale: float = 1.0, calibration=None,
                   setup_samples: int = SETUP_SAMPLES) -> dict:
    tb, workload, setup = _setup(name, seed, scale, calibration, entry)
    try:
        rec = _measure(workload, seconds)
    finally:
        workload.close()
        tb.close()
    result = summarize(rec)
    setups = [setup] + _child_setups(name, seed, setup_samples - 1)
    result["metrics"]["setup_s"] = {
        "value": statistics.median(s["setup_s"] for s in setups), "unit": "s",
        "raw": statistics.median(s["raw"] for s in setups), "samples": len(setups)}
    result["setup_s_samples"] = setups
    result["calibration_s"] = tb.calibration_s
    result["envelope"] = envelope(name, seed, seconds, workload.sizes)
    return _finish(result, f"{name}.json")


def run_traced(name: str, seed: int, seconds: float,
               scale: float = 1.0, calibration=None) -> dict:
    tb, workload, _ = _setup(name, seed, scale, calibration, time.perf_counter())
    tracer = Tracer()
    try:
        plain = _measure(workload, seconds / 4)
        workload.set_tracer(tracer)
        traced = _measure(workload, seconds / 4)
        counts = workload.layer_counts()
    finally:
        workload.close()
        tb.close()
    plain, traced = summarize(plain), summarize(traced)
    layers, checks = replay.run(seed, tracer, scale, tb.calibration, tb.calibration_s)
    rate = plain["metrics"]["updates_per_s"]["value"]
    traced_rate = traced["metrics"]["updates_per_s"]["value"]
    layers.update(replay.shares(name, layers, 1e3 / rate, counts))
    layers["trace_overhead_pct"] = (100.0 * (rate - traced_rate) / rate, "%")
    attempted = {k: plain["ops_attempted"][k] + traced["ops_attempted"][k]
                 for k in plain["ops_attempted"]}
    failed = {k: plain["ops_failed"][k] + traced["ops_failed"][k]
              for k in plain["ops_failed"]}
    attempted["replay"], failed["replay"] = checks
    result = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failed_ops_share": sum(failed.values()) / max(sum(attempted.values()), 1),
        "untraced_window": plain,
        "traced_window": traced,
        "spans": len(tracer.spans),
        "envelope": envelope(name, seed, seconds, workload.sizes),
    }
    OUT_DIR.mkdir(exist_ok=True)
    atomic_write_json(OUT_DIR / f"trace_{name}.json",
                      {"workload": name, "seed": seed, "spans": tracer.to_json()},
                      indent=None, sort_keys=False)
    return _finish(result, f"layers_{name}.json")


def _finish(result: dict, filename: str) -> dict:
    values = [m["value"] for m in result["metrics"].values()]
    result["correct"] = (sum(result["ops_failed"].values()) == 0
                         and all(result["ops_attempted"].values())
                         and all(math.isfinite(v) for v in values))
    OUT_DIR.mkdir(exist_ok=True)
    atomic_write_json(OUT_DIR / filename, result, sort_keys=False)
    return result


def report(result: dict) -> str:
    """Every metric by name with its unit, then the driver's JSON line."""
    lines = [f"# {result['envelope']['workload']} seed={result['envelope']['seed']}"
             f" seconds={result['envelope']['seconds']}"]
    for name, metric in result["metrics"].items():
        notes = f"  (n={metric['samples']})" if "samples" in metric else ""
        if "raw" in metric:
            notes += f"  (as measured: {metric['raw']:.4f})"
        lines.append(f"{name:48s} {metric['value']:14.4f} {metric['unit']}{notes}")
    for kind in result["ops_attempted"]:
        lines.append(f"ops {kind:8s} attempted={result['ops_attempted'][kind]}"
                     f" failed={result['ops_failed'][kind]}")
    if "disturbed" in result:
        lines.append(f"host_speed={result['host_speed']['median']:.3f} "
                     f"disturbed={result['disturbed']} "
                     f"update_ms quartiles={result['update_ms']['quartiles']}")
    lines.append(json.dumps({
        "correct": result["correct"],
        "attempted": sum(result["ops_attempted"].values()),
        "failed": sum(result["ops_failed"].values()),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return "\n".join(lines)

