"""Does the benchmark repeat?  ``python3 -m bench.repeat --sets 2 --runs 5``.

Runs the four workloads in alternating order, each run a separate process
with a seed of its own, ``--sets`` times over.  For every (workload, metric)
pair it prints each set's median and quartiles, the spread (q3 - q1) / median,
how much worse the second set's median is than the first's, and the bound
from ``BENCHMARK.json``.  A pair fails when a spread exceeds its bound
(``setup_s`` excepted, as in the driver) or a later set is worse than the
first by more than the bound; any failure makes the exit status non-zero.
The table goes to ``--out`` as JSON; ``--baseline`` also keeps each
workload's last run (and one traced run) next to it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _worse(first: float, later: float, better: str) -> float:
    """Share of ``first`` by which ``later`` is worse (negative = better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def judge(values: dict, metrics: dict) -> list[dict]:
    """One row per (workload, metric) pair from ``values[workload][metric][set]``;
    prints the table as it goes."""
    sets_run = len(next(iter(next(iter(values.values())).values())))
    print(f"\n{'workload':13s} {'metric':22s} {'bound':>6s} "
          + " ".join(f"{'median' + str(s):>12s} {'spread' + str(s):>8s}"
                     for s in range(sets_run)) + f" {'worse':>8s}  verdict")
    table = []
    for workload, by_metric in values.items():
        for name, metric in metrics.items():
            sets = []
            for sample in by_metric[name]:
                q1, median, q3 = _quartiles(sample)
                sets.append({"values": sample, "q1": q1, "median": median,
                             "q3": q3, "spread": (q3 - q1) / median})
            worse = max((_worse(sets[0]["median"], later["median"], metric["better"])
                         for later in sets[1:]), default=0.0)
            spread = max(s["spread"] for s in sets)
            ok = worse <= metric["bound"] and (
                name == "setup_s" or spread <= metric["bound"])
            steady = spread < metric["bound"] / 3
            table.append({"workload": workload, "metric": name,
                          "unit": metric["unit"], "bound": metric["bound"],
                          "sets": sets, "worse": worse, "ok": ok, "steady": steady})
            print(f"{workload:13s} {name:22s} {metric['bound']:6.3f} "
                  + " ".join(f"{s['median']:12.4f} {s['spread']:8.4f}" for s in sets)
                  + f" {worse:8.4f}  "
                  + ("ok" if ok else "OUTSIDE") + ("" if steady else " (not steady)"))
    return table


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 -m bench.repeat")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1000, help="first seed")
    parser.add_argument("--out", type=Path,
                        default=BENCH_DIR / "out" / "repeatability.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="directory to keep each workload's last run in")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values: dict = {w: {m: [[] for _ in range(args.sets)] for m in metrics}
                    for w in workloads}
    failed_ops = 0
    started = time.time()
    for s in range(args.sets):
        for r in range(args.runs):
            seed = args.seed + s * args.runs + r
            for workload in (workloads if r % 2 == 0 else workloads[::-1]):
                result = _run(workload, seed, args.seconds, 0)
                failed_ops += result["failed"] + (not result["correct"])
                for name in metrics:
                    values[workload][name][s].append(result["metrics"][name]["value"])
                print(f"set {s} run {r} seed {seed} {workload}: "
                      f"{result['attempted']} ops, {result['failed']} failed, "
                      f"{time.time() - started:.0f} s", flush=True)

    table = judge(values, metrics)
    bad = sum(not row["ok"] for row in table)
    print(f"\n{bad} pair(s) outside their bound, {failed_ops} failed operation(s)")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "sets": args.sets, "runs": args.runs, "seconds": args.seconds,
        "first_seed": args.seed, "pairs_outside": bad,
        "failed_operations": failed_ops, "table": table}, indent=1) + "\n")
    if args.baseline is not None:
        args.baseline.mkdir(parents=True, exist_ok=True)
        for workload in workloads:
            _run(workload, args.seed, args.seconds, 1)
            for stem in (workload, f"layers_{workload}"):
                shutil.copy(BENCH_DIR / "out" / f"{stem}.json", args.baseline)
        shutil.copy(args.out, args.baseline / "repeatability.json")
    return 1 if bad or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
