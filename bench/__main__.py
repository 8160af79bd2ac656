"""``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``."""

from __future__ import annotations

import time

ENTRY = time.perf_counter()  # "benchmark entry": setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def pin_to_one_cpu() -> None:
    """Run every thread of this process (and its children) on one CPU.

    On a two-vCPU VM the scheduler flips, seconds at a time, between waking
    the server's IO thread on the generator's core and on the other, halted
    one; the second costs five times the first (a socket round trip between
    two idle threads: 8 us against 40 us) and halves every rate here with no
    change to the program.  One core has one kind of wake-up.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["steer_live", "monitor_push", "monitor_poll",
                                 "window_pan"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for setup_s)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()  # before NumPy is imported and before any thread starts
    from bench import run

    if args.setup_only:
        print(json.dumps(run.setup_only(args.workload, args.seed, ENTRY)))
        return 0
    if args.trace:
        result = run.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = run.run_end_to_end(args.workload, args.seed, args.seconds, ENTRY)
    print(run.report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
