"""The reference kernel: how fast is this host right now?

This benchmark runs on a shared two-core VM whose speed drifts by 20-40 %
over seconds to minutes with no change to the program (co-tenants share its
cores, caches and memory bus): ten back-to-back runs of one commit spread
10-35 % on every timing.  A median over a 20 s window cannot remove that —
whole runs fall into a slow phase — so every run also times a fixed piece of
work that shares nothing with the program under test, in between its
operations, and reports its timings *at reference speed*:

    speed  = NOMINAL_S / median(kernel time during this run)
    ms     = measured ms * speed        rate = measured rate / speed

A host running at its undisturbed speed has ``speed == 1`` and the numbers
are plain milliseconds; in a slow phase program and kernel slow down together
and the ratio stays put.  The raw values are kept beside the normalised ones
in every run's JSON.

The kernel is one third interpreter loop, one third ``zlib``, one third a
memory-bound NumPy pass — the three things the serving stack spends its time
on — and calls nothing from ``repro``, so no change to the program can move
it.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

__all__ = ["NOMINAL_S", "kernel"]

#: Kernel time on this host when nothing disturbs it.  Only a scale: it makes
#: a normalised millisecond equal a measured one on a quiet host.
NOMINAL_S = 0.0110

_rng = np.random.default_rng(20080414)
_BYTES = _rng.integers(0, 16, 100_000, dtype=np.uint8).tobytes()
_ARRAY = _rng.random(200_000)


def kernel() -> float:
    """Run the fixed work once; returns the seconds it took (about 11 ms)."""
    started = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    zlib.compress(_BYTES, 6)
    for _ in range(12):
        (_ARRAY * 1.0001 + _ARRAY).sum()
    return time.perf_counter() - started
