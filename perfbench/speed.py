"""Machine-speed reference: a fixed CPU workload timed beside the measurements.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
tens of percent over seconds and minutes as neighbours come and go (a
pure-Python loop alone spreads 10% from one half-second to the next).  A
run that happens to land on a slow spell would read as a regression of the
program.  So every piece of work whose duration is a gated metric — a
closed-loop chunk, a rate window, a set-up, a refresh cycle — is bracketed
by two readings of :func:`reading`: the speed of a fixed reference workload
that uses none of the program's code, relative to its nominal time.  The
work's duration is then scaled to what it would have been at nominal
speed::

    normalized seconds = measured seconds * speed
    normalized rate    = measured rate / speed

``speed`` is 1.0 when the reference runs at its nominal time, below 1 on a
slow spell.  A change of the program moves the work but not the reference,
so it shows in full; a change of the machine moves both and mostly
cancels.  Of a latency only the service part is scaled (see
``caller.Phase.at_speed``).  The raw figures and every speed reading are
kept in each run's details.

The reference mixes what the service spends its time on: interpreter work,
small numpy kernels dispatched one after another, and a multi-threaded
GEMM.  Its speed is the geometric mean of the three parts' speeds.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple

import numpy as np

clock = time.perf_counter

#: Nominal seconds of each part: about its median on a 2-vCPU Intel Xeon
#: VM (OpenBLAS 0.3.31, Python 3.11); ``python3 perfbench/speed.py``
#: prints the medians on the machine at hand.  Only the readings' ratio to
#: these matters; they are fixed so that runs of any code compare.
NOMINAL_S = (0.0200, 0.0200, 0.0200)

_rng = np.random.default_rng(12345)
_SMALL_X = _rng.standard_normal((192, 64)).astype(np.float32)
_SMALL_W = (_rng.standard_normal((64, 64)) / 8.0).astype(np.float32)
_GEMM = _rng.standard_normal((384, 384)).astype(np.float32)


def _python_part() -> int:
    counts: dict = {}
    for i in range(140_000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def _numpy_part() -> float:
    total = 0.0
    for _ in range(200):
        x = _SMALL_X
        for _ in range(4):
            x = np.tanh(x @ _SMALL_W)
        total += float(x[0, 0])
    return total


def _gemm_part() -> float:
    total = 0.0
    for _ in range(30):
        total += float((_GEMM @ _GEMM)[0, 0])
    return total


PARTS: Tuple[Callable, ...] = (_python_part, _numpy_part, _gemm_part)


def part_seconds() -> Tuple[float, ...]:
    """Seconds each reference part takes right now."""
    out = []
    for part in PARTS:
        start = clock()
        part()
        out.append(clock() - start)
    return tuple(out)


def reading() -> float:
    """The machine's speed now, relative to nominal (about 60 ms)."""
    product = 1.0
    for nominal, seconds in zip(NOMINAL_S, part_seconds()):
        product *= nominal / seconds
    return product ** (1.0 / len(PARTS))


def timed(fn: Callable, *args):
    """Run ``fn(*args)`` between two speed readings.  Returns
    ``(result, seconds, speed)``, ``speed`` the mean of the two readings."""
    before = reading()
    start = clock()
    result = fn(*args)
    seconds = clock() - start
    return result, seconds, (before + reading()) / 2.0


if __name__ == "__main__":
    samples = np.array([part_seconds() for _ in range(200)])
    print("median part seconds:", np.round(np.median(samples, axis=0), 5).tolist())
    print("speed readings p10/p50/p90:",
          np.round(np.percentile([reading() for _ in range(50)], [10, 50, 90]), 3).tolist())
