"""Host speed, sampled while a timed region runs.

On a shared host the same code runs up to ~45% slower for seconds to minutes
at a time, as other tenants load the machine, so raw wall times of one commit
spread widely from run to run.  A `Sampler` measures that slowdown as it
happens: while it is active, a SIGALRM handler in the timed thread itself
runs a fixed calibration piece every INTERVAL_S seconds and records how long
the piece took.  `adjusted_seconds` turns a region's wall time into the time
it would have taken on a host where the piece takes its reference time: the
region's own time (wall minus the pieces) times the reference time over the
mean piece time.

`stdlib_piece` mixes interpreter work across several C paths (json, re,
sorting, str, math) with random reads from a 32 MB buffer.  `numpy_piece`
adds small-array numpy work of the kind the sweep's digamma does.  A tight
arithmetic loop slowed down less than the sweeps did and random reads alone
more.  Over five minutes of sweeps on a 2-vCPU shared Xeon host, the
quartile spread of single-sweep times was 0.16-0.21 raw, 0.05-0.09 adjusted
with `stdlib_piece` and 0.03-0.05 with `numpy_piece`.  The module itself
imports only the standard library, so a fresh interpreter can sample with
`stdlib_piece` while it imports numpy.
"""

from __future__ import annotations

import json
import math
import random
import re
import signal
import statistics
import time

INTERVAL_S = 0.01
# Each piece's time on the reference host when it is not slowed down, so that
# adjusted seconds read close to that host's wall seconds.
STDLIB_REF_S = 1.5e-4
NUMPY_REF_S = 2.8e-4
MIX_LOOPS = 15
BUFFER = bytes(range(256)) * (1 << 17)
READS = random.Random(0).choices(range(len(BUFFER)), k=400)
_DOC = {"a": [1, 2, 3], "b": {"c": "d" * 20}, "e": 1.5}
_PAIRS = re.compile(r"(\w+)=(\d+)")


def stdlib_piece() -> int:
    total = 0
    for i in range(MIX_LOOPS):
        total += len(json.dumps(_DOC)) + len(_PAIRS.findall("ab=12 cd=34 ef=56"))
        total += len(sorted(str(i * 7919) * 3)) + int(math.lgamma(i + 1.5))
    for i in READS:
        total += BUFFER[i]
    return total


def numpy_piece() -> float:
    """`stdlib_piece` plus small-array numpy work; for processes that have imported numpy."""
    import numpy as np

    total = float(stdlib_piece())
    for _ in range(3):
        work = np.linspace(0.5, 9.5, 24)
        acc = np.zeros_like(work)
        small = work < 6.0
        while small.any():
            acc[small] -= 1.0 / work[small]
            work[small] += 1.0
            small = work < 6.0
        total += float((acc + np.log(work)).sum())
    return total


class Sampler:
    """Runs `piece` every INTERVAL_S seconds of wall time while active.

    `samples` holds (start_ns, duration_ns) of every piece run.  Python runs
    the handler between bytecodes of the main thread, so pieces never overlap
    the program's own work; a long C call only delays the next piece.
    """

    def __init__(self, piece=stdlib_piece) -> None:
        self.piece = piece
        self.samples: list[tuple[int, int]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.piece()
        self.samples.append((start, time.perf_counter_ns() - start))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def pieces(self, start_ns: int, end_ns: int) -> list[int]:
        """Durations of the pieces that ran inside [start_ns, end_ns]."""
        return [d for s, d in self.samples if start_ns <= s and s + d <= end_ns]


def adjusted_seconds(wall_ns: int, pieces: list[int], ref_s: float) -> float:
    """Wall time minus the pieces, rescaled to a host on which one piece takes `ref_s`."""
    if not pieces:
        raise ValueError("no calibration piece ran inside the timed region")
    own_ns = wall_ns - sum(pieces)
    return own_ns / statistics.fmean(pieces) * ref_s
