"""Host-speed calibration for the benchmark's timings.

The shared hosts this benchmark runs on change speed by up to 2x within a
minute: on a 2-core x86-64 VM the same wide-year op took 107 ms and 202 ms
ten seconds apart, while its ratio to a fixed kernel like the one below
stayed within +-5% over four minutes.  So every timing is also reported at a
reference speed: the raw time multiplied by REFERENCE_S / the kernel's time
measured right before and after it.  Timing the kernel next to each op
tracks short slowdowns too: for 5 ms what-if queries it cut the spread of p90
over five seeds (quartile distance / median) from 9.3%, with the kernel run
every 0.1 s, to 5.4%.  The kernel uses only
the standard library (dicts, tuples, sorting, Fraction arithmetic, float
formatting: the operations gcindex spends its time on), so no change to
gcindex can move it.

Importing gcindex in a fresh process tracks the kernel poorly: over six
batches of fresh processes, a 30 ms import put at reference speed with the
kernel spread by 12% (quartile distance / median).  A fresh process importing
a fixed set of standard-library modules (IMPORT_PROBE) tracks it well: the
same batches spread by 4.8%.  Reading the inputs is parsing, which the kernel
tracks.  So set-up puts its import at reference speed with the probe and its
load with the kernel: over eight batches of a 30 ms import plus a 2,550-row
panel load, that spread by 2.2%, against 4.5% raw and 10.8% with the probe
alone.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import List

#: kernel time that defines the reference speed; the host above needed
#: 3.4-6.4 ms, so reported times are roughly those of its fast phases
REFERENCE_S = 0.004

#: a program for ``python3 -c`` that prints the seconds it takes to import
#: standard-library modules, in a process of its own, so gcindex cannot move it
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); "
    "import unittest, http.client, email.parser, tarfile, logging, csv, difflib; "
    "print(repr(time.perf_counter() - t0))"
)
#: probe time that defines the reference speed for set-up
IMPORT_REFERENCE_S = 0.05


def _kernel() -> int:
    table = {}
    for i in range(3000):
        table[(i % 97, str(i))] = i * 0.5
    ordered = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(Fraction(i, 7) * Fraction(float(i) / 3) for i in range(150))
    text = ",".join(f"{v:.6f}" for _, v in ordered[:1500])
    return len(text) + int(total)


def kernel_runs() -> List[float]:
    """The times of two kernel runs."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def kernel_seconds() -> float:
    """The mean time of two kernel runs."""
    return statistics.mean(kernel_runs())


def around(before: List[float], after: List[float]) -> float:
    """Kernel time for an op: the median of the runs just before and after it.

    Compared on the same ops, in two runs each, the median followed the
    host best on both long-op workloads.  The spread (stdev / mean) of the
    slowest panel-history commands, at reference speed, was 0.079 and 0.072
    with the median, 0.082 and 0.072 with the mean of each side's faster run,
    and 0.162 and 0.132 with the mean of all four; wide-year's p90 / p50 was
    1.059 and 1.217 with the median, against 1.081 and 1.216 with the mean of
    the faster runs.
    """
    return statistics.median(before + after)
