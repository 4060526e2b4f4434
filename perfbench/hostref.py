"""Host-drift calibration: a fixed stdlib-only reference kernel.

The speed of the host drifts by tens of percent within one process and from
one process to the next.  The benchmark therefore runs this kernel between
chunks of operations and reports every timing as if the kernel had taken
`NOMINAL_MS`: a timing t measured next to a kernel time r is reported as
t * (NOMINAL_MS / r) ** EXPONENT.  Operations and the kernel are both timed
on the thread's CPU clock (`time.thread_time`), so that time the host's
scheduler gives to other processes counts in neither (see `worker.py`).

The kernel's time swings more than the program's when the host slows down.
Over batches of 6 to 8 fresh 12-second runs of each workload, an exponent
of 0.85 gave the smallest spread between runs on all three workloads.  The
raw spread there was 6 to 15 %; with an exponent of 1 it fell to 1.5 to 6 %,
and with 0.85 to 1 to 3 %.  The kernel runs with the garbage collector
paused, so that the program's heap cannot leak into it, and it imports
nothing from the program.

Whole processes (set-up, cold CLI starts) are calibrated differently.  Their
time is mostly the interpreter's start and its imports, which the kernel
tracks poorly.  `python3 perfbench/hostref.py` is a reference process: a
fresh interpreter that imports the standard modules the program imports,
runs the kernel PROCESS_KERNEL_RUNS times and prints a line.  A process
timing t is reported as t * PROCESS_NOMINAL_S / R, where R is the median of
the reference processes within PROCESS_WINDOW of it on each side.  Over
eight batches of 21 set-up samples of `wide`, the spread of the batch
medians was 26 % raw, 10 % with the kernel and 2.8 % with the reference
process (one on each side).  Over eight batches of 31, it was 2.1 % with
one reference process on each side and 1.3 % with five.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import Counter
from fractions import Fraction

NOMINAL_MS = 3.0
EXPONENT = 0.85
WINDOW = 2  # kernel samples on each side of a chunk that calibrate it
PROCESS_NOMINAL_S = 0.08
PROCESS_KERNEL_RUNS = 8
PROCESS_WINDOW = 5  # reference processes on each side of a process that calibrate it


def kernel() -> int:
    """Fixed work in the program's idiom: Fractions, tuple-keyed counters, sorting, JSON."""
    counts: Counter = Counter()
    for i in range(260):
        e = Fraction(i % 23 - 11, 2)
        counts[("u", e)] += 1
        counts[("v", -e)] += 1
    items = sorted(counts.items())
    return len(json.dumps([[key[0], str(key[1]), n] for key, n in items]))


def sample_ms() -> float:
    """CPU time of one kernel run, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        kernel()
        return (time.thread_time() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


def scale(ref_ms: float) -> float:
    """Factor that turns a timing taken next to a kernel time ref_ms into a reported one."""
    return (NOMINAL_MS / ref_ms) ** EXPONENT


def window_medians(refs: list[float], window: int) -> list[float]:
    """For each gap i, between refs[i] and refs[i + 1], the median of the refs within window of it.

    The median follows the drift but ignores a disturbed sample.
    """
    return [statistics.median(refs[max(0, i + 1 - window): i + 1 + window])
            for i in range(len(refs) - 1)]


def factors(refs: list[float]) -> list[float]:
    """Calibration factor of each chunk i, which ran between refs[i] and refs[i + 1]."""
    return [scale(r) for r in window_medians(refs, WINDOW)]


def spread(values: list[float]) -> dict:
    """Median, quartiles and their distance as a share of the median."""
    values = sorted(values)
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "iqr_share": 0.0, "min": v, "max": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0,
            "min": values[0], "max": values[-1], "n": len(values)}


def reference_process() -> None:
    """The body of the reference process: the program's standard imports and a few kernels."""
    import argparse  # noqa: F401
    import dataclasses  # noqa: F401
    import enum  # noqa: F401
    import itertools  # noqa: F401
    import typing  # noqa: F401

    for _ in range(PROCESS_KERNEL_RUNS):
        kernel()
    print("ready", flush=True)


if __name__ == "__main__":
    reference_process()
