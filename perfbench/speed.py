"""The machine's speed right now, from a fixed pure-Python job.

The machines this benchmark runs on share their cores with other tenants:
their speed swings by up to about 2x, for seconds at a time.  Every timing
the benchmark bounds is therefore also taken at a reference speed: divided
by `speed_factor`, the calibration job's time around it over CAL_REF_S.  A
reference-speed time is what the same work takes when the job takes
CAL_REF_S.  The job is the benchmark's own code, so a change to branchkit
cannot move it.
"""

import time

CAL_EVERY_S = 0.25  # of op time between calibrations
CAL_REF_S = 1e-3


def _job():
    d = {}
    acc = 0
    for i in range(3000):
        key = (i % 61, i % 7)
        d[key] = d.get(key, 0) + i
        acc += len(d) * 3 % 11
    return acc


def calibrate():
    """Seconds the calibration job takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _job()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(before, after):
    """How much slower than the reference the machine ran between two calibrations."""
    return (before + after) / 2 / CAL_REF_S
