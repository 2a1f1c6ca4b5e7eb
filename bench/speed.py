"""Host-speed probe: fixed work timed between operations, to rescale their times.

The shared hosts the benchmark runs on change speed by up to half within
a minute, for every process alike, so plain wall times of one run and the
next differ by more than a regression worth catching.  ``probe`` times a
fixed piece of benchmark code in two halves: dict, tuple, string and sort
work for the interpreter-bound bulk of evoalg, and numpy scalar indexing
and small-array calls for the Gibbs and DLR code.  Either half alone
tracked one kind of operation and missed the other when the host slowed
unevenly.  The probe imports nothing from evoalg and runs with the
garbage collector paused, so the program's heap cannot change its time.

``scale(before, after)`` turns the probes on either side of an operation
into the factor that converts the operation's wall seconds into
reference seconds: the seconds it would take on a host where the probe
takes ``REFERENCE_PROBE_S``.  A change to evoalg moves reference seconds
as much as wall seconds; a change of host speed moves both the operation
and its probes, and mostly cancels.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median probe time on the 2-core host that defined the benchmark.  Any
# fixed value works: it sets the unit, and cancels between two commits.
REFERENCE_PROBE_S = 0.0006
REPEATS = 3

_KEYS = 250
_CALLS = 25
_TABLE = np.eye(3)


def _work() -> float:
    table = {}
    for i in range(_KEYS):
        table[(i, i * 7 % 13)] = f"c{i}"
    ordered = sorted(table, key=lambda key: (key[1], -key[0]))
    total = 0.0
    for a, b in ordered:
        total += a * 0.5 + len(table[(a, b)])
    for i in range(_CALLS):
        for j in range(6):
            total += _TABLE[(i + j) % 3, j % 3]
        values = np.array([total, i, 1.0, 2.0])
        total += float(np.exp(values - values.max()).sum())
    return total


def probe() -> float:
    """Median of ``REPEATS`` timings of the fixed work, in wall seconds.

    The median, not the best, because an operation runs through the slow
    moments of a host that slows in bursts as well as the fast ones.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            began = time.perf_counter()
            _work()
            times.append(time.perf_counter() - began)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second for an operation between two probes."""
    return 2 * REFERENCE_PROBE_S / (before + after)
