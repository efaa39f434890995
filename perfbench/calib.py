"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within minutes, for CPython and for the program alike (CPU time tracks
wall time, so it is the host, not the scheduler).  A fixed pure-Python slice
of work, which imports nothing from ``sdgeom``, is timed before the first op
of the measured loop and after every op; an op's time is then reported as

    seconds * REF_SLICE_S / (mean time of the two slices around it)

that is, in seconds of a host on which one slice takes ``REF_SLICE_S``.  A
set-up is timed from the launch of its process to its end; it is scaled by
probes taken inside that process, at its start and at its end, because a
probe taken next to a process launch in the launching process is disturbed
by it.  On
the reference host (an Intel Xeon, 2 vCPUs, CPython 3.11) a slice takes
about ``REF_SLICE_S`` when the host is quiet, so there the values read like
wall time.  A faster or slower program still moves the value in proportion,
because the slice does not depend on the program.  The report lines give
the raw wall times too.
"""

import statistics
import time

REF_SLICE_S = 1.3e-3


def _slice():
    # dict updates keyed by small tuples and float arithmetic: the kind of
    # work the pure-Python W-algebra and expression evaluator do
    acc, s = {}, 0.0
    for i in range(4000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0.0) + i * 0.5
        s += acc[key] * 1e-9
    return s


def probe(slices=1):
    """Seconds one slice takes now: the median of ``slices`` timed slices."""
    times = []
    for _ in range(slices):
        t0 = time.perf_counter()
        _slice()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds, before, after):
    """``seconds`` at reference speed, from the probes taken around it."""
    return seconds * REF_SLICE_S / (0.5 * (before + after))
