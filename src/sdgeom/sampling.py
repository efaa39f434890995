"""Seeded low-discrepancy sampling over a box: Halton points with a
deterministic seed-dependent offset, so identical invocations reproduce
identical samples."""

import math

from .chart import Point

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _halton(index, base):
    f = 1.0
    r = 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def sample_box(box, count, seed=0):
    """`count` quasi-random points in the box (list of (lo, hi) pairs)."""
    dim = len(box)
    if dim > len(_PRIMES):
        raise ValueError("box dimension too large for the Halton table")
    offset = 1 + 997 * (seed % 100003)
    points = []
    for i in range(count):
        coords = []
        for d, (lo, hi) in enumerate(box):
            u = _halton(offset + i, _PRIMES[d])
            coords.append(lo + (hi - lo) * u)
        points.append(Point(coords))
    return points


def finite_floats(text, sep):
    """The floats of `text` split at `sep`, if each part is a finite number;
    else None."""
    try:
        values = [float(v) for v in text.split(sep)]
    except ValueError:  # a part that is not a number, an empty one included
        return None
    return values if all(map(math.isfinite, values)) else None


def parse_box(text, dim):
    """Parse 'lo..hi' (shared) or comma-separated per-dimension bounds."""
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * dim
    if len(parts) != dim:
        raise ValueError(f"box needs 1 or {dim} ranges, got {len(parts)}")
    box = []
    for part in parts:
        bounds = finite_floats(part, "..")
        if bounds is None or len(bounds) != 2 or bounds[0] > bounds[1]:
            raise ValueError(f"box range {part!r} needs finite bounds with lo <= hi")
        box.append(tuple(bounds))
    return box
