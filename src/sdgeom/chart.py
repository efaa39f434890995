"""Points of a single coordinate chart (an open subset of R^n)."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    coords: tuple

    def __init__(self, coords):
        coords = tuple(map(float, coords))
        if not all(map(math.isfinite, coords)):
            raise ValueError("non-finite point coordinates")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self):
        return len(self.coords)
