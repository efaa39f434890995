"""Points, neighbour pairs, tangent vectors, and the log/exp correspondence
in a single coordinate chart (an open subset of R^n)."""

import math
from dataclasses import dataclass

from . import expr
from .errors import ContextMismatchError, DomainError
from .nil import NilElement


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

    def __getitem__(self, i):
        return self.coords[i]


@dataclass(frozen=True)
class NilPoint:
    """A virtual point base + offset, the offsets being nilpotent."""

    base: Point
    offset: tuple  # n-vector of NilElement with zero constant term

    def __init__(self, base, offset):
        offset = tuple(offset)
        for o in offset:
            if not isinstance(o, NilElement):
                raise TypeError("offset entries must be NilElements")
            if o.const_term != 0.0:
                raise ValueError("offset entries must have zero constant term")
        if len(offset) != base.n:
            raise ContextMismatchError("offset/base dimension mismatch")
        ctxs = {(o.k, o.n) for o in offset}
        if len(ctxs) > 1:
            raise ContextMismatchError("offset entries in different W contexts")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "offset", offset)

    @property
    def n(self):
        return self.base.n

    def coords_w(self):
        """Coordinates as W-valued scalars: base + offset."""
        return tuple(o + b for b, o in zip(self.base.coords, self.offset))


@dataclass(frozen=True)
class Tangent:
    """The tangent d -> base + d*direction, stored as (base, direction)."""

    base: Point
    direction: tuple  # n-vector of reals

    def __init__(self, base, direction):
        direction = tuple(float(v) for v in direction)
        if len(direction) != base.n:
            raise ContextMismatchError("direction/base dimension mismatch")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)


def _check_square_zero(d):
    if not isinstance(d, NilElement):
        raise TypeError("expected a NilElement scalar")
    if d.const_term != 0.0:
        raise ValueError("d must have zero constant term")
    if not (d * d).is_zero():
        raise DomainError("d squared is nonzero in W")


def _as_w_coords(p):
    """Coordinates of a point, a NilPoint (W-valued) or a plain sequence."""
    if isinstance(p, NilPoint):
        return p.coords_w()
    return p.coords if isinstance(p, Point) else tuple(p)


def affine_combination(d, x, y):
    """(1-d)*x + d*y, componentwise in the chart."""
    if not isinstance(d, NilElement) or d.const_term != 0.0:
        raise ValueError("weight d must be a NilElement with zero constant term")
    xs = _as_w_coords(x)
    ys = _as_w_coords(y)
    if len(xs) != len(ys):
        raise ContextMismatchError("points in different charts")
    base = x.base if isinstance(x, NilPoint) else x
    offset = []
    for xi, yi, bi in zip(xs, ys, base.coords):
        value = xi + d * (yi - xi) - bi
        if not isinstance(value, NilElement):
            value = NilElement.constant(d.k, d.n, value)
        offset.append(value)
    return NilPoint(base, offset)


def log_pair(x, y):
    """log(x, y): the offset vector y - x of a neighbour pair."""
    if not isinstance(x, Point):
        raise TypeError("log_pair expects a real base point")
    if isinstance(y, Point):
        if y.coords != x.coords:
            raise ContextMismatchError("log of non-neighbour real points")
        return tuple(NilElement.zero(1, x.n) for _ in range(x.n))
    if y.base.coords != x.coords:
        raise ContextMismatchError("y must be based at x")
    return y.offset


def exp_tangent(t, d):
    """exp(d*t) = base + d*direction; requires d^2 = 0 in its context."""
    _check_square_zero(d)
    return NilPoint(t.base, tuple(d * v for v in t.direction))


def pushforward_chart(phi, varnames, p):
    """Apply a smooth chart map (componentwise DSL expressions) to a
    W-valued point."""
    coords = _as_w_coords(p)
    env = dict(zip(varnames, coords))
    images = [expr.evaluate(c, env) for c in phi]
    base_env = dict(zip(varnames, p.base.coords if isinstance(p, NilPoint)
                        else p.coords))
    base = Point([expr.evaluate(c, base_env) for c in phi])
    if isinstance(p, Point):
        return base
    k, n = p.offset[0].k, p.offset[0].n
    offset = []
    for img, b in zip(images, base.coords):
        if isinstance(img, NilElement):
            offset.append(img - b)
        else:
            offset.append(NilElement.constant(k, n, img - b))
    return NilPoint(base, offset)
