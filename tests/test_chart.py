"""log/exp correspondence between neighbour pairs and tangents, and its
chart invariance."""

import random

import pytest

from sdgeom import expr as ex
from sdgeom.chart import Point
from sdgeom.errors import DomainError
from sdgeom.nil import NilElement

from reference import (NilPoint, Tangent, affine_combination, evaluate, exp_tangent,
                       log_pair, pushforward_chart)


def square_zero_d(n=1):
    """A scalar d with d^2 = 0 in W(1, n)."""
    return NilElement.generator(1, n, 1, 1)


def test_exp_then_log_roundtrip():
    t = Tangent(Point((1.0, 2.0, 3.0)), (4.0, -1.0, 0.5))
    d = square_zero_d(3)
    y = exp_tangent(t, d)
    off = log_pair(t.base, y)
    for v, o in zip(t.direction, off):
        assert o == d * v


def test_exp_of_scaled_tangent_matches_scaled_weight():
    # exp(d * (s*t)) = exp((s*d) * t) as W-element identities
    t = Tangent(Point((0.5, -2.0)), (3.0, 7.0))
    d = square_zero_d(2)
    lhs = exp_tangent(Tangent(t.base, tuple(2.5 * v for v in t.direction)), d)
    rhs = exp_tangent(t, d * 2.5)
    assert lhs.offset == rhs.offset


def test_affine_combination_endpoints():
    # use independent first-order displacements: d in row 1, the neighbour
    # offset u in row 2 of W(2, 2)
    x = Point((1.0, 2.0))
    d = NilElement.generator(2, 2, 1, 1)
    u = (NilElement.generator(2, 2, 2, 1) * 5.0,
         NilElement.generator(2, 2, 2, 2) * -3.0)
    y = NilPoint(x, u)
    # weight 0 gives x; weight d gives the displacement d*(y - x)
    zero = NilElement.zero(2, 2)
    at_x = affine_combination(zero, x, y)
    assert all(o.is_zero() for o in at_x.offset)
    at_d = affine_combination(d, x, y)
    for got, ui in zip(at_d.offset, u):
        assert got == d * ui


def test_affine_combination_requires_nilpotent_weight():
    x = Point((0.0,))
    with pytest.raises(ValueError):
        affine_combination(NilElement.constant(1, 1, 0.5), x, x)


def test_exp_rejects_non_square_zero_weight():
    # in W(2, 2) the sum of two generators in one column has nonzero square
    d = (NilElement.generator(2, 2, 1, 1)
         + NilElement.generator(2, 2, 2, 2))
    t = Tangent(Point((0.0, 0.0)), (1.0, 0.0))
    with pytest.raises(DomainError):
        exp_tangent(t, d)


def test_log_of_equal_points_is_zero():
    x = Point((1.0, 1.0))
    assert all(o.is_zero() for o in log_pair(x, x))


# -- chart invariance --------------------------------------------------------

def random_poly_map(rng, n, vars):
    """Random polynomial germ fixing nothing in particular; degree <= 2."""
    comps = []
    for i in range(n):
        e = ex.Const(round(rng.uniform(-2, 2), 3))
        for j, v in enumerate(vars):
            e = ex.Add(e, ex.Mul(ex.Const(round(rng.uniform(-2, 2), 3)),
                                 ex.Var(v)))
            e = ex.Add(e, ex.Mul(ex.Const(round(rng.uniform(-1, 1), 3)),
                                 ex.Mul(ex.Var(v), ex.Var(vars[(j + i) % n]))))
        comps.append(e)
    return comps


def numeric_jacobian(phi, vars, at):
    env = dict(zip(vars, at))
    return [[evaluate(ex.diff(c, v), env) for v in vars] for c in phi]


@pytest.mark.parametrize("seed", range(50))
def test_log_transforms_by_the_jacobian(seed):
    """phi(exp(d*t)) = exp(d * Dphi(t)) exactly: the neighbour offset of the
    image equals the Jacobian acting on the offset."""
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    vars = [f"x{i+1}" for i in range(n)]
    phi = random_poly_map(rng, n, vars)
    base = Point([round(rng.uniform(-1, 1), 3) for _ in range(n)])
    t = Tangent(base, [round(rng.uniform(-2, 2), 3) for _ in range(n)])
    d = square_zero_d(n)
    y = exp_tangent(t, d)

    image = pushforward_chart(phi, vars, y)
    J = numeric_jacobian(phi, vars, base.coords)
    expected = [sum(J[i][j] * t.direction[j] for j in range(n))
                for i in range(n)]
    for o, v in zip(image.offset, expected):
        assert (o - d * v).max_abs_coeff() <= 1e-10


def test_pushforward_kills_second_order_terms():
    # a pure quadratic map sends first-order offsets to first-order offsets:
    # the d^2 = 0 relation removes the Hessian contribution entirely
    vars = ["x1", "x2"]
    phi = [ex.Mul(ex.Var("x1"), ex.Var("x1")), ex.Var("x2")]
    base = Point((3.0, 1.0))
    d = square_zero_d(2)
    y = exp_tangent(Tangent(base, (1.0, 0.0)), d)
    image = pushforward_chart(phi, vars, y)
    # derivative of x1^2 at 3 is 6
    assert (image.offset[0] - d * 6.0).max_abs_coeff() <= 1e-12
    assert image.base.coords == (9.0, 1.0)


def test_nilpoint_coords_w():
    base = Point((1.0, 2.0))
    d = square_zero_d(2)
    p = NilPoint(base, (d, d * 0.0))
    cw = p.coords_w()
    assert cw[0].const_term == 1.0
    assert cw[1].const_term == 2.0
