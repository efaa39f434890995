"""Algebra of nilpotent simplex displacements W(k, n)."""

import ast
import math
import operator
import random
import re
from pathlib import Path

import pytest

import sdgeom
from sdgeom.errors import ContextMismatchError, DomainError
from sdgeom.nil import NilElement, _bits, _elem_mul, canonicalize, generic_offsets, within_tol

from reference import (all_monomials, coeff, const_term, evaluate, is_zero, lift_smooth, monomial,
                       permute_rows, power, quotient, zero_row)


def xi(k, n, i, a):
    return NilElement.generator(k, n, i, a)


# -- canonicalization ---------------------------------------------------

def test_canonicalize_repeated_row_is_zero():
    sign, mono = canonicalize([(1, 1), (1, 2)])
    assert sign == 0 and mono is None


def test_canonicalize_repeated_column_is_zero():
    sign, mono = canonicalize([(1, 2), (3, 2)])
    assert sign == 0 and mono is None


def test_canonicalize_exchange_sign():
    # xi_{1,2} xi_{2,1} = -(sorted pairing (1,1)(2,2))
    sign, mono = canonicalize([(1, 2), (2, 1)])
    assert sign == -1
    assert mono == (0b11, 0b11)


def test_canonicalize_identity_on_sorted():
    sign, mono = canonicalize([(1, 1), (2, 2)])
    assert sign == 1 and mono == (0b11, 0b11)


# -- products -----------------------------------------------------------

def test_product_sum_rows_cancels():
    # (xi11 + xi12)(xi21 + xi22) has the cross terms cancel pairwise only
    # for the off-diagonal part; diagonal column collisions vanish:
    a = xi(2, 2, 1, 1) + xi(2, 2, 1, 2)
    b = xi(2, 2, 2, 1) + xi(2, 2, 2, 2)
    assert is_zero(a * b)


def test_square_of_generator_is_zero():
    g = xi(1, 1, 1, 1)
    assert is_zero(g * g)


def test_antisymmetric_exchange_in_products():
    p = xi(2, 2, 1, 1) * xi(2, 2, 2, 2)
    q = xi(2, 2, 2, 1) * xi(2, 2, 1, 2)
    assert is_zero(p + q)


def inversion_sign(m1, m2):
    """Reference sign of the product of two disjoint monomials (rows, cols):
    the parity of the pairs of factors whose row order and column order
    disagree."""
    r1, c1, r2, c2 = _bits(m1[0]), _bits(m1[1]), _bits(m2[0]), _bits(m2[1])
    inv = sum(1 for i in range(len(r1)) for j in range(len(r2))
              if (r1[i] < r2[j]) != (c1[i] < c2[j]))
    return -1.0 if inv & 1 else 1.0


def test_mask_pair_sign_equals_inversion_rule():
    # every monomial of W(k, n) with k <= 4, n <= 8 is a monomial of W(4, 8)
    monomials = [(sum(1 << (i - 1) for i in rows), sum(1 << (j - 1) for j in cols))
                 for r in range(5) for rows, cols in all_monomials(4, 8, r)]
    nonzero = 0
    for m1 in monomials:
        for m2 in monomials:
            got = _elem_mul({m1: 1.0}, {m2: 1.0})
            if m1[0] & m2[0] or m1[1] & m2[1]:
                assert got == {}
            else:
                nonzero += 1
                assert got == {(m1[0] | m2[0], m1[1] | m2[1]): inversion_sign(m1, m2)}
    assert nonzero == 10453


# -- non-finite coefficients --------------------------------------------------

def test_nan_coefficient_is_not_small():
    nan = NilElement(1, 1, {(0, 0): float("nan")})
    assert math.isnan(nan.max_abs_coeff())
    assert not is_zero(nan)
    mixed = NilElement(1, 2, {(0, 0): 2.0, (1, 1): float("nan"), (1, 2): 5.0})
    assert math.isnan(mixed.max_abs_coeff())


@pytest.mark.parametrize("residual, tol, want", [
    (0.0, 0.0, True), (1e-10, 1e-9, True), (-1e-10, 1e-9, True),
    (1e-8, 1e-9, False), (float("nan"), 1e-9, False), (float("inf"), 1e-9, False),
    (float("inf"), float("inf"), False),
    (NilElement(1, 1, {(1, 1): -1e-10}), 1e-9, True),
    (NilElement(1, 1, {(1, 1): 1e-8}), 1e-9, False),
    (NilElement(1, 1, {(1, 1): float("nan")}), 1e-9, False),
    (NilElement(1, 1, {(1, 1): float("-inf")}), 1e-9, False),
])
def test_within_tol_is_finite_and_at_most_tol(residual, tol, want):
    assert within_tol(residual, tol) is want


def test_tolerance_comparisons_go_through_within_tol():
    # the one pass rule: no <, <=, > or >= with `tol` in an operand outside
    # within_tol itself and the CLI's check that --tol is finite and >= 0
    exempt = {("nil.py", "within_tol"), ("cli.py", "_tolerance")}
    order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    offenders = []
    for path in sorted(Path(sdgeom.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in exempt
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Compare) and id(node) not in skip
                    and any(isinstance(op, order) for op in node.ops)
                    and any(isinstance(name, ast.Name) and name.id == "tol"
                            for operand in (node.left, *node.comparators)
                            for name in ast.walk(operand))):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# -- ring laws on random elements ----------------------------------------

def random_element(rng, k, n, integer=True):
    terms = {}
    for r in range(0, min(k, n) + 1):
        for rows, cols in all_monomials(k, n, r):
            if rng.random() < 0.4:
                c = rng.randint(-5, 5) if integer else rng.uniform(-5, 5)
                if c:
                    terms[(sum(1 << (i - 1) for i in rows),
                           sum(1 << (j - 1) for j in cols))] = float(c)
    return NilElement(k, n, terms)


@pytest.mark.parametrize("seed", range(5))
def test_ring_laws_random(seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 220:
        k = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = random_element(rng, k, n)
        b = random_element(rng, k, n)
        c = random_element(rng, k, n)
        assert (a + b) - (b + a) == NilElement(k, n)
        assert a * b == b * a                      # commutative
        assert (a * b) * c == a * (b * c)          # associative
        assert a * (b + c) == a * b + a * c        # distributive
        assert a * NilElement.constant(k, n, 1.0) == a
        assert is_zero(a * NilElement(k, n))
        checked += 1
    assert checked >= 220  # 5 seeds x 220 > 1000 total cases


def test_nilpotency_order():
    # a product of min(k, n) distinct-row, distinct-column generators is
    # nonzero, and every product of min(k, n) + 1 generators vanishes.
    for k in range(1, 4):
        for n in range(1, 4):
            nu = min(k, n)
            diag = NilElement.constant(k, n, 1.0)
            for i in range(1, nu + 1):
                diag = diag * xi(k, n, i, i)
            assert not is_zero(diag)
            for i in range(1, k + 1):
                for a in range(1, n + 1):
                    assert is_zero(diag * xi(k, n, i, a))


# -- graded dimensions ----------------------------------------------------

def test_graded_dimensions():
    for k in range(1, 5):
        for n in range(1, 5):
            for r in range(0, min(k, n) + 1):
                monos = all_monomials(k, n, r)
                assert len(monos) == math.comb(k, r) * math.comb(n, r)
                # they really are independent nonzero canonical monomials
                for rows, cols in monos:
                    e = monomial(k, n, rows, cols)
                    assert coeff(e, rows, cols) == 1.0


# -- morphisms -------------------------------------------------------------

def test_identify_rows_kills_products_of_those_rows():
    e = xi(3, 3, 1, 1) * xi(3, 3, 2, 2)
    assert is_zero(e.identify_rows(1, 2))


def test_identify_rows_is_algebra_map():
    rng = random.Random(7)
    for _ in range(50):
        a = random_element(rng, 3, 3)
        b = random_element(rng, 3, 3)
        lhs = (a * b).identify_rows(1, 3)
        rhs = a.identify_rows(1, 3) * b.identify_rows(1, 3)
        assert lhs == rhs


def test_permute_rows_is_algebra_map():
    rng = random.Random(8)
    perm = [2, 3, 1]
    for _ in range(50):
        a = random_element(rng, 3, 2)
        b = random_element(rng, 3, 2)
        assert permute_rows(a * b, perm) == permute_rows(a, perm) * permute_rows(b, perm)


def test_zero_row_is_algebra_map():
    rng = random.Random(9)
    for _ in range(50):
        a = random_element(rng, 3, 2)
        b = random_element(rng, 3, 2)
        assert zero_row(a * b, 2) == zero_row(a, 2) * zero_row(b, 2)


# -- smooth lifting ---------------------------------------------------------

def nilpotent_with_rational_constant(rng, k, n, const):
    e = random_element(rng, k, n, integer=True)
    return e - const_term(e) + const


def test_lift_cos_truncates():
    g = xi(2, 2, 1, 1) + xi(2, 2, 2, 2)
    got = lift_smooth("cos", g)
    want = NilElement.constant(2, 2, 1.0) - monomial(2, 2, (1, 2), (1, 2))
    assert (got - want).max_abs_coeff() <= 1e-15


def test_lift_reciprocal():
    g = NilElement.constant(1, 1, 1.0) + xi(1, 1, 1, 1)
    inv = lift_smooth("reciprocal", g)
    assert (g * inv - 1.0).max_abs_coeff() <= 1e-15


def test_lift_exp_is_homomorphism():
    rng = random.Random(11)
    for _ in range(30):
        a = nilpotent_with_rational_constant(rng, 2, 3, 0.5)
        b = nilpotent_with_rational_constant(rng, 2, 3, -0.25)
        lhs = lift_smooth("exp", a + b)
        rhs = lift_smooth("exp", a) * lift_smooth("exp", b)
        assert (lhs - rhs).max_abs_coeff() <= 1e-12


def test_lift_trig_identity():
    rng = random.Random(12)
    for _ in range(30):
        a = nilpotent_with_rational_constant(rng, 3, 3, 0.75)
        s = lift_smooth("sin", a)
        c = lift_smooth("cos", a)
        assert (s * s + c * c - 1.0).max_abs_coeff() <= 1e-12


def test_lift_sqrt_squares_back():
    rng = random.Random(13)
    for _ in range(30):
        a = nilpotent_with_rational_constant(rng, 2, 2, 4.0)
        r = lift_smooth("sqrt", a)
        assert (r * r - a).max_abs_coeff() <= 1e-12


def test_lift_ln_inverts_exp():
    rng = random.Random(14)
    for _ in range(30):
        a = nilpotent_with_rational_constant(rng, 2, 2, 0.5)
        assert (lift_smooth("ln", lift_smooth("exp", a)) - a).max_abs_coeff() <= 1e-12


def test_lift_stops_at_the_first_zero_power():
    # u has only row-1 generators, so u*u = 0 in W(2, 2) and the lift takes
    # the first derivative alone: ln(x), sqrt(x) and 1/x at constant terms
    # where their second derivatives overflow lift to finite terms
    u = xi(2, 2, 1, 1) * 0.6 + xi(2, 2, 1, 2) * 0.8
    firsts = {"ln": (math.log, lambda c: 1.0 / c),
              "sqrt": (math.sqrt, lambda c: 0.5 * math.pow(c, -0.5)),
              "reciprocal": (lambda c: 1.0 / c, lambda c: -1.0 / math.pow(c, 2))}
    for f, c in (("ln", 1e-200), ("sqrt", 1e-250), ("reciprocal", 1e-120)):
        value, slope = firsts[f]
        got = lift_smooth(f, u + c)
        assert got == u * slope(c) + value(c), f
        assert all(map(math.isfinite, got.terms.values()))
        # with a row-2 generator the square is not zero: the second
        # derivative is needed, and it overflows
        with pytest.raises(DomainError):
            lift_smooth(f, u + xi(2, 2, 2, 2) + c)
    # the first derivative of 1/x overflows at 1e-200: no order avoids it
    with pytest.raises(DomainError):
        lift_smooth("reciprocal", u + 1e-200)


def test_division_by_a_zero_number_is_a_domain_error():
    # a float or int zero divisor raised ZeroDivisionError; a W divisor
    # with a zero constant term raises DomainError in its reciprocal lift
    g = NilElement.constant(2, 2, 1.5) + xi(2, 2, 1, 1)
    for zero in (0.0, -0.0, 0, g - g):
        with pytest.raises(DomainError, match="division by zero"):
            quotient(g, zero)


def test_negative_power_is_reciprocal_lift():
    g = NilElement.constant(1, 2, 2.0) + xi(1, 2, 1, 1)
    assert (power(g, -1) * g - 1.0).max_abs_coeff() <= 1e-15


def test_integer_power_is_the_power_of_evaluate():
    # one integer power in W: evaluate's pow is the power lift
    g = NilElement.constant(2, 2, 1.5) + xi(2, 2, 1, 1) + xi(2, 2, 2, 2) * 0.5
    for m in (-3, -1, 0, 1, 2, 5):
        assert lift_smooth("power", g, exponent=m) == power(g, m), m
    assert (power(g, 3) - g * g * g).max_abs_coeff() <= 1e-14
    # 1000**400 overflows: DomainError, as in evaluate, not inf coefficients
    with pytest.raises(DomainError):
        power(NilElement.constant(2, 2, 1000.0) + xi(2, 2, 1, 1), 400)


def test_generic_offsets_shape():
    offs = generic_offsets(2, 3)
    assert len(offs) == 2 and len(offs[0]) == 3
    assert offs[1][2] == xi(2, 3, 2, 3)


# -- guards ------------------------------------------------------------------

G = NilElement.constant(2, 2, 1.5) + xi(2, 2, 1, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: NilElement(1, 0), ValueError, "context (1,0) out of supported range"),
    (lambda: setattr(G, "k", 3), AttributeError, "NilElement is immutable"),
    (lambda: NilElement.generator(2, 2, 3, 1), ValueError, "generator (3,1) outside context (2,2)"),
    (lambda: G + xi(1, 2, 1, 1), ContextMismatchError, "W(2,2) vs W(1,2)"),
    (lambda: G.identify_rows(1, 3), ValueError, "row index out of range for arity 2"),
    (lambda: permute_rows(G, (1, 1)), ValueError, "not a permutation of 1..k"),
    (lambda: lift_smooth("tan", G), ValueError, "unknown smooth primitive 'tan'"),
    (lambda: lift_smooth("sin", 1.5), TypeError, "lift_smooth expects a NilElement"),
], ids=["context", "immutable", "generator", "context-mismatch", "identify-rows",
        "permute-rows", "unknown-primitive", "lift-float"])
def test_guards_raise(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                operator.pow], ids=["add", "sub", "mul", "truediv", "pow"])
def test_arithmetic_with_a_non_element_is_not_implemented(op):
    # None is not an element, nor a number; 0.5 is not an integer exponent
    other = 0.5 if op is operator.pow else None
    with pytest.raises(TypeError, match="unsupported operand"):
        op(G, other)


def test_equality_repr_and_reflected_division():
    assert NilElement.constant(2, 2, 1.5) == 1.5 and G != 1.5
    assert (G == "W") is False
    assert repr(NilElement(2, 2)) == "W(2,2)<0>"
    # a repeated row makes the monomial zero
    assert monomial(2, 2, (1, 1), (1, 2)) == NilElement(2, 2)
    assert quotient(2.0, G) == lift_smooth("reciprocal", G) * 2.0
