"""Combinatorial differential forms: degeneracy, alternation, the simplicial
derivative and cup-product wedge, and their comparison with the classical
operations."""

import math
import random
import re
from itertools import permutations

import numpy as np
import pytest

from sdgeom import expr as ex
from sdgeom.chart import Point
from sdgeom.errors import DegreeError, DomainError, SdgError
from sdgeom.forms import (ClassicalForm, CombinatorialForm, comparison, d_classical,
                          d_comb, eval_generic, eval_semi, extract_classical,
                          to_combinatorial, wedge_classical, wedge_comb)
from sdgeom.nil import NilElement, generic_offsets

from corpus import random_form, random_scalar_expr
from reference import evaluate, ref_d_comb, ref_to_combinatorial, ref_wedge_comb

RNG = np.random.default_rng(42)


def random_base(rng, n):
    return Point([round(float(rng.uniform(-1, 1)), 3) for _ in range(n)])


def corpus(count, degrees=(1, 2), ns=(2, 3, 4), trig=True, seed=42):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.choice(ns))
        degree = int(rng.choice([d for d in degrees if d <= n]))
        out.append((random_form(rng, degree, n, trig=trig), random_base(rng, n)))
    return out


# -- degeneracy and alternation (exact, via row morphisms) -------------------

def sign_of(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


@pytest.mark.parametrize("form,base", corpus(25, seed=1))
def test_vanishes_on_degenerate_simplices(form, base):
    theta = to_combinatorial(form)
    p = theta.degree
    value = eval_generic(theta, base)
    # collapsing a vertex onto the base point degenerates the simplex
    assert value.zero_row(1).degree_part(p).is_zero()
    # identifying two vertices (rows) must send the value to zero, exactly;
    # a degree-1 form has only one vertex besides the base point
    if p >= 2:
        assert value.identify_rows(1, 2).is_zero()


@pytest.mark.parametrize("form,base", corpus(20, degrees=(2,), seed=2))
def test_alternation_sign(form, base):
    theta = to_combinatorial(form)
    value = eval_generic(theta, base)
    for perm in permutations(range(1, theta.degree + 1)):
        permuted = value.permute_rows(list(perm))
        want = value * float(sign_of(perm))
        assert (permuted - want).max_abs_coeff() <= 1e-9


# -- the fused evaluator against the tree walk -----------------------------------

def det_reference(rows):
    """Leibniz determinant; entries may be floats or NilElements."""
    p = len(rows)
    total = 0.0
    for perm in permutations(range(p)):  # one empty permutation when p = 0
        term = float(sign_of(perm))
        for i in range(p):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def tree_walk(form, base, offsets):
    """`to_combinatorial`'s value on the simplex of `offsets` at `base` as a
    tree walk: `reference.evaluate` on each coefficient times the Leibniz
    determinant of the offsets' T-columns."""
    env = dict(zip(form.vars, base))
    total = 0.0
    for T, a in form.coeffs.items():
        total = total + evaluate(a, env) * det_reference(
            [[off[t - 1] for t in T] for off in offsets])
    return total


def to_combinatorial_reference(form):
    """`to_combinatorial` as a tree walk on the faces of the generic
    simplex: a face based at its first vertex, with the offsets of the
    others from it.  The point x, the face (0,), is a constant element, as
    every face's value is an element of W(k, n)."""
    def on_face(x, k, face):
        d = [(0.0,) * form.n] + generic_offsets(k, form.n)
        base = [c + e for c, e in zip(x, d[face[0]])] if face[0] else x
        value = tree_walk(form, base, [[a - b for a, b in zip(d[v], d[face[0]])]
                                       for v in face[1:]])
        return value if isinstance(value, NilElement) else NilElement.constant(k, form.n, value)

    return CombinatorialForm(form.degree, form.n, on_face)


def assert_close(got, want, rel=1e-12):
    if isinstance(want, NilElement):
        assert isinstance(got, NilElement)
        assert (got.k, got.n) == (want.k, want.n)
        assert (got - want).max_abs_coeff() <= rel * want.max_abs_coeff()
    else:
        assert not isinstance(got, NilElement)
        assert abs(got - want) <= rel * max(abs(want), 1.0)


# the 3-forms multiply three offset entries in each Leibniz term
@pytest.mark.parametrize("form,base", corpus(25, seed=1)
                         + corpus(2, degrees=(3,), ns=(3, 4), seed=12))
def test_fused_to_combinatorial_matches_tree_walk(form, base):
    fused, walk = to_combinatorial(form), to_combinatorial_reference(form)
    # generic simplex, and through d_comb and wedge_comb: W-valued (rebased)
    # bases and offsets that are sums of generators
    assert_close(eval_generic(fused, base), eval_generic(walk, base))
    assert_close(eval_generic(d_comb(fused), base), eval_generic(d_comb(walk), base))
    assert_close(eval_generic(wedge_comb(fused, fused), base),
                 eval_generic(wedge_comb(walk, walk), base))
    # float vectors give a float
    rng = np.random.default_rng(len(form.coeffs))
    vectors = [tuple(float(v) for v in rng.uniform(-1, 1, form.n))
               for _ in range(form.degree)]
    got = eval_semi(fused, base, *vectors)
    assert type(got) is float
    assert_close(got, tree_walk(form, base.coords, vectors))


@pytest.mark.parametrize("form,base", corpus(8, degrees=(0,), seed=11))
def test_fused_to_combinatorial_degree_zero(form, base):
    fused, walk = to_combinatorial(form), to_combinatorial_reference(form)
    assert eval_semi(fused, base) == tree_walk(form, base.coords, [])
    assert_close(eval_generic(fused, base), eval_generic(walk, base))
    assert_close(eval_generic(d_comb(fused), base), eval_generic(d_comb(walk), base))


# -- coeffs_at: the compiled coefficients against the tree walk -------------------

def coeffs_at_reference(form, coords):
    """`ClassicalForm.coeffs_at` as a tree walk: `reference.evaluate` on each
    coefficient."""
    env = dict(zip(form.vars, coords))
    return {T: evaluate(e, env) for T, e in form.coeffs.items()}


def same_float(a, b):
    """Equal, signed zeros included."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("form,base", corpus(40, degrees=(0, 1, 2), seed=31))
def test_coeffs_at_is_the_tree_walk(form, base):
    rng = np.random.default_rng(len(form.coeffs))
    points = [base.coords, (0.0,) * form.n, (-0.0,) * form.n,
              tuple(-abs(c) for c in base.coords),
              tuple(float(v) for v in rng.integers(-2, 3, form.n))]
    for coords in points:
        got, want = form.coeffs_at(coords), coeffs_at_reference(form, coords)
        assert list(got) == list(want)
        assert all(same_float(got[T], want[T]) for T in want)


@pytest.mark.parametrize("form,base", corpus(10, seed=32))
def test_coeffs_at_is_the_tree_walk_in_w(form, base):
    coords = [c + g for c, g in zip(base.coords, generic_offsets(1, form.n)[0])]
    got, want = form.coeffs_at(coords), coeffs_at_reference(form, coords)
    assert list(got) == list(want)
    assert all(got[T].terms == want[T].terms for T in want)


@pytest.mark.parametrize("text, coords", [
    ("ln(x1)", (0.0, 1.0)), ("ln(x1)", (-2.0, 1.0)), ("sqrt(x1)", (-1.0, 0.0)),
    ("x2/x1", (0.0, 1.0)), ("x2/(x1 - x1)", (3.0, 1.0)), ("pow(x1, -2)", (0.0, 1.0)),
    ("exp(x1)", (1000.0, 0.0)), ("pow(x1, 400)", (1000.0, 0.0)),
    ("x2 + ln(x1)*x2", (-1.0, 2.0)),
])
def test_coeffs_at_raises_where_the_tree_walk_raises(text, coords):
    from sdgeom.program import parse

    form = parse(f"dim 2\nvar x1 x2\nform f = dx2 + ({text})*dx1\n").forms["f"]
    with pytest.raises(DomainError) as want:
        coeffs_at_reference(form, coords)
    with pytest.raises(DomainError) as got:
        form.coeffs_at(coords)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("coords", [(), (1.0,), (1.0, 2.0, 3.0, 4.0)])
def test_coeffs_at_needs_one_coordinate_per_dimension(coords):
    form = random_form(np.random.default_rng(33), 1, 3)
    with pytest.raises(DomainError, match="need 3 coordinates"):
        form.coeffs_at(coords)


DX1, DX3 = ClassicalForm.dx(1, 2), ClassicalForm.dx(1, 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ClassicalForm(1, 2, {}, ("x",)), ValueError, "need one variable name per dimension"),
    (lambda: ClassicalForm(1, 2, {(1, 2): 1.0}), DegreeError,
     "index tuple (1, 2) invalid for degree 1"),
    (lambda: ClassicalForm(1, 2, {(2, 1): 1.0}), DegreeError,
     "index tuple (2, 1) invalid for degree 1"),
    (lambda: ClassicalForm(1, 2, {(3,): 1.0}), DegreeError, "index tuple (3,) out of range for dim 2"),
    (lambda: DX1 + DX3, DegreeError, "cannot add forms of different degree/dimension"),
    (lambda: DX1 + wedge_classical(DX1, ClassicalForm.dx(2, 2)), DegreeError,
     "cannot add forms of different degree/dimension"),
    (lambda: wedge_classical(DX1, DX3), DegreeError, "wedge of forms on different charts"),
    (lambda: wedge_comb(to_combinatorial(DX1), to_combinatorial(DX3)), DegreeError,
     "wedge of forms on different charts"),
    (lambda: eval_semi(to_combinatorial(DX1), Point((0.0, 0.0)), (1.0, 0.0), (0.0, 1.0)),
     DegreeError, "wrong number of argument vectors"),
], ids=["vars", "degree", "order", "range", "add-dim", "add-degree",
        "wedge-classical", "wedge-comb", "eval-semi"])
def test_guards_raise(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_repr_lists_the_terms():
    assert repr(ClassicalForm.zero(2, 3)) == "ClassicalForm<0 (deg 2)>"
    form = ClassicalForm(1, 2, {(1,): ex.Var("x"), (2,): ex.Const(2.0)}, ("x", "y"))
    assert repr(form) == "ClassicalForm<(x)*dx + (2)*dy>"
    assert repr(ClassicalForm(0, 2, {(): ex.Var("y")}, ("x", "y"))) == "ClassicalForm<y>"


def test_coefficients_are_read_only():
    form = random_form(np.random.default_rng(34), 1, 3)
    with pytest.raises(TypeError):
        form.coeffs[(1,)] = ex.Const(2.0)
    with pytest.raises(TypeError):
        del form.coeffs[next(iter(form.coeffs))]


# -- derived classical forms: built once per input --------------------------------

def rebuilt(form):
    """A new form with the same coefficients: nothing derived from it yet."""
    return ClassicalForm(form.degree, form.n, dict(form.coeffs), form.vars)


def same_text(f, g):
    return ((f.degree, f.n, f.vars) == (g.degree, g.n, g.vars)
            and {T: ex.to_str(e) for T, e in f.coeffs.items()}
            == {T: ex.to_str(e) for T, e in g.coeffs.items()})


@pytest.mark.parametrize("form,base", corpus(15, degrees=(0, 1, 2), seed=35))
def test_d_classical_is_built_once(form, base):
    first = d_classical(form)
    assert d_classical(form) is first
    assert list(first.coeffs) == list(d_classical(rebuilt(form)).coeffs)
    assert same_text(first, d_classical(rebuilt(form)))
    assert d_classical(first) is d_classical(first)


def test_wedge_classical_is_built_once_per_partner():
    rng = np.random.default_rng(36)
    vars = ("x1", "x2", "x3")
    a = random_form(rng, 1, 3, trig=True)
    b = random_form(rng, 1, 3, trig=True)
    c = rebuilt(b)  # a second partner with b's text
    e = ClassicalForm(2, 3, {(2, 3): random_scalar_expr(rng, vars)})
    ab, ac, ae = wedge_classical(a, b), wedge_classical(a, c), wedge_classical(a, e)
    assert len({id(ab), id(ac), id(ae)}) == 3
    assert wedge_classical(a, b) is ab and wedge_classical(a, c) is ac
    assert wedge_classical(a, e) is ae
    for got, partner in ((ab, b), (ac, c), (ae, e)):
        assert same_text(got, wedge_classical(rebuilt(a), rebuilt(partner)))
    # the wedge does not commute, and (b, a) is another pair
    ba = wedge_classical(b, a)
    assert ba is not ab
    assert same_text(ba, wedge_classical(rebuilt(b), rebuilt(a)))


# -- round trip ----------------------------------------------------------------

@pytest.mark.parametrize("form,base", corpus(40, seed=3))
def test_extract_inverts_to_combinatorial(form, base):
    theta = to_combinatorial(form)
    got = extract_classical(theta, base, tol=1e-9)
    env = dict(zip(form.vars, base.coords))
    for T, e in form.coeffs.items():
        want = evaluate(e, env)
        assert abs(got.get(T, 0.0) - want) <= 1e-12 * max(1.0, abs(want))


def test_extract_rejects_non_form():
    # a value with a non-vanishing degenerate part is not a form's
    bogus = CombinatorialForm(1, 2, lambda x, k, face: 1.0 + NilElement.generator(k, 2, 1, 1))
    with pytest.raises(SdgError):
        extract_classical(bogus, Point((0.0, 0.0)))


def test_extract_rejects_nan_lower_degree_term():
    bogus = CombinatorialForm(1, 2, lambda x, k, face: (
        float("nan") + NilElement.generator(k, 2, 1, 1)))
    with pytest.raises(SdgError):
        extract_classical(bogus, Point((0.0, 0.0)))


# -- simplicial exterior derivative ---------------------------------------------

def test_d_of_coordinate_square():
    # theta for x1^2 (a 0-form); its derivative at base 3 is 6 dx1 -> the
    # generic value has first-order coefficient 6
    f = ClassicalForm(0, 1, {(): ex.Pow(ex.Var("x1"), 2)}, ("x1",))
    dtheta = d_comb(to_combinatorial(f))
    value = eval_generic(dtheta, Point((3.0,)))
    assert abs(value.coeff((1,), (1,)) - 6.0) <= 1e-12
    assert abs(value.const_term) <= 1e-12


@pytest.mark.parametrize("form,base", corpus(30, seed=4))
def test_d_squared_is_zero(form, base):
    theta = to_combinatorial(form)
    value = eval_generic(d_comb(d_comb(theta)), base)
    assert value.max_abs_coeff() <= 1e-9


@pytest.mark.parametrize("form,base", corpus(30, seed=5))
def test_d_comparison_ratio_is_half_factorial(form, base):
    # extracted simplicial derivative = classical derivative / (p+1)
    _, _, ratios = comparison(d_comb(to_combinatorial(form)),
                              d_classical(form), base)
    for r in ratios:
        assert abs(r - 1.0 / (form.degree + 1)) <= 1e-9


def test_d_zero_equivalence():
    # closed classical forms have vanishing simplicial derivative and
    # vice versa, across the corpus
    for form, base in corpus(40, seed=6):
        env = dict(zip(form.vars, base.coords))
        classical = d_classical(form)
        classical_zero = all(abs(evaluate(e, env)) <= 1e-9
                             for e in classical.coeffs.values())
        value = eval_generic(d_comb(to_combinatorial(form)), base)
        comb_zero = value.max_abs_coeff() <= 1e-9
        assert classical_zero == comb_zero


def test_exact_form_is_simplicially_closed():
    # d(df) = 0 for a scalar f, evaluated combinatorially
    f = ClassicalForm(0, 3, {(): ex.Mul(ex.Var("x1"),
                                        ex.Call("sin", ex.Var("x2")))})
    ddf = d_comb(d_comb(to_combinatorial(f)))
    value = eval_generic(ddf, Point((0.3, 0.7, -0.2)))
    assert value.max_abs_coeff() <= 1e-12


# -- cup-product wedge ------------------------------------------------------------

def test_wedge_constant_one_forms():
    dx1 = ClassicalForm.dx(1, 2)
    dx2 = ClassicalForm.dx(2, 2)
    theta = wedge_comb(to_combinatorial(dx1), to_combinatorial(dx2))
    got = extract_classical(theta, Point((0.0, 0.0)))
    # cup product of 1-forms halves the classical wedge
    assert abs(got[(1, 2)] - 0.5) <= 1e-12


@pytest.mark.parametrize("ka,kb", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_wedge_comparison_constant(ka, kb):
    rng = np.random.default_rng(100 + 10 * ka + kb)
    want = math.factorial(ka) * math.factorial(kb) / math.factorial(ka + kb)
    for _ in range(12):
        n = 4
        a = random_form(rng, ka, n, trig=True)
        b = random_form(rng, kb, n, trig=True)
        base = random_base(rng, n)
        _, _, ratios = comparison(wedge_comb(to_combinatorial(a), to_combinatorial(b)),
                                  wedge_classical(a, b), base)
        for r in ratios:
            assert abs(r - want) <= 1e-9


def test_wedge_zero_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = 3
        a = random_form(rng, 1, n)
        b = random_form(rng, rng.choice([1, 2]), n)
        base = random_base(rng, n)
        env = dict(zip(a.vars, base.coords))
        cw = wedge_classical(a, b)
        classical_zero = all(abs(evaluate(e, env)) <= 1e-9
                             for e in cw.coeffs.values())
        value = eval_generic(wedge_comb(to_combinatorial(a),
                                        to_combinatorial(b)), base)
        comb_zero = value.degree_part(a.degree + b.degree).max_abs_coeff() <= 1e-9
        assert classical_zero == comb_zero


def test_graded_commutativity_after_normalization():
    # extract(a cup b) = (-1)^{kl} extract(b cup a): the cup product itself
    # is not symmetric, but its alternating content is
    rng = np.random.default_rng(8)
    for ka, kb in ((1, 1), (1, 2), (2, 1)):
        a = random_form(rng, ka, 4)
        b = random_form(rng, kb, 4)
        base = random_base(rng, 4)
        ab = extract_classical(wedge_comb(to_combinatorial(a),
                                          to_combinatorial(b)), base)
        ba = extract_classical(wedge_comb(to_combinatorial(b),
                                          to_combinatorial(a)), base)
        sign = (-1.0) ** (ka * kb)
        for T in ab:
            assert abs(ab[T] - sign * ba.get(T, 0.0)) <= 1e-9


def test_leibniz_rule_for_extracted_derivative():
    # d(a ^ b) = da ^ b + (-1)^k a ^ db, checked through the classical
    # extraction (the simplicial operations satisfy it up to the constant
    # comparison factors, which the extraction normalizes away)
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = random_form(rng, 1, 3)
        b = random_form(rng, 1, 3)
        base = random_base(rng, 3)
        env = dict(zip(a.vars, base.coords))
        lhs = d_classical(wedge_classical(a, b))
        rhs1 = wedge_classical(d_classical(a), b)
        rhs2 = wedge_classical(a, d_classical(b))
        for T in lhs.coeffs:
            want = (evaluate(rhs1.coeffs.get(T, ex.Const(0.0)), env)
                    - evaluate(rhs2.coeffs.get(T, ex.Const(0.0)), env))
            assert abs(evaluate(lhs.coeffs[T], env) - want) <= 1e-9


# -- multilinear reconstruction and semi-simplices -----------------------------

def substituted_offsets(B, k):
    """The generic offsets of W(k, q) times the n x q matrix B: coordinate a
    of offset j is sum_b B[a, b] xi[j+1, b+1]."""
    n, q = B.shape
    zeta = generic_offsets(k, q)
    return [[sum((zeta[j][b] * float(B[a, b]) for b in range(q)), NilElement.zero(k, q))
             for a in range(n)] for j in range(k)]


def assert_relative(got, want, rel):
    if not isinstance(want, NilElement):  # a 0-form's value in coordinates
        want = NilElement.constant(got.k, got.n, want)
    assert (got.k, got.n) == (want.k, want.n)
    assert (got - want).max_abs_coeff() <= rel * max(1.0, want.max_abs_coeff())


def test_form_determined_by_coefficients():
    # a combinatorial p-form is determined by its action on the generic
    # simplex: mapped along B, its generic value is its value on the
    # simplex of the generic offsets times B, and so is the value of the
    # form rebuilt from its extracted coefficients
    rng = np.random.default_rng(21)
    form = random_form(rng, 2, 3)
    base = random_base(rng, 3)
    theta = to_combinatorial(form)
    coeffs = extract_classical(theta, base)
    rebuilt = ClassicalForm(2, 3, {T: ex.Const(c) for T, c in coeffs.items()})
    B = rng.normal(size=(3, 3))
    offsets = substituted_offsets(B, 2)
    want = ref_to_combinatorial(form)(base.coords, offsets)
    assert_relative(eval_generic(theta, base).map_columns(B.tolist()), want, 1e-14)
    assert (ref_to_combinatorial(rebuilt)(base.coords, offsets) - want).max_abs_coeff() <= 1e-9


@pytest.mark.parametrize("form,base", corpus(12, degrees=(0, 1, 2), seed=23))
def test_generic_value_along_b_is_the_coordinate_path(form, base):
    # d and the wedge with itself of each form, along B of 1, 2 and n
    # columns, against the same forms in coordinates (`reference`)
    rng = np.random.default_rng(len(form.coeffs))
    theta, coordinate = to_combinatorial(form), ref_to_combinatorial(form)
    for got, want in ((d_comb(theta), ref_d_comb(coordinate)),
                      (wedge_comb(theta, theta), ref_wedge_comb(coordinate, coordinate))):
        value = eval_generic(got, base)
        for q in (1, 2, form.n):
            B = rng.normal(size=(form.n, q))
            assert_relative(value.map_columns(B.tolist()),
                            want(base.coords, substituted_offsets(B, got.degree)), 1e-14)


def test_eval_semi_is_alternating_bilinear():
    rng = np.random.default_rng(22)
    form = random_form(rng, 2, 3)
    theta = to_combinatorial(form)
    base = random_base(rng, 3)
    u = rng.normal(size=3)
    v = rng.normal(size=3)
    w = rng.normal(size=3)
    f = lambda a, b: eval_semi(theta, base, a, b)
    assert abs(f(u, v) + f(v, u)) <= 1e-12
    assert abs(f(u, u)) <= 1e-12
    assert abs(f(u + 2.0 * w, v) - f(u, v) - 2.0 * f(w, v)) <= 1e-9
