"""Geometric distributions: flatness, involutivity (simplicial vs classical),
integral patches, semi-simplex annihilation, and leaf tracing."""

import math
import re

import numpy as np
import pytest

from sdgeom import expr as ex
from sdgeom.chart import Point
from sdgeom.distributions import (DEFAULT_TOL, Distribution, IntegralPatch,
                                  SemiAnnihilationResult,
                                  check_integral_patch,
                                  check_involutive_classical,
                                  check_involutive_combinatorial,
                                  semi_annihilation_check,
                                  pointwise_involutive_span, trace_leaf)
from sdgeom.errors import DegreeError, DomainError, RankDeficiencyError
from sdgeom.forms import ClassicalForm, CombinatorialForm, d_classical, d_comb, to_combinatorial
from sdgeom.nil import generic_offsets, within_tol
from sdgeom.program import parse
from sdgeom.sampling import parse_box, sample_box

from corpus import random_scalar_expr
from reference import (evaluate, flat_generic_offsets, kernel_matrix, monomial, ref_is_flat,
                       ref_to_combinatorial, span_matrix)

VARS3 = ("x", "y", "z")


def form_1(n, coeffs, vars):
    return ClassicalForm(1, n, {(i,): e for i, e in coeffs.items()}, vars)


def ker_dz():
    return Distribution(3, 2, kernel=[form_1(3, {3: ex.Const(1.0)}, VARS3)],
                        vars=VARS3)


def contact():
    w = form_1(3, {3: ex.Const(1.0), 1: ex.Neg(ex.Var("y"))}, VARS3)
    return Distribution(3, 2, kernel=[w], vars=VARS3)


def samples3(count=12, seed=0):
    return sample_box([(-1.0, 1.0)] * 3, count, seed)


def test_a_distribution_has_one_representation():
    w = form_1(3, {3: ex.Const(1.0)}, VARS3)
    fields = [[ex.Const(1.0), ex.Const(0.0), ex.Const(0.0)],
              [ex.Const(0.0), ex.Const(1.0), ex.Const(0.0)]]
    with pytest.raises(ValueError, match="one representation"):
        Distribution(3, 2, span=fields, kernel=[w], vars=VARS3)
    with pytest.raises(ValueError, match="one representation"):
        Distribution(3, 2, vars=VARS3)


def test_a_distribution_has_a_rank_between_0_and_n():
    # three span fields in R^2 were accepted, and rank-deficient everywhere;
    # four kernel forms in R^3 gave rank -1
    one = ex.Const(1.0)
    with pytest.raises(DegreeError, match="rank must lie between 0 and the dimension 2"):
        Distribution(2, 3, span=[[one, one]] * 3, vars=("x", "y"))
    with pytest.raises(DegreeError, match="rank must lie between 0 and the dimension 3"):
        Distribution(3, -1, kernel=[form_1(3, {i: one}, VARS3) for i in (1, 2, 3, 3)],
                     vars=VARS3)
    assert Distribution(3, 0, span=[], vars=VARS3).rank == 0
    assert Distribution(3, 3, kernel=[], vars=VARS3).rank == 3


ONE, ZERO = ex.Const(1.0), ex.Const(0.0)
DZ = form_1(3, {3: ONE}, VARS3)
PLANE = Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]], vars=VARS3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Distribution(3, 1, kernel=[DZ], vars=VARS3), DegreeError,
     "kernel must consist of n-rank 1-forms"),
    (lambda: Distribution(3, 2, kernel=[form_1(2, {2: ONE}, VARS3[:2])], vars=VARS3), DegreeError,
     "kernel entries must be 1-forms on the chart"),
    (lambda: Distribution(3, 2, kernel=[d_classical(form_1(3, {1: ex.Var("y")}, VARS3))],
                          vars=VARS3), DegreeError, "kernel entries must be 1-forms on the chart"),
    (lambda: Distribution(3, 1, span=[[ONE, ZERO]], vars=VARS3), DegreeError,
     "span must consist of rank n-vector fields"),
    (lambda: check_involutive_combinatorial(PLANE, samples3()), DegreeError,
     "combinatorial involutivity test needs KERNEL forms "
     "(use pointwise_involutive_span for SPAN-only input)"),
    (lambda: pointwise_involutive_span(ker_dz(), samples3()), DegreeError,
     "relational span test needs a SPAN representation"),
    (lambda: check_integral_patch(ker_dz(), IntegralPatch(("s",), [ex.Var("s"), ZERO, ZERO]),
                                  "exact", [(0.0,)]), ValueError, "mode must be 'weak' or 'strong'"),
    (lambda: semi_annihilation_check(ker_dz(), to_combinatorial(DZ), samples3()), DegreeError,
     "semi_annihilation_check expects a 2-form"),
    (lambda: sample_box([(0.0, 1.0)] * 17, 1), ValueError,
     "box dimension too large for the Halton table"),
    (lambda: parse_box("0..1,0..1", 3), ValueError, "box needs 1 or 3 ranges, got 2"),
    (lambda: parse_box("a..1", 2), ValueError,
     "box range 'a..1' needs finite bounds with lo <= hi"),
    (lambda: parse_box("1", 2), ValueError, "box range '1' needs finite bounds with lo <= hi"),
    (lambda: parse_box("1..2..3", 2), ValueError,
     "box range '1..2..3' needs finite bounds with lo <= hi"),
    (lambda: parse_box("..1", 2), ValueError,
     "box range '..1' needs finite bounds with lo <= hi"),
    (lambda: parse_box("0..1,1..inf", 2), ValueError,
     "box range '1..inf' needs finite bounds with lo <= hi"),
], ids=["kernel-count", "kernel-chart", "kernel-degree", "span-shape", "relation-kernel",
        "relation-span", "patch-mode", "semi-degree", "box-dimension", "box-ranges",
        "box-not-a-number", "box-one-bound", "box-three-bounds", "box-no-lower-bound",
        "box-infinite-bound"])
def test_guards_raise(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_a_box_range_is_split_at_its_first_two_dots():
    assert parse_box(".5...7,-1..1", 2) == [(0.5, 0.7), (-1.0, 1.0)]


def _radical_inverse(index, base):
    digits = []
    while index:
        index, digit = divmod(index, base)
        digits.append(digit)
    return sum(d / base ** (k + 1) for k, d in enumerate(digits))


@pytest.mark.parametrize("seed", [0, 7, 100010])
def test_sample_box_is_the_radical_inverse_in_the_first_16_primes(seed):
    # the Halton point of index 1 + 997*(seed mod 100003) + i in each of the
    # 16 dimensions the table allows
    primes = [p for p in range(2, 54) if all(p % q for q in range(2, p))]
    assert len(primes) == 16
    offset = 1 + 997 * (seed % 100003)
    for i, point in enumerate(sample_box([(0.0, 1.0)] * 16, 4, seed)):
        want = [_radical_inverse(offset + i, p) for p in primes]
        assert list(point.coords) == pytest.approx(want, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("p", samples3(3, seed=4))
def test_kernel_input_matrices_are_its_frame(p):
    # the kernel matrix of ker(dz - y dx) is its coefficient row, and its
    # span matrix the fiber basis
    dist = contact()
    assert np.array_equal(kernel_matrix(dist, p), [[-p.coords[1], 0.0, 1.0]])
    assert np.array_equal(span_matrix(dist, p), dist.basis_at(p))


# -- flatness ----------------------------------------------------------------

def test_flatness_examples():
    d = ker_dz()
    p = Point((0.2, -0.4, 0.9))
    assert ref_is_flat(d, p, np.array((1.0, 0.0, 0.0)), DEFAULT_TOL)
    assert ref_is_flat(d, p, np.array((0.3, -2.0, 0.0)), DEFAULT_TOL)
    assert not ref_is_flat(d, p, np.array((0.0, 0.0, 1.0)), DEFAULT_TOL)


def flat_symmetry_check(dist, samples, tol=DEFAULT_TOL):
    """omega_i(x, y) = -omega_i(y, x) as W-identities at the samples, for
    the kernel forms omega_i in coordinates: flatness is a symmetric
    relation."""
    thetas = [ref_to_combinatorial(w) for w in dist.kernel]
    u, = generic_offsets(1, dist.n)
    for p in samples:
        y = [b + o for b, o in zip(p.coords, u)]
        for theta in thetas:  # omega(y, x): base at y = x + u, displacement -u
            if not within_tol(theta(p.coords, [u]) + theta(y, [[-o for o in u]]), tol):
                return False
    return True


def test_flatness_is_symmetric():
    for dist in (ker_dz(), contact()):
        assert flat_symmetry_check(dist, samples3())


# -- involutivity -------------------------------------------------------------

def test_ker_dz_involutive_both_ways():
    d = ker_dz()
    _, comb = check_involutive_combinatorial(d, samples3())
    cls = check_involutive_classical(d, samples3())
    assert comb is True and cls is True


def test_contact_not_involutive_both_ways():
    d = contact()
    verdicts, comb = check_involutive_combinatorial(d, samples3())
    cls = check_involutive_classical(d, samples3())
    assert comb is False and cls is False
    # the contact structure is nowhere involutive
    assert not any(verdicts)


@pytest.mark.parametrize("text,where", [
    # the second form is x times the first, so rank-deficient everywhere
    ("form b = x*dz - (x*y)*dx", "(0.0, -0.33333333333333337, -0.6)"),
    # dependent at x = 0.5 alone: the third sample, which the stack of the
    # samples after the first leaves to a one-sample call
    ("form b = x*dz - (x*y)*dx + (x - 0.5)*dy", "(0.5, -0.7777777777777778, 0.20000000000000018)"),
], ids=["everywhere", "at-a-later-sample"])
def test_dependent_kernel_forms_raise_in_both_checks(text, where):
    # of dependent forms, d(omega_i) ^ omega_1 ^ omega_2 vanishes whatever
    # omega is: the classical ideal test must not pass where the kernel
    # forms fall short of their rank, as the combinatorial check does not
    d = parse(f"dim 3\nvar x y z\nform a = dz - y*dx\n{text}\ndist D = ker(a, b)\n").dists["D"]
    message = re.escape(f"kernel forms rank-deficient at {where}")
    for check in (check_involutive_classical, check_involutive_combinatorial):
        with pytest.raises(RankDeficiencyError, match=f"^{message}$"):
            check(d, samples3(20))


@pytest.mark.parametrize("seed", range(5))
def test_submersion_level_sets_involutive(seed):
    # ker(df) for a random scalar f is integrable wherever df is nonzero
    rng = np.random.default_rng(seed)
    f = random_scalar_expr(rng, VARS3)
    df = {i + 1: ex.diff(f, v) for i, v in enumerate(VARS3)}
    pts = [p for p in samples3(30, seed=seed + 1)
           if max(abs(evaluate(e, dict(zip(VARS3, p.coords))))
                  for e in df.values()) > 0.3]
    if len(pts) < 5:
        pytest.skip("degenerate random germ")
    d = Distribution(3, 2, kernel=[form_1(3, df, VARS3)], vars=VARS3)
    _, comb = check_involutive_combinatorial(d, pts[:10])
    cls = check_involutive_classical(d, pts[:10])
    assert comb is True and cls is True


def random_kernel_distribution(rng, n):
    """Random polynomial kernel 1-forms, rank n - m with m in 1..n-2."""
    m = int(rng.integers(1, n - 1))
    kforms = []
    for _ in range(m):
        vars = tuple(f"x{i+1}" for i in range(n))
        coeffs = {}
        for i in range(1, n + 1):
            if rng.random() < 0.7:
                coeffs[i] = random_scalar_expr(rng, vars)
        if not coeffs:
            coeffs[1] = ex.Const(1.0)
        kforms.append(form_1(n, coeffs, vars))
    vars = kforms[0].vars
    return Distribution(n, n - m, kernel=kforms, vars=vars)


def test_random_corpus_agreement():
    agreements = 0
    attempts = 0
    rng = np.random.default_rng(77)
    while agreements < 20 and attempts < 200:
        attempts += 1
        n = int(rng.choice((3, 4)))
        dist = random_kernel_distribution(rng, n)
        pts = sample_box([(-1.0, 1.0)] * n, 8, seed=attempts)
        try:
            verdicts, comb = check_involutive_combinatorial(dist, pts)
            cls = check_involutive_classical(dist, pts)
        except RankDeficiencyError:
            continue  # rank drop at a sample: rejected input, not a verdict
        assert comb == cls, f"verdict mismatch on corpus member {attempts}"
        agreements += 1
    assert agreements >= 20


def test_span_distribution_pointwise_mode():
    # span{dx + y dz, dy} brackets to -dz outside the span: not involutive
    vars = VARS3
    span = [[ex.Const(1.0), ex.Const(0.0), ex.Var("y")],
            [ex.Const(0.0), ex.Const(1.0), ex.Const(0.0)]]
    d = Distribution(3, 2, span=span, vars=vars)
    _, verdict = pointwise_involutive_span(d, samples3())
    assert verdict is False
    assert check_involutive_classical(d, samples3()) is False


def test_flat_span_distribution_pointwise_mode():
    span = [[ex.Const(1.0), ex.Const(0.0), ex.Const(0.0)],
            [ex.Const(0.0), ex.Const(1.0), ex.Const(0.0)]]
    d = Distribution(3, 2, span=span, vars=VARS3)
    _, verdict = pointwise_involutive_span(d, samples3())
    assert verdict is True


# -- the relational test (Kock): x ~ y, x ~ z flat and y ~ z give y ~ z flat ------


def relational_span_outcome(dist, samples, tol=DEFAULT_TOL):
    """Verdicts of the relational and the bracket test, or None where either
    meets a rank drop."""
    try:
        return (pointwise_involutive_span(dist, samples, tol)[1],
                check_involutive_classical(dist, samples, tol))
    except RankDeficiencyError:
        return None


def random_span_distribution(rng, n):
    vars = tuple(f"x{i + 1}" for i in range(n))
    rank = int(rng.integers(1, n))
    fields = [[random_scalar_expr(rng, vars) for _ in range(n)] for _ in range(rank)]
    return Distribution(n, rank, span=fields, vars=vars)


def graph_span_distribution(rng, n):
    """X_a = e_a + sum_k d_a g_k e_(rank+k), tangent to the leaves
    z_k = g_k(x_1, ..., x_rank) + c_k; X_1 then gets h X_2 added, which
    keeps the span and gives the fields a bracket of their own."""
    vars = tuple(f"x{i + 1}" for i in range(n))
    rank = int(rng.integers(1, n))
    gs = [random_scalar_expr(rng, vars[:rank], trig=True) for _ in range(n - rank)]
    fields = [[ONE if i == a else ZERO for i in range(rank)]
              + [ex.diff(g, vars[a]) for g in gs] for a in range(rank)]
    if rank > 1:
        h = random_scalar_expr(rng, vars)
        fields[0] = [ex.Add(c0, ex.Mul(h, c1)) for c0, c1 in zip(fields[0], fields[1])]
    return Distribution(n, rank, span=fields, vars=vars)


@pytest.mark.parametrize("corpus, seed", [(random_span_distribution, 11),
                                          (graph_span_distribution, 12)])
def test_relational_span_test_agrees_with_the_bracket_test(corpus, seed):
    rng = np.random.default_rng(seed)
    verdicts = []
    for attempt in range(40):
        n = int(rng.choice((3, 4, 5)))
        dist = corpus(rng, n)
        samples = sample_box([(-1.0, 1.0)] * n, 6, seed=attempt)
        outcome = relational_span_outcome(dist, samples)
        if outcome is None:
            continue
        relational, bracket = outcome
        assert relational == bracket, f"corpus member {attempt}"
        verdicts.append(relational)
    assert len(verdicts) >= 30
    if corpus is graph_span_distribution:
        assert all(verdicts)
    else:
        assert verdicts.count(False) >= 15 and verdicts.count(True) >= 5


@pytest.mark.parametrize("tol, want", [(1e-9, False), (1e-3, True)])
def test_relational_span_test_takes_tol(tol, want):
    # [u, v] = -1e-5 dz for u = (1, 0, 1e-5 y), v = (0, 1, 0)
    d = Distribution(3, 2, span=[[ONE, ZERO, ex.Mul(ex.Const(1e-5), ex.Var("y"))],
                                 [ZERO, ONE, ZERO]], vars=VARS3)
    assert relational_span_outcome(d, samples3(), tol) == (want, want)


def relational_kernel_test(dist, samples, tol=DEFAULT_TOL):
    """The relational test for KERNEL input, by the forms themselves: at the
    generic flat offsets u, v at x, omega_i(x + u)(v - u) vanishes, in
    coordinates."""
    thetas = [ref_to_combinatorial(w) for w in dist.kernel]
    for p in samples:
        u, v = flat_generic_offsets(dist.basis_at(p), 2)
        y = [c + e for c, e in zip(p.coords, u)]
        w = [b - a for a, b in zip(u, v)]
        if not all(within_tol(theta(y, [w]), tol) for theta in thetas):
            return False
    return True


def test_relational_kernel_test_agrees_with_the_combinatorial_test():
    rng = np.random.default_rng(78)
    verdicts = []
    for attempt in range(60):
        n = int(rng.choice((3, 4)))
        dist = random_kernel_distribution(rng, n)
        # and ker(h df), involutive: h df is not closed, but h df ^ d(h df) = 0
        vars = dist.vars
        f, h = random_scalar_expr(rng, vars), random_scalar_expr(rng, vars)
        level_sets = Distribution(n, n - 1, kernel=[form_1(n, {
            i + 1: ex.Mul(ex.Add(ex.Const(4.0), h), ex.diff(f, v))
            for i, v in enumerate(vars)}, vars)], vars=vars)
        pts = sample_box([(-1.0, 1.0)] * n, 8, seed=attempt)
        for d in (dist, level_sets):
            try:
                _, comb = check_involutive_combinatorial(d, pts)
                relational = relational_kernel_test(d, pts)
            except RankDeficiencyError:
                continue
            assert relational == comb, f"corpus member {attempt}"
            verdicts.append(comb)
    assert relational_kernel_test(ker_dz(), samples3()) is True
    assert relational_kernel_test(contact(), samples3()) is False
    assert verdicts.count(False) >= 30 and verdicts.count(True) >= 20


# -- integral patches -----------------------------------------------------------

def param_samples(q, count=8, seed=3):
    return [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * q, count, seed)]


def test_a_patch_needs_a_parameter():
    # without one, check_integral_patch raised IndexError at three samples
    with pytest.raises(ValueError, match="a patch needs at least one parameter"):
        IntegralPatch((), [ex.Const(0.1), ex.Const(0.2), ex.Const(0.0)])


def test_patch_weak_and_strong():
    d = ker_dz()
    patch = IntegralPatch(("s", "t"),
                          [ex.Var("s"), ex.Var("t"), ex.Const(7.0)])
    ps = param_samples(2)
    assert check_integral_patch(d, patch, "weak", ps) is True
    assert check_integral_patch(d, patch, "strong", ps) is True


def test_patch_weak_but_not_strong():
    d = ker_dz()
    patch = IntegralPatch(("s",), [ex.Var("s"), ex.Const(0.0), ex.Const(0.0)])
    ps = param_samples(1)
    assert check_integral_patch(d, patch, "weak", ps) is True
    assert check_integral_patch(d, patch, "strong", ps) is False


def test_patch_neither():
    d = contact()
    patch = IntegralPatch(("s", "t"),
                          [ex.Var("s"), ex.Var("t"), ex.Const(0.0)])
    ps = param_samples(2)
    assert check_integral_patch(d, patch, "weak", ps) is False
    assert check_integral_patch(d, patch, "strong", ps) is False


def test_patch_rank_deficiency_reported():
    d = ker_dz()
    patch = IntegralPatch(("s", "t"),
                          [ex.Var("s"), ex.Var("s"), ex.Const(0.0)])
    with pytest.raises(RankDeficiencyError):
        check_integral_patch(d, patch, "weak", param_samples(2))


# -- semi-simplex annihilation --------------------------------------------------

def test_semi_annihilation_on_involutive_distribution():
    d = ker_dz()
    theta = d_comb(to_combinatorial(d.kernel[0]))
    res = semi_annihilation_check(d, theta, samples3())
    assert res.precondition is True
    assert res.conclusion is True
    assert bool(res)


def test_semi_annihilation_precondition_failure_reported():
    d = ker_dz()
    dxdy = ClassicalForm(2, 3, {(1, 2): ex.Const(1.0)}, VARS3)
    res = semi_annihilation_check(d, to_combinatorial(dxdy), samples3())
    assert res.precondition is False
    assert not bool(res)


def test_semi_annihilation_zero_form_trivially_true():
    d = ker_dz()
    zero = to_combinatorial(ClassicalForm.zero(2, 3, VARS3))
    res = semi_annihilation_check(d, zero, samples3())
    assert bool(res)


def test_rank_zero_kernel():
    # the zero sub-bundle: its flat simplexes are points, in W(2, 1)
    program = "dim 2\nvar x y\nform a = dx\nform b = {}\ndist D = ker(a, b)\n"
    zero, bad = (parse(program.format(b)).dists["D"] for b in ("dy", "(2)*dx"))
    theta = to_combinatorial(ClassicalForm(2, 2, {(1, 2): ex.Var("x")}, ("x", "y")))
    for count in (1, 20):
        pts = sample_box([(-1.0, 1.0)] * 2, count, 0)
        assert check_involutive_combinatorial(zero, pts)[1] is True
        assert bool(semi_annihilation_check(zero, theta, pts))
    with pytest.raises(RankDeficiencyError):
        check_involutive_combinatorial(bad, pts)


def test_semi_annihilation_across_involutive_corpus():
    rng = np.random.default_rng(31)
    passed = 0
    attempts = 0
    while passed < 5 and attempts < 100:
        attempts += 1
        dist = random_kernel_distribution(rng, 3)
        pts = sample_box([(-1.0, 1.0)] * 3, 6, seed=1000 + attempts)
        try:
            if not check_involutive_classical(dist, pts):
                continue
            for w in dist.kernel:
                res = semi_annihilation_check(dist, d_comb(to_combinatorial(w)), pts)
                if res.precondition:
                    assert res.conclusion, "precondition held, conclusion failed"
        except RankDeficiencyError:
            continue
        passed += 1
    assert passed >= 5


# -- non-finite residuals fail ------------------------------------------------------

K = ex.Const(1e300)
ORIGIN = [Point((0.0, 0.0, 0.0))]


def overflowing_closed_form():
    """w = (y*K*K) dx + (x*K*K) dy + dz: dz at the origin, but its derivative
    there is K*K - K*K = inf - inf, a nan residual."""
    x, y = ex.Var("x"), ex.Var("y")
    return form_1(3, {1: ex.Mul(ex.Mul(y, K), K), 2: ex.Mul(ex.Mul(x, K), K),
                      3: ex.Const(1.0)}, VARS3)


def test_nan_residual_fails_the_involutivity_checks():
    w = overflowing_closed_form()
    d = Distribution(3, 2, kernel=[w], vars=VARS3)
    assert check_involutive_combinatorial(d, ORIGIN) == ([False], False)
    assert check_involutive_classical(d, ORIGIN) is False
    res = semi_annihilation_check(d, d_comb(to_combinatorial(w)), ORIGIN)
    assert res.precondition is False and not bool(res)


def test_nan_residual_fails_the_symmetry_check():
    # an infinite coefficient: forward + backward is inf - inf
    d = Distribution(3, 2, kernel=[form_1(3, {1: ex.Mul(K, K), 3: ex.Const(1.0)},
                                          VARS3)], vars=VARS3)
    assert flat_symmetry_check(d, ORIGIN) is False


def test_nan_residual_fails_the_semi_annihilation_conclusion():
    # nan on the generic simplex's monomial xi[1,1] xi[2,2], from which
    # eval_semi extracts its coefficients; on the flat simplices of a rank-1
    # distribution, in W(2, 1), no degree-2 monomial is left, so zero there
    theta = CombinatorialForm(2, 3, lambda x, k, face: monomial(
        k, 3, (1, 2), (1, 2), float("nan")))
    line = Distribution(3, 1, kernel=[form_1(3, {2: ex.Const(1.0)}, VARS3),
                                      form_1(3, {3: ex.Const(1.0)}, VARS3)], vars=VARS3)
    res = semi_annihilation_check(line, theta, ORIGIN)
    assert res.precondition is True
    assert res.conclusion is False and not bool(res)


def overflowing_span():
    """u = (1, 0, y*K*K), v = (0, 1, x*K*K): the plane z = 0 at the origin,
    where the bracket is K*K - K*K = inf - inf, a nan residual."""
    x, y, zero, one = ex.Var("x"), ex.Var("y"), ex.Const(0.0), ex.Const(1.0)
    return Distribution(3, 2, span=[[one, zero, ex.Mul(ex.Mul(y, K), K)],
                                    [zero, one, ex.Mul(ex.Mul(x, K), K)]],
                        vars=VARS3)


def test_nan_residual_fails_the_span_checks():
    d = overflowing_span()
    with np.errstate(over="ignore", invalid="ignore"):
        assert check_involutive_classical(d, ORIGIN) is False
        assert pointwise_involutive_span(d, ORIGIN) == ([False], False)


# -- leaf tracing -----------------------------------------------------------------

def span_dist(fields, vars=VARS3):
    return Distribution(len(vars), len(fields), span=fields, vars=vars)


def test_trace_leaf_preserves_height():
    d = span_dist([[ex.Const(1.0), ex.Const(0.0), ex.Const(0.0)],
                   [ex.Const(0.0), ex.Const(1.0), ex.Const(0.0)]])
    pts = trace_leaf(d, Point((0.0, 0.0, 7.0)), steps=500, stepsize=1e-2)
    assert all(abs(p[2] - 7.0) <= 1e-9 for p in pts)


def test_trace_leaf_conserves_level_function():
    # tangent fields of the paraboloid z = x^2 + y^2
    d = span_dist([
        [ex.Const(1.0), ex.Const(0.0), ex.Mul(ex.Const(2.0), ex.Var("x"))],
        [ex.Const(0.0), ex.Const(1.0), ex.Mul(ex.Const(2.0), ex.Var("y"))]])
    pts = trace_leaf(d, Point((1.0, 0.0, 1.0)), steps=800, stepsize=1e-3)
    for x, y, z in pts:
        assert abs(z - x * x - y * y) <= 1e-6


# The flows along two span fields, each the leaf tracer's compiled RK4 step
# (`expr.compile_rk4_step`) taken 20 times, fail to close by t^2 [X, Y]:
# C(t) = (phi_Y^-t phi_X^-t phi_Y^t phi_X^t(p) - p)/t^2 is [X, Y](p) up to
# O(t), and Richardson's 2 C(t/2) - C(t) up to O(t^2).  For u = (1, 0, y)
# and v = (0, 1, sin x), [u, v] = (0, 0, cos x - 1), and at t = 0.01 the
# distance measured 5.8e-6 to 8.3e-6 (t^2 cos(x)/12 in closed form, RK4
# being exact along each of these flows); the bound leaves a margin of 3x.
# The other sign, or the flows taken in the other order, misses by
# 2 |[u, v]|, 1e-2 at the first point.
@pytest.mark.parametrize("p", [(0.1, -0.2, 0.3), (0.5, 0.4, -0.7), (-0.8, 0.9, 0.2)])
def test_flow_commutator_is_the_bracket(p):
    dist = parse("dim 3\nvar x y z\nvector u = (1, 0, y)\nvector v = (0, 1, sin(x))\n"
                 "dist S = span(u, v)\n").dists["S"]

    def C(t, steps=20):
        q = p
        for field, h in zip(dist.span * 2, (t, t, -t, -t)):
            step = ex.compile_rk4_step(field, dist.vars, h / steps)
            for _ in range(steps):
                q = step(*q)
        return (np.array(q) - p) / (t * t)

    bracket = np.array(dist._bracket_fns(*p))
    t = 0.01
    assert np.max(np.abs(2.0 * C(t / 2) - C(t) - bracket)) <= 3e-5
    assert np.max(np.abs(bracket)) >= 4e-3


def test_trace_leaf_needs_a_span_field():
    # a rank-0 span raised ZeroDivisionError from the field index i mod 0
    with pytest.raises(DegreeError, match="no span field to follow"):
        trace_leaf(span_dist([]), Point((1.0, 2.0, 3.0)), steps=10, stepsize=1e-3)


def test_trace_leaf_zero_steps():
    d = span_dist([[ex.Const(1.0), ex.Const(0.0), ex.Const(0.0)]])
    start = Point((1.0, 2.0, 3.0))
    pts = trace_leaf(d, start, steps=0, stepsize=1e-3)
    assert pts == [start.coords]


def leaf_reference(dist, start, steps, stepsize):
    """The RK4 leaf trace written over coordinate tuples, one stage at a
    time, each stage evaluating the field by `compile_w`."""
    fields = [ex.compile_w(v, dist.vars) for v in dist.span]
    half = 0.5 * stepsize
    sixth = stepsize / 6.0
    x = start.coords
    out = [x]
    for i in range(steps):
        field = fields[i % dist.rank]
        k1 = field(*x)
        k2 = field(*[a + half * b for a, b in zip(x, k1)])
        k3 = field(*[a + half * b for a, b in zip(x, k2)])
        k4 = field(*[a + stepsize * b for a, b in zip(x, k3)])
        x = tuple(a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4))
        if not all(map(math.isfinite, x)):
            raise DomainError(f"leaf trace reached a non-finite point at step {i + 1}")
        out.append(x)
    return out


# fields through every primitive, division, integer pow and unary minus
LEAF_FIELDS = """\
dim 3
var x y z
vector u = (1, sin(y)*cos(z), -exp(-x/3) + ln(2 + sin(x)))
vector v = (sqrt(1 + y*y)/(2 + cos(x)), -1, pow(z, 3)/(1 + pow(x, 2)))
vector w = (0.5, -pow(y, 2), 1/(3 + cos(z)))
"""


def leaf_fields(rank):
    names = ", ".join("uvw"[:rank])
    return parse(LEAF_FIELDS + f"dist S = span({names})\n").dists["S"]


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("steps, stepsize", [
    (0, 1e-3), (1, 1e-3), (1, -0.1), (300, 1e-2), (300, -1e-2), (300, 0.003),
    (301, -0.007)])
def test_trace_leaf_is_the_reference_loop(rank, steps, stepsize):
    d = leaf_fields(rank)
    start = Point((0.3, -0.2, 0.1))
    pts = trace_leaf(d, start, steps, stepsize)
    assert pts == leaf_reference(d, start, steps, stepsize)


@pytest.mark.parametrize("fields, start, stepsize", [
    # x decreases through 0 within a step's stages: ln raises in one
    (["(-1, 0, ln(x))"], (0.05, 0.0, 0.0), 0.003),
    # x' = x^3 blows up through * alone, which gives inf, not an error
    (["(x*x*x, 0, 0)", "(0, 1, 0)"], (1.0, 0.0, 0.0), 0.05),
], ids=["ln-in-a-stage", "blow-up"])
def test_trace_leaf_fails_where_the_reference_loop_fails(fields, start, stepsize):
    names = [f"f{i}" for i in range(len(fields))]
    d = parse("dim 3\nvar x y z\n"
              + "".join(f"vector {n} = {f}\n" for n, f in zip(names, fields))
              + f"dist S = span({', '.join(names)})\n").dists["S"]
    with pytest.raises(DomainError) as want:
        leaf_reference(d, Point(start), 10_000, stepsize)
    with pytest.raises(DomainError) as got:
        trace_leaf(d, Point(start), 10_000, stepsize)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# -- parsed distributions round-trip through the checks --------------------------

def test_parsed_contact_matches_handbuilt():
    prog = parse("dim 3\nvar x y z\nform w = dz - y*dx\ndist D = ker(w)\n")
    _, comb = check_involutive_combinatorial(prog.dists["D"], samples3())
    assert comb is False
