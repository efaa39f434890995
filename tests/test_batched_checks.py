"""The batched checks against the per-sample loops they replace.

The reference loops below are the checks as they were written one sample
at a time.  On the classical side: every coefficient walked by
`reference.evaluate`, every Jacobian and bracket differentiated again at each
sample, one `numpy.linalg` call per matrix.  On the W side: Kock's relation
in W(2, rank) per sample, its coefficients walked by `reference.evaluate` and
multiplied as object arrays of W elements (for KERNEL input, d(omega) on the
flat 2-simplex is kept as a second oracle), and one extraction of theta's
classical coefficients per pair of vectors.  The library evaluates all
samples at once, through functions compiled once per object and through
term maps whose coefficients are arrays over the samples; it must reach the
same verdict, or raise the same exception, as these loops in sample order.
"""

import importlib.util
import io
import math
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sdgeom import cli
from sdgeom import connections as cn
from sdgeom import distributions as ds
from sdgeom import expr as ex
from sdgeom.chart import Point
from sdgeom.distributions import Distribution
from sdgeom.errors import DomainError, RankDeficiencyError, SdgError
from sdgeom.forms import (ClassicalForm, d_classical, d_comb, eval_generic, eval_semi,
                          to_combinatorial, wedge_classical, wedge_comb)
from sdgeom.nil import NilElement, _elem_muladd, generic_offsets, within_tol
from sdgeom.program import parse
from sdgeom.sampling import sample_box

from corpus import random_form, random_scalar_expr
from reference import (all_monomials, const_term, evaluate, flat_generic_offsets, jacobian_at,
                       kernel_matrix, lift_smooth, power, quotient, ref_d_comb, ref_elem_muladd,
                       ref_is_flat, ref_jet_faces, ref_null_span, ref_span_matrix,
                       ref_to_combinatorial, ref_wedge_comb, span_matrix, tree_walk)

VARS3 = ("x", "y", "z")
X, Y, Z = ex.Var("x"), ex.Var("y"), ex.Var("z")
S, T = ex.Var("s"), ex.Var("t")
ZERO, ONE = ex.Const(0.0), ex.Const(1.0)


# -- the per-sample reference loops ----------------------------------------------

def _env(names, coords):
    return dict(zip(names, coords))


def ref_basis_at(dist, p):
    if dist.span is None:
        return ref_null_span(dist, p)
    q, r = np.linalg.qr(ref_span_matrix(dist, p))
    if np.any(np.abs(np.diag(r)) < 1e-10):
        raise RankDeficiencyError(f"span fields rank-deficient at {p.coords}")
    return q


def ref_ideal_test(dist, samples, tol):
    full = None
    for w in dist.kernel:
        full = w if full is None else wedge_classical(full, w)
    tests = [wedge_classical(d_classical(w), full) for w in dist.kernel]
    for p in samples:
        env = _env(dist.vars, p.coords)
        for test in tests:
            if test.degree > dist.n:
                continue
            for e in test.coeffs.values():
                if not within_tol(evaluate(e, env), tol):
                    return False
    return True


def ref_bracket_test(dist, samples, tol):
    for p in samples:
        env = _env(dist.vars, p.coords)
        M = ref_span_matrix(dist, p)
        for a in range(dist.rank):
            for b in range(a + 1, dist.rank):
                Xa, Xb = dist.span[a], dist.span[b]
                u = np.array([sum(evaluate(Xa[j], env) * evaluate(ex.diff(Xb[i], v), env)
                                  - evaluate(Xb[j], env) * evaluate(ex.diff(Xa[i], v), env)
                                  for j, v in enumerate(dist.vars))
                              for i in range(dist.n)], dtype=float)
                if not within_tol(cn.span_residual(M, u), tol * max(1.0, np.linalg.norm(u))):
                    return False
    return True


def ref_check_integral_patch(dist, patch, mode, parameter_samples, tol):
    if mode == "strong" and patch.q != dist.rank:
        return False
    for s in parameter_samples:
        env = _env(patch.params, s)
        try:
            p = Point([evaluate(c, env) for c in patch.components])
        except ValueError:  # a non-finite point is a numeric failure
            raise DomainError(f"non-finite patch point at parameters {s}") from None
        J = np.array([[evaluate(ex.diff(c, v), env) for v in patch.params]
                      for c in patch.components], dtype=float)
        if np.linalg.matrix_rank(J, tol=1e-7) != patch.q:
            raise RankDeficiencyError(f"patch Jacobian rank-deficient at {s}")
        for col in J.T:
            if not ref_is_flat(dist, p, col, tol):
                return False
        if mode == "strong":
            for col in ref_basis_at(dist, p).T:
                if not within_tol(cn.span_residual(J, col), tol):
                    return False
    return True


def ref_curvature_oracle(conn, p):
    env = _env(conn.vars, p.coords)
    value = lambda e: float(evaluate(e, env))
    A = [np.array([[value(e) for e in row] for row in Ai]) for Ai in conn.A]
    out = {}
    for i in range(1, conn.n + 1):
        for j in range(i + 1, conn.n + 1):
            dAj = np.array([[value(ex.diff(e, conn.vars[i - 1])) for e in row]
                            for row in conn.A[j - 1]])
            dAi = np.array([[value(ex.diff(e, conn.vars[j - 1])) for e in row]
                            for row in conn.A[i - 1]])
            Ai, Aj = A[i - 1], A[j - 1]
            out[(i, j)] = dAj - dAi + cn.BRACKET_SIGN * (Ai @ Aj - Aj @ Ai)
    return out


def ref_relation_residuals(dist, p, span):
    """Kock's relation at the sample p, for SPAN input with `span`: the
    residuals K_y (v - u) of y = x + u ~_D x + v on the generic flat
    2-simplex (x, x + u, x + v), and for KERNEL input the kernel matrix K_y
    itself.  The coefficients are evaluated at y by `reference.evaluate`, and the
    products are those of object arrays of W elements."""
    B = dist.basis_at(p)
    u, v = flat_generic_offsets(B, 2)
    env = _env(dist.vars, [c + e for c, e in zip(p.coords, u)])
    w = np.array([b - a for a, b in zip(u, v)], dtype=object)
    if span:
        K0 = kernel_matrix(dist, p)
        solve = np.linalg.solve(B.T @ span_matrix(dist, p), B.T)  # C^-1 B^T
        X = np.array([[evaluate(c, env) for c in field] for field in dist.span],
                     dtype=object).T
        return list(K0 @ w - (K0 @ X) @ (solve @ w)), None
    K = np.array([[evaluate(form.coeffs.get((i + 1,), ZERO), env) for i in range(dist.n)]
                  for form in dist.kernel], dtype=object)
    return list(K @ w), K


def ref_relation(dist, samples, tol, span=False):
    """Kock's relation, one sample at a time: the reference loop of
    check_involutive_combinatorial and, with `span`, of
    pointwise_involutive_span."""
    verdicts = [all(within_tol(r, tol) for r in ref_relation_residuals(dist, p, span)[0])
                for p in samples]
    return verdicts, all(verdicts)


def dcomb_residuals(dist, p):
    """d(omega_i) on the generic flat 2-simplex at p, in coordinates: the
    involutivity test of KERNEL input before the relation, kept as a second
    oracle."""
    offsets = flat_generic_offsets(dist.basis_at(p), 2)
    return [ref_d_comb(ref_to_combinatorial(w))(p.coords, offsets) for w in dist.kernel]


def ref_check_involutive_combinatorial(dist, samples, tol):
    verdicts = [all(within_tol(r, tol) for r in dcomb_residuals(dist, p)) for p in samples]
    return verdicts, all(verdicts)


def ref_semi_annihilation_check(dist, form, samples, rng, tol):
    """The semi-annihilation check of theta = d(form), its precondition in
    coordinates on the generic flat 2-simplex."""
    theta, flat = d_comb(to_combinatorial(form)), ref_d_comb(ref_to_combinatorial(form))
    conclusion = True
    for p in samples:
        B = dist.basis_at(p)
        if not within_tol(flat(p.coords, flat_generic_offsets(B, 2)), tol):
            return False, None
        vecs = [B[:, a] for a in range(dist.rank)]
        vecs += [B @ rng.normal(size=dist.rank) for _ in range(3)]
        for i, u in enumerate(vecs):
            for v in vecs[i + 1:]:
                if not within_tol(eval_semi(theta, p, u, v, tol=tol), tol):
                    conclusion = False
    return True, conclusion


def outcome(fn, *args):
    """The verdict, or the type of the raised exception with the message of
    a rank deficiency (which names the sample)."""
    try:
        return fn(*args)
    except RankDeficiencyError as err:
        return (RankDeficiencyError, str(err))
    except (DomainError, ValueError) as err:
        return type(err)


def assert_same_involutivity(dist, samples, tol=ds.DEFAULT_TOL):
    if dist.kernel is not None:
        assert outcome(ds._ideal_test, dist, samples, tol) == outcome(
            ref_ideal_test, dist, samples, tol)
    if dist.span is not None:
        assert outcome(ds._bracket_test, dist, samples, tol) == outcome(
            ref_bracket_test, dist, samples, tol)


def assert_same_patch_verdicts(dist, patch, parameter_samples, tol=ds.DEFAULT_TOL):
    for mode in ("weak", "strong"):
        got = outcome(ds.check_integral_patch, dist, patch, mode, parameter_samples, tol)
        want = outcome(ref_check_integral_patch, dist, patch, mode, parameter_samples, tol)
        assert got == want, mode


# -- corpora ---------------------------------------------------------------------

def form_1(coeffs, vars=VARS3):
    return ClassicalForm(1, len(vars), {(i,): e for i, e in coeffs.items()}, vars)


def random_kernel_distribution(rng, n):
    vars = tuple(f"x{i + 1}" for i in range(n))
    m = int(rng.integers(1, n - 1))
    forms = [form_1({i: random_scalar_expr(rng, vars) for i in range(1, n + 1)
                     if rng.random() < 0.7} or {1: ONE}, vars) for _ in range(m)]
    return Distribution(n, n - m, kernel=forms, vars=vars)


def _load_perfbench_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_programs(seed):
    """The k3 and k4 programs of the checks_sparse benchmark at `seed`."""
    sources, _ = _load_perfbench_gen().checks_sparse(seed)
    return [parse(sources[name]) for name in ("k3.sdg", "k4.sdg")]


@pytest.mark.bit_identity
@pytest.mark.parametrize("seed", range(1, 6))
def test_perfbench_distributions_and_patches_agree(seed):
    for prog in perfbench_programs(seed):
        points = sample_box([(-1.0, 1.0)] * prog.dim, 24, seed)
        params = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * 2, 24, seed)]
        for dist in prog.dists.values():
            assert_same_involutivity(dist, points)
            for patch in prog.patches.values():
                assert_same_patch_verdicts(dist, patch, params)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("batch", [1, 16])
def test_relational_span_test_on_the_benchmark_spans(seed, batch):
    # the relational test against the bracket test, which is known to agree
    # with its loop above, on the spans of the involutive_span ops
    k3, _ = perfbench_programs(seed)
    points = sample_box([(-1.0, 1.0)] * 3, batch, seed)
    for name, want in (("S", True), ("H", False)):
        dist = k3.dists[name]
        assert ds.pointwise_involutive_span(dist, points)[1] is want
        assert ds.check_involutive_classical(dist, points) is want


@pytest.mark.bit_identity
def test_random_kernel_corpus_agrees():
    rng = np.random.default_rng(77)
    for attempt in range(60):
        n = int(rng.choice((3, 4)))
        dist = random_kernel_distribution(rng, n)
        points = sample_box([(-1.0, 1.0)] * n, 8, seed=attempt)
        assert_same_involutivity(dist, points)
        assert_same_involutivity(dist, points[:1])
        # the same fields as a SPAN distribution, for the bracket test
        try:
            span = [list(col) for col in ref_null_span(dist, points[0]).T]
        except RankDeficiencyError:
            continue
        constant = Distribution(n, dist.rank, span=[[ex.Const(c) for c in v] for v in span],
                                vars=dist.vars)
        assert_same_involutivity(constant, points)


@pytest.mark.bit_identity
def test_random_patch_corpus_agrees():
    rng = np.random.default_rng(5)
    dists = [Distribution(3, 2, kernel=[form_1({3: ONE})]),
             Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Neg(Y)})]),
             Distribution(3, 2, span=[[ONE, ZERO, Y], [ZERO, ONE, ZERO]], vars=VARS3),
             Distribution(3, 1, span=[[ONE, X, ZERO]], vars=VARS3)]
    for attempt in range(20):
        third = random_scalar_expr(rng, ("s", "t"))
        surface = ds.IntegralPatch(("s", "t"), [S, T, third])
        curve = ds.IntegralPatch(("s",), [S, ex.Mul(S, S), ex.rename(third, {"t": "s"})])
        for patch in (surface, curve):
            params = [tuple(p.coords)
                      for p in sample_box([(-1.0, 1.0)] * patch.q, 6, attempt)]
            for dist in dists:
                assert_same_patch_verdicts(dist, patch, params)
                assert_same_patch_verdicts(dist, patch, params[:1])
                assert_same_patch_verdicts(dist, patch, params, tol=0.0)


def test_line_fields_agree():
    # a rank-1 SPAN distribution has no bracket to test; its span matrix
    # (x, 1, 0) still has to be of rank 1 at every sample, as in the loop
    line = Distribution(3, 1, span=[[ONE, X, ZERO]], vars=VARS3)
    vanishing = Distribution(3, 1, span=[[X, ZERO, ZERO]], vars=VARS3)
    points = sample_box([(-1.0, 1.0)] * 3, 8, seed=4)
    assert ds.check_involutive_classical(line, points) is True
    origin = [points[0], Point((0.0, 0.5, 0.5)), points[1]]
    assert outcome(ds.check_involutive_classical, vanishing, origin) == (
        RankDeficiencyError, "span fields rank-deficient at (0.0, 0.5, 0.5)")
    for dist in (line, vanishing):
        assert_same_involutivity(dist, points)
        assert_same_involutivity(dist, origin)


@pytest.mark.parametrize("c, want", [(0.7e-9, True), (1.0e-9, True), (1.3e-9, False)])
def test_residuals_near_the_tolerance_go_to_the_per_sample_check(c, want):
    # the flat patch (s, t, 0) of ker(dz - c dx) has the residual |c| at
    # every sample: the one-sample call at the first sample and the stack of
    # the rest decide alike at tol 1e-9, as the loop does
    dist = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Const(-c)})])
    patch = ds.IntegralPatch(("s", "t"), [S, T, ZERO])
    params = [(0.1, 0.2), (0.3, -0.4)]
    assert ds.check_integral_patch(dist, patch, "weak", params) is want
    assert_same_patch_verdicts(dist, patch, params)


def rule_calls(monkeypatch, check, *args):
    """The outcome of check(*args) (`full_outcome`), and the sample lists on
    which `distributions._in_order`, the driver of every check, calls the
    check's rule, in order."""
    calls = []
    in_order = ds._in_order
    monkeypatch.setattr(ds, "_in_order", lambda samples, rule: in_order(
        samples, lambda chunk: calls.append(list(chunk)) or rule(chunk)))
    try:
        return full_outcome(check, *args), calls
    finally:
        monkeypatch.undo()


def test_clearly_passing_samples_skip_the_per_sample_check(monkeypatch):
    # the first sample alone, and the stack of the rest: no other sample is
    # checked alone
    patch = ds.IntegralPatch(("s", "t"), [S, T, ex.Mul(S, T)])
    # z = s t: dz - y dx - x dy vanishes on the patch
    dist = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Neg(Y), 2: ex.Neg(X)})])
    params = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * 2, 32, seed=6)]
    got, calls = rule_calls(monkeypatch, ds.check_integral_patch, dist, patch, "strong", params)
    assert got is True
    assert calls == [params[:1], params[1:]]


def test_curvature_oracle_agrees():
    for text in perfbench_connection_sources():
        conn = next(iter(parse(text).conns.values()))
        for p in sample_box([(-1.0, 1.0)] * conn.n, 6, seed=conn.n):
            got, want = cn.curvature_classical_oracle(conn, p), ref_curvature_oracle(conn, p)
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-13, atol=1e-13)


def perfbench_connection_sources():
    sources, _ = _load_perfbench_gen().checks_sparse(3)
    return [text for name, text in sorted(sources.items()) if "conn " in text]


# -- which sample decides, and how -------------------------------------------------

CONTACT = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Neg(Y)})])
# J = [[1, 0], [0, 2t], [0, 0]] is rank-deficient at t = 0; d/ds is off the
# contact plane wherever y = t^2 != 0
SQUARE_PATCH = ds.IntegralPatch(("s", "t"), [S, ex.Mul(T, T), ZERO])
# u = (1, 0, 0), v = (0, x, y): v vanishes at the origin, and [u, v] = (0, 1, 0)
# lies in the span only where y = 0
VANISHING_SPAN = Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, X, Y]], vars=VARS3)
LN_PATCH = ds.IntegralPatch(("s", "t"), [S, T, ex.Call("ln", S)])
# ker(x dz - dx) contains LN_PATCH where s > 0; at s < 0 its point is
# undefined, while its Jacobian is not
LN_KERNEL = Distribution(3, 2, kernel=[form_1({3: X, 1: ex.Neg(ONE)})])


@pytest.mark.parametrize("check, samples, want", [
    # a failure at sample 0, then a rank deficiency at sample 1, and back
    (lambda s: ds.check_integral_patch(CONTACT, SQUARE_PATCH, "weak", s),
     [(0.5, 0.5), (0.3, 0.0)], False),
    (lambda s: ds.check_integral_patch(CONTACT, SQUARE_PATCH, "weak", s),
     [(0.3, 0.0), (0.5, 0.5)],
     (RankDeficiencyError, "patch Jacobian rank-deficient at (0.3, 0.0)")),
    (lambda s: ds.check_involutive_classical(VANISHING_SPAN, [Point(x) for x in s]),
     [(0.5, 0.5, 0.0), (0.0, 0.0, 0.0)], False),
    (lambda s: ds.check_involutive_classical(VANISHING_SPAN, [Point(x) for x in s]),
     [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0)],
     (RankDeficiencyError, "span fields rank-deficient at (0.0, 0.0, 0.0)")),
    # ln(s) at s <= 0 and 0.5/sqrt(s) at s = 0: the point, or the Jacobian,
    # cannot be evaluated
    (lambda s: ds.check_integral_patch(CONTACT, LN_PATCH, "weak", s),
     [(0.5, 0.5), (-0.5, 0.2)], False),
    (lambda s: ds.check_integral_patch(CONTACT, LN_PATCH, "weak", s),
     [(-0.5, 0.2), (0.5, 0.5)], DomainError),
    (lambda s: ds.check_integral_patch(
        CONTACT, ds.IntegralPatch(("s", "t"), [S, T, ex.Call("sqrt", S)]), "weak", s),
     [(0.0, 0.0), (0.5, 0.5)], DomainError),
    (lambda s: ds.check_integral_patch(LN_KERNEL, LN_PATCH, "weak", s),
     [(0.5, 0.5), (0.2, 0.3), (-0.5, 0.2), (0.4, 0.1)], DomainError),
], ids=["fail-then-rank", "rank-then-fail", "bracket-fail-then-rank",
        "bracket-rank-then-fail", "fail-then-ln", "ln-then-fail", "sqrt-jacobian",
        "ln-in-a-stack"])
def test_the_first_decisive_sample_decides(check, samples, want):
    assert outcome(check, samples) == want


def test_reference_loops_agree_on_the_ordering_cases():
    for samples in ([(0.5, 0.5), (0.3, 0.0)], [(0.3, 0.0), (0.5, 0.5)]):
        assert_same_patch_verdicts(CONTACT, SQUARE_PATCH, samples)
    for samples in ([(0.5, 0.5), (-0.5, 0.2)], [(-0.5, 0.2), (0.5, 0.5)]):
        assert_same_patch_verdicts(CONTACT, LN_PATCH, samples)
    for coords in ([(0.5, 0.5, 0.0), (0.0, 0.0, 0.0)], [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0)]):
        assert_same_involutivity(VANISHING_SPAN, [Point(c) for c in coords])


def test_ideal_test_domain_error_follows_sample_order():
    # d(w) ^ w = (1/x) dx^dy^dz off x = 0: not involutive where it is defined
    w = form_1({3: ONE, 1: ex.Div(Y, X)})
    dist = Distribution(3, 2, kernel=[w])
    good, bad = Point((0.5, 0.5, 0.5)), Point((0.0, 0.5, 0.5))
    assert outcome(ds._ideal_test, dist, [good, bad], 1e-9) is False
    assert outcome(ds._ideal_test, dist, [bad, good], 1e-9) is DomainError
    for samples in ([good, bad], [bad, good]):
        assert_same_involutivity(dist, samples)


def test_the_per_sample_check_evaluates_every_value_before_it_tests_one():
    # at x1 = 0 the bracket [X1, X2] = (0, 0, 0, 1) is off the span, and
    # [X1, X3] = (0, 0, 0, 0.5/sqrt(x1)) is undefined: the sample raises, as
    # an undefined span field or Jacobian entry does, whichever comes first
    x1 = ex.Var("x1")
    dist = Distribution(4, 3, span=[[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, x1],
                                    [ZERO, ZERO, ONE, ex.Call("sqrt", x1)]],
                        vars=("x1", "x2", "x3", "x4"))
    bad, good = Point((0.0, 0.3, 0.2, 0.1)), Point((0.5, 0.3, 0.2, 0.1))
    for samples in ([bad], [bad, good]):
        assert outcome(ds._bracket_test, dist, samples, 1e-9) is DomainError
    assert outcome(ds._bracket_test, dist, [good, bad], 1e-9) is False


def test_a_domain_error_inside_a_finite_value_still_raises():
    # exp(-1/x) is 0.0 in floating point at x = 0, where 1/x raises
    w = form_1({3: ONE, 1: ex.Mul(Y, ex.Call("exp", ex.Div(ex.Const(-1.0), X)))})
    dist = Distribution(3, 2, kernel=[w])
    good, bad = Point((0.5, 0.5, 0.5)), Point((0.0, 0.5, 0.5))
    assert outcome(ds._ideal_test, dist, [bad, good], 1e-9) is DomainError
    for samples in ([good, bad], [bad, good]):
        assert_same_involutivity(dist, samples)


def assert_stacked_is_evaluate(exprs, xs):
    """compile_w at the stacked values xs of x: evaluate's value, bit for
    bit, where it is finite, and nan where evaluate raises."""
    values = ex.stacked(ex.compile_w(exprs, ("x",)), np.array(xs))
    for e, row in zip(exprs, values):
        for x, got in zip(xs, row.tolist()):
            try:
                want = evaluate(e, {"x": x})
            except (DomainError, ArithmeticError, ValueError):
                assert math.isnan(got), (ex.to_str(e), x)
                continue
            if math.isfinite(want):
                assert got == want, (ex.to_str(e), x)
            else:
                assert not math.isfinite(got), (ex.to_str(e), x)


@pytest.mark.bit_identity
def test_stacked_compile_w_is_finite_where_evaluate_returns_a_finite_value():
    K = ex.Const(1e300)
    big = ex.Mul(ex.Mul(X, K), K)
    exprs = [ex.Div(ONE, ex.Div(ONE, X)), ex.Call("exp", ex.Div(ex.Const(-1.0), X)),
             ex.Call("ln", X), ex.Call("sqrt", X), ex.Pow(X, -1),
             ex.Pow(ex.Div(ONE, X), 0), ex.Call("exp", X), ex.Pow(X, 2),
             ex.Call("sin", big), big, ex.Div(ONE, big), ex.Sub(big, big),
             ex.Call("exp", ex.Const(0.3)), ex.Pow(ex.Const(3.0), -2)]
    assert_stacked_is_evaluate(exprs, [0.0, -1.0, 0.5, 1000.0, 1e200])


@pytest.mark.bit_identity
def test_stacked_compile_w_is_evaluate_on_a_random_corpus():
    # each of the five primitives, quotients and integer powers of random
    # polynomials with sin and cos factors, on and off their domains, each
    # compiled on its own: an undefined subexpression without variables
    # raises DomainError for all samples, and evaluate raises at each
    rng = np.random.default_rng(12)
    exprs = []
    for _ in range(40):
        a, b = (random_scalar_expr(rng, ("x",), trig=True) for _ in range(2))
        exprs += [ex.Call(fn, a) for fn in ex.FUNCTIONS]
        exprs += [ex.Div(a, b), ex.Pow(a, int(rng.integers(-3, 5))),
                  ex.Call("exp", ex.Div(ex.Call("ln", a), b)),
                  ex.Mul(ex.Call("sqrt", b), ex.Pow(ex.Call("cos", a), 2))]
    xs = rng.uniform(-4.0, 4.0, 48).tolist() + [0.0, 1.0, -1.0, 1e3, -1e3]
    raised = 0
    for e in exprs:
        try:
            assert_stacked_is_evaluate([e], xs)
        except DomainError:
            raised += 1
            for x in xs:
                with pytest.raises(DomainError):
                    evaluate(e, {"x": x})
    assert raised < len(exprs) // 10


@pytest.mark.bit_identity
def test_stacked_compile_w_is_not_evaluate_at_a_nan_argument():
    # its bit-identity with evaluate holds at finite arguments only: the
    # power of a nan base is nan, kept as the nan of a base that could not
    # be evaluated, where evaluate's nan ** 0 is 1.0
    e = ex.Pow(X, 0)
    assert evaluate(e, {"x": math.nan}) == 1.0
    assert math.isnan(ex.stacked(ex.compile_w([e], ("x",)), np.array([math.nan]))[0, 0])


# -- 1-jets at the neighbour vertex ------------------------------------------------
#
# compile_jet at y = x + d_1, d_1 the row-1 generators of W(2, n), against
# the tree walk at the same y in W (`reference.tree_walk`): a jet's value and
# tangents are the constant and row-1 coefficients of the walk's value, bit
# for bit, and it raises where the walk raises, with its message.

def same_bits(a, b):
    """Equal shapes and values, zeros of equal sign, nan where nan."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    values = a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    return values and np.array_equal(np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)]))


def w_neighbour(xs):
    """y = x + d_1 in W(2, n), d_1 the row-1 generators: x_i plus
    xi[1, i]; a float x_i is added to it, and an array x_i enters as a
    constant element, as in the coboundary and in Kock's relation."""
    n = len(xs)
    ys = []
    for i, x in enumerate(xs):
        d = NilElement.generator(2, n, 1, i + 1)
        ys.append(x + d if x.__class__ is float else NilElement(2, n, {(0, 0): x}) + d)
    return ys


def w_coefficients(value, n):
    """The constant and row-1 coefficients of a value in W, an absent one
    read as +0.0; an expression without variables is its constant."""
    if not isinstance(value, NilElement):
        return [value + 0.0] + [0.0] * n
    keys = [(0, 0)] + [(1, 1 << a) for a in range(n)]
    assert set(value.terms) <= set(keys), "y has nothing but a constant and row-1 terms"
    return [value.terms.get(key, 0.0) for key in keys]


def jet_outcome(exprs, varnames, xs, compiled=None):
    """Assert that compile_jet at the coordinates xs of x is the tree walk
    at the neighbour y = x + d_1 (`compiled`, the two functions, if given):
    the coefficients, or the DomainError message."""
    n = len(xs)
    ys = w_neighbour(xs)
    jet, fn = compiled or (ex.compile_jet(exprs, varnames), tree_walk(exprs, varnames))
    with np.errstate(all="ignore"):
        try:
            want = fn(*ys)
        except DomainError as err:
            with pytest.raises(DomainError) as raised:
                jet(*xs)
            assert str(raised.value) == str(err)
            return str(err)
        got = jet(*xs)
    assert len(got) == len(exprs) * (n + 1)
    for j, value in enumerate(want):
        for s, coeff in enumerate(w_coefficients(value, n)):
            assert same_bits(got[s * len(exprs) + j], coeff), (ex.to_str(exprs[j]), s)
    return got


def jet_points(rng, n):
    """The coordinates at which to compare: a float point and a stack of
    samples, each with a zero coordinate among them."""
    point = [0.0] + rng.uniform(-2.0, 2.0, n - 1).tolist()
    stack = [np.append(rng.uniform(-2.0, 2.0, 5), 0.0) for _ in range(n)]
    return [point, stack]


def assert_jets_are_the_tree_walk(exprs, varnames, rng):
    compiled = ex.compile_jet(exprs, varnames), tree_walk(exprs, varnames)
    for xs in jet_points(rng, len(varnames)):
        jet_outcome(exprs, varnames, xs, compiled)


@pytest.mark.bit_identity
def test_jet_is_the_tree_walk_on_the_corpus():
    rng = np.random.default_rng(19)
    for _ in range(4):
        exprs = [random_scalar_expr(rng, VARS3, trig=trig) for trig in (False, True) * 4]
        exprs += [e for degree in (1, 2) for e in random_form(rng, degree, 3, VARS3, trig=True).coeffs.values()]
        assert_jets_are_the_tree_walk(exprs, VARS3, rng)


@pytest.mark.bit_identity
def test_jet_is_the_tree_walk_with_every_primitive():
    # each primitive, quotients and integer powers, on and off their domains,
    # each compiled on its own so that one that raises spares the others
    rng = np.random.default_rng(20)
    raised = 0
    for _ in range(12):
        a, b = (random_scalar_expr(rng, ("x", "y"), trig=True) for _ in range(2))
        exprs = [ex.Call(fn, a) for fn in ex.FUNCTIONS]
        exprs += [ex.Div(a, b), ex.Div(ONE, b), ex.Div(a, ex.Const(3.0)),
                  ex.Pow(a, int(rng.integers(-3, 5))), ex.Sub(ONE, a), ex.Neg(a),
                  ex.Call("exp", ex.Div(ex.Call("ln", a), b)),
                  ex.Mul(ex.Call("sqrt", b), ex.Pow(ex.Call("cos", a), 2))]
        for e in exprs:
            compiled = ex.compile_jet([e], ("x", "y")), tree_walk([e], ("x", "y"))
            for xs in jet_points(rng, 2):
                raised += isinstance(jet_outcome([e], ("x", "y"), xs, compiled), str)
    assert raised, "some expressions leave their domain at some point"


@pytest.mark.bit_identity
def test_jet_is_the_tree_walk_on_the_benchmark_objects():
    rng = np.random.default_rng(21)
    for text in perfbench_connection_sources():
        conn = next(iter(parse(text).conns.values()))
        assert_jets_are_the_tree_walk(conn._entries, conn.vars, rng)
    for prog in perfbench_programs(3):
        for dist in prog.dists.values():
            exprs = dist._kernel_coeffs if dist.kernel else [c for v in dist.span for c in v]
            assert_jets_are_the_tree_walk(exprs, dist.vars, rng)


K = ex.Const(1e300)
JET_EDGES = {
    # the tangent part is zero, so the lift stops at order 0, where sqrt'(0)
    # would raise
    "sqrt(x - x)": (ex.Call("sqrt", ex.Sub(X, X)), None),
    # ln'(1e-310) overflows
    "ln at 1e-310": (ex.Call("ln", X), "ln at constant term 1e-310: a derivative overflows"),
    "1/(x - x)": (ex.Div(ONE, ex.Sub(X, X)),
                  "reciprocal at constant term 0.0: float division by zero"),
    "0*x": (ex.Mul(ZERO, ex.Mul(ex.Mul(X, K), K)), None),
    "pow(x, 0)": (ex.Pow(X, 0), None),
    "x*1e300*1e300": (ex.Mul(ex.Mul(X, K), K), None),
    # an absent coefficient times an infinite one is no term, not nan
    "x*(y*1e300*1e300)": (ex.Mul(X, ex.Mul(ex.Mul(Y, K), K)), None),
    # a scaling keeps the -0.0 it underflows to, and so does a sum
    "a scaling underflows": (ex.Add(ex.Mul(ex.Mul(X, ex.Const(-1e-200)), ex.Const(1e-200)), Y),
                             None),
}


@pytest.mark.bit_identity
@pytest.mark.parametrize("name", JET_EDGES)
def test_jet_is_compile_w_at_the_edges(name):
    # x and y = 0.25, with the tangents xi[1, 1] and xi[1, 2]
    e, message = JET_EDGES[name]

    def at(x):
        return jet_outcome([e], ("x", "y"), [x, 0.25])

    for x in (0.0, 1e-310, 0.5, -2.0):
        at(x)
    stack = np.array([0.0, 1e-310, 0.5, math.nan])
    got = jet_outcome([e], ("x", "y"), [stack, np.full(4, 0.25)])
    if name == "pow(x, 0)":  # nan at the nan sample, as the walk's lift gives
        assert np.isnan(got[0][3]) and got[0][:3].tolist() == [1.0] * 3
    if message:
        assert at(1e-310 if name == "ln at 1e-310" else 0.5) == message
    expected = {"sqrt(x - x)": ((0.5,), (0.0, 0.0, 0.0)),
                "0*x": ((0.5,), (0.0, 0.0, 0.0)),  # the float 0 drops the inf tangent
                "x*1e300*1e300": ((0.0,), (0.0, math.inf, 0.0)),
                "x*(y*1e300*1e300)": ((0.0,), (0.0, math.inf, 0.0)),
                "a scaling underflows": ((0.5,), (0.25, -0.0, 1.0))}
    if name in expected:
        args, want = expected[name]
        assert all(map(same_bits, at(*args), want))


# eval_generic of a combinatorial form built from classical ones reads each
# face of the generic simplex by its vertex labels: a coefficient at a vertex
# x + d_r is its 1-jet (`ClassicalForm.coeff_jet`), and a determinant the
# face's memoised map.  Its value is the coordinate path's, theta at the
# generic offsets, term for term and bit for bit, and it raises where that
# path raises, with its message.

def generic_outcome(value):
    """A value on the generic simplex as {monomial: float.hex}, a float as
    eval_generic's constant element, or the message of the DomainError that
    computing it raises."""
    try:
        value = value()
    except DomainError as err:
        return str(err)
    if not isinstance(value, NilElement):
        value = NilElement.constant(0, 1, value)
    return {key: float.hex(c) for key, c in value.terms.items()}


def assert_faces_are_the_coordinate_path(theta, coordinate, base):
    """eval_generic of theta against `coordinate`, the same form in
    coordinates (`reference.CoordinateForm`), at the generic offsets."""
    got = generic_outcome(lambda: eval_generic(theta, base))
    want = generic_outcome(lambda: coordinate(base.coords,
                                              generic_offsets(theta.degree, theta.n)))
    assert got == want
    return got


def d_and_wedges(forms):
    """d of each form, and the wedge of each pair, in both orders: pairs of
    the form and the same form in coordinates."""
    pairs = [(to_combinatorial(f), ref_to_combinatorial(f)) for f in forms]
    return ([(d_comb(t), ref_d_comb(r)) for t, r in pairs]
            + [(wedge_comb(a, b), ref_wedge_comb(ra, rb))
               for a, ra in pairs for b, rb in pairs])


@pytest.mark.bit_identity
def test_generic_faces_are_the_coordinate_path():
    gen = _load_perfbench_gen()
    for seed in (1, 3, 7):
        sources, ops = gen.forms_dense(seed)
        programs = {name: parse(text) for name, text in sources.items()}
        for op in ops:  # among them d(u), u a 3-form in dimension 8
            forms = [programs[op["file"]].forms[name] for name in op["forms"]]
            thetas = [to_combinatorial(f) for f in forms]
            coordinates = [ref_to_combinatorial(f) for f in forms]
            pair = ((d_comb(*thetas), ref_d_comb(*coordinates)) if op["op"] == "d" else
                    (wedge_comb(*thetas), ref_wedge_comb(*coordinates)))
            assert isinstance(assert_faces_are_the_coordinate_path(*pair, Point(op["point"])),
                              dict)
    rng = np.random.default_rng(33)
    for _ in range(12):  # the trig form corpus, degrees 0 to 3
        n = int(rng.integers(2, 5))
        forms = [random_form(rng, int(rng.integers(0, min(n, 3) + 1)), n, trig=True)
                 for _ in range(2)]
        base = Point(rng.uniform(-1.0, 1.0, n).round(3))
        for pair in d_and_wedges(forms):
            assert_faces_are_the_coordinate_path(*pair, base)
    # every primitive, quotients and integer powers, of a coordinate and of a
    # corpus expression, on and off their domains: sqrt at 0 is defined at x
    # and not at the vertex x + d_1, where its derivative is taken
    x1, vars = ex.Var("x1"), ("x1", "x2")
    raised = set()
    for _ in range(4):
        a, b = (random_scalar_expr(rng, vars, trig=True) for _ in range(2))
        for arg in (x1, a):
            for e in ([ex.Call(fn, arg) for fn in ex.FUNCTIONS]
                      + [ex.Div(b, arg), ex.Div(ONE, arg), ex.Pow(arg, -2), ex.Pow(arg, 3)]):
                forms = [ClassicalForm(1, 2, {(1,): e, (2,): b}, vars),
                         ClassicalForm(0, 2, {(): e}, vars), ClassicalForm(1, 2, {(2,): a}, vars)]
                for x in (0.0, -0.5, 0.5, 1e-310):
                    for pair in d_and_wedges(forms):
                        outcome = assert_faces_are_the_coordinate_path(
                            *pair, Point((x, float(rng.uniform(-1.0, 1.0)))))
                        if isinstance(outcome, str):
                            raised.add(outcome.split(" ")[0])
    assert {"ln", "sqrt", "reciprocal", "power"} <= raised, raised


# A face at a vertex x + d_r adds each coefficient's value and tangents,
# the jet's raw coefficients, times the memoised terms of the determinant and
# of xi[r, i] times it (the jet slots of `forms._FACE_DETS`), with no W
# element per coefficient.  Its value is that of a NilElement per
# coefficient times the determinant map (`reference.ref_jet_faces`): the
# same terms in the same order, bit for bit, at float and at array
# coordinates, and the same DomainError.

def ordered_outcome(value):
    """A face value as its (monomial, coefficient class, float.hex of each
    sample) in term order, or the message of the DomainError that computing
    it raises."""
    try:
        value = value()
    except DomainError as err:
        return str(err)
    return [(key, type(c).__name__, [float.hex(v) for v in np.ravel(c).tolist()])
            for key, c in value.terms.items()]


def jet_face_pairs(forms):
    """Each form, d of each and the wedge of each pair in both orders:
    pairs of the library's form and the same form on `ref_jet_faces`."""
    pairs = [(to_combinatorial(f), ref_jet_faces(f)) for f in forms]
    return (pairs + [(d_comb(t), d_comb(r)) for t, r in pairs]
            + [(wedge_comb(a, b), wedge_comb(ra, rb)) for a, ra in pairs for b, rb in pairs])


def assert_jet_faces(theta, oracle, x):
    """theta's value on the generic simplex at the coordinates x (floats or
    arrays over samples), its face of all vertices, against the oracle's."""
    face = tuple(range(theta.degree + 1))
    got = ordered_outcome(lambda: theta.on_face(x, theta.degree, face))
    assert got == ordered_outcome(lambda: oracle.on_face(x, theta.degree, face))
    return got


@pytest.mark.bit_identity
def test_slot_tables_are_the_jet_faces():
    gen = _load_perfbench_gen()
    for seed in range(1, 6):
        sources, ops = gen.forms_dense(seed)
        programs = {name: parse(text) for name, text in sources.items()}
        for op in ops:
            forms = [programs[op["file"]].forms[name] for name in op["forms"]]
            combine = d_comb if op["op"] == "d" else wedge_comb
            theta = combine(*[to_combinatorial(f) for f in forms])
            oracle = combine(*[ref_jet_faces(f) for f in forms])
            assert isinstance(assert_jet_faces(theta, oracle, op["point"]), list)
    rng = np.random.default_rng(35)
    for _ in range(12):  # the trig form corpus, degrees 0 to 3, at points and at samples
        n = int(rng.integers(2, 5))
        forms = [random_form(rng, int(rng.integers(0, min(n, 3) + 1)), n, trig=True)
                 for _ in range(2)]
        X = rng.uniform(-1.0, 1.0, (n, 5)).round(3)
        for pair in jet_face_pairs(forms):
            assert_jet_faces(*pair, tuple(X[:, 0].tolist()))
            assert_jet_faces(*pair, list(X))
    # every primitive, quotients and integer powers, of a coordinate and of a
    # corpus expression, on and off their domains, at points and at samples
    # among which some are off them (nan there)
    x1, vars = ex.Var("x1"), ("x1", "x2")
    outcomes = set()
    for _ in range(3):
        a, b = (random_scalar_expr(rng, vars, trig=True) for _ in range(2))
        for arg in (x1, a):
            for e in ([ex.Call(fn, arg) for fn in ex.FUNCTIONS]
                      + [ex.Div(b, arg), ex.Div(ONE, arg), ex.Pow(arg, -2), ex.Pow(arg, 3)]):
                forms = [ClassicalForm(1, 2, {(1,): e, (2,): b}, vars),
                         ClassicalForm(0, 2, {(): e}, vars), ClassicalForm(1, 2, {(2,): a}, vars)]
                y = float(rng.uniform(-1.0, 1.0))
                for pair in jet_face_pairs(forms):
                    for x in (0.0, -0.5, 0.5, 1e-310):
                        outcome = assert_jet_faces(*pair, (x, y))
                        outcomes.add("raises" if isinstance(outcome, str) else "value")
                samples = [np.array([0.0, -0.5, 0.5, 1e-310]), np.full(4, y)]
                for pair in jet_face_pairs(forms):
                    with np.errstate(all="ignore"):
                        outcome = assert_jet_faces(*pair, samples)
                    if not isinstance(outcome, str) and any(
                            "nan" in bits for _, _, bits in outcome):
                        outcomes.add("nan samples")
    assert outcomes == {"raises", "value", "nan samples"}
    # a 3-form whose coefficients are mostly without variables: on the face
    # (1, 2, 3, 4) of d of it, such a coefficient times its determinant's
    # terms rounds apart from the coefficient times its products' terms
    vars = ("x1", "x2", "x3", "x4")
    for _ in range(12):
        coeffs = {T: ex.Const(float(rng.uniform(-3.0, 3.0)))
                  for T in ((1, 2, 3), (1, 2, 4), (1, 3, 4))}
        coeffs[(2, 3, 4)] = random_scalar_expr(rng, vars, trig=True)
        form = ClassicalForm(3, 4, coeffs, vars)
        X = rng.uniform(-1.0, 1.0, (4, 3))
        for pair in jet_face_pairs([form]):
            assert_jet_faces(*pair, tuple(X[:, 0].tolist()))
            assert_jet_faces(*pair, list(X))
    # the precondition of semi-annihilation: d of each kernel form of the
    # checks_sparse programs on the generic 2-simplex at stacked samples
    for seed in range(1, 6):
        for prog in perfbench_programs(seed):
            X = np.array([p.coords for p in sample_box([(-1.0, 1.0)] * prog.dim, 16, seed)])
            for dist in prog.dists.values():
                for w in dist.kernel or ():
                    theta, oracle = d_comb(to_combinatorial(w)), d_comb(ref_jet_faces(w))
                    assert isinstance(assert_jet_faces(theta, oracle, list(X.T)), list)


# A face's plan (`ClassicalForm._face_plan`, memoised on the form) lists
# the jet slots that the face adds: at a vertex, only those that
# `compile_jet` did not write as the literal 0.0.  Every slot it leaves out
# must be exactly +0.0, at float and at array coordinates; then the face
# adds what it would add with every slot listed.

def forms_for_plans(rng):
    """The forms of perfbench's forms_dense programs at seeds 1 to 5, the
    trig form corpus, and forms whose coefficients' variables cancel when
    compiling."""
    gen = _load_perfbench_gen()
    forms = [f for seed in range(1, 6) for text in gen.forms_dense(seed)[0].values()
             for f in parse(text).forms.values()]
    for _ in range(12):
        n = int(rng.integers(2, 5))
        forms.append(random_form(rng, int(rng.integers(0, min(n, 3) + 1)), n, trig=True))
    x1, x2, vars = ex.Var("x1"), ex.Var("x2"), ("x1", "x2")
    cancel = [ex.Sub(x1, x1), ex.Mul(ZERO, x2), ex.Add(ex.Mul(x1, ZERO), ONE)]
    forms += [ClassicalForm(1, 2, {(1,): cancel[0], (2,): cancel[1]}, vars),
              ClassicalForm(2, 2, {(1, 2): cancel[2]}, vars),
              ClassicalForm(0, 2, {(): cancel[0]}, vars),
              ClassicalForm(1, 2, {(1,): ex.Mul(cancel[1], x1), (2,): ex.Call("sin", cancel[0])},
                            vars)]
    return forms


@pytest.mark.bit_identity
def test_face_plans_leave_out_only_zero_jet_slots():
    rng = np.random.default_rng(36)
    left_out = 0
    for form in forms_for_plans(rng):
        theta = to_combinatorial(form)
        for combined in (theta, d_comb(theta), wedge_comb(theta, theta)):
            if combined.degree <= form.n:  # fills the plans of the faces it reads
                eval_generic(combined, Point([0.5] * form.n))
        X = rng.uniform(-1.0, 1.0, (form.n, 4)).round(3)
        points = [tuple(X[:, 0].tolist()), list(X), [np.append(X[i], 0.0) for i in range(form.n)]]
        for (k, face), plan in form._plans.items():
            if not face[0]:
                assert [j for j, _ in plan] == list(range(len(form.coeffs)))
                continue
            listed = {i for i, _ in plan}
            assert len(listed) == len(plan)
            for x in points:
                with np.errstate(all="ignore"):
                    values = form.coeff_jet().fn(*x)
                out = [i for i in range(len(values)) if i not in listed]
                assert all(values[i].__class__ is float and float.hex(values[i]) == "0x0.0p+0"
                           for i in out), (form, face, out)
                left_out += len(out)
        oracle = ref_jet_faces(form)
        for pair in [(theta, oracle), (d_comb(theta), d_comb(oracle))]:
            if pair[0].degree <= form.n:
                for x in points:
                    with np.errstate(all="ignore"):
                        assert_jet_faces(*pair, x)
    assert left_out, "some slots are left out"


def test_a_form_builds_each_face_plan_once(monkeypatch):
    fills = []
    build = ClassicalForm._face_plan

    def counting_face_plan(form, k, face):
        fills.append((id(form), k, face))
        return build(form, k, face)

    monkeypatch.setattr(ClassicalForm, "_face_plan", counting_face_plan)
    gen = _load_perfbench_gen()
    sources, ops = gen.forms_dense(2)
    programs = {name: parse(text) for name, text in sources.items()}
    per_round = []
    for _ in range(2):  # two to_combinatorial calls on each form
        for op in ops:
            forms = [programs[op["file"]].forms[name] for name in op["forms"]]
            combine = d_comb if op["op"] == "d" else wedge_comb
            eval_generic(combine(*[to_combinatorial(f) for f in forms]), Point(op["point"]))
        per_round.append(len(fills))
    assert per_round[0] and per_round[1] == per_round[0], per_round
    assert len(set(fills)) == len(fills)


def random_term_map(rng, k, n, size, arrays):
    """A term map of W(k, n) of up to `size` terms, coefficients small
    integers (so that sums cancel to 0.0) or, with `arrays`, arrays of them
    over 3 samples, and some float zeros."""
    out = {}
    for _ in range(size):
        r = int(rng.integers(0, min(k, n) + 1))
        rows = rng.choice(k, r, replace=False) if r else []
        cols = rng.choice(n, r, replace=False) if r else []
        key = (sum(1 << int(i) for i in rows), sum(1 << int(i) for i in cols))
        if arrays and rng.random() < 0.4:
            out[key] = rng.integers(-2, 3, 3).astype(float)
        else:
            out[key] = float(rng.integers(-2, 3))
    return out


@pytest.mark.bit_identity
def test_filtered_muladd_is_the_unfiltered_kernel():
    rng = np.random.default_rng(36)
    for trial in range(400):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        arrays = trial % 2 == 1
        a, b = (random_term_map(rng, k, n, int(rng.integers(0, 12)), arrays) for _ in range(2))
        start = random_term_map(rng, k, n, int(rng.integers(0, 8)), arrays)
        c = float(rng.choice([1.0, -1.0, 0.5, 3.0, 0.0]))
        got, want = dict(start), dict(start)
        _elem_muladd(got, c, a, b)
        ref_elem_muladd(want, c, a, b)
        assert ordered_outcome(lambda: NilElement(k, n, got)) == \
            ordered_outcome(lambda: NilElement(k, n, want))


# -- one ulp apart ----------------------------------------------------------------
#
# y*1e10*(f(x) - F)*(x - x1) at two samples, F the value of f at x0 one ulp
# up, vanishes at x0 only in an f one ulp up, and at x1 in any f.  numpy's f
# is replaced by such an f: a stack that evaluated f through numpy would
# pass x0, where the loop, through math, fails.

SAMPLES16 = sample_box([(-1.0, 1.0)] * 3, 2, seed=16)
ULP_CASES = [("exp", math.exp, lambda e: ex.Call("exp", e), ()),
             ("power", math.pow, lambda e: ex.Pow(e, -2), (-2,))]


def one_ulp_apart(case, monkeypatch):
    name, fn, call, args = case
    up = np.vectorize(fn, otypes=[float])
    monkeypatch.setattr(np, name, lambda *a, **kw: np.nextafter(up(*a), np.inf))
    x0, x1 = (p.coords[0] for p in SAMPLES16)
    F = math.nextafter(fn(x0, *args), math.inf)
    return ex.Mul(ex.Mul(ex.Mul(Y, ex.Const(1e10)), ex.Sub(call(X), ex.Const(F))),
                  ex.Sub(X, ex.Const(x1)))


@pytest.mark.bit_identity
@pytest.mark.parametrize("case", ULP_CASES, ids=["exp", "pow"])
def test_screens_evaluate_as_the_loop_one_ulp_apart(case, monkeypatch):
    f = one_ulp_apart(case, monkeypatch)
    kernel = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Neg(f)})])
    span = Distribution(3, 2, span=[[ONE, ZERO, f], [ZERO, ONE, ZERO]], vars=VARS3)
    flat = ds.IntegralPatch(("s", "t"), [S, T, ZERO])
    params = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * 2, 2, seed=16)]
    for check, dist in ((ds._ideal_test, kernel), (ds._bracket_test, span)):
        assert [check(dist, [p], ds.DEFAULT_TOL) for p in SAMPLES16] == [False, True]
        assert check(dist, SAMPLES16, ds.DEFAULT_TOL) is False
        assert_same_involutivity(dist, SAMPLES16)
    assert ds.check_integral_patch(kernel, flat, "weak", params) is False
    assert_same_patch_verdicts(kernel, flat, params)


@pytest.mark.bit_identity
@pytest.mark.parametrize("case", ULP_CASES, ids=["exp", "pow"])
def test_check_integral_fails_one_ulp_apart(case, monkeypatch, tmp_path):
    f = one_ulp_apart(case, monkeypatch)
    path = tmp_path / "ulp.sdg"
    path.write_text(f"dim 3\nvar x y z\nform w = dz - ({ex.to_str(f)})*dx\n"
                    "dist D = ker(w)\npatch P(s, t) = (s, t, 0)\n")
    out = io.StringIO()
    code = cli.run(["check-integral", "--file", str(path), "--dist", "D", "--patch", "P",
                    "--mode", "weak", "--samples", "2", "--seed", "16"],
                   stdout=out, stderr=io.StringIO())
    assert code == 1, out.getvalue()


def test_non_finite_jacobian_decides_as_the_loop():
    # d/ds (s*K*K) = inf at the origin, where the point itself is finite; the
    # per-sample rank check counts no singular value of that Jacobian
    K = ex.Const(1e300)
    patch = ds.IntegralPatch(("s", "t"), [S, T, ex.Mul(ex.Mul(S, K), K)])
    dist = Distribution(3, 2, kernel=[form_1({3: ONE})])
    with np.errstate(over="ignore", invalid="ignore"):
        for samples in ([(0.0, 0.0)], [(0.0, 0.0), (0.0, 0.5)]):
            assert outcome(ds.check_integral_patch, dist, patch, "weak", samples) == (
                RankDeficiencyError, "patch Jacobian rank-deficient at (0.0, 0.0)")
            assert_same_patch_verdicts(dist, patch, samples)


# -inf*0 = nan in u's coefficient and a's third component at x = 0, +-inf at
# x, y != 0; P's point is finite only where s*t = 0, and N's Jacobian has the
# entry inf*t, nan at t = 0, where N's point is finite
NON_FINITE = parse("dim 3\nvar x y z\nform u = dz - (y*1e300*1e300*x)*dx\ndist E = ker(u)\n"
                   "vector a = (1, 0, y*1e300*1e300*x)\nvector b = (0, 1, 0)\n"
                   "dist S = span(a, b)\npatch P(s, t) = (s, t, s*t*1e300*1e300 + 1)\n"
                   "patch N(s, t) = (s, t, s*1e300*1e300*t)\n")


@pytest.mark.parametrize("where", [(0.0, 0.5, 0.0), (1.0, 0.5, 0.0)], ids=["nan", "inf"])
def test_a_non_finite_frame_counts_no_singular_value(where):
    # a nan entry made numpy's SVD raise LinAlgError, a ValueError; the
    # frame at a non-finite one-row stack now raises the rank message, which
    # an infinite entry already raised
    finite = [Point((0.3, 0.0, 0.1)), Point((0.2, 0.0, 0.5))]
    p = Point(where)
    for dist, what, check in ((NON_FINITE.dists["E"], "kernel forms",
                               ds.check_involutive_combinatorial),
                              (NON_FINITE.dists["S"], "span fields",
                               ds.pointwise_involutive_span)):
        want = (RankDeficiencyError, f"{what} rank-deficient at {where}")
        for method in (dist.basis_at, partial(kernel_matrix, dist), partial(span_matrix, dist)):
            assert full_outcome(method, p) == want
        for samples in ([p], finite + [p], finite + [p] + finite):
            assert full_outcome(check, dist, samples) == want
    # the ideal test reads the kernel forms' rank verdict, and the bracket
    # test the frame, before their values
    assert full_outcome(ds.check_involutive_classical, NON_FINITE.dists["E"], [p]) == (
        RankDeficiencyError, f"kernel forms rank-deficient at {where}")
    assert full_outcome(ds.check_involutive_classical, NON_FINITE.dists["S"], [p]) == want


def test_a_non_finite_patch_point_is_a_numeric_failure():
    # point_at raised Point's ValueError
    patch, want = NON_FINITE.patches["P"], "non-finite patch point at parameters (0.5, 0.25)"
    with pytest.raises(DomainError, match=r"^non-finite patch point at parameters \(0\.5, 0\.25\)$"):
        patch.point_at((0.5, 0.25))
    for samples in ([(0.5, 0.25)], [(0.0, 0.0), (0.0, 0.0), (0.5, 0.25)]):
        for mode in ("weak", "strong"):
            assert full_outcome(ds.check_integral_patch, CONTACT, patch, mode, samples) == (
                DomainError, want)
        assert_same_patch_verdicts(CONTACT, patch, samples)
    # a nan Jacobian entry at a finite point counts no singular value
    patch, want = NON_FINITE.patches["N"], "patch Jacobian rank-deficient at (0.0, 0.0)"
    assert full_outcome(partial(jacobian_at, patch), (0.0, 0.0)) == (RankDeficiencyError, want)
    assert full_outcome(ds.check_integral_patch, CONTACT, patch, "weak", [(0.0, 0.0)]) == (
        RankDeficiencyError, want)


def test_a_point_of_another_dimension_is_named():
    # the checks raised numpy's "cannot reshape", and basis_at, kernel_matrix
    # and span_matrix the compiled function's TypeError
    flat = Distribution(3, 2, kernel=[form_1({3: ONE})])
    flat_span = Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]], vars=VARS3)
    theta = d_comb(to_combinatorial(flat.kernel[0]))
    good, bad = Point((0.1, 0.2, 0.3)), Point((0.0, 1.0))
    want = (ValueError, "point (0.0, 1.0) is not in the 3-dimensional chart")
    checks = [partial(ds.check_involutive_combinatorial, flat),
              partial(ds.pointwise_involutive_span, flat_span),
              partial(ds.check_involutive_classical, flat),
              partial(ds.check_involutive_classical, flat_span),
              partial(ds.semi_annihilation_check, flat, theta)]
    for check in checks:
        assert check([good, good, good])
        for samples in ([bad], [good, bad], [good, bad, good], [good, good, good, bad]):
            assert full_outcome(check, samples) == want
    for dist in (flat, flat_span):
        for method in (dist.basis_at, partial(kernel_matrix, dist), partial(span_matrix, dist)):
            assert full_outcome(method, bad) == want


LN_CHART = parse("dim 3\nvar x y z\nform w = dz - ln(x)*dy\nform f = dz\n"
                 "dist D = ker(w)\ndist F = ker(f)\npatch P(s, t) = (ln(s), t, 0)\n")


@pytest.mark.parametrize("earlier, want, patch_want", [
    (-1.0, (DomainError, "ln of -1.0"), (DomainError, "ln of -1.0")),
    (0.6, (ValueError, "point (0.1, 0.2) is not in the 3-dimensional chart"),
     (ValueError, "parameters (0.1,) are not the patch's 2: s, t")),
], ids=["earlier-sample-undefined", "earlier-samples-pass"])
def test_a_malformed_later_sample_raises_after_an_earlier_error(earlier, want, patch_want):
    # the stack of the later samples raised the malformed sample's
    # ValueError before the one-sample call at the undefined sample
    samples = [Point((0.5, 0.1, 0.1)), Point((earlier, 0.2, 0.3)), Point((0.1, 0.2))]
    assert full_outcome(ds.check_involutive_combinatorial, LN_CHART.dists["D"], samples) == want
    params = [(0.5, 0.5), (earlier, 0.5), (0.1,)]
    for mode in ("weak", "strong"):
        assert full_outcome(ds.check_integral_patch, LN_CHART.dists["F"],
                            LN_CHART.patches["P"], mode, params) == patch_want


@pytest.mark.parametrize("bad, message", [
    ((0.1,), "parameters (0.1,) are not the patch's 2: s, t"),
    ((0.1, 0.2, 0.3), "parameters (0.1, 0.2, 0.3) are not the patch's 2: s, t"),
    ((), "parameters () are not the patch's 2: s, t"),
], ids=["short", "long", "empty"])
def test_parameters_of_another_length_are_named(bad, message):
    # they raised the compiled function's TypeError (`_f() missing 1 required
    # positional argument`, `takes 2 positional arguments but 3 were given`),
    # or in a stack numpy's ValueError on an inhomogeneous shape
    flat = Distribution(3, 2, kernel=[form_1({3: ONE})])
    patch = ds.IntegralPatch(("s", "t"), [S, T, ZERO])
    good = (0.1, 0.2)
    want = (ValueError, message)
    for mode in ("weak", "strong"):
        assert ds.check_integral_patch(flat, patch, mode, [good, good, good])
        for samples in ([bad], [good, bad], [good, bad, good], [good, good, good, bad]):
            assert full_outcome(ds.check_integral_patch, flat, patch, mode, samples) == want
    for method in (patch.point_at, partial(jacobian_at, patch)):
        assert full_outcome(method, bad) == want


@pytest.mark.parametrize("start", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)], ids=["short", "long"])
def test_a_leaf_start_of_another_dimension_is_named(start):
    # both raised the compiled RK4 step's TypeError
    span = Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]], vars=VARS3)
    assert len(ds.trace_leaf(span, Point((0.1, 0.2, 0.3)), 3, 1e-3)) == 4
    assert full_outcome(ds.trace_leaf, span, Point(start), 3, 1e-3) == (
        ValueError, f"point {start} is not in the 3-dimensional chart")


def test_no_samples_raise(monkeypatch):
    # a check over no sample would pass vacuously: each of the five raises
    # before its sample driver runs, also the semi-annihilation check, which
    # zips its samples with the driver's outcomes
    def no_driver(samples, check):
        raise AssertionError("the sample driver ran")

    monkeypatch.setattr(ds, "_in_order", no_driver)
    flat = ds.IntegralPatch(("s", "t"), [S, T, ZERO])
    theta = d_comb(to_combinatorial(CONTACT.kernel[0]))
    checks = [lambda s: ds.check_involutive_combinatorial(CONTACT, s),
              lambda s: ds.pointwise_involutive_span(VANISHING_SPAN, s),
              lambda s: ds.check_involutive_classical(CONTACT, s),
              lambda s: ds.check_involutive_classical(VANISHING_SPAN, s),
              lambda s: ds.check_integral_patch(CONTACT, flat, "weak", s),
              lambda s: ds.check_integral_patch(CONTACT, flat, "strong", s),
              lambda s: ds.semi_annihilation_check(CONTACT, theta, s)]
    for check in checks:
        for samples in ([], (), iter([])):
            with pytest.raises(ValueError, match="^no samples to check$"):
                check(samples)


def test_within_tol_is_elementwise_on_arrays():
    values = np.array([0.0, -1e-12, 1e-9, 2e-9, np.nan, np.inf, -np.inf])
    assert within_tol(values, 1e-9).tolist() == [True, True, True, False, False,
                                                 False, False]
    tols = np.array([0.0, 0.0, 1.0, 1e-8, np.inf, np.inf, np.inf])
    assert within_tol(values, tols).tolist() == [True, False, True, True, False,
                                                 False, False]
    assert within_tol(np.float64(np.nan), 1.0) is False


# -- each object differentiates once -------------------------------------------------

def test_each_object_differentiates_once(monkeypatch):
    calls = []
    diff = ex.diff

    def counting_diff(e, var):
        calls.append(var)
        return diff(e, var)

    monkeypatch.setattr(ex, "diff", counting_diff)
    points = sample_box([(-1.0, 1.0)] * 3, 4, seed=1)
    params = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * 2, 4, seed=2)]
    kernel = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Call("sin", Y)})])
    span = Distribution(3, 2, span=[[ONE, ZERO, ex.Mul(X, Y)], [ZERO, ONE, ex.Call("exp", X)]],
                        vars=VARS3)
    patch = ds.IntegralPatch(("s", "t"), [S, T, ex.Mul(S, ex.Call("cos", T))])
    prog = parse(perfbench_connection_sources()[0])
    conn = next(iter(prog.conns.values()))
    conn_points = sample_box([(-1.0, 1.0)] * conn.n, 4, seed=3)
    checks = [lambda: ds.check_involutive_classical(kernel, points),
              lambda: ds.check_involutive_classical(span, points),
              lambda: ds.check_integral_patch(kernel, patch, "strong", params),
              lambda: [cn.curvature_classical_oracle(conn, p) for p in conn_points]]
    for check in checks:
        calls.clear()
        check()
        assert calls, "the first call differentiates"
        calls.clear()
        check()
        assert calls == []


def test_each_object_compiles_each_expression_list_once(monkeypatch):
    # one compiled function per expression list serves one point, a
    # neighbour in W and the stacked samples alike, and one more compiled
    # jet (`compile_jet`) the neighbours of the coboundary and the relation
    # (for KERNEL input, that of each kernel form, `coeff_jet`)
    compiled, functions, stacked_calls = [], set(), []
    compile_w, compile_jet, stacked = ex.compile_w, ex.compile_jet, ex.stacked

    def counting_compile_w(exprs, varnames):
        exprs = list(exprs)
        compiled.append(tuple(map(ex.to_str, exprs)))
        fn = compile_w(exprs, varnames)
        functions.add(fn)
        return fn

    def counting_compile_jet(exprs, varnames):
        exprs = list(exprs)
        compiled.append(("jet",) + tuple(map(ex.to_str, exprs)))
        return compile_jet(exprs, varnames)

    def checked_stacked(fn, *arrays):
        assert fn in functions
        stacked_calls.append(fn)
        return stacked(fn, *arrays)

    monkeypatch.setattr(ex, "compile_w", counting_compile_w)
    monkeypatch.setattr(ex, "compile_jet", counting_compile_jet)
    monkeypatch.setattr(ex, "stacked", checked_stacked)
    points = sample_box([(-1.0, 1.0)] * 3, 4, seed=1)
    params = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * 2, 4, seed=2)]
    # neither distribution is involutive, nor the patch integral: the
    # stacks and the one-sample calls at the first samples decide
    kernel = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Call("sin", Y)})])
    span = Distribution(3, 2, span=[[ONE, ZERO, ex.Mul(X, Y)], [ZERO, ONE, ex.Call("exp", X)]],
                        vars=VARS3)
    patch = ds.IntegralPatch(("s", "t"), [S, T, ex.Mul(S, ex.Call("cos", T))])
    conn = next(iter(parse(perfbench_connection_sources()[0]).conns.values()))
    conn_points = sample_box([(-1.0, 1.0)] * conn.n, 4, seed=3)
    t = ex.Var("t")
    curve = [ex.Mul(ex.Const(0.1 * (i + 1)), ex.Call("cos", t)) for i in range(conn.n)]
    checks = [lambda: ds.check_involutive_classical(kernel, points),
              lambda: ds.check_involutive_classical(kernel, points[:1]),
              lambda: ds.check_involutive_combinatorial(kernel, points),
              lambda: ds.check_involutive_classical(span, points),
              lambda: ds.check_involutive_classical(span, points[:1]),
              lambda: ds.pointwise_involutive_span(span, points),
              lambda: ds.check_integral_patch(kernel, patch, "strong", params),
              lambda: ds.check_integral_patch(span, patch, "weak", params[:1]),
              lambda: [cn.curvature_coboundary(conn, p) for p in conn_points],
              lambda: [cn.curvature_classical_oracle(conn, p) for p in conn_points],
              lambda: cn.parallel_transport(conn, curve, 0.0, 1.0, 20)]
    for check in checks:
        check()
    assert stacked_calls, "the checks and the transport evaluate stacked samples"
    assert len(compiled) == len(set(compiled)), "no expression list compiles twice"
    assert sum(c[0] == "jet" for c in compiled) == 3, "the kernel, span and connection jets"
    curve_list = compiled[-1]
    assert len(curve_list) == 2 * conn.n
    compiled.clear()
    for check in checks:
        check()
    # a curve is an argument, compiled once per transport
    assert compiled == [curve_list]


# -- the flat-simplex checks: one W evaluation for all samples ----------------------

def full_outcome(fn, *args):
    """The result, or the type and the message of the raised exception."""
    try:
        return fn(*args)
    except (SdgError, ValueError) as err:
        return (type(err), str(err))


def _semi(dist, theta, samples, rng, tol):
    result = ds.semi_annihilation_check(dist, theta, samples, rng, tol)
    return result.precondition, result.conclusion


def assert_same_flat_checks(dist, samples, tol=ds.DEFAULT_TOL, semi=True):
    """check_involutive_combinatorial and, with `semi`, the semi-annihilation
    check of each d(omega_i) against their loops: the same result or
    exception, and the same random draws.  Returns the involutivity outcome."""
    got = full_outcome(ds.check_involutive_combinatorial, dist, samples, tol)
    assert got == full_outcome(ref_relation, dist, samples, tol)
    for w in dist.kernel if semi else ():
        theta = d_comb(to_combinatorial(w))
        rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
        assert full_outcome(_semi, dist, theta, samples, rng_got, tol) == full_outcome(
            ref_semi_annihilation_check, dist, w, samples, rng_want, tol)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return got


def assert_same_span_checks(dist, samples, tol=ds.DEFAULT_TOL):
    """pointwise_involutive_span against its loop: the same result or
    exception.  Returns that outcome."""
    got = full_outcome(ds.pointwise_involutive_span, dist, samples, tol)
    assert got == full_outcome(ref_relation, dist, samples, tol, True)
    return got


def max_abs(value):
    """|value| of a float, the largest |coefficient| of a W element."""
    return value.max_abs_coeff() if isinstance(value, NilElement) else abs(value)


def assert_dcomb_oracle_agrees(dist, samples, tol=ds.DEFAULT_TOL):
    """The d(omega_i) loop against the relational loop: the same verdicts or
    exception, and at each sample where neither raises, residuals within
    1e-14 max(1, |K_y|), the largest |coefficient| of the kernel matrix at
    y = x + u.  d(omega_i) on the flat simplex is omega_i(y)(v - u) less
    omega_i(x)(v - u), which vanishes up to rounding."""
    assert full_outcome(ref_check_involutive_combinatorial, dist, samples, tol) == (
        full_outcome(ref_relation, dist, samples, tol))
    compared = 0
    for p in samples:
        try:
            relational, K = ref_relation_residuals(dist, p, False)
            dcomb = dcomb_residuals(dist, p)
        except (SdgError, ValueError):
            continue
        size = max([1.0] + [max_abs(k) for k in K.flat])
        for a, b in zip(relational, dcomb):
            assert (a - b).max_abs_coeff() <= 1e-14 * size, p.coords
        compared += 1
    return compared


@pytest.mark.parametrize("seed", range(1, 6))
def test_flat_checks_on_the_benchmark_distributions(seed):
    for prog in perfbench_programs(seed):
        for batch in (1, 2, 16, 256):
            points = sample_box([(-1.0, 1.0)] * prog.dim, batch, seed)
            for name, want in (("I", True), ("C", False)):
                got = assert_same_flat_checks(prog.dists[name], points, semi=batch <= 16)
                assert got[1] is want
                if batch != 2:
                    assert assert_dcomb_oracle_agrees(prog.dists[name], points) == batch


def integrable_kernel(rng, vars=VARS3):
    """ker(h dz - h dg) for a random g(x, y) and h = 2 + y^2: involutive."""
    x, y = ex.Var(vars[0]), ex.Var(vars[1])
    g = random_scalar_expr(rng, vars[:2], trig=True)
    h = ex.Add(ex.Const(2.0), ex.Mul(y, y))
    return Distribution(3, 2, kernel=[form_1({3: h, 1: ex.Neg(ex.Mul(h, ex.diff(g, vars[0]))),
                                              2: ex.Neg(ex.Mul(h, ex.diff(g, vars[1])))},
                                             vars)], vars=vars)


def test_flat_checks_on_a_random_kernel_corpus():
    rng = np.random.default_rng(78)
    verdicts = set()
    for attempt in range(20):
        n = int(rng.choice((3, 4)))
        for dist in (random_kernel_distribution(rng, n), integrable_kernel(rng)):
            points = sample_box([(-1.0, 1.0)] * dist.n, 8, seed=attempt)
            got = assert_same_flat_checks(dist, points)
            assert_same_flat_checks(dist, points[:2])
            assert_same_flat_checks(dist, points, tol=1e-3)
            assert_dcomb_oracle_agrees(dist, points)
            verdicts.add(got if isinstance(got[0], type) else got[1])
    assert {True, False} <= verdicts


def contact_residual(dist, points, span=False):
    """The loop's residual at each point: the largest |coefficient| of
    Kock's relation on the generic flat 2-simplex there."""
    return [max(r.max_abs_coeff() for r in ref_relation_residuals(dist, p, span)[0])
            for p in points]


@pytest.mark.parametrize("factor, want, far", [
    (0.3, True, True), (0.7, True, False), (1.0, True, False), (1.3, False, False),
    (3.0, False, True)])
def test_flat_residuals_near_the_tolerance_go_to_the_per_sample_test(
        monkeypatch, factor, want, far):
    # ker(dz - 0.8 y dx) at points sharing y: the same residual r at each,
    # checked at tol = r / factor; near the tolerance or `far` from it, the
    # stack of the samples after the first decides each finite residual, and
    # none is checked alone again
    dist = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Mul(ex.Const(-0.8), Y)})])
    points = [Point((x, 0.3, z)) for x, z in ((0.1, 0.2), (-0.5, 0.7), (0.9, -0.4), (0.0, 0.0))]
    residuals = contact_residual(dist, points)
    assert len(set(residuals)) == 1
    tol = residuals[0] / factor
    got, calls = rule_calls(monkeypatch, ds.check_involutive_combinatorial, dist, points, tol)
    assert got == ([want] * 4, want)
    assert calls == [points[:1], points[1:]]
    assert_same_flat_checks(dist, points, tol)


def test_clearly_decided_flat_samples_skip_the_per_sample_test(monkeypatch):
    k3, _ = perfbench_programs(2)
    points = sample_box([(-1.0, 1.0)] * 3, 16, seed=9)
    for name, want in (("I", True), ("C", False)):
        got, calls = rule_calls(monkeypatch, ds.check_involutive_combinatorial, k3.dists[name],
                                points)
        assert got == ([want] * 16, want)
        assert calls == [points[:1], points[1:]]


def test_one_sample_is_not_screened(monkeypatch):
    stacks = []
    relation = ds._relation
    monkeypatch.setattr(ds, "_relation", lambda dist, span, x, frame: stacks.append(
        frame.ndim) or relation(dist, span, x, frame))
    # the relation is evaluated once per call of the rule: each of one or
    # two samples is checked alone; of three, the first alone and the other
    # two stacked
    dist = perfbench_programs(1)[0].dists["I"]
    for count, want in ((1, [2]), (2, [2, 2]), (3, [2, 3])):
        stacks.clear()
        ds.check_involutive_combinatorial(dist, sample_box([(-1.0, 1.0)] * 3, count, seed=1))
        assert stacks == want, count


def ramp_span(c):
    """span{(1, 0, c y), (0, 1, 0)}: the span version of ker(dz - c y dx)."""
    return Distribution(3, 2, span=[[ONE, ZERO, ex.Mul(ex.Const(c), Y)], [ZERO, ONE, ZERO]],
                        vars=VARS3)


@pytest.mark.parametrize("factor, want, far", [
    (0.3, True, True), (0.7, True, False), (1.0, True, False), (1.3, False, False),
    (3.0, False, True)])
def test_span_residuals_near_the_tolerance_go_to_the_per_sample_test(
        monkeypatch, factor, want, far):
    # the same frames and the same residual r at points sharing y, decided
    # by the stack of the samples after the first alike near the tolerance
    # and `far` from it
    dist = ramp_span(0.8)
    points = [Point((x, 0.3, z)) for x, z in ((0.1, 0.2), (-0.5, 0.7), (0.9, -0.4), (0.0, 0.0))]
    residuals = contact_residual(dist, points, span=True)
    assert len(set(residuals)) == 1
    tol = residuals[0] / factor
    got, calls = rule_calls(monkeypatch, ds.pointwise_involutive_span, dist, points, tol)
    assert got == ([want] * 4, want)
    assert calls == [points[:1], points[1:]]
    assert_same_span_checks(dist, points, tol)


def test_clearly_decided_span_samples_skip_the_per_sample_test(monkeypatch):
    k3, _ = perfbench_programs(2)
    points = sample_box([(-1.0, 1.0)] * 3, 16, seed=9)
    for name, want in (("S", True), ("H", False)):
        got, calls = rule_calls(monkeypatch, ds.pointwise_involutive_span, k3.dists[name], points)
        assert got == ([want] * 16, want)
        assert calls == [points[:1], points[1:]]


def test_one_span_sample_is_not_screened(monkeypatch):
    stacks = []
    relation = ds._relation
    monkeypatch.setattr(ds, "_relation", lambda dist, span, x, frame: stacks.append(
        frame.ndim) or relation(dist, span, x, frame))
    # the relation is evaluated once per call of the rule: each of one or
    # two samples is checked alone; of three, the first alone and the other
    # two stacked
    dist = perfbench_programs(1)[0].dists["S"]
    for count, want in ((1, [2]), (2, [2, 2]), (3, [2, 3])):
        stacks.clear()
        ds.pointwise_involutive_span(dist, sample_box([(-1.0, 1.0)] * 3, count, seed=1))
        assert stacks == want, count


@pytest.mark.parametrize("seed", range(1, 6))
def test_span_checks_on_the_benchmark_spans(seed):
    k3, _ = perfbench_programs(seed)
    for batch in (1, 2, 16):
        points = sample_box([(-1.0, 1.0)] * 3, batch, seed)
        for name, want in (("S", True), ("H", False)):
            assert assert_same_span_checks(k3.dists[name], points)[1] is want


def w_path_relation(dist, span, x, frame):
    """Kock's relation on the generic flat 2-simplex (x, x + u, x + v) seeded
    with the fiber basis B (`flat_generic_offsets`), with K or X at
    y = x + u evaluated in W(2, rank) by the tree walk: the residuals in
    W(2, rank), which `distributions._relation` mapped along B gives up to
    rounding.  x is floats at one sample, and constant W elements with
    arrays of the samples' coordinates over stacked samples."""
    n, rank = dist.n, dist.rank
    u, v = flat_generic_offsets(frame[..., :rank], 2)
    y = [c + e for c, e in zip(x, u)]
    w = [b - a for a, b in zip(u, v)]
    if not span:
        K = tree_walk(dist._kernel_coeffs, dist.vars)(*y)
        return [ds._dot(K[i:i + n], w) for i in range(0, len(K), n)]
    columns = list(zip(*([c if c.__class__ is float else NilElement(2, rank, {(0, 0): c})
                          for c in row] for row in ds._entries(frame))))
    K0, S = columns[rank:n], columns[n:]
    X = tree_walk([c for v in dist.span for c in v], dist.vars)(*y)
    fields = [X[a:a + n] for a in range(0, len(X), n)]
    Sw = [ds._dot(row, w) for row in S]
    return [ds._dot(row, w) - ds._dot([ds._dot(row, f) for f in fields], Sw) for row in K0]


def mapped_relation(dist, span, x, frame):
    """`distributions._relation`'s residuals mapped along the fiber basis,
    as `_flat_check` maps them: in W(2, rank) on the generic flat
    2-simplex."""
    B = ds._entries(frame[..., :dist.rank])
    return [r.map_columns(B) for r in ds._relation(dist, span, x, frame)]


# Residuals of the relation on the generic 2-simplex, mapped along B, round
# apart from those of the seeded W path by at most 1.7e-15 relative to
# max(1, the largest |coefficient|) over 3,840 samples of the perfbench
# distributions (seeds 1-10, 64 samples each); the bound leaves a margin of
# about 6x.
RELATION_ROUNDING = 1e-14


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relation_is_the_w_path_within_rounding(seed):
    # per sample and stacked, at arrays of the samples' coordinates against
    # the W path at constant elements with these arrays as constant terms
    for prog in perfbench_programs(seed):
        points = sample_box([(-1.0, 1.0)] * prog.dim, 16, seed)
        X = list(np.array([p.coords for p in points]).T)
        for dist in prog.dists.values():
            span = dist.span is not None
            frames = [one_row_frame(frame_kinds(dist)[-1], p) for p in points]
            constants = [NilElement(2, max(dist.rank, 1), {(0, 0): c}) for c in X]
            for x, x_w, frame in [(p.coords, p.coords, f) for p, f in zip(points, frames)] + [
                    (X, constants, np.array(frames))]:
                with np.errstate(all="ignore"):
                    want = w_path_relation(dist, span, x_w, frame)
                    got = mapped_relation(dist, span, x, frame)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    size = np.maximum(1.0, b.max_abs_coeff())
                    assert np.all((a - b).max_abs_coeff() <= RELATION_ROUNDING * size)


def same_row(one, stack, s):
    """One sample's element against row s of the stacked one: each of its
    terms bit for bit, and every other term of the stack zero there (a
    float zero is pruned, an array's zero entry is not)."""
    assert one.terms.keys() <= stack.terms.keys()
    for key, c in stack.terms.items():
        if key in one.terms:
            assert same_bits(one.terms[key], c[s]), key
        else:
            assert c[s] == 0.0, key


@pytest.mark.bit_identity
@pytest.mark.parametrize("seed", range(1, 6))
def test_one_sample_relation_is_its_stacked_row(seed):
    # a one-sample call evaluates the relation at floats and its frame, a
    # stack at arrays of the samples' coordinates and their frames
    for prog in perfbench_programs(seed):
        points = sample_box([(-1.0, 1.0)] * prog.dim, 16, seed)
        X = list(np.array([p.coords for p in points]).T)
        for dist in prog.dists.values():
            span = dist.span is not None
            frames = np.array([one_row_frame(frame_kinds(dist)[-1], p) for p in points])
            with np.errstate(all="ignore"):
                stacked = mapped_relation(dist, span, X, frames)
            for s, (p, frame) in enumerate(zip(points, frames)):
                one = mapped_relation(dist, span, p.coords, frame)
                assert len(one) == len(stacked)
                for a, b in zip(one, stacked):
                    same_row(a, b, s)


@pytest.mark.bit_identity
@pytest.mark.parametrize("k, n, q", [(1, 3, 2), (2, 3, 1), (2, 3, 0), (2, 4, 3), (3, 4, 4),
                                     (2, 3, 5)])
def test_stacked_map_columns_is_its_one_row_calls(k, n, q):
    # an element with arrays over samples as its coefficients, mapped along
    # B (n x q) with arrays as its entries, is at each sample the map of
    # that sample's element along that sample's B, bit for bit
    rng = np.random.default_rng(100 * k + 10 * n + q)
    count = 6
    terms = {(sum(1 << (r - 1) for r in rows), sum(1 << (c - 1) for c in cols)):
             rng.normal(size=count)
             for r in range(k + 1) for rows, cols in all_monomials(k, n, r)}
    B = rng.normal(size=(count, n, q))
    got = NilElement(k, n, terms).map_columns(ds._entries(B))
    assert (got.k, got.n) == (k, max(q, 1))
    for s in range(count):
        one = NilElement(k, n, {key: float(c[s]) for key, c in terms.items()})
        want = one.map_columns(B[s].tolist())
        assert got.terms.keys() == want.terms.keys()
        assert all(same_bits(got.terms[key][s], c) for key, c in want.terms.items())


def random_span_distribution(rng, n):
    vars = tuple(f"x{i + 1}" for i in range(n))
    rank = int(rng.integers(1, n))
    fields = [[random_scalar_expr(rng, vars) for _ in range(n)] for _ in range(rank)]
    return Distribution(n, rank, span=fields, vars=vars)


def test_span_checks_on_a_random_span_corpus():
    rng = np.random.default_rng(79)
    verdicts = set()
    for attempt in range(30):
        dist = random_span_distribution(rng, int(rng.choice((3, 4))))
        points = sample_box([(-1.0, 1.0)] * dist.n, 8, seed=attempt)
        got = assert_same_span_checks(dist, points)
        assert_same_span_checks(dist, points[:2])
        assert_same_span_checks(dist, points, tol=1e-3)
        verdicts.add(got if isinstance(got[0], type) else got[1])
    assert {True, False} <= verdicts


def _vanishing(f):
    """y + f(x) - f(x): y wherever f is defined."""
    return ex.Sub(ex.Add(Y, f), f)


# f(x); x where the float evaluation of f raises (in `basis_at`); x where
# only the W evaluation at a W-valued x raises (the first derivative, which
# the flat 2-simplex needs, is undefined or overflows); and x where only a
# higher derivative overflows.  At y = x + u the nilpotent part has only
# row-1 generators, so its square is zero and the lift stops at the first
# derivative: the checks decide there, as the per-sample loop does.
DOMAIN_CASES = [
    (ex.Call("ln", X), -0.5, None, 1e-200),
    (ex.Call("sqrt", X), -0.5, 0.0, 1e-250),
    (ex.Div(ONE, X), 0.0, 1e-200, 1e-120),
    (ex.Call("exp", X), 1000.0, None, None),
    (ex.Pow(X, 400), 1000.0, None, None),
]


def _first_order_points(first_order):
    return [] if first_order is None else [Point((first_order, 0.3, 0.2))]


@pytest.mark.parametrize("f, bad, w_only, first_order", DOMAIN_CASES,
                         ids=["ln", "sqrt", "reciprocal", "exp", "pow"])
def test_flat_checks_raise_where_the_loop_raises(f, bad, w_only, first_order):
    # contact: ker(dz - (y + f - f) dx) fails at every defined sample;
    # flat: ker(dz + (f - f) dx), ker(dz + (0 f) dx) and ker((1 + 0 f) dz)
    # pass there (the last with the z-row of every fiber basis zero)
    contact = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Neg(_vanishing(f))})])
    flats = [Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Sub(f, f)})]),
             Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Mul(ZERO, f)})]),
             Distribution(3, 2, kernel=[form_1({3: ex.Add(ONE, ex.Mul(ZERO, f))})])]
    good = [Point((0.5, 0.5, 0.1)), Point((0.25, -0.4, 0.3)), Point((0.75, 0.2, -0.6))]
    raising = [Point((x, 0.3, 0.2)) for x in (bad, w_only) if x is not None]
    for dist in [contact] + flats:
        for r in raising:
            for samples in (good + [r], [r] + good, good[:1] + [r] + good[1:], [r]):
                got = assert_same_flat_checks(dist, samples)
                assert got[0] is DomainError
        assert assert_same_flat_checks(dist, good)[1] is (dist is not contact)
        for r in _first_order_points(first_order):
            for samples in (good + [r], [r] + good, [r]):
                assert assert_same_flat_checks(dist, samples)[1] is (dist is not contact)
    # the semi-annihilation check stops at the first failing precondition
    theta = d_comb(to_combinatorial(contact.kernel[0]))
    for r in raising:
        assert _semi(contact, theta, good + [r], None, 1e-9) == (False, None)


def test_a_rank_deficient_basis_raises_after_failing_samples():
    # x (dz - y dx) loses rank at x = 0 and fails elsewhere; x dz passes
    contact = Distribution(3, 2, kernel=[form_1({3: X, 1: ex.Neg(ex.Mul(X, Y))})])
    flat = Distribution(3, 2, kernel=[form_1({3: X})])
    points = [Point((0.5, 0.5, 0.1)), Point((-0.25, -0.4, 0.3)), Point((0.0, 0.2, -0.6)),
              Point((0.75, 0.2, 0.6))]
    message = "kernel forms rank-deficient at (0.0, 0.2, -0.6)"
    for dist in (contact, flat):
        for samples in (points, points[1:], points[2:]):
            assert assert_same_flat_checks(dist, samples) == (RankDeficiencyError, message)
        assert assert_same_flat_checks(dist, points[:2] + points[3:])[1] is (dist is flat)
    theta = d_comb(to_combinatorial(contact.kernel[0]))
    assert _semi(contact, theta, points, None, 1e-9) == (False, None)
    # an earlier sample whose W evaluation raises decides first: sqrt(x + 0.5)
    # has no derivative at x = -0.5, the kernel row x (1, 0, -1) none at x = 0
    root = ex.Call("sqrt", ex.Add(X, ex.Const(0.5)))
    both = Distribution(3, 2, kernel=[form_1({3: ex.Neg(X), 1: ex.Mul(X, _vanishing(root))})])
    samples = [Point((0.5, 0.5, 0.1)), Point((-0.5, 0.2, 0.3)), Point((0.0, 0.2, -0.6))]
    assert assert_same_flat_checks(both, samples)[0] is DomainError
    assert assert_same_flat_checks(both, samples[:1] + samples[2:])[0] is RankDeficiencyError


@pytest.mark.parametrize("f, bad, w_only, first_order", DOMAIN_CASES,
                         ids=["ln", "sqrt", "reciprocal", "exp", "pow"])
def test_span_checks_raise_where_the_loop_raises(f, bad, w_only, first_order):
    # contact: span{(1, 0, y + f - f), (0, 1, 0)} fails at every defined
    # sample; flat: the third component f - f or 0 f, or the first 1 + 0 f,
    # passes there
    def span(first):
        return Distribution(3, 2, span=[first, [ZERO, ONE, ZERO]], vars=VARS3)

    contact = span([ONE, ZERO, _vanishing(f)])
    flats = [span([ONE, ZERO, ex.Sub(f, f)]), span([ONE, ZERO, ex.Mul(ZERO, f)]),
             span([ex.Add(ONE, ex.Mul(ZERO, f)), ZERO, ZERO])]
    good = [Point((0.5, 0.5, 0.1)), Point((0.25, -0.4, 0.3)), Point((0.75, 0.2, -0.6))]
    raising = [Point((x, 0.3, 0.2)) for x in (bad, w_only) if x is not None]
    for dist in [contact] + flats:
        for r in raising:
            for samples in (good + [r], [r] + good, good[:1] + [r] + good[1:], [r]):
                assert assert_same_span_checks(dist, samples)[0] is DomainError
        assert assert_same_span_checks(dist, good)[1] is (dist is not contact)
        for r in _first_order_points(first_order):
            for samples in (good + [r], [r] + good, [r]):
                assert assert_same_span_checks(dist, samples)[1] is (dist is not contact)


def test_a_rank_deficient_span_raises_after_failing_samples():
    # VANISHING_SPAN loses rank at the origin and fails wherever y != 0
    points = [Point((0.5, 0.5, 0.1)), Point((-0.25, -0.4, 0.3)), Point((0.0, 0.0, 0.0)),
              Point((0.75, 0.2, 0.6))]
    message = "span fields rank-deficient at (0.0, 0.0, 0.0)"
    for samples in (points, points[1:], points[2:]):
        assert assert_same_span_checks(VANISHING_SPAN, samples) == (
            RankDeficiencyError, message)
    assert assert_same_span_checks(VANISHING_SPAN, points[:2] + points[3:])[1] is False
    # a span whose W evaluation raises at an earlier sample: sqrt(x + 0.5)
    # has no derivative at x = -0.5
    root = ex.Call("sqrt", ex.Add(X, ex.Const(0.5)))
    both = Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, X, _vanishing(root)]],
                        vars=VARS3)
    samples = [Point((0.5, 0.0, 0.1)), Point((-0.5, 0.2, 0.3)), Point((0.0, 0.0, -0.6))]
    assert assert_same_span_checks(both, samples)[0] is DomainError
    assert assert_same_span_checks(both, samples[:1] + samples[2:])[0] is RankDeficiencyError


def test_one_sample_names_its_rank_deficiency():
    # a one-row stack raises the rank rule's message (`_full_rank`), from a
    # per-point method and from a check of one sample alike
    kernel = Distribution(3, 2, kernel=[form_1({3: X})])
    theta = d_comb(to_combinatorial(kernel.kernel[0]))
    plane = ds.IntegralPatch(("s", "t"), [ZERO, S, T])
    flat = ds.IntegralPatch(("s", "t"), [S, T, ZERO])
    for message, p, calls in [
        ("kernel forms rank-deficient at (0.0, 0.2, -0.6)", Point((0.0, 0.2, -0.6)), [
            partial(kernel_matrix, kernel), partial(span_matrix, kernel), kernel.basis_at,
            lambda p: ds.check_involutive_combinatorial(kernel, [p]),
            lambda p: ds.semi_annihilation_check(kernel, theta, [p]),
            lambda p: ds.check_integral_patch(kernel, plane, "weak", [p.coords[1:]])]),
        ("span fields rank-deficient at (0.0, 0.0, 0.0)", Point((0.0, 0.0, 0.0)), [
            partial(span_matrix, VANISHING_SPAN), partial(kernel_matrix, VANISHING_SPAN),
            VANISHING_SPAN.basis_at,
            lambda p: ds.pointwise_involutive_span(VANISHING_SPAN, [p]),
            lambda p: ds.check_involutive_classical(VANISHING_SPAN, [p]),
            lambda p: ds.semi_annihilation_check(VANISHING_SPAN, theta, [p]),
            lambda p: ds.check_integral_patch(VANISHING_SPAN, flat, "strong", [p.coords[:2]])]),
        ("patch Jacobian rank-deficient at (0.3, 0.0)", (0.3, 0.0), [
            partial(jacobian_at, SQUARE_PATCH),
            lambda s: ds.check_integral_patch(CONTACT, SQUARE_PATCH, "weak", [s])]),
    ]:
        for call in calls:
            assert full_outcome(call, p) == (RankDeficiencyError, message)


def test_semi_annihilation_stops_at_a_failing_first_sample(monkeypatch):
    # as the loop does, without the bases of the later samples
    k3, _ = perfbench_programs(4)
    dist = k3.dists["C"]
    visited = []
    basis_at = Distribution.basis_at
    monkeypatch.setattr(Distribution, "basis_at",
                        lambda self, p: visited.append(p) or basis_at(self, p))
    theta = d_comb(to_combinatorial(k3.forms["wc"]))
    points = sample_box([(-1.0, 1.0)] * 3, 16, seed=4)
    assert _semi(dist, theta, points, None, 1e-9) == (False, None)
    assert visited == points[:1]


def test_basis_at_takes_the_null_space_of_the_rank_check():
    for prog in perfbench_programs(3):
        for dist in prog.dists.values():
            if dist.span is None:
                for p in sample_box([(-1.0, 1.0)] * prog.dim, 64, seed=3):
                    assert np.array_equal(dist.basis_at(p), ref_null_span(dist, p))


def test_span_frame_from_one_span_matrix_and_one_qr(monkeypatch):
    # B, K0 and C of SPAN input come from one span matrix and one complete
    # QR per sample, in its one-row stack: B C is that matrix, K0
    # annihilates it, [B | K0^T] is orthogonal, and `span_matrix`/`basis_at`/
    # `kernel_matrix` return M, B and K0
    calls = []
    span_stack = Distribution._span_stack
    monkeypatch.setattr(Distribution, "_span_stack", lambda self, X: calls.extend(
        Point(x) for x in X if len(X) == 1) or span_stack(self, X))
    rng = np.random.default_rng(80)
    dists = [perfbench_programs(seed)[0].dists[name] for seed in (1, 2) for name in "SH"]
    dists += [random_span_distribution(rng, int(rng.choice((3, 4)))) for _ in range(10)]
    for dist in dists:
        points = sample_box([(-1.0, 1.0)] * dist.n, 8, seed=dist.n)
        for p in points:
            try:
                M, Q, C, _ = (a[0] for a in span_stack(dist, np.array([p.coords])))
            except RankDeficiencyError:
                continue
            B, K0 = Q[:, :dist.rank], Q[:, dist.rank:].T
            assert np.allclose(B @ C, M, rtol=0, atol=1e-14 * max(1.0, np.abs(M).max()))
            assert np.allclose(K0 @ M, 0.0, rtol=0, atol=1e-14 * max(1.0, np.abs(M).max()))
            Q = np.hstack([B, K0.T])
            assert np.allclose(Q.T @ Q, np.eye(dist.n), rtol=0, atol=1e-14)
            assert np.array_equal(C, np.triu(C))
            assert np.array_equal(span_matrix(dist, p), M)
            assert np.array_equal(dist.basis_at(p), B)
            assert np.array_equal(kernel_matrix(dist, p), K0)
        calls.clear()
        outcome(ds.pointwise_involutive_span, dist, points)
        assert calls == points[:len(calls)] and calls


# -- frames from one stacked factorisation ------------------------------------------

def frame_kinds(dist):
    """The stack of each frame the flat-simplex checks take: the fiber basis
    (KERNEL input, and the semi-annihilation check of SPAN input) and, for
    SPAN input, the relation frame [B | K0^T | S^T]."""
    kinds = [dist._basis_stack]
    if dist.span is not None:
        kinds.append(partial(ds._span_relation_stack, dist))
    return kinds


def one_row_frame(stack, p):
    """p's frame in its one-row stack, as a one-sample check builds it (the
    frame_at of the names below)."""
    return stack(np.array([p.coords]))[0][0]


def assert_stacked_frames_are_frame_at(dist, points):
    """Each frame that a stack clears is that sample's frame in its one-row
    stack, bit for bit and laid out alike (so that a product with it, as
    the semi-annihilation check's B r, rounds alike).  Returns the number of
    samples cleared, and of samples."""
    X = ds._coords(points, dist.n)
    cleared = total = 0
    for stack in frame_kinds(dist):
        frames, clear = stack(X)
        for p, frame, ok in zip(points, frames, clear):
            if ok:
                want = one_row_frame(stack, p)
                assert frame.shape == want.shape and frame.strides == want.strides, p.coords
                assert frame.tobytes() == want.tobytes(), p.coords
        cleared += int(np.count_nonzero(clear))
        total += len(points)
    return cleared, total


@pytest.mark.bit_identity
@pytest.mark.parametrize("seed", range(1, 6))
def test_stacked_frames_are_frame_at(seed):
    for prog in perfbench_programs(seed):
        for batch in (2, 16, 256):
            points = sample_box([(-1.0, 1.0)] * prog.dim, batch, seed)
            for dist in prog.dists.values():
                cleared, total = assert_stacked_frames_are_frame_at(dist, points)
                assert cleared == total, (seed, batch)
    rng = np.random.default_rng(80 + seed)
    cleared = total = 0
    for attempt in range(8):
        n = int(rng.choice((3, 4)))
        points = sample_box([(-1.0, 1.0)] * n, 16, seed=attempt)
        for dist in (random_kernel_distribution(rng, n), random_span_distribution(rng, n)):
            counts = assert_stacked_frames_are_frame_at(dist, points)
            cleared, total = cleared + counts[0], total + counts[1]
    assert cleared > total // 2


MARGIN_POINTS = [(0.5, 0.3, 0.1), (0.7, -0.4, 0.3), None, (0.4, 0.2, -0.6), (0.9, -0.1, 0.5)]


def margin_points(x):
    """Five samples, the middle one at x = `x`, where the cases below are
    not finite, rank-deficient or of full rank by a small margin."""
    return [Point((x, 0.3, 0.2) if c is None else c) for c in MARGIN_POINTS]


def _reciprocal_zero():
    return ex.Mul(ZERO, ex.Div(ONE, X))


# (name, distribution, x at the middle sample, whether it is involutive):
# values not finite there, rank-deficient, full rank with a smallest
# singular value between RANK_CUTOFF and 2 RANK_CUTOFF, and with a
# condition number over 1e4; involutive and not.  Only the first two are
# not decided by the stack.
MARGIN_CASES = [
    ("kernel, not finite", Distribution(3, 2, kernel=[form_1({3: ONE, 1: _reciprocal_zero()})]),
     0.0, True),
    ("kernel, rank-deficient", Distribution(3, 2, kernel=[form_1({3: X})]), 0.0, True),
    ("kernel, small", Distribution(3, 2, kernel=[form_1({3: X})]), 1.5e-7, True),
    ("contact, small", Distribution(3, 2, kernel=[form_1({3: X, 1: ex.Neg(ex.Mul(X, Y))})]),
     1.2e-7, False),
    ("kernel, ill-conditioned", Distribution(3, 1, kernel=[form_1({1: ONE}), form_1({2: X})]),
     1e-5, True),
    ("span, not finite", Distribution(3, 2, span=[[ONE, ZERO, _reciprocal_zero()],
                                                  [ZERO, ONE, ZERO]], vars=VARS3), 0.0, True),
    ("span, rank-deficient", Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, X, ZERO]],
                                          vars=VARS3), 0.0, True),
    ("span, small", Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, X, ZERO]], vars=VARS3),
     1.5e-7, True),
    ("ramp, small", Distribution(3, 2, span=[[ONE, ZERO, Y], [ZERO, X, ZERO]], vars=VARS3),
     1.5e-7, False),
    ("span, ill-conditioned", Distribution(3, 2, span=[[ONE, ZERO, Y], [ZERO, X, ZERO]],
                                           vars=VARS3), 1e-5, False),
]


def frame_calls(monkeypatch, check, *args):
    """The outcome of check(*args) (`full_outcome`), and the samples at
    which it builds a frame per sample, a one-row stack: of the fiber basis,
    or of the relation frame of SPAN input."""
    calls = []
    basis_stack, relation_stack = Distribution._basis_stack, ds._span_relation_stack

    def recording(stack):
        return lambda dist, X: calls.extend(Point(x) for x in X if len(X) == 1) or stack(dist, X)

    monkeypatch.setattr(Distribution, "_basis_stack", recording(basis_stack))
    monkeypatch.setattr(ds, "_span_relation_stack", recording(relation_stack))
    try:
        return full_outcome(check, *args), calls
    finally:
        monkeypatch.undo()


def undecided(name):
    """Whether the stack leaves the middle sample of a margin case to
    frame_at: where its values are not finite or its matrix is
    rank-deficient, not where that matrix is of full rank by a small
    margin."""
    return name.endswith(("not finite", "rank-deficient"))


@pytest.mark.parametrize("name, dist, x, involutive", MARGIN_CASES,
                         ids=[case[0] for case in MARGIN_CASES])
def test_frame_at_runs_where_the_stack_does_not_clear(monkeypatch, name, dist, x, involutive):
    # frame_at at the first sample, and at the middle one alone where the
    # stack does not decide it; the same verdicts, per-point lists and
    # errors as the per-sample loops
    points = margin_points(x)
    span = dist.span is not None
    X = ds._coords(points, dist.n)
    for stack in frame_kinds(dist):
        assert stack(X)[1].tolist() == [True, True, not undecided(name), True, True]
    built = [points[0], points[2]] if undecided(name) else [points[0]]
    check = ds.pointwise_involutive_span if span else ds.check_involutive_combinatorial
    got, calls = frame_calls(monkeypatch, check, dist, points)
    assert calls == built
    assert got == full_outcome(ref_relation, dist, points, ds.DEFAULT_TOL, span)
    if not isinstance(got[0], type):
        assert got[1] is involutive
    for tol in (1e-9, 1e-3):
        form = form_1({3: ONE}) if span else dist.kernel[0]
        theta = d_comb(to_combinatorial(form))
        rng_got, rng_want = np.random.default_rng(3), np.random.default_rng(3)
        got, calls = frame_calls(monkeypatch, _semi, dist, theta, points, rng_got, tol)
        assert got == full_outcome(ref_semi_annihilation_check, dist, form, points, rng_want,
                                   tol)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
        assert calls == (built if got[0] is not False else points[:1])


def test_a_constant_undefined_frame_raises_at_the_first_sample(monkeypatch):
    # ln(-1) raises at every sample, in the stack and in frame_at
    undefined = ex.Mul(ZERO, ex.Call("ln", ex.Const(-1.0)))
    points = margin_points(0.2)
    kernel = Distribution(3, 2, kernel=[form_1({3: ONE, 1: undefined})])
    span = Distribution(3, 2, span=[[ONE, ZERO, undefined], [ZERO, ONE, ZERO]], vars=VARS3)
    form = form_1({3: ONE})
    theta = d_comb(to_combinatorial(form))
    for dist, check, reference in (
            (kernel, ds.check_involutive_combinatorial, ref_relation),
            (span, ds.pointwise_involutive_span, partial(ref_relation, span=True))):
        got, calls = frame_calls(monkeypatch, check, dist, points)
        assert got[0] is DomainError and calls == points[:1]
        assert got == full_outcome(reference, dist, points, ds.DEFAULT_TOL)
        got, calls = frame_calls(monkeypatch, _semi, dist, theta, points, None, 1e-9)
        assert got[0] is DomainError and calls == points[:1]
        assert got == full_outcome(ref_semi_annihilation_check, dist, form, points,
                                   np.random.default_rng(0), 1e-9)


@pytest.mark.parametrize("seed", [1, 3])
def test_one_stacked_factorisation_per_check(monkeypatch, seed):
    # at 256 samples of full rank, each flat-simplex check factors
    # the stack of more than one sample once (an SVD of the kernel matrices,
    # a complete QR of the span matrices, whose rank rule takes their
    # singular values), and builds the first sample's frame alone: the fiber
    # basis through `basis_at`, the relation frame of SPAN input not through
    # it
    k3, _ = perfbench_programs(seed)
    points = sample_box([(-1.0, 1.0)] * 3, 256, seed)
    stacked, visited = [], []
    for module, name in ((np.linalg, "svd"), (np.linalg, "qr"),
                         (Distribution, "basis_at")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            if _name in ("svd", "qr"):
                if np.ndim(args[0]) == 3 and len(args[0]) > 1:
                    stacked.append((_name, kwargs.get("compute_uv", True)))
            else:
                visited.append((_name, args[1]))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    theta = d_comb(to_combinatorial(k3.forms["wi"]))
    kernel = [("svd", True)]
    span = [("svd", False), ("qr", True)]
    for check, args, factors, frame in (
            (ds.check_involutive_combinatorial, (k3.dists["I"], points), kernel, "basis_at"),
            (ds.check_involutive_combinatorial, (k3.dists["C"], points), kernel, "basis_at"),
            (ds.pointwise_involutive_span, (k3.dists["S"], points), span, None),
            (ds.pointwise_involutive_span, (k3.dists["H"], points), span, None),
            (ds.semi_annihilation_check, (k3.dists["I"], theta, points), kernel, "basis_at")):
        stacked.clear()
        visited.clear()
        check(*args)
        assert stacked == factors, check.__name__
        assert visited == ([(frame, points[0])] if frame else []), check.__name__


def test_a_rank_zero_span_is_involutive():
    # span{} in R^3, the zero sub-bundle: Kock's relation holds at every
    # sample, and there is no bracket to test
    dist = Distribution(3, 0, span=[])
    for count in (1, 2, 16):
        points = sample_box([(-1.0, 1.0)] * 3, count, seed=count)
        assert ds.pointwise_involutive_span(dist, points) == ([True] * count, True)
        assert ds.check_involutive_classical(dist, points) is True


# -- one rule per check: the stack decides as the one-sample calls do ----------

def fold_alone(kind, check, samples):
    """check([sample]) at each sample in order, folded as a loop over the
    samples folds: the classical and patch checks stop at the first failing
    sample, the relation checks list each sample's verdict, and the
    semi-annihilation check stops at the first failing precondition.  An
    exception ends the fold."""
    if kind == "relation":
        verdicts = [check([s])[0][0] for s in samples]
        return verdicts, all(verdicts)
    if kind == "semi":
        conclusion = True
        for s in samples:
            precondition, alone = check([s])
            if not precondition:
                return False, None
            conclusion = conclusion and alone
        return True, conclusion
    return all(check([s]) for s in samples)


def test_a_stack_that_raises_leaves_each_sample_to_a_one_sample_call():
    # the driver yields lazily, and a DomainError from the stack of the rest
    # leaves every sample of it undecided
    calls = []

    def rule(samples):
        calls.append(list(samples))
        if len(samples) > 1:
            raise DomainError("from a subexpression without variables")
        return [samples[0] > 0], [True]

    outcomes = ds._in_order([1, 2, -3, 4], rule)
    assert next(outcomes) is True and calls == [[1]]
    assert all(outcomes) is False
    assert calls == [[1], [2, -3, 4], [2], [-3]]


def semi_theta(dist):
    """A 2-form for the semi-annihilation check of dist: d of its first
    kernel form, or of dx_n for SPAN input."""
    form = dist.kernel[0] if dist.kernel is not None else form_1({dist.n: ONE}, dist.vars)
    return d_comb(to_combinatorial(form))


def batch_checks(dist, tol, rng=None):
    """(kind, check) of each check of dist, check a function of the
    samples; the semi-annihilation check draws from `rng`."""
    relation = (ds.check_involutive_combinatorial if dist.kernel is not None else
                ds.pointwise_involutive_span)
    theta = semi_theta(dist)
    return [("classical", lambda s: ds.check_involutive_classical(dist, s, tol)),
            ("relation", lambda s: relation(dist, s, tol)),
            ("semi", lambda s: _semi(dist, theta, s, rng, tol))]


def patch_checks(dist, patch, tol):
    return [("patch", lambda s, mode=mode: ds.check_integral_patch(dist, patch, mode, s, tol))
            for mode in ("weak", "strong")]


def assert_batch_is_fold(dist, samples, tol, patches=()):
    """Each check of dist at all samples, and of each (patch, parameter
    samples), against the fold of its one-sample calls: the same result or
    exception, and the same random draws."""
    rngs = [np.random.default_rng(3), np.random.default_rng(3)]
    pairs = zip(batch_checks(dist, tol, rngs[0]), batch_checks(dist, tol, rngs[1]))
    for (kind, check), (_, alone) in pairs:
        assert full_outcome(check, samples) == full_outcome(fold_alone, kind, alone, samples), (
            kind, tol)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    for patch, params in patches:
        for kind, check in patch_checks(dist, patch, tol):
            assert full_outcome(check, params) == full_outcome(fold_alone, kind, check, params)


@pytest.mark.bit_identity
@pytest.mark.parametrize("seed", range(1, 6))
def test_a_stack_decides_as_its_one_sample_calls_on_the_benchmark(seed):
    for prog in perfbench_programs(seed):
        points = sample_box([(-1.0, 1.0)] * prog.dim, 16, seed)
        params = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * 2, 16, seed)]
        for dist in prog.dists.values():
            for tol in (ds.DEFAULT_TOL, 0.0):
                assert_batch_is_fold(dist, points, tol,
                                     [(patch, params) for patch in prog.patches.values()])


@pytest.mark.bit_identity
def test_a_stack_decides_as_its_one_sample_calls_on_the_random_corpora():
    rng = np.random.default_rng(81)
    for attempt in range(12):
        n = int(rng.choice((3, 4)))
        points = sample_box([(-1.0, 1.0)] * n, 8, seed=attempt)
        for dist in (random_kernel_distribution(rng, n), random_span_distribution(rng, n)):
            for tol in (ds.DEFAULT_TOL, 0.0):
                assert_batch_is_fold(dist, points, tol)
    # the distributions and patches of test_random_patch_corpus_agrees
    rng = np.random.default_rng(5)
    dists = [Distribution(3, 2, kernel=[form_1({3: ONE})]),
             Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Neg(Y)})]),
             Distribution(3, 2, span=[[ONE, ZERO, Y], [ZERO, ONE, ZERO]], vars=VARS3),
             Distribution(3, 1, span=[[ONE, X, ZERO]], vars=VARS3)]
    for attempt in range(10):
        third = random_scalar_expr(rng, ("s", "t"))
        surface = ds.IntegralPatch(("s", "t"), [S, T, third])
        curve = ds.IntegralPatch(("s",), [S, ex.Mul(S, S), ex.rename(third, {"t": "s"})])
        for patch in (surface, curve):
            params = [tuple(p.coords)
                      for p in sample_box([(-1.0, 1.0)] * patch.q, 6, attempt)]
            for dist in dists:
                for tol in (ds.DEFAULT_TOL, 0.0):
                    for kind, check in patch_checks(dist, patch, tol):
                        assert full_outcome(check, params) == full_outcome(
                            fold_alone, kind, check, params)


@pytest.mark.bit_identity
@pytest.mark.parametrize("name, dist, x, involutive", MARGIN_CASES,
                         ids=[case[0] for case in MARGIN_CASES])
def test_a_stack_decides_as_its_one_sample_calls_at_the_margins(name, dist, x, involutive):
    for tol in (ds.DEFAULT_TOL, 0.0):
        assert_batch_is_fold(dist, margin_points(x), tol)


def first_raising(kind, check, samples):
    """[the first sample at which check([sample]) raises], if a loop over
    the samples in order reaches it, else []."""
    for s in samples:
        got = full_outcome(check, [s])
        if isinstance(got, tuple) and isinstance(got[0], type):
            return [s]
        if kind != "relation" and got in (False, (False, None)):
            return []
    return []


def goes_on(kind, check, s):
    """Whether a loop over the samples goes on after s: check([s]) raises
    nothing and, unless the check lists each sample's verdict, passes."""
    got = full_outcome(check, [s])
    return not (isinstance(got, tuple) and isinstance(got[0], type)) and (
        kind == "relation" or got not in (False, (False, None)))


def assert_one_sample_calls(monkeypatch, kind, check, samples):
    """A check calls its rule on its first sample alone, then, if a loop
    over the samples goes on, on the stack of the rest, and on a later
    sample alone only at the first sample whose values are not finite or
    whose matrix is rank-deficient, at which the one-sample call raises (a
    stack of one sample is a one-sample call)."""
    got, calls = rule_calls(monkeypatch, check, samples)
    want = [samples[:1]]
    rest = samples[1:]
    if rest and goes_on(kind, check, samples[0]):
        want += [rest] + ([] if len(rest) == 1 else
                          [[s] for s in first_raising(kind, check, rest)])
    assert calls == want, (kind, got)
    return got


@pytest.mark.bit_identity
@pytest.mark.parametrize("name, dist, x, involutive", MARGIN_CASES,
                         ids=[case[0] for case in MARGIN_CASES])
def test_one_sample_calls_at_the_margins(monkeypatch, name, dist, x, involutive):
    for kind, check in batch_checks(dist, ds.DEFAULT_TOL):
        got = assert_one_sample_calls(monkeypatch, kind, check, margin_points(x))
        # of full rank by a small margin is of full rank
        assert undecided(name) or not (isinstance(got, tuple) and isinstance(got[0], type))


@pytest.mark.bit_identity
def test_one_sample_calls_where_a_sample_raises(monkeypatch):
    k3, _ = perfbench_programs(2)
    points = sample_box([(-1.0, 1.0)] * 3, 16, seed=9)
    good = [Point((0.5, 0.5, 0.1)), Point((0.25, -0.4, 0.3)), Point((0.75, 0.2, -0.6))]
    cases = [(dist, points) for dist in k3.dists.values()]
    for f, bad, w_only, _ in DOMAIN_CASES:
        contact = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Neg(_vanishing(f))})])
        flat = Distribution(3, 2, span=[[ONE, ZERO, ex.Sub(f, f)], [ZERO, ONE, ZERO]],
                            vars=VARS3)
        for x in (bad, w_only):
            if x is not None:
                samples = good[:1] + [Point((x, 0.3, 0.2))] + good[1:]
                cases += [(contact, samples), (flat, samples)]
    # span{(1, 0, 0), (0, x, x z)} is involutive off x = 0, where it loses
    # rank and the basis of its stacked QR misses the bracket (0, 1, z)
    folded = Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, X, ex.Mul(X, Z)]], vars=VARS3)
    cases.append((folded, [Point((0.5, 0.3, 0.5)), Point((0.0, 0.3, 0.5)), good[1]]))
    for dist, samples in cases:
        for kind, check in batch_checks(dist, ds.DEFAULT_TOL):
            assert_one_sample_calls(monkeypatch, kind, check, samples)
    # ker(dz) contains the patch (s, t^2, 0), whose Jacobian loses rank at t = 0
    flat = Distribution(3, 2, kernel=[form_1({3: ONE})])
    square = ds.IntegralPatch(("s", "t"), [S, ex.Mul(T, T), ZERO])
    params = [(0.5, 0.5), (0.2, 0.3), (0.3, 0.0), (0.4, 0.1)]
    for dist, patch, samples in ((flat, square, params), (flat, square, params[:2]),
                                 (CONTACT, SQUARE_PATCH, params[2:]),
                                 (CONTACT, SQUARE_PATCH, params)):
        for kind, check in patch_checks(dist, patch, ds.DEFAULT_TOL):
            assert_one_sample_calls(monkeypatch, kind, check, samples)


# -- term maps with array coefficients -------------------------------------------

COUNT = 6


def batched_element(rng, m, const=None):
    """An element of W(2, m) with array coefficients (some shared floats),
    and its value at each of COUNT samples as a float element.  `const`
    replaces the constant terms, one sample each."""
    count = COUNT if const is None else len(const)
    terms = {}
    for r in range(3):
        for rows, cols in all_monomials(2, m, r):
            u = rng.random()
            if u < 0.3 and r:
                continue
            key = (sum(1 << (i - 1) for i in rows), sum(1 << (j - 1) for j in cols))
            terms[key] = rng.uniform(-2, 2) if u < 0.5 else np.array(
                [rng.uniform(-2, 2) for _ in range(count)])
    if const is not None:
        terms[(0, 0)] = np.array(const, dtype=float)
    singles = [NilElement(2, m, {key: v if isinstance(v, float) else float(v[j])
                                 for key, v in terms.items()}) for j in range(count)]
    return NilElement(2, m, terms), singles


def at_sample(element, j):
    return {key: v if isinstance(v, float) else float(v[j])
            for key, v in element.terms.items()}


def assert_equals_each_sample(batched, singles):
    for j, single in enumerate(singles):
        values = at_sample(batched, j)
        assert single.terms.keys() <= values.keys()
        for key, v in values.items():
            want = single.terms.get(key, 0.0)
            assert v == want or (math.isnan(v) and math.isnan(want)), (key, j)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_array_coefficients_are_the_float_arithmetic_at_each_sample(m):
    rng = random.Random(m)
    for _ in range(20):
        (a, a1), (b, b1) = batched_element(rng, m), batched_element(rng, m)
        assert_equals_each_sample(a + b, [x + y for x, y in zip(a1, b1)])
        assert_equals_each_sample(a - b, [x - y for x, y in zip(a1, b1)])
        assert_equals_each_sample(a * b, [x * y for x, y in zip(a1, b1)])
        assert_equals_each_sample(quotient(a, b), [quotient(x, y) for x, y in zip(a1, b1)])
        assert_equals_each_sample(1.5 - a * 0.25, [1.5 - x * 0.25 for x in a1])
        assert_equals_each_sample(power(a, 3), [power(x, 3) for x in a1])
        residual = np.broadcast_to((a - b).max_abs_coeff(), COUNT)
        assert residual.tolist() == [(x - y).max_abs_coeff() for x, y in zip(a1, b1)]
        passed = np.broadcast_to(within_tol(a - b, 1.0), COUNT)
        assert passed.tolist() == [within_tol(x - y, 1.0) for x, y in zip(a1, b1)]


def test_array_coefficients_print_and_compare():
    a = NilElement(2, 2, {(0, 0): np.array([1.0, 2.5]), (1, 1): 0.5})
    assert repr(a) == "W(2,2)<[1 2.5] + 0.5*xi[1,1]>"
    # equal values in distinct arrays
    assert a == NilElement(2, 2, {(0, 0): np.array([1.0, 2.5]), (1, 1): 0.5})
    for other in ({(0, 0): np.array([1.0, 3.0]), (1, 1): 0.5},
                  {(0, 0): np.array([1.0, 2.5, 2.5]), (1, 1): 0.5},
                  {(0, 0): np.array([1.0, 2.5])},
                  {(0, 0): 1.0, (1, 1): 0.5}):
        assert a != NilElement(2, 2, other)
    # nan equals nothing, itself included, as for floats
    for nan in (NilElement(2, 2, {(0, 0): np.array([1.0, math.nan])}),
                NilElement(2, 2, {(0, 0): math.nan})):
        assert nan != nan


# constant terms at which the float lift is defined, raises, or overflows
LIFT_CONSTANTS = {
    "sin": [0.3, -2.0, 1e10, float("inf"), float("nan"), 0.0],
    "cos": [0.3, -2.0, 1e10, float("inf"), float("nan"), 0.0],
    "exp": [0.3, -2.0, 700.0, 1000.0, float("-inf"), 0.0],
    "ln": [0.3, 2.0, 1e-200, 0.0, -1.0, float("inf"), 1e-310],
    "sqrt": [0.3, 2.0, 1e-300, 0.0, -1.0, float("nan")],
    "reciprocal": [0.3, -2.0, 1e-200, 0.0, 1e300, float("inf"), 1e-310],
}
POWERS = {400: [0.3, -1.5, 1000.0, 0.0, 5.0, -0.0], -2: [0.3, -1.5, 1e-200, 0.0, 5.0, 1e5],
          2.5: [0.3, -1.5, 1e-200, 0.0, 5.0, 1e200], 0: [0.3, -1.5, 0.0, 1.0, 2.0, 3.0]}
LIFTS = [(f, None, c) for f, c in LIFT_CONSTANTS.items()] + [
    ("power", e, c) for e, c in POWERS.items()]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("f, exponent, const", LIFTS,
                         ids=[f if e is None else f"power{e}" for f, e, _ in LIFTS])
def test_array_lift_is_the_float_lift_at_each_sample(f, exponent, const, m):
    rng = random.Random(f"{f}{exponent}{m}")
    batched, singles = batched_element(rng, m, const)
    with np.errstate(all="ignore"):
        lifted = lift_smooth(f, batched, exponent)
    assert lifted.terms
    for j, single in enumerate(singles):
        values = at_sample(lifted, j)
        try:
            want = lift_smooth(f, single, exponent)
        except DomainError:
            assert all(math.isnan(v) for v in values.values()), (const[j], values)
            continue
        if not math.isfinite(const[j]):
            assert all(math.isnan(v) for v in values.values()), (const[j], values)
            continue
        # at a finite constant term the float lift raises or is finite
        assert all(map(math.isfinite, want.terms.values())), const[j]
        assert want.terms.keys() <= values.keys()
        for key, v in values.items():
            assert v == want.terms.get(key, 0.0), (const[j], key)


def test_float_lift_raises_where_a_division_overflows():
    # 1.0 / 1e-310 is inf without an exception: the float lift raises where
    # 1/x, or the one derivative of ln that W(1, 1) needs, overflows so, and
    # the array lift gives nan at that sample alone
    for f, nil in (("ln", {(1, 1): 1.0}), ("reciprocal", {})):
        with pytest.raises(DomainError):
            lift_smooth(f, NilElement(1, 1, {(0, 0): 1e-310, **nil}))
        lifted = lift_smooth(f, NilElement(1, 1, {(0, 0): np.array([1e-310, 0.5]), **nil}))
        assert all(math.isnan(v) for v in at_sample(lifted, 0).values()), f
        assert at_sample(lifted, 1) == lift_smooth(f, NilElement(1, 1, {(0, 0): 0.5, **nil})).terms


def test_sqrt_lift_takes_its_constant_term_from_sqrt():
    # pow(x, 0.5) is not correctly rounded and differs from sqrt(x) in the
    # last bit at some x (20 of these 20,000): the float and the array lift
    # of sqrt at x + xi have the constant term of evaluate's float sqrt
    rng = random.Random(1)
    xs = [rng.uniform(0.0, 10.0) for _ in range(20000)]
    want = [math.sqrt(x) for x in xs]
    got = [const_term(evaluate(ex.Call("sqrt", X),
                               {"x": NilElement(1, 1, {(0, 0): x, (1, 1): 1.0})})) for x in xs]
    assert got == want
    lifted = lift_smooth("sqrt", NilElement(1, 1, {(0, 0): np.array(xs), (1, 1): 1.0}))
    assert const_term(lifted).tolist() == want


def test_array_lift_stops_at_the_first_zero_power():
    # as the float lift does: with row-1 generators alone, only the first
    # derivative is taken, so a second derivative that overflows at one
    # sample leaves no nan there
    for f, tiny in (("ln", 1e-200), ("sqrt", 1e-250), ("reciprocal", 1e-120)):
        const = [tiny, 0.5, 2.0]
        batched = NilElement(2, 2, {(0, 0): np.array(const), (1, 1): 0.6,
                                    (1, 2): np.array([0.8, -0.3, 1.5])})
        lifted = lift_smooth(f, batched)
        for j in range(len(const)):
            values = at_sample(lifted, j)
            assert all(map(math.isfinite, values.values())), (f, j)
            assert values == lift_smooth(f, NilElement(2, 2, at_sample(batched, j))).terms


def test_nil_imports_numpy_only_for_arrays():
    script = ("import sys\n"
              "from sdgeom.nil import NilElement, _table, _taylor, within_tol\n"
              "a = NilElement.generator(2, 2, 1, 1) + 0.5\n"
              "for f in ('sin', 'cos', 'exp', 'ln', 'sqrt', 'reciprocal'):\n"
              "    derivs = _taylor(f, _table(f), 0.5, 2)\n"
              "    a = a * (a * derivs[2] + derivs[1]) + derivs[0]\n"
              "a = a * _taylor('power', _table('power', 3), 0.5, 1)[1]\n"
              "b = (a * a.identify_rows(1, 2)).map_columns([[1.0], [2.0]])\n"
              "assert within_tol(a - a, 0.0) and b.max_abs_coeff() > 0\n"
              "print('numpy' in sys.modules)\n")
    src = str(Path(ds.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


# -- Ambrose-Singer segments: one batch of transports ------------------------------

def ref_segment_transport(conn, x0, p, steps):
    """The transport along the segment from x0 to p as Ambrose-Singer took
    it one segment at a time: `parallel_transport` on the compiled
    expressions a + t*(b - a)."""
    t = ex.Var("t")
    segment = [ex.Add(ex.Const(a), ex.Mul(t, ex.Const(b - a))) for a, b in zip(x0, p)]
    return cn.parallel_transport(conn, segment, 0.0, 1.0, steps)


def ref_ambrose_singer(conn, loops, samples, basepoint, steps, tol):
    """`ambrose_singer_check` with one transport per segment, each taken
    where it is needed."""
    x0 = basepoint.coords

    def to_basepoint(p, values):
        g = ref_segment_transport(conn, x0, p, steps)
        ginv = np.linalg.inv(g)
        return [ginv @ F @ g for F in values]

    h_basis = cn.lie_closure([F for p in samples for F in to_basepoint(
        p.coords, cn.curvature_coboundary(conn, p).values())], tol=tol)
    flat = np.array([b.ravel() for b in h_basis]) if h_basis else None
    max_resid = 0.0
    for curve, t0, t1 in loops:
        g = cn.parallel_transport(conn, curve, t0, t1, steps)
        start = [evaluate(c, {"t": t0}) for c in curve]
        L = to_basepoint(start, [cn.holonomy_log(g)])[0]
        size = float(np.max(np.abs(L)))
        if not within_tol(size, tol):
            max_resid = max(max_resid, size if flat is None
                            else cn.span_residual(flat.T, L.ravel()))
    return within_tol(max_resid, tol), len(h_basis), max_resid


ROT_SDG = ("dim 2\nvar x y\n"
           "conn A = [0*dx, (0.5*y)*dx - (0.5*x)*dy; (-0.5*y)*dx + (0.5*x)*dy, 0*dx]\n")


def batched_transport_connections():
    """The README's rot.sdg and the so(3) and gl(2) connections of the
    checks_sparse benchmark."""
    return [parse(ROT_SDG).conns["A"]] + [next(iter(parse(text).conns.values()))
                                          for text in perfbench_connection_sources()]


@pytest.mark.bit_identity
@pytest.mark.parametrize("steps", [1, 250, 1025])
@pytest.mark.parametrize("count", [1, 20])
def test_batched_transports_are_parallel_transport_bit_for_bit(steps, count):
    # 250 steps put four segments in a block, 1025 one, and cross a block
    for conn in batched_transport_connections():
        points = sample_box([(-1.0, 1.0)] * conn.n, count + 1, seed=steps + count)
        x0, ends = points[0].coords, [p.coords for p in points[1:]]
        got = cn._segment_transports(conn, x0, ends, steps)
        assert len(got) == count
        for p, g in zip(ends, got):
            assert g.tobytes() == ref_segment_transport(conn, x0, p, steps).tobytes()


# ln(x^2 + y^2 - 1/4) is undefined on the disc of radius 1/2: a segment from
# (1, 0) across it fails, and so does the curvature at a point inside it
DISC_CONN = "dim 2\nvar x y\nconn A = [ln(x*x + y*y - 0.25)*dx + y*dy, 0*dx; dy, 0*dx]\n"
HUGE_CONN = ("dim 2\nvar x y\n"
             "conn A = [0*dx, (1e160*y)*dx + (1e160*x)*dy; (-1e160*y)*dx, 0*dx]\n")
OK1, OK2, CROSSES, CROSSES_LATER, INSIDE = (1.0, 0.5), (0.8, -0.9), (-1.0, 0.0), (-0.5, 0.3), (0.1, 0.1)
MORE_OK = [(1.0 + 0.05 * k, 0.1 * k - 0.4) for k in range(9)]


@pytest.mark.bit_identity
@pytest.mark.parametrize("steps", [64, 250])
@pytest.mark.parametrize("text, x0, ends", [
    (DISC_CONN, (1.0, 0.0), [OK1, CROSSES, OK2, CROSSES_LATER, INSIDE] + MORE_OK),
    (HUGE_CONN, (0.0, 0.0), [(0.0, 0.0), (0.5, 0.5), (1e-170, 1e-170), (0.3, -0.2)]),
], ids=["non-finite-value", "overflow"])
def test_batched_transports_fail_where_each_transport_fails(text, x0, ends, steps):
    # a failing segment neither raises for the others nor changes their bits
    conn = parse(text).conns["A"]
    got = cn._segment_transports(conn, x0, ends, steps)
    outcomes = {type(g) for g in got}
    assert outcomes == {np.ndarray, DomainError}
    for p, g in zip(ends, got):
        want = full_outcome(ref_segment_transport, conn, x0, p, steps)
        if isinstance(g, DomainError):
            assert (DomainError, str(g)) == want
        else:
            assert g.tobytes() == want.tobytes()


def _circle(cx, cy, r):
    t = ex.Var("t")
    return ([ex.Add(ex.Const(cx), ex.Mul(ex.Const(r), ex.Call("cos", t))),
             ex.Add(ex.Const(cy), ex.Mul(ex.Const(r), ex.Call("sin", t)))], 0.0, 2.0 * math.pi)


NEAR, FAR = _circle(1.0, 0.0, 0.2), _circle(-1.0, 0.0, 0.1)
# x(t) = 0*ln(t - 1) + 2 cannot be evaluated at t = 0, but x' = 0 leaves A_x
# out of the loop's transport, which passes
NAN_START = ([ex.Add(ex.Mul(ZERO, ex.Call("ln", ex.Sub(ex.Var("t"), ONE))), ex.Const(2.0)),
              ex.Call("sin", ex.Var("t"))], 0.0, 2.0 * math.pi)
_ACROSS = "non-finite connection value on the curve at t = "


@pytest.mark.bit_identity
@pytest.mark.parametrize("samples, loops, want", [
    ([OK1, CROSSES, OK2], [NEAR], _ACROSS + "0.25"),
    # the transport to a sample fails before the curvature at a later one
    ([OK1, CROSSES, INSIDE], [NEAR], _ACROSS + "0.25"),
    ([OK1, INSIDE, CROSSES], [NEAR], "ln of -0.22999999999999998"),
    ([OK1, CROSSES_LATER, CROSSES], [NEAR], _ACROSS + "0.34375"),
    # a loop's start: after the loop's transport, its log and the samples
    ([OK1, OK2], [NEAR, FAR], _ACROSS + "0.265625"),
    ([OK1, OK2], [NEAR, NAN_START], "ln of -1.0"),
    ([OK1, CROSSES], [NAN_START], _ACROSS + "0.25"),
    (MORE_OK + [CROSSES, CROSSES_LATER], [NEAR], _ACROSS + "0.25"),
    ([OK1, OK2], [NEAR], None),
], ids=["one-failing-segment", "segment-before-curvature", "curvature-before-segment",
        "first-failing-segment", "loop-start-segment", "loop-start-value",
        "sample-before-loop-start", "failing-segment-in-a-later-block", "passes"])
def test_batched_transport_ambrose_singer_raises_where_the_loop_raises(samples, loops, want):
    conn = parse(DISC_CONN).conns["A"]
    for steps in (64, 250):
        args = (conn, loops, [Point(p) for p in samples], Point((1.0, 0.0)), steps, 1e-6)
        got = full_outcome(cn.ambrose_singer_check, *args)
        assert got == full_outcome(ref_ambrose_singer, *args)
    if want is None:
        assert got[0] is True
    else:
        # the messages at 64 steps of the transports one segment at a time
        got = full_outcome(cn.ambrose_singer_check, *args[:-2], 64, 1e-6)
        assert got == (DomainError, want)


def test_ambrose_singer_compiles_each_loop_curve_once(monkeypatch):
    # the start of each loop compiled its curve a second time
    compiled, compile_w = [], ex.compile_w

    def counting_compile_w(exprs, varnames):
        exprs = list(exprs)
        compiled.append(tuple(map(ex.to_str, exprs)))
        return compile_w(exprs, varnames)

    monkeypatch.setattr(ex, "compile_w", counting_compile_w)
    conn = parse(DISC_CONN).conns["A"]
    loops = [NEAR, _circle(1.1, 0.1, 0.1)]
    args = (conn, loops, [Point(OK1), Point(OK2)], Point((1.0, 0.0)), 64, 1e-6)
    got = cn.ambrose_singer_check(*args)
    monkeypatch.undo()
    assert got == ref_ambrose_singer(*args)
    for curve, _, _ in loops:
        names = tuple(map(ex.to_str, curve))
        assert [c[2:] for c in compiled if c[:2] == names] == [
            tuple(ex.to_str(ex.diff(c, "t")) for c in curve)]
