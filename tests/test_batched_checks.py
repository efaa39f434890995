"""The batched checks against the per-sample loops they replace.

The reference loops below are the classical side of the checks as it was
written one sample at a time: every coefficient walked by `expr.evaluate`,
every Jacobian and bracket differentiated again at each sample, one
`numpy.linalg` call per matrix.  The library evaluates all samples at once
through functions compiled once per object; it must reach the same verdict,
or raise the same exception, as these loops in sample order.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sdgeom import connections as cn
from sdgeom import distributions as ds
from sdgeom import expr as ex
from sdgeom.chart import Point
from sdgeom.distributions import Distribution
from sdgeom.errors import DomainError, RankDeficiencyError
from sdgeom.forms import ClassicalForm, d_classical, random_scalar_expr, wedge_classical
from sdgeom.nil import within_tol
from sdgeom.program import parse
from sdgeom.sampling import sample_box

VARS3 = ("x", "y", "z")
X, Y, Z = ex.Var("x"), ex.Var("y"), ex.Var("z")
S, T = ex.Var("s"), ex.Var("t")
ZERO, ONE = ex.Const(0.0), ex.Const(1.0)


# -- the per-sample reference loops ----------------------------------------------

def _env(names, coords):
    return dict(zip(names, coords))


def ref_kernel_matrix(dist, p):
    if dist.kernel is None:
        q, _ = np.linalg.qr(np.hstack([ref_span_matrix(dist, p), np.eye(dist.n)]))
        return q[:, dist.rank:dist.n].T
    env = _env(dist.vars, p.coords)
    M = np.array([[ex.evaluate(w.coeffs[(i + 1,)], env) if (i + 1,) in w.coeffs else 0.0
                   for i in range(dist.n)] for w in dist.kernel], dtype=float)
    if np.linalg.matrix_rank(M, tol=1e-7) != dist.n - dist.rank:
        raise RankDeficiencyError(f"kernel forms rank-deficient at {p.coords}")
    return M


def ref_null_span(dist, p):
    _, s, vt = np.linalg.svd(ref_kernel_matrix(dist, p))
    null = vt[int(np.sum(s > 1e-10)):].T
    if null.shape[1] != dist.rank:
        raise RankDeficiencyError(f"kernel null space has wrong rank at {p.coords}")
    return null


def ref_span_matrix(dist, p):
    if dist.span is None:
        return ref_null_span(dist, p)
    env = _env(dist.vars, p.coords)
    M = np.array([[ex.evaluate(c, env) for c in v] for v in dist.span], dtype=float).T
    if np.linalg.matrix_rank(M, tol=1e-7) != dist.rank:
        raise RankDeficiencyError(f"span fields rank-deficient at {p.coords}")
    return M


def ref_basis_at(dist, p):
    if dist.span is None:
        return ref_null_span(dist, p)
    q, r = np.linalg.qr(ref_span_matrix(dist, p))
    if np.any(np.abs(np.diag(r)) < 1e-10):
        raise RankDeficiencyError(f"span fields rank-deficient at {p.coords}")
    return q


def ref_is_flat(dist, p, u, tol):
    if dist.kernel is not None:
        resid = np.max(np.abs(ref_kernel_matrix(dist, p) @ u), initial=0.0)
    else:
        resid = ds.span_residual(ref_span_matrix(dist, p), u)
    return within_tol(resid, tol * max(1.0, np.linalg.norm(u)))


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
                if not within_tol(ex.evaluate(e, env), tol):
                    return False
    return True


def ref_bracket_test(dist, samples, tol):
    for p in samples:
        env = _env(dist.vars, p.coords)
        M = ref_span_matrix(dist, p)
        for a in range(dist.rank):
            for b in range(a + 1, dist.rank):
                Xa, Xb = dist.span[a], dist.span[b]
                u = np.array([sum(ex.evaluate(Xa[j], env) * ex.evaluate(ex.diff(Xb[i], v), env)
                                  - ex.evaluate(Xb[j], env) * ex.evaluate(ex.diff(Xa[i], v), env)
                                  for j, v in enumerate(dist.vars))
                              for i in range(dist.n)], dtype=float)
                if not within_tol(ds.span_residual(M, u), tol * max(1.0, np.linalg.norm(u))):
                    return False
    return True


def ref_check_integral_patch(dist, patch, mode, parameter_samples, tol):
    if mode == "strong" and patch.q != dist.rank:
        return False
    for s in parameter_samples:
        env = _env(patch.params, s)
        p = Point([ex.evaluate(c, env) for c in patch.components])
        J = np.array([[ex.evaluate(ex.diff(c, v), env) for v in patch.params]
                      for c in patch.components], dtype=float)
        if np.linalg.matrix_rank(J, tol=1e-7) != patch.q:
            raise RankDeficiencyError(f"patch Jacobian rank-deficient at {s}")
        for col in J.T:
            if not ref_is_flat(dist, p, col, tol):
                return False
        if mode == "strong":
            for col in ref_basis_at(dist, p).T:
                if not within_tol(ds.span_residual(J, col), tol):
                    return False
    return True


def ref_curvature_oracle(conn, p):
    env = _env(conn.vars, p.coords)
    value = lambda e: float(ex.evaluate(e, env))
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


def test_random_patch_corpus_agrees():
    rng = np.random.default_rng(5)
    dists = [Distribution(3, 2, kernel=[form_1({3: ONE})]),
             Distribution(3, 2, kernel=[form_1({3: ONE, 1: -Y})]),
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
    # every sample: the screen clears none of them at tol 1e-9, and the
    # per-sample check decides
    dist = Distribution(3, 2, kernel=[form_1({3: ONE, 1: ex.Const(-c)})])
    patch = ds.IntegralPatch(("s", "t"), [S, T, ZERO])
    params = [(0.1, 0.2), (0.3, -0.4)]
    assert ds.check_integral_patch(dist, patch, "weak", params) is want
    assert_same_patch_verdicts(dist, patch, params)


def test_clearly_passing_samples_skip_the_per_sample_check(monkeypatch):
    calls = []
    monkeypatch.setattr(ds, "_patch_sample", lambda *args: calls.append(args))
    patch = ds.IntegralPatch(("s", "t"), [S, T, ex.Mul(S, T)])
    # z = s t: dz - y dx - x dy vanishes on the patch
    dist = Distribution(3, 2, kernel=[form_1({3: ONE, 1: -Y, 2: -X})])
    params = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * 2, 32, seed=6)]
    assert ds.check_integral_patch(dist, patch, "strong", params) is True
    assert calls == []


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

CONTACT = Distribution(3, 2, kernel=[form_1({3: ONE, 1: -Y})])
# J = [[1, 0], [0, 2t], [0, 0]] is rank-deficient at t = 0; d/ds is off the
# contact plane wherever y = t^2 != 0
SQUARE_PATCH = ds.IntegralPatch(("s", "t"), [S, ex.Mul(T, T), ZERO])
# u = (1, 0, 0), v = (0, x, y): v vanishes at the origin, and [u, v] = (0, 1, 0)
# lies in the span only where y = 0
VANISHING_SPAN = Distribution(3, 2, span=[[ONE, ZERO, ZERO], [ZERO, X, Y]], vars=VARS3)
LN_PATCH = ds.IntegralPatch(("s", "t"), [S, T, ex.Call("ln", S)])


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
], ids=["fail-then-rank", "rank-then-fail", "bracket-fail-then-rank",
        "bracket-rank-then-fail", "fail-then-ln", "ln-then-fail", "sqrt-jacobian"])
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


def test_a_domain_error_inside_a_finite_value_still_raises():
    # exp(-1/x) is 0.0 in floating point at x = 0, where 1/x raises
    w = form_1({3: ONE, 1: ex.Mul(Y, ex.Call("exp", ex.Div(ex.Const(-1.0), X)))})
    dist = Distribution(3, 2, kernel=[w])
    good, bad = Point((0.5, 0.5, 0.5)), Point((0.0, 0.5, 0.5))
    assert outcome(ds._ideal_test, dist, [bad, good], 1e-9) is DomainError
    for samples in ([good, bad], [bad, good]):
        assert_same_involutivity(dist, samples)


def test_compile_numpy_is_finite_where_evaluate_returns_a_finite_value():
    K = ex.Const(1e300)
    big = ex.Mul(ex.Mul(X, K), K)
    exprs = [ex.Div(ONE, ex.Div(ONE, X)), ex.Call("exp", ex.Div(ex.Const(-1.0), X)),
             ex.Call("ln", X), ex.Call("sqrt", X), ex.Pow(X, -1),
             ex.Pow(ex.Div(ONE, X), 0), ex.Call("exp", X), ex.Pow(X, 2),
             ex.Call("sin", big), big, ex.Div(ONE, big), ex.Sub(big, big)]
    xs = [0.0, -1.0, 0.5, 1000.0, 1e200]
    values = ex.compile_numpy(exprs, ("x",))(np.array(xs))
    for e, row in zip(exprs, values):
        for x, got in zip(xs, row):
            try:
                want = ex.evaluate(e, {"x": x})
            except (DomainError, ArithmeticError, ValueError):
                assert np.isnan(got), (ex.to_str(e), x)
                continue
            if np.isfinite(want):
                assert got == pytest.approx(want, rel=1e-15), (ex.to_str(e), x)
            else:
                assert not np.isfinite(got), (ex.to_str(e), x)


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


def test_no_samples_pass():
    # as the loops over no sample did
    flat = ds.IntegralPatch(("s", "t"), [S, T, ZERO])
    assert ds.check_involutive_classical(CONTACT, []) is True
    assert ds.check_involutive_classical(VANISHING_SPAN, []) is True
    assert ds.check_integral_patch(CONTACT, flat, "strong", []) is True


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
