"""Acceptance gate: one check per top-level criterion, each printing a single
pass/fail line.  Run with `pytest -v -s tests/test_acceptance.py` to see the
lines; every criterion is also a hard assertion."""

import io
import json
import math
import random
from itertools import permutations

import numpy as np
import pytest

from sdgeom import expr as ex
from sdgeom.chart import Point
from sdgeom.cli import EXIT_FALSE, EXIT_OK, EXIT_USAGE, run
from sdgeom.connections import (BRACKET_SIGN, COBOUNDARY_SCALE,
                                ConnectionData, ambrose_singer_check,
                                curvature_classical_oracle,
                                curvature_coboundary, holonomy_log,
                                parallel_transport)
from sdgeom.distributions import (Distribution, IntegralPatch,
                                  check_integral_patch,
                                  check_involutive_classical,
                                  check_involutive_combinatorial,
                                  semi_annihilation_check)
from sdgeom.errors import RankDeficiencyError
from sdgeom.forms import (ClassicalForm, comparison, d_classical, d_comb,
                          eval_generic, extract_classical, to_combinatorial,
                          wedge_classical, wedge_comb)
from sdgeom.nil import NilElement, generic_offsets, lift_smooth
from sdgeom.program import parse, pretty_print
from sdgeom.sampling import sample_box

from corpus import random_form, random_scalar_expr
from reference import (NilPoint, Tangent, all_monomials, evaluate, exp_tangent,
                       pin_conventions, pushforward_chart)
from wmatrix import in_subalgebra_cone, omat_mul, ref_transport_neighbor


def report(num, label, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def random_element(rng, k, n):
    terms = {}
    for r in range(0, min(k, n) + 1):
        for rows, cols in all_monomials(k, n, r):
            if rng.random() < 0.4:
                c = rng.randint(-5, 5)
                if c:
                    terms[(sum(1 << (i - 1) for i in rows),
                           sum(1 << (j - 1) for j in cols))] = float(c)
    return NilElement(k, n, terms)


def test_criterion_1_algebra():
    rng = random.Random(2024)
    ok = True
    cases = 0
    while cases < 1000 and ok:
        k, n = rng.randint(1, 3), rng.randint(1, 3)
        a, b, c = (random_element(rng, k, n) for _ in range(3))
        ok &= a * b == b * a
        ok &= (a * b) * c == a * (b * c)
        ok &= a * (b + c) == a * b + a * c
        ok &= (a + b) - b == a
        cases += 1
    # nilpotency: a product longer than min(k, n) of generators vanishes
    for k in range(1, 5):
        for n in range(1, 5):
            nu = min(k, n)
            diag = NilElement.constant(k, n, 1.0)
            for i in range(1, nu + 1):
                diag = diag * NilElement.generator(k, n, i, i)
            ok &= not diag.is_zero()
            ok &= (diag * NilElement.generator(k, n, 1, 1)).is_zero()
            # graded dimensions
            for r in range(0, nu + 1):
                ok &= len(all_monomials(k, n, r)) == math.comb(k, r) * math.comb(n, r)
    # morphism laws
    for _ in range(50):
        a = random_element(rng, 3, 3)
        b = random_element(rng, 3, 3)
        ok &= (a * b).identify_rows(1, 2) == a.identify_rows(1, 2) * b.identify_rows(1, 2)
        ok &= (a * b).permute_rows([3, 1, 2]) == a.permute_rows([3, 1, 2]) * b.permute_rows([3, 1, 2])
        ok &= (a * b).zero_row(3) == a.zero_row(3) * b.zero_row(3)
    # non-integer inputs at 1e-12
    for _ in range(50):
        a = random_element(rng, 2, 2) * 0.1
        b = random_element(rng, 2, 2) * 0.3
        ok &= ((a * b) - (b * a)).max_abs_coeff() <= 1e-12
    report(1, "algebra: ring laws, nilpotency, morphisms, graded dimensions",
           ok)


def _corpus(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.choice((2, 3, 4)))
        degree = int(rng.choice((1, 2)) if n >= 2 else 1)
        base = Point([round(float(rng.uniform(-1, 1)), 3) for _ in range(n)])
        out.append((random_form(rng, degree, n, trig=True), base))
    return out


def _sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def test_criterion_2_forms():
    ok = True
    corpus = _corpus(100, seed=10)
    for form, base in corpus:
        theta = to_combinatorial(form)
        value = eval_generic(theta, base)
        if theta.degree >= 2:
            # degeneracy, exactly
            ok &= value.identify_rows(1, 2).is_zero()
            # alternation, exactly up to float roundoff on permutations
            for perm in permutations(range(1, theta.degree + 1)):
                ok &= (value.permute_rows(list(perm))
                       - value * float(_sign(perm))).max_abs_coeff() <= 1e-12
        # d of d vanishes
        ok &= eval_generic(d_comb(d_comb(theta)), base).max_abs_coeff() <= 1e-9
        # round trip
        env = dict(zip(form.vars, base.coords))
        got = extract_classical(theta, base)
        for T, e in form.coeffs.items():
            want = evaluate(e, env)
            ok &= abs(got.get(T, 0.0) - want) <= 1e-12 * max(1.0, abs(want))
    # tangent/neighbour correspondence identities, exact
    d = NilElement.generator(1, 3, 1, 1)
    t = Tangent(Point((1.0, -2.0, 0.5)), (3.0, 4.0, -1.0))
    y = exp_tangent(t, d)
    ok &= all(o == d * v for o, v in zip(y.offset, t.direction))
    report(2, "forms: degeneracy/alternation exact, d∘d=0, round trip, "
              "log/exp identities", ok)


def test_criterion_3_comparison():
    ok = True
    kappa = {1: [], 2: []}
    for form, base in _corpus(100, seed=11):
        _, _, ratios = comparison(d_comb(to_combinatorial(form)),
                                  d_classical(form), base)
        for r in ratios:
            kappa[form.degree].append(r)
        # zero-equivalence for d
        env = dict(zip(form.vars, base.coords))
        classical_zero = all(abs(evaluate(e, env)) <= 1e-9
                             for e in d_classical(form).coeffs.values())
        comb_zero = eval_generic(d_comb(to_combinatorial(form)),
                                 base).max_abs_coeff() <= 1e-9
        ok &= classical_zero == comb_zero
    for p, vals in kappa.items():
        ok &= len(vals) > 30
        ok &= float(np.std(vals)) <= 1e-9
        ok &= abs(float(np.mean(vals)) - 1.0 / (p + 1)) <= 1e-9
    mu = {}
    rng = np.random.default_rng(12)
    for _ in range(40):
        ka, kb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a = random_form(rng, ka, 4, trig=True)
        b = random_form(rng, kb, 4, trig=True)
        base = Point([round(float(rng.uniform(-1, 1)), 3) for _ in range(4)])
        _, _, ratios = comparison(wedge_comb(to_combinatorial(a), to_combinatorial(b)),
                                  wedge_classical(a, b), base)
        mu.setdefault((ka, kb), []).extend(ratios)
        # zero-equivalence for wedge
        env = dict(zip(a.vars, base.coords))
        cw = wedge_classical(a, b)
        classical_zero = all(abs(evaluate(e, env)) <= 1e-9
                             for e in cw.coeffs.values())
        val = eval_generic(wedge_comb(to_combinatorial(a),
                                      to_combinatorial(b)), base)
        comb_zero = val.degree_part(ka + kb).max_abs_coeff() <= 1e-9
        ok &= classical_zero == comb_zero
    for (ka, kb), vals in mu.items():
        want = math.factorial(ka) * math.factorial(kb) / math.factorial(ka + kb)
        ok &= float(np.std(vals)) <= 1e-9
        ok &= abs(float(np.mean(vals)) - want) <= 1e-9
    report(3, "comparison: constant normalization factors and "
              "zero-equivalence across the corpus", ok)


VARS3 = ("x", "y", "z")


def _form1(n, coeffs, vars):
    return ClassicalForm(1, n, {(i,): e for i, e in coeffs.items()}, vars)


def _ker_dz():
    return Distribution(3, 2, kernel=[_form1(3, {3: ex.Const(1.0)}, VARS3)],
                        vars=VARS3)


def _contact():
    w = _form1(3, {3: ex.Const(1.0), 1: ex.Neg(ex.Var("y"))}, VARS3)
    return Distribution(3, 2, kernel=[w], vars=VARS3)


def test_criterion_4_involutivity():
    ok = True
    pts = sample_box([(-1.0, 1.0)] * 3, 10, seed=0)
    _, comb = check_involutive_combinatorial(_ker_dz(), pts)
    ok &= comb is True and check_involutive_classical(_ker_dz(), pts) is True
    _, comb = check_involutive_combinatorial(_contact(), pts)
    ok &= comb is False and check_involutive_classical(_contact(), pts) is False
    # submersion level sets, 5 random scalars
    rng = np.random.default_rng(13)
    found = 0
    while found < 5:
        f = random_scalar_expr(rng, VARS3)
        df = {i + 1: ex.diff(f, v) for i, v in enumerate(VARS3)}
        good = [p for p in sample_box([(-1.0, 1.0)] * 3, 30, seed=found + 1)
                if max(abs(evaluate(e, dict(zip(VARS3, p.coords))))
                       for e in df.values()) > 0.3][:8]
        if len(good) < 5:
            continue
        dist = Distribution(3, 2, kernel=[_form1(3, df, VARS3)], vars=VARS3)
        verdicts, comb = check_involutive_combinatorial(dist, good)
        ok &= comb is True and all(verdicts)
        ok &= check_involutive_classical(dist, good) is True
        found += 1
    # 20 random kernel distributions, per-point agreement
    agreements = 0
    attempts = 0
    while agreements < 20 and attempts < 200:
        attempts += 1
        n = int(rng.choice((3, 4)))
        m = int(rng.integers(1, n - 1))
        vars = tuple(f"x{i+1}" for i in range(n))
        kforms = []
        for _ in range(m):
            coeffs = {i: random_scalar_expr(rng, vars)
                      for i in range(1, n + 1) if rng.random() < 0.7}
            if not coeffs:
                coeffs = {1: ex.Const(1.0)}
            kforms.append(_form1(n, coeffs, vars))
        dist = Distribution(n, n - m, kernel=kforms, vars=vars)
        pts_n = sample_box([(-1.0, 1.0)] * n, 8, seed=attempts)
        try:
            _, comb = check_involutive_combinatorial(dist, pts_n, tol=1e-9)
            cls = check_involutive_classical(dist, pts_n, tol=1e-9)
        except RankDeficiencyError:
            continue
        ok &= comb == cls
        agreements += 1
    ok &= agreements >= 20
    report(4, "involutivity: combinatorial and classical verdicts agree on "
              "named examples and 20 random distributions", ok)


def test_criterion_5_patches_and_semi_simplices():
    ok = True
    pts2 = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)] * 2, 8, seed=3)]
    pts1 = [tuple(p.coords) for p in sample_box([(-1.0, 1.0)], 8, seed=3)]
    plane = IntegralPatch(("s", "t"), [ex.Var("s"), ex.Var("t"), ex.Const(7.0)])
    line = IntegralPatch(("s",), [ex.Var("s"), ex.Const(0.0), ex.Const(0.0)])
    sheet = IntegralPatch(("s", "t"), [ex.Var("s"), ex.Var("t"), ex.Const(0.0)])
    verdicts = (
        (check_integral_patch(_ker_dz(), plane, "weak", pts2),
         check_integral_patch(_ker_dz(), plane, "strong", pts2)),
        (check_integral_patch(_ker_dz(), line, "weak", pts1),
         check_integral_patch(_ker_dz(), line, "strong", pts1)),
        (check_integral_patch(_contact(), sheet, "weak", pts2),
         check_integral_patch(_contact(), sheet, "strong", pts2)),
    )
    ok &= verdicts == ((True, True), (True, False), (False, False))
    # semi-simplex annihilation whenever the precondition holds
    pts = sample_box([(-1.0, 1.0)] * 3, 8, seed=5)
    rng = np.random.default_rng(14)
    checked = 0
    attempts = 0
    while checked < 8 and attempts < 100:
        attempts += 1
        f = random_scalar_expr(rng, VARS3)
        df = {i + 1: ex.diff(f, v) for i, v in enumerate(VARS3)}
        dist = Distribution(3, 2, kernel=[_form1(3, df, VARS3)], vars=VARS3)
        try:
            good = [p for p in pts
                    if max(abs(evaluate(e, dict(zip(VARS3, p.coords))))
                           for e in df.values()) > 0.3][:5]
            if len(good) < 3:
                continue
            theta = d_comb(to_combinatorial(dist.kernel[0]))
            res = semi_annihilation_check(dist, theta, good)
        except RankDeficiencyError:
            continue
        if res.precondition:
            ok &= bool(res.conclusion)
            checked += 1
    ok &= checked >= 8
    report(5, "integral patches (T,T)/(T,F)/(F,F) and semi-simplex "
              "annihilation on the involutive corpus", ok)


def test_criterion_6_chart_invariance():
    ok = True
    rng = random.Random(15)
    for _ in range(50):
        n = rng.choice((2, 3))
        vars = tuple(f"x{i+1}" for i in range(n))
        phi = []
        for i in range(n):
            e = ex.Const(round(rng.uniform(-2, 2), 3))
            for j, v in enumerate(vars):
                e = ex.Add(e, ex.Mul(ex.Const(round(rng.uniform(-2, 2), 3)),
                                     ex.Var(v)))
                e = ex.Add(e, ex.Mul(ex.Const(round(rng.uniform(-1, 1), 3)),
                                     ex.Mul(ex.Var(v), ex.Var(vars[(i + j) % n]))))
            phi.append(e)
        base = Point([round(rng.uniform(-1, 1), 3) for _ in range(n)])
        t = Tangent(base, [round(rng.uniform(-2, 2), 3) for _ in range(n)])
        d = NilElement.generator(1, n, 1, 1)
        image = pushforward_chart(phi, vars, exp_tangent(t, d))
        env = dict(zip(vars, base.coords))
        J = [[evaluate(ex.diff(c, v), env) for v in vars] for c in phi]
        for i in range(n):
            want = sum(J[i][j] * t.direction[j] for j in range(n))
            ok &= (image.offset[i] - d * want).max_abs_coeff() <= 1e-10
    report(6, "chart invariance: neighbour offsets transform exactly by "
              "the Jacobian under 50 random polynomial germs", ok)


def _rotational():
    J2 = [[ex.Const(0.0), ex.Mul(ex.Const(0.5), ex.Var("y"))],
          [ex.Mul(ex.Const(-0.5), ex.Var("y")), ex.Const(0.0)]]
    K2 = [[ex.Const(0.0), ex.Mul(ex.Const(-0.5), ex.Var("x"))],
          [ex.Mul(ex.Const(0.5), ex.Var("x")), ex.Const(0.0)]]
    return ConnectionData(2, [J2, K2], vars=("x", "y"))


def _circle(cx, cy, r):
    t = ex.Var("t")
    w = 2.0 * math.pi
    return [ex.Add(ex.Const(cx), ex.Mul(ex.Const(r), ex.Call("cos", ex.Mul(ex.Const(w), t)))),
            ex.Add(ex.Const(cy), ex.Mul(ex.Const(r), ex.Call("sin", ex.Mul(ex.Const(w), t))))]


def test_criterion_7_connections():
    ok = True
    # flat connection: zero curvature, identity holonomy
    zero = [[ex.Const(0.0)] * 2 for _ in range(2)]
    flat = ConnectionData(2, [zero, zero], vars=("x", "y"))
    for p in sample_box([(-1.0, 1.0)] * 2, 5, seed=1):
        for F in curvature_coboundary(flat, p).values():
            ok &= np.max(np.abs(F)) <= 1e-12
    g = parallel_transport(flat, _circle(0.0, 0.0, 1.0), 0.0, 1.0, 1000)
    ok &= np.max(np.abs(g - np.eye(2))) <= 1e-12

    conn = _rotational()
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    # abelian coboundary equals the scaled entrywise derivative exactly
    for p in sample_box([(-1.0, 1.0)] * 2, 5, seed=2):
        F = curvature_coboundary(conn, p)[(1, 2)]
        ok &= np.max(np.abs(F - COBOUNDARY_SCALE * J)) <= 1e-12

    # oracle match at 50 random points after one-time pinning
    rng = np.random.default_rng(16)
    vars2 = ("x1", "x2")
    A = [[[random_scalar_expr(rng, vars2) for _ in range(2)] for _ in range(2)]
         for _ in range(2)]
    gl = ConnectionData(2, A, vars=vars2)
    scale, sign = pin_conventions(gl, sample_box([(-1.0, 1.0)] * 2, 6, seed=3))
    ok &= abs(scale - COBOUNDARY_SCALE) <= 1e-9 and sign == BRACKET_SIGN
    for p in sample_box([(-1.0, 1.0)] * 2, 50, seed=4):
        cob = curvature_coboundary(gl, p)
        oracle = curvature_classical_oracle(gl, p)
        for key in cob:
            ok &= np.max(np.abs(cob[key] - COBOUNDARY_SCALE * oracle[key])) <= 1e-9

    # rotational holonomy angle = -(enclosed area) within 1e-3, RK4 1e4 steps
    for r in (0.5, 1.0, 2.0):
        g = parallel_transport(conn, _circle(0.0, 0.0, r), 0.0, 1.0, 10_000)
        area = math.pi * r * r
        want = np.array([[math.cos(area), math.sin(area)],
                         [-math.sin(area), math.cos(area)]])
        ok &= np.max(np.abs(g - want)) <= 1e-3  # angle compared modulo 2*pi
        if area < math.pi - 0.1:
            ok &= abs(holonomy_log(g)[1, 0] + area) <= 1e-3
        elif area <= math.pi:
            # at exactly half a turn the principal branch sign is free
            ok &= abs(abs(holonomy_log(g)[1, 0]) - area) <= 1e-3

    # holonomy-algebra inclusion, 10 loops
    loops = []
    lrng = np.random.default_rng(5)
    for _ in range(10):
        cx, cy = lrng.uniform(-0.3, 0.3, size=2)
        loops.append((_circle(float(cx), float(cy),
                               float(lrng.uniform(0.2, 0.8))), 0.0, 1.0))
    incl, dim_h, resid = ambrose_singer_check(
        conn, loops, sample_box([(-1.0, 1.0)] * 2, 5, seed=6),
        Point((0.0, 0.0)), steps=2000, tol=1e-6)
    ok &= incl and dim_h == 1 and resid <= 1e-6

    # holonomy-distribution involutivity in W arithmetic on random simplices
    for _ in range(5):
        x = Point(lrng.uniform(-0.5, 0.5, size=2))
        y, z = (NilPoint(x, offsets) for offsets in generic_offsets(2, 2))
        fxy, fyz, fzx = (ref_transport_neighbor(conn, a, b) for a, b in ((x, y), (y, z), (z, x)))
        for f in (fxy, fyz, fzx, omat_mul(omat_mul(fxy, fyz), fzx), omat_mul(fyz, fzx)):
            ok &= in_subalgebra_cone(f, [J])
    report(7, "connections: flat case, abelian coboundary, oracle match, "
              "holonomy=area, holonomy-algebra inclusion, W-involutivity", ok)


GOLDEN_PROGRAMS = (
    "dim 3\nvar x y z\nform w = ((-1)*y)*dx + dz\ndist D = ker(w)\n"
    "patch P(s, t) = (s, t, 0)\n",
    "dim 2\nvar x y\nform a = sin(x)*dx + pow(y, 3)*dy\nform b = (x*y)*dx\n"
    "form c = a^b\n",
    "dim 2\nvar x y\nvector u = (1, 0)\nvector v = ((-1)*y, x)\n"
    "dist S = span(u, v)\n",
)


def test_criterion_8_dsl_cli(tmp_path):
    ok = True
    # byte-exact round trip on the golden corpus
    for text in GOLDEN_PROGRAMS:
        printed = pretty_print(parse(text))
        ok &= pretty_print(parse(printed)) == printed
    # symbolic derivative vs finite differences, 1e-5 relative
    rng = np.random.default_rng(17)
    prng = random.Random(17)
    for _ in range(25):
        e = random_scalar_expr(rng, ("x", "y"), trig=True)
        at = {"x": prng.uniform(0.2, 1.2), "y": prng.uniform(0.2, 1.2)}
        h = 1e-6
        for v in ("x", "y"):
            de = evaluate(ex.diff(e, v), at)
            up = dict(at); up[v] += h
            dn = dict(at); dn[v] -= h
            fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
            ok &= abs(de - fd) <= 1e-5 * max(1.0, abs(de))
    # exit-code contract
    contact = tmp_path / "contact.sdg"
    contact.write_text(GOLDEN_PROGRAMS[0])
    flat = tmp_path / "flat.sdg"
    flat.write_text("dim 3\nvar x y z\nform w = dz\ndist D = ker(w)\n")

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdout=out, stderr=err)
        return code, out.getvalue()

    code, _ = invoke(["check-involutive", "--file", str(flat),
                      "--dist", "D", "--box=-1..1"])
    ok &= code == EXIT_OK
    code, _ = invoke(["check-involutive", "--file", str(contact),
                      "--dist", "D", "--box=-1..1"])
    ok &= code == EXIT_FALSE
    code, _ = invoke(["d", "--file", str(tmp_path / "missing.sdg"),
                      "--form", "w", "--at", "0,0,0"])
    ok &= code == EXIT_USAGE
    # deterministic output under a fixed seed
    argv = ["check-involutive", "--file", str(contact), "--dist", "D",
            "--box=-1..1", "--seed", "7", "--format", "json"]
    outs = {invoke(argv)[1] for _ in range(3)}
    ok &= len(outs) == 1
    ok &= json.loads(next(iter(outs)))["agree"] is True
    report(8, "language and CLI: round trip, derivative oracle, exit codes, "
              "determinism", ok)
