"""Random test corpora: scalar expressions and classical forms drawn from a
numpy Generator."""

from itertools import combinations

from sdgeom import expr as ex
from sdgeom.forms import ClassicalForm, default_vars


def random_scalar_expr(rng, vars, trig=False):
    """Random low-degree polynomial (optionally with sin/cos factors)."""
    terms = []
    nterms = rng.integers(1, 4)
    for _ in range(nterms):
        c = ex.Const(round(float(rng.uniform(-3, 3)), 3))
        factors = c
        for v in vars:
            deg = int(rng.integers(0, 3))
            if deg:
                factors = ex.Mul(factors, ex.Pow(ex.Var(v), deg)
                                 if deg > 1 else ex.Var(v))
        if trig and rng.random() < 0.4:
            fn = "sin" if rng.random() < 0.5 else "cos"
            factors = ex.Mul(factors, ex.Call(fn, ex.Var(vars[int(rng.integers(0, len(vars)))])))
        terms.append(factors)
    out = terms[0]
    for t in terms[1:]:
        out = ex.Add(out, t)
    return out


def random_form(rng, degree, n, vars=None, trig=False):
    """Random classical form: each coefficient present with probability 0.8,
    at least one present."""
    if vars is None:
        vars = default_vars(n)
    coeffs = {}
    for T in combinations(range(1, n + 1), degree):
        if rng.random() < 0.8:
            coeffs[T] = random_scalar_expr(rng, vars, trig=trig)
    if not coeffs:
        T = tuple(range(1, degree + 1))
        coeffs[T] = random_scalar_expr(rng, vars, trig=trig)
    return ClassicalForm(degree, n, coeffs, vars)
