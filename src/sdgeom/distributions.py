"""Geometric distributions: flatness of neighbour pairs, combinatorial and
classical involutivity tests, integral-patch checks, and a numeric leaf
tracer.

A distribution is a rank-m sub-bundle of the tangent bundle of a chart,
given either by m spanning vector-field expressions or by n-m annihilating
1-forms.  Involutivity is checked pointwise at sample points: the fiber
computation is exact W-arithmetic, the base is sampled.
"""

import math

import numpy as np

from . import expr as ex
from .errors import (ChartDomainError, DegreeError, DomainError,
                     RankDeficiencyError)
from .forms import (d_classical, d_comb, eval_semi, to_combinatorial,
                    wedge_classical)
from .nil import NilElement, generic_offsets, within_tol
from .chart import Point

DEFAULT_TOL = 1e-9


class Distribution:
    """Sub-bundle of the tangent bundle over a chart."""

    def __init__(self, n, rank, span=None, kernel=None, vars=None):
        if span is None and kernel is None:
            raise ValueError("need a SPAN or KERNEL representation")
        if kernel is not None:
            kernel = list(kernel)
            if len(kernel) != n - rank:
                raise DegreeError("kernel must consist of n-rank 1-forms")
            for w in kernel:
                if w.degree != 1 or w.n != n:
                    raise DegreeError("kernel entries must be 1-forms on the chart")
        if span is not None:
            span = [list(v) for v in span]
            if len(span) != rank or any(len(v) != n for v in span):
                raise DegreeError("span must consist of rank n-vector fields")
        self.n = n
        self.rank = rank
        self.span = span
        self.kernel = kernel
        if vars is not None:
            self.vars = tuple(vars)
        elif kernel:
            self.vars = kernel[0].vars
        else:
            self.vars = tuple(f"x{i + 1}" for i in range(n))

    # -- pointwise linear algebra -------------------------------------------

    def kernel_matrix(self, p):
        """(n-rank) x n matrix of kernel-form coefficients at p."""
        if self.kernel is None:
            return self._numeric_kernel(p)
        env = dict(zip(self.vars, p.coords))
        rows = []
        for w in self.kernel:
            row = [0.0] * self.n
            for (i,), e in w.coeffs.items():
                row[i - 1] = ex.evaluate(e, env)
            rows.append(row)
        M = np.array(rows, dtype=float)
        if np.linalg.matrix_rank(M, tol=1e-7) != self.n - self.rank:
            raise RankDeficiencyError(f"kernel forms rank-deficient at {p.coords}")
        return M

    def span_matrix(self, p):
        """n x rank matrix of spanning field values at p."""
        if self.span is None:
            return self._numeric_span(p)
        env = dict(zip(self.vars, p.coords))
        M = np.array([[ex.evaluate(c, env) for c in v] for v in self.span],
                     dtype=float).T
        if np.linalg.matrix_rank(M, tol=1e-7) != self.rank:
            raise RankDeficiencyError(f"span fields rank-deficient at {p.coords}")
        return M

    def _numeric_span(self, p):
        """Span basis from the kernel via SVD null space."""
        M = self.kernel_matrix(p)
        _, s, vt = np.linalg.svd(M)
        rank = int(np.sum(s > 1e-10))
        null = vt[rank:].T
        if null.shape[1] != self.rank:
            raise RankDeficiencyError(f"kernel null space has wrong rank at {p.coords}")
        return null

    def _numeric_kernel(self, p):
        """Kernel rows from the span via orthogonal complement."""
        X = self.span_matrix(p)
        q, _ = np.linalg.qr(np.hstack([X, np.eye(self.n)]))
        comp = q[:, self.rank:self.n]
        return comp.T

    def basis_at(self, p):
        """Orthonormal n x rank basis of the fiber at p."""
        if self.span is not None:
            q, r = np.linalg.qr(self.span_matrix(p))
            if np.any(np.abs(np.diag(r)) < 1e-10):
                raise RankDeficiencyError(f"span fields rank-deficient at {p.coords}")
            return q
        return self._numeric_span(p)


def span_residual(M, v):
    """Distance of the vector v from the column span of M (least squares);
    nan if v is not finite."""
    coef, *_ = np.linalg.lstsq(M, v, rcond=None)
    return float(np.linalg.norm(M @ coef - v))


def is_flat(dist, p, u, tol=DEFAULT_TOL):
    """Whether the displacement u lies in the fiber at p."""
    u = np.asarray(u, dtype=float)
    if dist.kernel is not None:
        resid = np.max(np.abs(dist.kernel_matrix(p) @ u), initial=0.0)
    else:
        resid = span_residual(dist.span_matrix(p), u)
    return bool(within_tol(resid, tol * max(1.0, np.linalg.norm(u))))


def flat_symmetry_check(dist, samples, tol=DEFAULT_TOL):
    """Verify omega_i(x, y) = -omega_i(y, x) as W-identities at samples,
    so flatness is a symmetric relation."""
    if dist.kernel is None:
        raise DegreeError("symmetry check needs a KERNEL representation")
    for p in samples:
        for w in dist.kernel:
            theta = to_combinatorial(w)
            offsets = generic_offsets(1, dist.n)
            forward = theta(p.coords, offsets)
            # omega(y, x): base at y = x + u, displacement -u
            new_base = tuple(b + o for b, o in zip(p.coords, offsets[0]))
            backward = theta(new_base, [tuple(-o for o in offsets[0])])
            if not within_tol(forward + backward, tol):
                return False
    return True


def _flat_generic_offsets(dist, p, arity):
    """Displacement vectors of the generic flat simplex at p: rows are
    generic combinations of a fiber basis, in W(arity, rank)."""
    B = dist.basis_at(p)
    m = dist.rank
    return [[NilElement(arity, m, {(1 << j, 1 << alpha): float(B[a, alpha])
                                   for alpha in range(m) if B[a, alpha]})
             for a in range(dist.n)]
            for j in range(arity)]


def check_involutive_combinatorial(dist, samples, tol=DEFAULT_TOL):
    """Simplicial test: every d(omega_i) vanishes on the generic flat
    2-simplex at each sample.  Returns (per-point list, aggregate)."""
    if dist.kernel is None:
        raise DegreeError(
            "combinatorial involutivity test needs KERNEL forms "
            "(use pointwise_involutive_span for SPAN-only input)")
    dthetas = [d_comb(to_combinatorial(w)) for w in dist.kernel]
    verdicts = []
    for p in samples:
        offsets = _flat_generic_offsets(dist, p, 2)
        ok = True
        for dtheta in dthetas:
            if not within_tol(dtheta(p.coords, offsets), tol):
                ok = False
                break
        verdicts.append(ok)
    return verdicts, all(verdicts)


def pointwise_involutive_span(dist, samples, tol=1e-6, h=1e-5):
    """Lower-trust involutivity test for SPAN-only input: finite-difference
    exterior derivative of numerically constructed kernel covectors,
    evaluated on fiber basis pairs."""
    if dist.span is None:
        raise DegreeError("pointwise mode needs a SPAN representation")
    fields = [[ex.compile_numeric(c, dist.vars) for c in v] for v in dist.span]

    def proj(x):
        X = np.array([[f(*x) for f in v] for v in fields], dtype=float).T
        return X @ np.linalg.pinv(X)

    verdicts = []
    for p in samples:
        x0 = np.array(p.coords)
        K0 = np.eye(dist.n) - proj(x0)
        # smooth covector fields k_i(x) = K0_i (I - P(x)); k_i(p) = K0_i
        rows = [K0[i] for i in range(dist.n)]
        B = dist.basis_at(p)
        ok = True
        for row in rows:
            def omega_dot(x, vvec, row=row):
                return float(row @ (np.eye(dist.n) - proj(x)) @ vvec)

            for a in range(dist.rank):
                for b in range(a + 1, dist.rank):
                    u, v = B[:, a], B[:, b]
                    du = (omega_dot(x0 + h * u, v) - omega_dot(x0 - h * u, v)) / (2 * h)
                    dv = (omega_dot(x0 + h * v, u) - omega_dot(x0 - h * v, u)) / (2 * h)
                    if not within_tol(du - dv, tol):
                        ok = False
        verdicts.append(ok)
    return verdicts, all(verdicts)


def check_involutive_classical(dist, samples, tol=DEFAULT_TOL):
    """Classical oracle: ideal test d(omega_i) ^ omega_1 ^ ... = 0 when
    kernel forms are available, bracket test when span fields are; both
    must agree when both representations exist."""
    results = []
    if dist.kernel is not None:
        results.append(_ideal_test(dist, samples, tol))
    if dist.span is not None:
        results.append(_bracket_test(dist, samples, tol))
    if not results:
        raise DegreeError("no representation available")
    if len(results) == 2 and results[0] != results[1]:
        raise RankDeficiencyError(
            "ideal and bracket involutivity tests disagree")
    return results[0]


def _ideal_test(dist, samples, tol):
    full = None
    for w in dist.kernel:
        full = w if full is None else wedge_classical(full, w)
    tests = [wedge_classical(d_classical(w), full) for w in dist.kernel]
    tests = [test for test in tests if test.degree <= dist.n]
    for p in samples:
        env = dict(zip(dist.vars, p.coords))
        for test in tests:
            for e in test.coeffs.values():
                if not within_tol(ex.evaluate(e, env), tol):
                    return False
    return True


def _bracket_test(dist, samples, tol):
    brackets = []
    for a in range(dist.rank):
        for b in range(a + 1, dist.rank):
            Xa, Xb = dist.span[a], dist.span[b]
            comp = []
            for i in range(dist.n):
                term = ex.Const(0.0)
                for j, var in enumerate(dist.vars):
                    term = ex._fold_add(term, ex._fold_mul(Xa[j], ex.diff(Xb[i], var)))
                    term = ex._fold_sub(term, ex._fold_mul(Xb[j], ex.diff(Xa[i], var)))
                comp.append(term)
            brackets.append(comp)
    for p in samples:
        env = dict(zip(dist.vars, p.coords))
        X = dist.span_matrix(p)
        for comp in brackets:
            u = np.array([ex.evaluate(c, env) for c in comp], dtype=float)
            if not within_tol(span_residual(X, u), tol * max(1.0, np.linalg.norm(u))):
                return False
    return True


class IntegralPatch:
    """Parametrized candidate integral submanifold."""

    def __init__(self, params, component_exprs, domain=None):
        self.params = tuple(params)
        self.components = list(component_exprs)
        self.domain = domain  # list of (lo, hi) per parameter, or None

    @property
    def q(self):
        return len(self.params)

    def point_at(self, s):
        env = dict(zip(self.params, s))
        return Point([ex.evaluate(c, env) for c in self.components])

    def jacobian_at(self, s):
        env = dict(zip(self.params, s))
        J = np.array([[ex.evaluate(ex.diff(c, v), env) for v in self.params]
                      for c in self.components], dtype=float)
        if np.linalg.matrix_rank(J, tol=1e-7) != self.q:
            raise RankDeficiencyError(f"patch Jacobian rank-deficient at {s}")
        return J


def check_integral_patch(dist, patch, mode, parameter_samples, tol=DEFAULT_TOL):
    """Containment check: tangent spaces of the patch contained in (weak)
    or equal to (strong) the distribution fibers."""
    if mode not in ("weak", "strong"):
        raise ValueError("mode must be 'weak' or 'strong'")
    if mode == "strong" and patch.q != dist.rank:
        return False
    for s in parameter_samples:
        p = patch.point_at(s)
        J = patch.jacobian_at(s)
        for col in J.T:
            if not is_flat(dist, p, col, tol):
                return False
        if mode == "strong":
            B = dist.basis_at(p)
            for col in B.T:
                if not within_tol(span_residual(J, col), tol):
                    return False
    return True


class SemiAnnihilationResult:
    """Outcome of the semi-simplex annihilation check, with the
    precondition reported separately from the conclusion."""

    def __init__(self, precondition, conclusion):
        self.precondition = precondition
        self.conclusion = conclusion

    def __bool__(self):
        return bool(self.precondition and self.conclusion)


def semi_annihilation_check(dist, theta, samples, rng=None, tol=DEFAULT_TOL):
    """If a combinatorial 2-form annihilates flat infinitesimal simplices,
    its semi-infinitesimal extension annihilates flat semi-simplices."""
    if theta.degree != 2:
        raise DegreeError("semi_annihilation_check expects a 2-form")
    if rng is None:
        rng = np.random.default_rng(0)
    conclusion = True
    for p in samples:
        offsets = _flat_generic_offsets(dist, p, 2)
        if not within_tol(theta(p.coords, offsets), tol):
            return SemiAnnihilationResult(False, None)
        B = dist.basis_at(p)
        vecs = [B[:, a] for a in range(dist.rank)]
        vecs += [B @ rng.normal(size=dist.rank) for _ in range(3)]
        for i, u in enumerate(vecs):
            for v in vecs[i + 1:]:
                if not within_tol(eval_semi(theta, p, u, v, tol=tol), tol):
                    conclusion = False
    return SemiAnnihilationResult(True, conclusion)


def trace_leaf(dist, start, steps, stepsize, schedule=None, box=None):
    """Fourth-order Runge-Kutta flow along the span fields.

    `schedule` maps the step index to a rank-vector of field coefficients;
    the default cycles through the basis directions, each with coefficient
    +1.
    A domain error, a division by zero or a non-finite point raises
    DomainError.
    """
    if dist.span is None:
        raise DegreeError("leaf tracing needs a SPAN representation")
    fields = [ex.compile_numeric(v, dist.vars) for v in dist.span]
    m = dist.rank

    if schedule is None:
        def schedule(i):
            c = [0.0] * m
            c[i % m] = 1.0
            return c

    def velocity(x, terms):
        v = [0.0] * dist.n
        for cj, field in terms:
            v = [vi + cj * fi for vi, fi in zip(v, field(*x))]
        return v

    half = 0.5 * stepsize
    sixth = stepsize / 6.0
    x = start.coords
    out = [Point(x)]
    for i in range(steps):
        terms = [(cj, field) for cj, field in zip(schedule(i), fields) if cj]
        k1 = velocity(x, terms)
        k2 = velocity([a + half * b for a, b in zip(x, k1)], terms)
        k3 = velocity([a + half * b for a, b in zip(x, k2)], terms)
        k4 = velocity([a + stepsize * b for a, b in zip(x, k3)], terms)
        x = tuple(a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4))
        if not all(map(math.isfinite, x)):
            raise DomainError(f"leaf trace reached a non-finite point at step {i + 1}")
        if box is not None:
            for xi, (lo, hi) in zip(x, box):
                if not (lo <= xi <= hi):
                    raise ChartDomainError(f"leaf trace left the chart at {x}")
        out.append(Point(x))
    return out
