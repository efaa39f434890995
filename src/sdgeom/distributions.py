"""Geometric distributions: combinatorial and classical involutivity tests
on flat simplices, integral-patch checks, semi-simplex annihilation, and a
numeric leaf tracer.

A distribution is a rank-m sub-bundle of the tangent bundle of a chart,
given either by m spanning vector-field expressions or by n-m annihilating
1-forms, not both.  Involutivity is checked pointwise at sample points: the
fiber computation is exact W-arithmetic, the base is sampled.
"""

import math
from functools import cached_property, partial, reduce

import numpy as np

from . import expr as ex
from .errors import DegreeError, DomainError, RankDeficiencyError
from .forms import (d_classical, default_vars, extract_classical, semi_value,
                    to_combinatorial, wedge_classical)
from .nil import DEFAULT_TOL, NilElement, generic_offsets, within_tol
from .chart import Point

RANK_CUTOFF = 1e-7  # singular values at most this do not count to a rank


class Distribution:
    """Sub-bundle of the tangent bundle over a chart."""

    def __init__(self, n, rank, span=None, kernel=None, vars=None):
        if (span is None) == (kernel is None):
            raise ValueError("need one representation: SPAN or KERNEL")
        if not 0 <= rank <= n:
            raise DegreeError(f"rank must lie between 0 and the dimension {n}")
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
        self.vars = (tuple(vars) if vars is not None else kernel[0].vars if kernel
                     else default_vars(n))

    # -- compiled functions, built on first use -------------------------------
    # `expr.compile_w` at points and stacked samples, 1-jets and face tables
    # at the neighbours in W of Kock's relation

    @cached_property
    def _kernel_coeffs(self):
        """Kernel-form coefficients, row by row."""
        return [w.coeffs.get((i + 1,), ex.Const(0.0)) for w in self.kernel for i in range(self.n)]

    @cached_property
    def _kernel_fns(self):
        return ex.compile_w(self._kernel_coeffs, self.vars)

    @cached_property
    def _kernel_comb(self):
        """The kernel forms as combinatorial forms, for Kock's relation."""
        return [to_combinatorial(w) for w in self.kernel]

    @cached_property
    def _span_fns(self):
        """Spanning-field components, field by field."""
        return ex.compile_w([c for v in self.span for c in v], self.vars)

    @cached_property
    def _span_jet(self):
        return ex.Jet([c for v in self.span for c in v], self.vars)

    @cached_property
    def _edge(self):
        """d_2 - d_1, the edge (1, 2) of the generic 2-simplex in W(2, n)."""
        u, v = generic_offsets(2, self.n)
        return [b - a for a, b in zip(u, v)]

    @cached_property
    def _ideal_fns(self):
        """Coefficients of the ideal test's forms d(omega_i) ^ omega_1 ^ ...,
        form by form."""
        full = None
        for w in self.kernel:
            full = w if full is None else wedge_classical(full, w)
        tests = [wedge_classical(d_classical(w), full) for w in self.kernel]
        return ex.compile_w([e for test in tests if test.degree <= self.n
                             for e in test.coeffs.values()], self.vars)

    @cached_property
    def _bracket_fns(self):
        """Components of [X_a, X_b] for a < b, bracket by bracket,
        differentiated once."""
        comps = []
        for a in range(self.rank):
            for b in range(a + 1, self.rank):
                Xa, Xb = self.span[a], self.span[b]
                for i in range(self.n):
                    term = ex.Const(0.0)
                    for j, var in enumerate(self.vars):
                        term = ex._fold_add(term, ex._fold_mul(Xa[j], ex.diff(Xb[i], var)))
                        term = ex._fold_sub(term, ex._fold_mul(Xb[j], ex.diff(Xa[i], var)))
                    comps.append(term)
        return ex.compile_w(comps, self.vars)

    # -- pointwise linear algebra: row 0 of a one-row stack ------------------

    def basis_at(self, p):
        """Orthonormal n x rank basis of the fiber at p: row 0 of its
        one-row stack (`_basis_stack`), the checks' at one sample."""
        return self._basis_stack(_coords([p], self.n))[0][0]

    # -- the same over stacked points, for the checks below -----------------

    def _kernel_stack(self, X):
        """Over the rows of X (N, n), from one batched SVD: the kernel
        matrices (N, n-rank, n), their null-space bases (N, n, rank), and
        which samples have both."""
        K, ok = _stack(self._kernel_fns, X, self.n)
        _, s, vt = np.linalg.svd(K)
        return (K, vt[:, self.n - self.rank:].transpose(0, 2, 1),
                ok & _full_rank(s, self.n - self.rank, X, "kernel forms"))

    def _span_stack(self, X):
        """Over the rows of X (N, n): the span matrices M (N, n, rank), from
        one complete QR of them Q = [B | K0^T] (N, n, n) and the upper
        triangular C = B^T M (N, rank, rank), and which samples have them."""
        M, ok = _stack(self._span_fns, X, self.n)
        M = M.transpose(0, 2, 1)
        ok &= _full_rank(np.linalg.svd(M, compute_uv=False), self.rank, X, "span fields")
        q, r = np.linalg.qr(M, mode="complete")
        return M, q, r[:, :self.rank], ok

    def _basis_stack(self, X):
        """basis_at over the rows of X (N, n), and which samples have it."""
        if self.span is None:
            return self._kernel_stack(X)[1:]
        _, Q, _, ok = self._span_stack(X)
        return Q[..., :self.rank], ok


# Each check's rule is written once, over a stack of samples with a leading
# sample axis: `check(samples)` returns the outcome at each sample and which
# samples it decides.  One sample's values are its float values, from the
# compiled functions' float calls, and its frame is its one-row stack's;
# both raise where the sample is undefined or rank-deficient, so a
# one-sample call decides its sample or raises as a loop over the samples
# does.  More samples' are stacked: by `expr.stacked`, the float values bit
# for bit wherever they are finite, and one factorisation of the stack,
# each row's frame that of its one-row stack bit for bit.  The stack decides
# each sample whose values are finite and whose matrix has full rank.
# `_in_order` drives every check: the first sample alone, then the stack of
# the rest, and a one-sample call at each sample that stack does not
# decide, in sample order; so verdicts, per-point lists and errors are
# those of a loop over the samples.


def _full_rank(s, rank, X, what):
    """The one rank rule: whether the matrices of `what` at the rows of X
    (N, ...), with the singular values s (N, k), have rank `rank`, that is,
    that many of them over RANK_CUTOFF.  A one-row stack raises
    RankDeficiencyError where its matrix has not."""
    full = (s > RANK_CUTOFF).sum(axis=-1) == rank
    if len(X) == 1 and not full[0]:
        raise RankDeficiencyError(f"{what} rank-deficient at {tuple(X[0].tolist())}")
    return full


def _samples(samples):
    """The samples as a list; ValueError for none, which would pass vacuously."""
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to check")
    return samples


def _coords(points, n):
    """The points' coordinates as rows (N, n); ValueError for a point of
    another dimension."""
    for p in points:
        if len(p.coords) != n:
            raise ValueError(f"point {p.coords} is not in the {n}-dimensional chart")
    return np.array([p.coords for p in points], dtype=float)


def _stack(fn, X, width):
    """The values of the compiled `fn` at the rows of X (N, n), in rows of
    `width`, shape (N, values / width, width), and which rows they decide.
    One row's are fn's float call, which raises where the row is undefined;
    more rows' come from `expr.stacked`.  A row that is not finite is zeroed,
    so that the linear algebra over the stack stays finite and a frame's
    counts no singular value (`_full_rank`), and undecided."""
    if len(X) == 1:
        V = np.array([fn(*X[0].tolist())], dtype=float)
    else:
        V = ex.stacked(fn, *X.T).T
    V = V.reshape(len(X), V.shape[1] // width, width)
    finite = np.isfinite(V).all(axis=(1, 2))
    V[~finite] = 0.0
    return V, finite


def _fibers(dist, samples, X):
    """The fiber bases (N, n, rank) at the samples, with coordinates X
    (N, n), from one factorisation of their stack, and which samples have
    one.  One sample's is `basis_at`'s, the same one-row stack's: perfbench's
    tracer counts the samples a check visits through the per-point methods."""
    if len(samples) == 1:
        return dist.basis_at(samples[0])[None], np.ones(1, dtype=bool)
    return dist._basis_stack(X)


def _in_order(samples, check):
    """The outcome of a check at each sample, lazily and in sample order, as
    a loop over the samples decides.  `check(samples)` returns the outcomes
    at the samples and which of them it decides; a one-sample call decides
    its sample or raises.  The first sample is checked alone, then, if the
    caller asks for more, the stack of the rest, with a one-sample call at
    each sample that stack does not decide (a stack of one is a one-sample
    call).  A stack that raises DomainError or ValueError (a subexpression
    without variables, a sample of another dimension) decides no sample."""
    def alone(s):
        return check([s])[0][0]

    if len(samples) < 3:
        yield from map(alone, samples)
        return
    yield alone(samples[0])
    try:
        outcomes, decided = check(samples[1:])
    except (DomainError, ValueError):
        outcomes = decided = [False] * (len(samples) - 1)
    for s, outcome, ok in zip(samples[1:], outcomes, decided):
        yield outcome if ok else alone(s)


def _basis_residuals(B, V):
    """Distance of each column of V (N, n, c) from the span of the
    orthonormal columns of B (N, n, r), shape (N, c)."""
    return np.linalg.norm(V - B @ (B.transpose(0, 2, 1) @ V), axis=1)


def _tangent_verdicts(K, B, V, tol):
    """Whether each column v of V (N, n, c) lies in the fiber, shape (N, c):
    its residual within tol max(1, |v|).  For KERNEL input (K the kernel
    matrices, V a patch Jacobian) that is the largest |K v|, one column at a
    time (K @ V rounds differently); for SPAN input, the distance of v from
    the span of the fiber bases B."""
    if K is None:
        residual = _basis_residuals(B, V)
    else:
        KV = np.concatenate([K @ V[..., j:j + 1] for j in range(V.shape[2])], axis=2)
        residual = np.abs(KV).max(axis=1, initial=0.0)
    return within_tol(residual, tol * np.maximum(1.0, np.linalg.norm(V, axis=1)))


def _entries(M):
    """Rows of a matrix as lists of floats; of a stack (N, r, c), of arrays."""
    return M.tolist() if M.ndim == 2 else np.ascontiguousarray(M.transpose(1, 2, 0))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _relation(dist, span, x, frame):
    """Kock's relation on the generic 2-simplex (x, x + d_1, x + d_2) in
    W(2, n), d_r the row-r generators: the residuals, kernel row by kernel
    row, that vanish where x + d_1 ~_D x + d_2.  `_flat_check` maps them
    along the fiber basis B at x onto the generic flat 2-simplex
    (x, x + d_1 B, x + d_2 B).

    For KERNEL input they are the kernel forms' combinatorial values on
    the edge (1, 2) (`to_combinatorial`), all evaluated before any is
    tested.  For SPAN input (`span`) the frame at x holds the columns of B,
    K0^T and S^T (`_span_relation_stack`, S = C^-1 B^T), and the residuals
    are K_y w = K0 w - (K0 X(y)) S w for w = d_2 - d_1, with X the span
    fields' 1-jets at y = x + d_1 (`expr.Jet`): both outer factors are
    nilpotent and W(2, n) stops at degree 2, so only C, the constant part
    of B^T X(y), is inverted.  x and the frame are floats at one sample,
    and arrays over stacked samples."""
    if not span:
        return [form.on_face(x, 2, (1, 2)) for form in dist._kernel_comb]
    n, rank, w = dist.n, dist.rank, dist._edge
    columns = list(zip(*([c if c.__class__ is float else NilElement(2, n, {(0, 0): c})
                          for c in row] for row in _entries(frame))))
    K0, S = columns[rank:n], columns[n:]
    X = dist._span_jet(x, 2, n)
    fields = [X[a:a + n] for a in range(0, len(X), n)]
    Sw = [_dot(row, w) for row in S]
    return (_dot(row, w) - _dot([_dot(row, f) for f in fields], Sw) for row in K0)


def _flat_check(dist, span, residuals, tol, samples):
    """Whether every residual `residuals(x, frame)`, a value on the generic
    2-simplex at x in W(2, n), passes once mapped along the fiber basis B,
    the frame's first rank columns (`NilElement.map_columns`), onto the
    generic flat 2-simplex, at each sample: [(verdict, frame)], and which
    samples that decides.  The frame is the fiber basis (`_fibers`),
    or with `span` the relation frame of SPAN input
    (`_span_relation_stack`), from one factorisation of the samples' stack;
    a one-row stack raises where the loop raises.  One sample's residuals
    are evaluated at its float coordinates, and raise where the loop
    raises.  Of more samples, the residuals are evaluated once, at arrays
    of the samples' coordinates; the stack decides a sample whose frame it
    has and whose residuals are finite."""
    X = _coords(samples, dist.n)
    frames, ok = _span_relation_stack(dist, X) if span else _fibers(dist, samples, X)
    if len(samples) == 1:
        frame = frames[0]
        B = _entries(frame[:, :dist.rank])
        return [(all(within_tol(r.map_columns(B), tol)
                     for r in residuals(samples[0].coords, frame)), frame)], [True]
    x = list(np.ascontiguousarray(X.T))
    B = _entries(frames[..., :dist.rank])
    with np.errstate(all="ignore"):
        residual = reduce(np.maximum, (r.map_columns(B).max_abs_coeff()
                                       for r in residuals(x, frames)), np.zeros(len(samples)))
    return (list(zip(within_tol(residual, tol).tolist(), frames)),
            (ok & np.isfinite(residual)).tolist())


def _relation_test(dist, span, samples, tol):
    verdicts = [ok for ok, _ in _in_order(
        _samples(samples), partial(_flat_check, dist, span, partial(_relation, dist, span), tol))]
    return verdicts, all(verdicts)


def check_involutive_combinatorial(dist, samples, tol=DEFAULT_TOL):
    """Kock's relation for KERNEL input (see `pointwise_involutive_span`):
    the kernel forms at x+u vanish on v - u.  Returns (per-point list,
    aggregate)."""
    if dist.kernel is None:
        raise DegreeError(
            "combinatorial involutivity test needs KERNEL forms "
            "(use pointwise_involutive_span for SPAN-only input)")
    return _relation_test(dist, False, samples, tol)


def pointwise_involutive_span(dist, samples, tol=DEFAULT_TOL):
    """Kock's relation for SPAN input: if x ~_D x+u and x ~_D x+v for the
    generic flat offsets u, v at a sample x, then x+u ~_D x+v, in exact
    W-arithmetic (`_relation`).  Returns (per-point list, aggregate)."""
    if dist.span is None:
        raise DegreeError("relational span test needs a SPAN representation")
    return _relation_test(dist, True, samples, tol)


def _span_relation_stack(dist, X):
    """The frames of Kock's relation for SPAN input at the rows of X (N, n)
    (`_relation`), [B | K0^T | S^T] with S = C^-1 B^T, from `_span_stack`
    and one batched solve, and which samples have them.  The solve leaves
    out the samples that do not: their C may be singular."""
    _, Q, C, ok = dist._span_stack(X)
    Bt = Q[..., :dist.rank].transpose(0, 2, 1)
    S = np.zeros_like(Bt)
    S[ok] = np.linalg.solve(C[ok], Bt[ok])
    return np.concatenate([Q, S.transpose(0, 2, 1)], axis=2), ok


def check_involutive_classical(dist, samples, tol=DEFAULT_TOL):
    """Classical oracle: ideal test d(omega_i) ^ omega_1 ^ ... = 0 for
    KERNEL input, where the kernel forms have full rank, and bracket test
    for SPAN input."""
    samples = _samples(samples)
    if dist.kernel is not None:
        return _ideal_test(dist, samples, tol)
    return _bracket_test(dist, samples, tol)


def _ideal_test(dist, samples, tol):
    """Every coefficient of the ideal test's forms within tol, where the
    kernel forms have full rank (`_kernel_stack`'s verdict, whose one-row
    stack raises where they have not): of dependent forms,
    d(omega_i) ^ omega_1 ^ ... vanishes whatever omega is."""
    def check(samples):
        X = _coords(samples, dist.n)
        full = dist._kernel_stack(X)[2]
        V, finite = _stack(dist._ideal_fns, X, 1)
        return np.all(within_tol(V, tol), axis=(1, 2)) & finite, finite & full

    return all(_in_order(samples, check))


def _bracket_test(dist, samples, tol):
    """Every bracket [X_a, X_b] in the fiber (`_tangent_verdicts`)."""
    def check(samples):
        X = _coords(samples, dist.n)
        B, decided = _fibers(dist, samples, X)
        U, finite = _stack(dist._bracket_fns, X, dist.n)
        return np.all(_tangent_verdicts(None, B, U.transpose(0, 2, 1), tol), axis=1) & finite, (
            decided & finite)

    return all(_in_order(samples, check))


class IntegralPatch:
    """Parametrized candidate integral submanifold."""

    def __init__(self, params, component_exprs):
        self.params = tuple(params)
        if not self.params:
            raise ValueError("a patch needs at least one parameter")
        self.components = list(component_exprs)

    @property
    def q(self):
        return len(self.params)

    @cached_property
    def _point_fn(self):
        return ex.compile_w(self.components, self.params)

    @cached_property
    def _jacobian_fns(self):
        """Entries d(component)/d(param), row by row, differentiated once."""
        return ex.compile_w([ex.diff(c, v) for c in self.components for v in self.params],
                            self.params)

    def _rows(self, params):
        """The parameter samples as rows (N, q); ValueError for one of another length."""
        if set(map(len, params)) != {self.q}:
            s = next(s for s in params if len(s) != self.q)
            raise ValueError(f"parameters {tuple(map(float, s))} are not the "
                             f"patch's {self.q}: {', '.join(self.params)}")
        return np.array(params, dtype=float)

    def point_at(self, s):
        """The point at the parameters s; DomainError where it is not finite."""
        s = tuple(self._rows([s])[0].tolist())
        try:
            return Point(self._point_fn(*s))
        except ValueError:  # Point's one finiteness check
            raise DomainError(f"non-finite patch point at parameters {s}") from None

    def _jacobian_stack(self, P):
        """The Jacobians at the rows of P (N, q), shape (N, components, q),
        and which have rank q (`_full_rank`)."""
        J, ok = _stack(self._jacobian_fns, P, self.q)
        return J, ok & _full_rank(np.linalg.svd(J, compute_uv=False), self.q, P,
                                  "patch Jacobian")


def check_integral_patch(dist, patch, mode, parameter_samples, tol=DEFAULT_TOL):
    """Containment check: tangent spaces of the patch contained in (weak)
    or equal to (strong) the distribution fibers."""
    if mode not in ("weak", "strong"):
        raise ValueError("mode must be 'weak' or 'strong'")
    parameter_samples = _samples(parameter_samples)
    if mode == "strong" and patch.q != dist.rank:
        return False

    def check(params):
        # the columns of the Jacobian J lie in the fiber (weak), and the
        # fiber in their span (strong); one sample's point is `point_at`'s, and a
        # stacked point that is not finite or undefined leaves its sample undecided
        if len(params) == 1:
            X, decided = np.array([patch.point_at(params[0]).coords]), np.ones(1, dtype=bool)
            P = np.array(params, dtype=float)
        else:
            P = patch._rows(params)
            X, decided = _stack(patch._point_fn, P, dist.n)
            X = X[:, 0]
        J, defined = patch._jacobian_stack(P)
        K, B, fibers = (dist._kernel_stack(X) if dist.kernel is not None
                        else (None, *dist._basis_stack(X)))
        passed = np.all(_tangent_verdicts(K, B, J, tol), axis=1)
        if mode == "strong":
            passed &= np.all(within_tol(_basis_residuals(np.linalg.qr(J)[0], B), tol), axis=1)
        return passed, decided & defined & fibers

    return all(_in_order(parameter_samples, check))


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
    samples = _samples(samples)
    # theta on the generic simplex, which `_flat_check` maps along B
    flat_values = lambda x, B: [theta.on_face(x, 2, (0, 1, 2))]
    conclusion = True
    for p, (ok, B) in zip(samples, _in_order(
            samples, partial(_flat_check, dist, False, flat_values, tol))):
        if not ok:
            return SemiAnnihilationResult(False, None)
        vecs = B.T.tolist() + [(B @ rng.normal(size=dist.rank)).tolist() for _ in range(3)]
        coeffs = extract_classical(theta, p, tol=tol)
        for i, u in enumerate(vecs):
            for v in vecs[i + 1:]:
                if not within_tol(semi_value(coeffs, u, v), tol):
                    conclusion = False
    return SemiAnnihilationResult(True, conclusion)


def trace_leaf(dist, start, steps, stepsize):
    """Fourth-order Runge-Kutta flow along the span fields, cycling through
    them: step i follows field i mod rank, with coefficient +1.  Returns the
    `steps + 1` traced points as coordinate tuples, the start's first.  The
    step along each field is compiled once per call
    (`expr.compile_rk4_step`), its stages evaluating the field with
    `compile_w`'s meaning.
    A domain error, a division by zero or a non-finite point raises
    DomainError.
    """
    if dist.span is None:
        raise DegreeError("leaf tracing needs a SPAN representation")
    if not dist.span:
        raise DegreeError("no span field to follow")
    step = [ex.compile_rk4_step(v, dist.vars, stepsize) for v in dist.span]
    x = tuple(_coords([start], dist.n)[0].tolist())
    out = [x]
    for i in range(steps):
        x = step[i % dist.rank](*x)
        if not all(map(math.isfinite, x)):
            raise DomainError(f"leaf trace reached a non-finite point at step {i + 1}")
        out.append(x)
    return out
