"""Geometric distributions: flatness of neighbour pairs, combinatorial and
classical involutivity tests, integral-patch checks, and a numeric leaf
tracer.

A distribution is a rank-m sub-bundle of the tangent bundle of a chart,
given either by m spanning vector-field expressions or by n-m annihilating
1-forms, not both.  Involutivity is checked pointwise at sample points: the
fiber computation is exact W-arithmetic, the base is sampled.
"""

from functools import cached_property, partial

import numpy as np

from . import expr as ex
from .errors import DegreeError, DomainError, RankDeficiencyError, SdgError
from .forms import d_classical, default_vars, extract_classical, semi_value, wedge_classical
from .nil import NilElement, _is_zero, within_tol
from .chart import Point

DEFAULT_TOL = 1e-9
RANK_CUTOFF = 1e-7  # singular values at most this do not count to a rank


class Distribution:
    """Sub-bundle of the tangent bundle over a chart."""

    def __init__(self, n, rank, span=None, kernel=None, vars=None):
        if (span is None) == (kernel is None):
            raise ValueError("need one representation: SPAN or KERNEL")
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

    # -- compiled functions (`expr.compile_w`), built on first use -----------

    @cached_property
    def _kernel_coeffs(self):
        """Kernel-form coefficients, row by row."""
        return [w.coeffs.get((i + 1,), ex.Const(0.0)) for w in self.kernel for i in range(self.n)]

    @cached_property
    def _kernel_fns(self):
        return ex.compile_w(self._kernel_coeffs, self.vars)

    @cached_property
    def _kernel_jet(self):
        return _FiberJet(self._kernel_coeffs, self.vars, self.rank)

    @cached_property
    def _span_fns(self):
        """Spanning-field components, field by field."""
        return ex.compile_w([c for v in self.span for c in v], self.vars)

    @cached_property
    def _span_jet(self):
        return _FiberJet([c for v in self.span for c in v], self.vars, self.rank)

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

    # -- pointwise linear algebra -------------------------------------------

    def kernel_matrix(self, p):
        """(n-rank) x n matrix of kernel-form coefficients at p (for SPAN
        input, orthonormal rows of the complement of the fiber)."""
        if self.kernel is None:
            return self._span_frame(p)[1]
        M = self._kernel_values(p)
        self._check_kernel_rank(np.linalg.svd(M, compute_uv=False), p)
        return M

    def _kernel_values(self, p):
        return np.array(self._kernel_fns(*p.coords)).reshape(self.n - self.rank, self.n)

    def _check_kernel_rank(self, s, p):
        """Raise unless the singular values s of the kernel matrix at p give
        it full rank."""
        if np.count_nonzero(s > RANK_CUTOFF) != self.n - self.rank:
            raise RankDeficiencyError(f"kernel forms rank-deficient at {p.coords}")

    def span_matrix(self, p):
        """n x rank matrix of spanning field values at p."""
        if self.span is None:
            return self._numeric_span(p)
        M = np.array(self._span_fns(*p.coords)).reshape(self.rank, self.n).T
        if np.linalg.matrix_rank(M, tol=RANK_CUTOFF) != self.rank:
            raise RankDeficiencyError(f"span fields rank-deficient at {p.coords}")
        return M

    def _numeric_span(self, p):
        """Span basis from the kernel: the null space of the kernel matrix,
        from the one SVD that also checks its rank."""
        _, s, vt = np.linalg.svd(self._kernel_values(p))
        self._check_kernel_rank(s, p)
        return vt[self.n - self.rank:].T

    def _span_frame(self, p):
        """For SPAN input, from one complete QR of the span matrix M at p:
        an orthonormal basis B of the fiber, orthonormal rows K0 of its
        complement, and the upper triangular C = B^T M."""
        q, r = np.linalg.qr(self.span_matrix(p), mode="complete")
        return q[:, :self.rank], q[:, self.rank:].T, r[:self.rank]

    def basis_at(self, p):
        """Orthonormal n x rank basis of the fiber at p."""
        if self.span is not None:
            return self._span_frame(p)[0]
        return self._numeric_span(p)

    # -- the same over stacked points, for the batched checks below ---------

    def _kernel_stack(self, X):
        """kernel_matrix of KERNEL input over the rows of X (N, n), from one
        batched SVD: the stack (N, n-rank, n), an orthonormal basis of its
        null space (N, n, rank), `basis_at`'s bit for bit, and which samples
        clearly have both."""
        K, clear = _stack(self._kernel_fns, X, self.n)
        _, s, vt = np.linalg.svd(K)
        return (K, vt[:, self.n - self.rank:].transpose(0, 2, 1),
                clear & _clearly_full_rank(s, self.n - self.rank))

    def _span_stack(self, X):
        """`_span_frame` over the rows of X (N, n), from one complete QR of
        the stacked span matrices (N, n, rank): Q = [B | K0^T] (N, n, n) and
        C (N, rank, rank), `_span_frame`'s bit for bit, and which samples
        clearly have them."""
        M, clear = _stack(self._span_fns, X, self.n)
        M = M.transpose(0, 2, 1)
        s = np.linalg.svd(M, compute_uv=False)
        q, r = np.linalg.qr(M, mode="complete")
        return q, r[:, :self.rank], clear & _clearly_full_rank(s, self.rank)

    def _basis_stack(self, X):
        """basis_at over the rows of X (N, n), and which samples clearly
        have it."""
        if self.span is None:
            return self._kernel_stack(X)[1:]
        Q, _, clear = self._span_stack(X)
        return Q[..., :self.rank], clear


# The batched checks evaluate all samples at once, but only as a screen: it
# clears the samples at which the check clearly passes, and the per-sample
# check runs, in sample order, at every other sample.  So the first sample at
# which the per-sample check fails or raises decides, as in a loop over all
# samples.  "Clearly" leaves a margin for the rounding in which the stacked
# and the per-sample linear algebra differ (the stacked expression values are
# the per-sample ones, bit for bit): finite values, matrices of full rank
# with their singular values over twice the cut-off and within a factor
# _MAX_CONDITION of each other, and residuals within half their tolerance
# less _ROUNDING.  A sample within the margin goes to the per-sample check,
# which costs time, never a different verdict.
#
# The flat-simplex checks take their frames the same way (`_frames`): one
# factorisation of the stack, a batched SVD of the kernel matrices or one
# complete QR of the span matrices (with one batched solve for the relation
# frame), gives `basis_at`'s frame bit for bit at each sample it clears, and
# the per-sample frame is built, in sample order, at every other sample.

_MAX_CONDITION = 1e4
_ROUNDING = 1e-12


def _undecided(count, screen, screen_one=False):
    """The samples, by index, at which the per-sample check runs: every one
    of a single sample, at which that check costs less than the screen,
    unless `screen_one`, and else those that `screen()` does not clear.  A
    screen that raises DomainError, from a subexpression without variables
    that `_stack` cannot evaluate, clears none: that subexpression raises
    at every sample."""
    if count == 0 or (count == 1 and not screen_one):
        return range(count)
    try:
        return np.flatnonzero(~screen())
    except DomainError:
        return range(count)


def _leading(fn, items, errors):
    """fn at the items in order, up to the first at which it raises one of
    `errors`: the values, and that exception (None if there is none)."""
    values = []
    for item in items:
        try:
            values.append(fn(item))
        except errors as err:
            return values, err
    return values, None


def _coords(points, n):
    return np.array([p.coords for p in points], dtype=float).reshape(len(points), n)


def _stack(fn, X, width):
    """The values of the compiled `fn` at the rows of X (N, n), in rows of
    `width`: shape (N, values / width, width), and which samples are
    finite.  Samples that are not are zeroed, so that the linear algebra
    over the stack stays finite; the screen does not clear them, and the
    per-sample check raises DomainError there, or fails."""
    V = ex.stacked(fn, *X.T).T
    V = V.reshape(len(X), V.shape[1] // width, width)
    finite = np.isfinite(V).all(axis=(1, 2))
    V[~finite] = 0.0
    return V, finite


def _clearly_full_rank(s, rank):
    """Screen on the singular values s (N, k) of a stack of matrices: rank
    `rank` (= k) with a margin."""
    if rank == 0 or s.shape[1] != rank:
        return np.full(len(s), s.shape[1] == rank)
    return (s[:, -1] > 2 * RANK_CUTOFF) & (s[:, -1] * _MAX_CONDITION >= s[:, 0])


def _clears(residual, scale):
    """Screen on residuals: within half their tolerance `scale`, less
    _ROUNDING."""
    return within_tol(2 * residual + _ROUNDING, scale)


def _basis_residuals(B, V):
    """Distance of each column of V (N, n, c) from the span of the
    orthonormal columns of B (N, n, r), shape (N, c)."""
    return np.linalg.norm(V - B @ (B.transpose(0, 2, 1) @ V), axis=1)


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


def _entries(M):
    """Rows of a matrix as lists of floats; of a stack (N, r, c), of arrays."""
    return M.tolist() if M.ndim == 2 else np.ascontiguousarray(M.transpose(1, 2, 0))


def _flat_generic_offsets(B, arity):
    """Displacement vectors of the generic flat simplex at a point with
    fiber basis B (n x rank): rows are generic combinations of its columns,
    in W(arity, rank).  For a stack of bases (N, n, rank), one per sample,
    the coefficients are arrays over the samples, each kept even where it is
    zero.  At rank 0 they are the zero elements of W(arity, 1)."""
    return [[NilElement(arity, max(B.shape[-1], 1), {(1 << j, 1 << alpha): c
                                             for alpha, c in enumerate(row) if not _is_zero(c)})
             for row in _entries(B)]
            for j in range(arity)]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _flat_sample(residuals, p, frame, tol):
    """Whether every residual at p, with the frame `frame` there, passes."""
    return all(within_tol(r, tol) for r in residuals(p.coords, frame))


def _max_abs(value):
    return value.max_abs_coeff() if isinstance(value, NilElement) else abs(value)


class _FiberJet:
    """Expressions compiled as 1-jets (`expr.compile_jet`) at y = x + u, u
    the row-1 offset of the generic flat 2-simplex in W(2, rank): called
    with each variable's value at x and its row of the fiber basis, it
    returns `compile_w`'s values at y, each a float for an expression
    without variables and else a W(2, rank) element of a constant and
    row-1 terms.  A float zero coefficient of the jet is left out; the
    W arithmetic keeps one only where a scaling underflows, and in the
    relation such a coefficient meets only finite factors on its way into
    a product with w = v - u, which drops it."""

    def __init__(self, exprs, vars, rank):
        self.fn = ex.compile_jet(exprs, vars, rank)
        self.constant = [not ex.free_vars(e) for e in exprs]
        self.keys = [(0, 0)] + [(1, 1 << a) for a in range(rank)]
        self.context = max(rank, 1)

    def __call__(self, x, B):
        coeffs = self.fn(*[c for xi, row in zip(x, B) for c in (xi, *row)])
        count = len(self.constant)
        return [coeffs[j] if constant else
                NilElement(2, self.context, {key: c for key, c in zip(self.keys, coeffs[j::count])
                                             if not _is_zero(c)})
                for j, constant in enumerate(self.constant)]


def _relation(dist, span, x, frame):
    """Kock's relation on the generic flat 2-simplex (x, x + u, x + v): the
    residuals K_y (v - u) of y = x + u ~_D x + v, yielded kernel row by row.
    The frame at x holds the columns of the fiber basis B; for KERNEL input
    K_y is the kernel matrix at y.  For SPAN input (`span`) those of K0^T and
    S^T follow (`_span_frame`, S = C^-1 B^T), and K_y w = K0 w - (K0 X(y)) S w
    with X the span matrix: both outer factors are nilpotent and W(2, rank)
    stops at degree 2, so only C, the constant part of B^T X(y), is inverted.
    K and X at y are 1-jets whose tangents are the rows of B (`_FiberJet`),
    and W elements only in the products with w = v - u.  x and the frame
    are floats at one sample, or constant W elements and arrays over
    stacked samples."""
    n, rank = dist.n, dist.rank
    B = frame[..., :rank]
    u, v = _flat_generic_offsets(B, 2)
    w = [b - a for a, b in zip(u, v)]
    # y = x + u in W: its constant is x's, its row-1 terms 0.0 + B
    x = [c.const_term if isinstance(c, NilElement) else c for c in x]
    B = _entries(0.0 + B)
    if not span:
        K = dist._kernel_jet(x, B)
        return (_dot(K[i:i + n], w) for i in range(0, len(K), n))
    columns = list(zip(*([c if c.__class__ is float else NilElement(2, rank, {(0, 0): c})
                          for c in row] for row in _entries(frame))))
    K0, S = columns[rank:n], columns[n:]
    X = dist._span_jet(x, B)
    fields = [X[a:a + n] for a in range(0, len(X), n)]
    Sw = [_dot(row, w) for row in S]
    return (_dot(row, w) - _dot([_dot(row, f) for f in fields], Sw) for row in K0)


def _frames(frame_at, stack, samples, X, first_per_sample):
    """The frames at the samples in order, up to the first at which
    `frame_at` raises: the frames, their stack, and that exception (None if
    there is none).

    Of more than one sample, each that `stack(X)` clears takes its frame
    from that one factorisation of all samples (X (N, n) their
    coordinates), `frame_at`'s bit for bit.  `frame_at` builds the frame,
    in sample order, at every other sample: one whose values are not finite
    or that is not clearly of full rank, and every sample where `stack`
    raises DomainError.  With `first_per_sample`, the first sample takes
    `frame_at`'s frame too, cleared or not: perfbench's tracer counts a
    sample as visited only through the per-point methods, and fails an op
    whose checks visit none (ROADMAP item 1)."""
    stacked, clear = None, np.zeros(len(samples), dtype=bool)
    if len(samples) > 1:
        try:
            stacked, clear = stack(X)
        except DomainError:  # from a float subexpression: it raises at every sample
            pass
        clear[0] &= not first_per_sample
    redo = np.flatnonzero(~clear)
    built, error = _leading(lambda i: frame_at(samples[i]), redo, (SdgError, ValueError))
    if stacked is None:
        return built, np.array(built), error
    end = len(samples) if error is None else redo[len(built)]
    frames, stacked = list(stacked[:end]), stacked[:end].copy()
    for i, frame in zip(redo, built):
        frames[i] = stacked[i] = frame
    return frames, stacked, error


def _flat_verdicts(residuals, dist, samples, frame_at, stack, tol, first_per_sample=True):
    """`_flat_sample` at each sample in order: yields (sample, frame,
    verdict) up to the first sample at which `frame_at` (`basis_at`, or a
    frame built through a per-point method) raises, then raises that.  The
    frames come from `_frames`, with `stack` the same frames over stacked
    samples.

    More than one sample is screened first: the residuals are evaluated
    once on the generic flat 2-simplexes at all of them, the base
    coordinates constant W elements with arrays of the samples' coordinates
    as their constant terms, the frames stacked.  `_flat_sample` decides
    only where the screen neither clearly passes nor clearly fails.  Where
    it would raise, the batched evaluation gives nan, which reaches the
    residual and decides nothing."""
    X = _coords(samples, dist.n)
    frames, stacked, error = _frames(frame_at, stack, samples, X, first_per_sample)
    residual = np.full(len(frames), np.nan)
    if len(frames) > 1:
        base = [NilElement(2, max(dist.rank, 1), {(0, 0): x})
                for x in np.ascontiguousarray(X[:len(frames)].T)]
        try:
            with np.errstate(all="ignore"):
                residual = np.zeros(len(frames))
                for r in residuals(base, stacked):
                    residual = np.maximum(residual, _max_abs(r))
        except DomainError:  # from a float subexpression: it raises at every sample
            residual = np.full(len(frames), np.nan)
    failing = np.isfinite(residual) & ~within_tol(residual, 2 * tol + _ROUNDING)
    for p, frame, passed, failed in zip(samples, frames, _clears(residual, tol), failing):
        yield p, frame, bool(passed) or (not failed and _flat_sample(residuals, p, frame, tol))
    if error is not None:
        raise error


def _relation_test(dist, span, samples, frame_at, stack, tol):
    verdicts = [ok for *_, ok in _flat_verdicts(partial(_relation, dist, span), dist,
                                                list(samples), frame_at, stack, tol)]
    return verdicts, all(verdicts)


def check_involutive_combinatorial(dist, samples, tol=DEFAULT_TOL):
    """Kock's relation for KERNEL input (see `pointwise_involutive_span`):
    the kernel forms at x+u vanish on v - u.  Returns (per-point list,
    aggregate)."""
    if dist.kernel is None:
        raise DegreeError(
            "combinatorial involutivity test needs KERNEL forms "
            "(use pointwise_involutive_span for SPAN-only input)")
    return _relation_test(dist, False, samples, dist.basis_at, dist._basis_stack, tol)


def pointwise_involutive_span(dist, samples, tol=DEFAULT_TOL):
    """Kock's relation for SPAN input: if x ~_D x+u and x ~_D x+v for the
    generic flat offsets u, v at a sample x, then x+u ~_D x+v, in exact
    W(2, rank) arithmetic.  Returns (per-point list, aggregate)."""
    if dist.span is None:
        raise DegreeError("relational span test needs a SPAN representation")
    return _relation_test(dist, True, samples, partial(_span_relation_frame, dist),
                          partial(_span_relation_stack, dist), tol)


def _span_relation_frame(dist, p):
    """The frame of Kock's relation for SPAN input at p (`_relation`):
    [B | K0^T | S^T], S = C^-1 B^T."""
    B, K0, C = dist._span_frame(p)
    return np.hstack([B, K0.T, np.linalg.solve(C, B.T).T])


def _span_relation_stack(dist, X):
    """`_span_relation_frame` over the rows of X (N, n), from
    `_span_stack` and one batched solve, and which samples clearly have it.
    A sample that is not cleared is left out of the solve: its C may be
    singular, or zeroed where its values are not finite."""
    Q, C, clear = dist._span_stack(X)
    Bt = Q[..., :dist.rank].transpose(0, 2, 1)
    S = np.zeros_like(Bt)
    S[clear] = np.linalg.solve(C[clear], Bt[clear])
    return np.concatenate([Q, S.transpose(0, 2, 1)], axis=2), clear


def check_involutive_classical(dist, samples, tol=DEFAULT_TOL):
    """Classical oracle: ideal test d(omega_i) ^ omega_1 ^ ... = 0 for
    KERNEL input, bracket test for SPAN input."""
    samples = list(samples)
    if dist.kernel is not None:
        return _ideal_test(dist, samples, tol)
    return _bracket_test(dist, samples, tol)


def _ideal_test(dist, samples, tol):
    fns = dist._ideal_fns

    def screen():
        V, clear = _stack(fns, _coords(samples, dist.n), 1)
        return clear & np.all(_clears(V, tol), axis=(1, 2))

    for i in _undecided(len(samples), screen):
        if not all(within_tol(v, tol) for v in fns(*samples[i].coords)):
            return False
    return True


def _bracket_test(dist, samples, tol):
    fns, n = dist._bracket_fns, dist.n

    def screen():
        X = _coords(samples, n)
        B, clear = dist._basis_stack(X)
        U, finite = _stack(fns, X, n)
        U = U.transpose(0, 2, 1)
        scale = tol * np.maximum(1.0, np.linalg.norm(U, axis=1))
        return clear & finite & np.all(_clears(_basis_residuals(B, U), scale), axis=1)

    for i in _undecided(len(samples), screen):
        p = samples[i]
        X = dist.span_matrix(p)
        for u in np.array(fns(*p.coords), dtype=float).reshape(-1, n):
            if not within_tol(span_residual(X, u), tol * max(1.0, np.linalg.norm(u))):
                return False
    return True


class IntegralPatch:
    """Parametrized candidate integral submanifold."""

    def __init__(self, params, component_exprs):
        self.params = tuple(params)
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

    def point_at(self, s):
        return Point(self._point_fn(*map(float, s)))

    def jacobian_at(self, s):
        J = np.array(self._jacobian_fns(*map(float, s))).reshape(
            len(self.components), self.q)
        if np.linalg.matrix_rank(J, tol=RANK_CUTOFF) != self.q:
            raise RankDeficiencyError(f"patch Jacobian rank-deficient at {s}")
        return J


def check_integral_patch(dist, patch, mode, parameter_samples, tol=DEFAULT_TOL):
    """Containment check: tangent spaces of the patch contained in (weak)
    or equal to (strong) the distribution fibers."""
    if mode not in ("weak", "strong"):
        raise ValueError("mode must be 'weak' or 'strong'")
    if mode == "strong" and patch.q != dist.rank:
        return False
    parameter_samples = list(parameter_samples)
    # the first sample alone, then the rest: a patch that is not integral
    # usually fails at the first sample, and the rest need not be screened;
    # the first is screened too when more follow, so that a clearly passing
    # sample still skips the per-sample check
    for chunk in (parameter_samples[:1], parameter_samples[1:]):
        # a sample whose point cannot be built decides only if no earlier one does
        points, error = _leading(patch.point_at, chunk, (DomainError, ValueError))
        screen = partial(_patch_screen, dist, patch, mode, chunk, points, tol)
        for i in _undecided(len(points), screen, len(parameter_samples) > 1):
            if not _patch_sample(dist, patch, mode, chunk[i], points[i], tol):
                return False
        if error is not None:
            raise error
    return True


def _patch_sample(dist, patch, mode, s, p, tol):
    """check_integral_patch at one sample."""
    J = patch.jacobian_at(s)
    for col in J.T:
        if not is_flat(dist, p, col, tol):
            return False
    if mode == "strong":
        for col in dist.basis_at(p).T:
            if not within_tol(span_residual(J, col), tol):
                return False
    return True


def _patch_screen(dist, patch, mode, parameter_samples, points, tol):
    """The samples at which check_integral_patch clearly passes, one for
    each point (the leading parameter samples)."""
    S = np.array(parameter_samples[:len(points)], dtype=float)
    J, clear = _stack(patch._jacobian_fns, S.reshape(len(points), patch.q), patch.q)
    clear &= _clearly_full_rank(np.linalg.svd(J, compute_uv=False), patch.q)
    X = _coords(points, dist.n)
    if dist.kernel is not None:
        K, B, fiber_clear = dist._kernel_stack(X)
        resid = np.max(np.abs(K @ J), axis=1, initial=0.0)
    else:
        B, fiber_clear = dist._basis_stack(X)
        resid = _basis_residuals(B, J)
    clear &= fiber_clear
    clear &= np.all(_clears(resid, tol * np.maximum(1.0, np.linalg.norm(J, axis=1))),
                    axis=1)
    if mode == "strong":
        clear &= np.all(_clears(_basis_residuals(np.linalg.qr(J)[0], B), tol), axis=1)
    return clear


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
    samples = list(samples)
    flat_values = lambda x, B: [theta(x, _flat_generic_offsets(B, 2))]
    conclusion = True
    # the first sample alone, then the screen over the rest: where theta is
    # not annihilated, the first sample usually shows it
    for chunk in (samples[:1], samples[1:]):
        for p, B, ok in _flat_verdicts(flat_values, dist, chunk, dist.basis_at,
                                       dist._basis_stack, tol, first_per_sample=False):
            if not ok:
                return SemiAnnihilationResult(False, None)
            vecs = [B[:, a] for a in range(dist.rank)]
            vecs += [B @ rng.normal(size=dist.rank) for _ in range(3)]
            coeffs = extract_classical(theta, p, tol=tol)
            for i, u in enumerate(vecs):
                for v in vecs[i + 1:]:
                    if not within_tol(semi_value(coeffs, u, v), tol):
                        conclusion = False
    return SemiAnnihilationResult(True, conclusion)


def trace_leaf(dist, start, steps, stepsize):
    """Fourth-order Runge-Kutta flow along the span fields, cycling through
    them: step i follows field i mod rank, with coefficient +1.  The step
    along each field is compiled once per call (`expr.compile_rk4_step`),
    its stages evaluating the field with `compile_w`'s meaning.
    A domain error, a division by zero or a non-finite point raises
    DomainError.
    """
    if dist.span is None:
        raise DegreeError("leaf tracing needs a SPAN representation")
    step = [ex.compile_rk4_step(v, dist.vars, stepsize) for v in dist.span]
    x = start.coords
    out = [Point(x)]
    for i in range(steps):
        x = step[i % dist.rank](*x)
        try:
            out.append(Point(x))
        except ValueError:  # Point's one finiteness check
            raise DomainError(
                f"leaf trace reached a non-finite point at step {i + 1}") from None
    return out
