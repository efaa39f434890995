"""Connections on a trivialized bundle chart x GL(m), with no declared group.

Curvature is the group-valued coboundary  T(x,y) * T(y,z) * T(z,x)  on the
generic infinitesimal 2-simplex x, y = x + u, z = x + v.  Its factors are
the transports over the edges: for neighbours a ~ b, the factor
T(a,b) = I + sum_i A_i(a) (b-a)_i is first-order exact in W(2, n).  The
sign of the gauge coupling and of the curvature bracket were pinned once
against the classical oracle F = dA + s[A, A] (the pinning run,
`pin_conventions` in the tests' `reference` module, gives
TRANSPORT_SIGN = +1, BRACKET_SIGN = +1 for this convention) and are frozen
here.  Each factor is I + N_k with N_k nilpotent in W(2, n), so the product
is I + N_1 + N_2 + N_3 + N_1 N_2 + N_1 N_3 + N_2 N_3: a product of three
N's, or one with a degree-2 factor, vanishes.  It is formed on arrays
stacked over the monomial basis of W(2, n), with the pair products of the
degree-1 parts taken in one batched matrix product.  A enters at x as its
value and at y, a neighbour of x in the first neighbourhood of the
diagonal, as its 1-jet (at z, the same jet on row 2): there a function is
exactly its value plus its differential applied to y - x, which is all of
its value in W.
"""

import math
from functools import cache, cached_property

import numpy as np

from . import expr as ex
from .errors import (ContextMismatchError, DegreeError, DomainError,
                     LogBranchError, RankDeficiencyError)
from .nil import _MERGE_SIGNS, DEFAULT_TOL, generic_offsets, within_tol
from .forms import default_vars

# Convention constants, pinned against the classical oracle F = dA + s[A, A]
# (the tests' `reference.pin_conventions`): the coboundary is
# COBOUNDARY_SCALE * F with s = BRACKET_SIGN.
TRANSPORT_SIGN = +1.0
BRACKET_SIGN = +1.0
COBOUNDARY_SCALE = 0.5  # extraction normalization 2! in degree 2


class ConnectionData:
    """Local connection 1-form A on a chart: each A_i an m x m matrix."""

    def __init__(self, n, A, vars=None):
        self.n = n
        self.vars = tuple(vars) if vars is not None else default_vars(n)
        if len(A) != n:
            raise DegreeError("need one matrix of coefficients per dimension")
        self.m = m = len(A[0]) if A else 0
        if any(len(Ai) != m or any(len(row) != m for row in Ai) for Ai in A):
            raise DegreeError("the matrices of coefficients must be square and of one size")
        self.A = [[[ex.as_expr(A[i][r][c]) for c in range(m)]
                   for r in range(m)] for i in range(n)]

    @cached_property
    def _a_w(self):
        """The entries of A, compiled once for points, neighbours and
        stacked samples."""
        return ex.compile_w(self._entries, self.vars)

    @cached_property
    def _a_jet(self):
        """The entries of A, compiled once as 1-jets at y = x + u, u_i the
        row-1 generator xi[1, i]."""
        return ex.compile_jet(self._entries, self.vars)

    @property
    def _entries(self):
        return [e for Ai in self.A for row in Ai for e in row]

    @cached_property
    def _da_w(self):
        """(dA)_ij = d_i A_j - d_j A_i for i < j, differentiated once."""
        x = self.vars
        return ex.compile_w([ex.Sub(ex.diff(a, x[i]), ex.diff(b, x[j]))
                             for i in range(self.n) for j in range(i + 1, self.n)
                             for row_a, row_b in zip(self.A[j], self.A[i])
                             for a, b in zip(row_a, row_b)], x)


class _Simplex:
    """Tables for products in W(2, n), the algebra of the generic
    infinitesimal 2-simplex x, x + u, x + v in R^n, over its monomial basis:
    the constant, the 2n degree-1 monomials xi[r, a] (row 1, then row 2),
    and the degree-2 monomials xi[1, a] xi[2, b], a < b, one per face
    (a, b) of `faces` (1-based).  Every table has O(n^2) entries.

    - `index`: monomial -> its position in the basis.
    - `displacement`: shape (3, 2n, n), the coefficient of each degree-1
      monomial in TRANSPORT_SIGN * delta_i, for the displacements y - x,
      z - y and x - z.
    - `left`, `right`, `sign`: shape (4, faces), the four pairs of degree-1
      monomials (positions among the 2n) whose product is each face's
      monomial, and its merge sign from `nil._MERGE_SIGNS` (with two more
      axes, to scale m x m blocks); the pairs of rows (1, 2) come first, in
      ascending order of the left column.
    """

    def __init__(self, n):
        u, v = generic_offsets(2, n)
        deg1 = [(r, 1 << a) for r in (1, 2) for a in range(n)]
        self.faces = [(a + 1, b + 1) for a in range(n) for b in range(a + 1, n)]
        deg2 = [(0b11, (1 << a) | (1 << b)) for a in range(n) for b in range(a + 1, n)]
        basis = [(0, 0)] + deg1 + deg2
        self.index = {mono: i for i, mono in enumerate(basis)}
        self.displacement = np.zeros((3, 2 * n, n))
        for k, delta in enumerate((u, [vi - ui for ui, vi in zip(u, v)],
                                   [-vi for vi in v])):
            for i, d in enumerate(delta):
                for key, c in d.terms.items():
                    self.displacement[k, self.index[key] - 1, i] = TRANSPORT_SIGN * c
        pairs = {c: [] for c in deg2}
        for e, (s1, t1) in enumerate(deg1):
            for f, (s2, t2) in enumerate(deg1):
                if not (s1 & s2 or t1 & t2):
                    pairs[(s1 | s2, t1 | t2)].append(
                        (e, f, _MERGE_SIGNS[s1][s2] * _MERGE_SIGNS[t1][t2]))
        table = np.array([pairs[c] for c in deg2]).reshape(len(deg2), 4, 3).transpose(2, 1, 0)
        self.left, self.right = table[:2].astype(np.intp)
        self.sign = table[2, :, :, None, None]


@cache
def _simplex(n):
    """The `_Simplex` tables of W(2, n).  Shared: no caller writes to them."""
    return _Simplex(n)


def _transport_product(w, L, Q):
    """Degree-1 and degree-2 parts of (I + N_1) ... (I + N_K) in W(2, n),
    from the degree-1 parts L, shape (K, 2n, m, m), and the degree-2 parts
    Q, shape (K, faces, m, m), of the N_k: sum_k L_k, and sum_k Q_k plus
    sum_{j<k} L_j L_k; every other product vanishes in W(2, n).

    The pair products are taken as (L_1 + ... + L_{k-1}) L_k, in one
    batched product over the pairs of `w`, and the degree-2 terms are added
    in the order of the product taken factor by factor: Q_1, then for each
    further factor its pair products and its Q_k."""
    run = np.cumsum(L, axis=0)
    pairs = (run[:-1, w.left] @ L[1:, w.right]) * w.sign
    steps = np.concatenate((pairs, Q[1:, None]), axis=1)
    steps = steps.reshape((steps.shape[0] * steps.shape[1],) + Q.shape[1:])
    return run[-1], np.concatenate((Q[:1], steps)).sum(axis=0)


def curvature_coboundary(conn, p, tol=DEFAULT_TOL):
    """Curvature via the coboundary on the generic infinitesimal 2-simplex
    at (p, I): returns {(i, j): m x m matrix} for i < j (1-based), after the
    degree-2 extraction normalization.

    The transport along each edge of the simplex x, y = x + u, z = x + v is
    I + N_k, N_k = sign * sum_i A_i(p_k) delta_i, and their product is
    formed as I + N (`_transport_product`).  A is evaluated at x, and at y
    as its 1-jet (`expr.compile_jet`: y = x + u lies in the first
    neighbourhood of x, so A's value in W there has only a constant and
    row-1 terms), and stacked over the monomial basis of W(2, n); its value
    at z = x + v is the same jet with its tangents on row 2.  A non-finite
    value of A at x or at y, or of the product, raises DomainError."""
    n, m = conn.n, conn.m
    w = _simplex(n)
    x = p.coords
    # A at x, y and z over the basis: one row per monomial, one column per
    # entry of A (C order of (n, m, m))
    A = np.zeros((3, len(w.index), n * m * m))
    A[0, 0] = conn._a_w(*x)
    A[1, :1 + n] = np.reshape(conn._a_jet(*x), (1 + n, -1))
    finite = np.isfinite(A[:2]).all(axis=(1, 2))
    if not finite.all():
        where = "at" if not finite[0] else "in the first neighbourhood of"
        raise DomainError(f"non-finite connection value {where} {x!r}")
    A[2, 0], A[2, 1 + n:1 + 2 * n] = A[1, 0], A[1, 1:1 + n]
    # N_k takes its degree-1 part from A's constant part and its degree-2
    # part from A's degree-1 part; A's degree-2 part times delta vanishes
    with np.errstate(over="ignore", invalid="ignore"):
        G = w.displacement[:, None] @ A[:, :1 + 2 * n].reshape(3, 1 + 2 * n, n, m * m)
        L = G[:, 0].reshape(3, 2 * n, m, m)
        Q = (G[:, 1:][:, w.left, w.right] * w.sign[..., 0]).sum(axis=1).reshape(3, -1, m, m)
        linear, total = _transport_product(w, L, Q)
    _check_curvature(total, x)
    if not within_tol(np.abs(linear).max(), tol):
        raise RankDeficiencyError("coboundary has unexpected degree-1 part")
    return dict(zip(w.faces, total * COBOUNDARY_SCALE))


def curvature_classical_oracle(conn, p):
    """Classical gauge curvature F_ij = d_i A_j - d_j A_i + s [A_i, A_j]
    for i < j (1-based), with s = BRACKET_SIGN, read at each call.  A
    non-finite value raises DomainError."""
    n, m = conn.n, conn.m
    # A and dA at p, through the functions compiled once per connection
    A = np.array(conn._a_w(*p.coords), dtype=float).reshape(n, m, m)
    dA = iter(np.array(conn._da_w(*p.coords), dtype=float).reshape(-1, m, m))
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                Ai, Aj = A[i - 1], A[j - 1]
                out[(i, j)] = next(dA) + BRACKET_SIGN * (Ai @ Aj - Aj @ Ai)
    _check_curvature(list(out.values()), p.coords)
    return out


def _check_curvature(values, x):
    """DomainError naming the point x if the curvature `values` are not
    finite."""
    if not np.isfinite(values).all():
        raise DomainError(f"non-finite curvature at {x!r}")


# Steps per block of stage values, summed over the curves transported at
# once, so that memory grows with neither `steps` nor the number of curves.
_BLOCK_STEPS = 1024


def parallel_transport(conn, curve_exprs, t0, t1, steps):
    """RK4 integration of g' = -M(t) g from the identity, where
    M(t) = sum_i A_i(c(t)) c_i'(t) for a curve c in the parameter t.

    The ODE is linear, so RK4 step k is a matrix P_k = I + D_k, built from M
    at the step's three stage times; g is the ordered product ... P_1 P_0.
    Blocks of steps are evaluated at once and multiplied as a pairwise tree,
    kept in the I + D form so that the small D_k keep their low bits.

    A non-finite stage value raises DomainError, and so does a block whose
    step matrices or running product overflow.  This is the one-curve case
    of `_transports`.
    """
    return _transport_and_curve(conn, curve_exprs, t0, t1, steps)[0]


def _transport_and_curve(conn, curve_exprs, t0, t1, steps):
    """`parallel_transport`, and the curve's points and velocities as the
    one function of t that it compiles."""
    if steps <= 0:
        raise ValueError("steps must be positive")
    if len(curve_exprs) != conn.n:
        raise ContextMismatchError("curve not in the connection's chart")
    n = conn.n
    curve = ex.compile_w(list(curve_exprs) + [ex.diff(c, "t") for c in curve_exprs], ("t",))

    def stages(t):
        values = ex.stacked(curve, t)[:, None]
        return values[:n], values[n:]

    (g,), (err,) = _transports(conn, stages, 1, t0, t1, steps)
    if err is not None:
        raise err
    return g, curve


def _segment_transports(conn, x0, ends, steps):
    """`parallel_transport` along each straight segment x0 + t (p - x0), t
    from 0 to 1, p in `ends`, in `steps` steps: its matrix, bit for bit, or
    the exception it raises.  The segments are transported together, as
    many at once as fit in a block of `_BLOCK_STEPS` steps."""
    if steps <= 0:
        return [ValueError("steps must be positive")] * len(ends)
    if len(x0) != conn.n:
        return [ContextMismatchError("curve not in the connection's chart")] * len(ends)
    start = np.array(x0, dtype=float)[:, None, None]
    batch = max(1, _BLOCK_STEPS // steps)
    out = []
    for first in range(0, len(ends), batch):
        velocity = np.array(ends[first:first + batch], dtype=float).T[:, :, None] - start
        # the float operations of the compiled segment a + t*(b - a), whose
        # derivative b - a is constant
        gs, errors = _transports(conn, lambda t: (start + t * velocity, velocity),
                                 velocity.shape[1], 0.0, 1.0, steps)
        out += [g if err is None else err for g, err in zip(gs, errors)]
    return out


def _transports(conn, stages, count, t0, t1, steps):
    """The RK4 transports of `parallel_transport` along `count` curves at
    once, from t0 to t1 in `steps` steps each.  `stages(t)` gives the
    curves' points and velocities at the times `t`: arrays of n rows that
    broadcast to shape (n, count, len(t)).  Every array carries the curve
    as its leading axis, and each curve's values are those of its own
    transport, bit for bit.

    Returns the matrices and, for each curve, None or the DomainError at
    which its own transport stops.  A curve that fails is carried on as the
    identity, so that its values reach no other curve, and the blocks stop
    once every curve has failed."""
    m = conn.m
    eye = np.eye(m)
    h = (t1 - t0) / steps
    total = np.zeros((count, m, m))
    errors = [None] * count
    for first in range(0, steps, _BLOCK_STEPS):
        last = min(steps, first + _BLOCK_STEPS)
        t = t0 + (0.5 * h) * np.arange(2 * first, 2 * last + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            D = _rk4_step_matrices(_stage_matrices(conn, *stages(t), t, errors), h)
            _check_block(D, t, errors)
            D = _tree_product(D)
            total = total + D + D @ total
        _check_block(total, t, errors)
        if None not in errors:
            break
    return eye + total, errors


def _check_block(values, t, errors, message=None):
    """For each curve whose `values` (leading axis: the curve) are not all
    finite: a DomainError, unless the curve has one, and its values zeroed.
    The error names the block's t-range, or is message(finite), `finite`
    telling which of the curve's values are."""
    finite = np.isfinite(values)
    for c in np.flatnonzero(~finite.reshape(len(values), -1).all(axis=1)):
        if errors[c] is None:
            errors[c] = DomainError(
                message(finite[c]) if message else "parallel transport overflows "
                f"for t from {float(t[0])!r} to {float(t[-1])!r}")
        values[c] = 0.0


def _stage_matrices(conn, x, cdot, t, errors):
    """M at each curve and time of `t`, shape (count, len(t), m, m), from the
    curves' points `x` and velocities `cdot`.  A_i is left out where
    c_i' = 0, so it need not be defined there; a curve with a non-finite M
    gets a DomainError naming its first such time.  An entry whose
    undefined subexpression has no variables fails every curve."""
    n, m = conn.n, conn.m
    count = len(errors)
    shape = (count, len(t))
    try:
        # A_i at each curve and time, nan or inf where A is not defined
        A = ex.stacked(conn._a_w, *np.broadcast_to(x, (n,) + shape)).reshape((n, m, m) + shape)
    except DomainError as err:  # raised at every point, so in the first block
        errors[:] = [err] * count
        return np.zeros(shape + (m, m))
    cdot = np.broadcast_to(cdot, (n,) + shape)[:, None, None]
    with np.errstate(all="ignore"):
        # A_i c_i', and 0.0 where c_i' = 0, in place
        np.multiply(A, cdot, out=A)
        np.copyto(A, 0.0, where=cdot == 0.0)
        M = np.ascontiguousarray(A.sum(axis=0).transpose(2, 3, 0, 1))
    _check_block(M, t, errors, lambda finite: "non-finite connection value on the "
                 f"curve at t = {float(t[np.argmin(finite.all(axis=(1, 2)))])!r}")
    return M


def _rk4_step_matrices(M, h):
    """D_k with P_k = I + D_k the RK4 step from M at stages 2k, 2k+1, 2k+2
    of each curve: the RK4 formulas applied to g = I, with the I subtracted
    exactly."""
    M0, Mh, M1 = M[:, 0:-1:2], M[:, 1::2], M[:, 2::2]
    k1 = -M0
    k2 = -(Mh + (0.5 * h) * (Mh @ k1))
    k3 = -(Mh + (0.5 * h) * (Mh @ k2))
    k4 = -(M1 + h * (M1 @ k3))
    return (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _tree_product(D):
    """E with I + E = (I + D[c, -1]) ... (I + D[c, 0]) for each curve c,
    multiplied in pairwise rounds: (I + b)(I + a) = I + (a + b + b a)."""
    while D.shape[1] > 1:
        even = D.shape[1] - D.shape[1] % 2
        a, b = D[:, 0:even:2], D[:, 1:even:2]
        pairs = a + b + b @ a
        D = np.concatenate([pairs, D[:, even:]], axis=1) if even < D.shape[1] else pairs
    return D[:, 0]


def holonomy_log(g):
    """Principal matrix logarithm of a holonomy element.

    A g within 1e-6 of SO(2) or SO(3), a margin for RK4's drift, gets the
    closed-form skew log (stable at the angle-pi branch point); everything
    else goes through scipy's logm and must have a real principal branch.
    The SO(2) angle lies in [-pi, pi): an angle within 1e-12 of +pi is
    reported as -pi, so that at the branch point the sign does not follow
    the roundoff in g[1, 0].  A non-finite entry raises LogBranchError.
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():  # logm would not return on an infinite entry
        raise LogBranchError("array must not contain infs or NaNs")
    m = g.shape[0]
    orthogonal = (np.max(np.abs(g.T @ g - np.eye(m))) < 1e-6
                  and np.linalg.det(g) > 0)
    if orthogonal and m == 2:
        angle = float(np.arctan2(g[1, 0], g[0, 0]))
        if angle > math.pi - 1e-12:
            angle = -math.pi
        return np.array([[0.0, -angle], [angle, 0.0]])
    if orthogonal and m == 3:
        cos_angle = np.clip((np.trace(g) - 1.0) / 2.0, -1.0, 1.0)
        angle = float(np.arccos(cos_angle))
        if angle < 1e-12:
            return np.zeros((3, 3))
        if abs(np.pi - angle) < 1e-8:
            # axis from the +1 eigenvector
            w, vecs = np.linalg.eigh((g + np.eye(3)) / 2.0)
            axis = vecs[:, np.argmax(w)]
        else:
            axis = np.array([g[2, 1] - g[1, 2], g[0, 2] - g[2, 0],
                             g[1, 0] - g[0, 1]]) / (2.0 * np.sin(angle))
        K = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
        return angle * K
    import scipy.linalg  # only here: it costs more to import than the rest

    try:
        L = scipy.linalg.logm(g)
    except Exception as err:  # scipy raises LinAlgError or warns
        raise LogBranchError(str(err)) from err
    if np.max(np.abs(np.asarray(L).imag)) > 1e-8:
        raise LogBranchError("holonomy has no real principal logarithm")
    return np.asarray(L).real


def span_residual(M, v):
    """Distance of the vector v from the column span of M (least squares);
    nan if v is not finite."""
    coef, *_ = np.linalg.lstsq(M, v, rcond=None)
    return float(np.linalg.norm(M @ coef - v))


def lie_closure(mats, tol=DEFAULT_TOL):
    """Basis of the Lie algebra generated by the given matrices: iterate
    brackets until the rank stabilizes (capped at m^2)."""
    mats = [np.asarray(x, dtype=float) for x in mats]
    m = mats[0].shape[0] if mats else 0
    basis = []
    flat = np.zeros((0, m * m))

    def try_add(X):
        nonlocal flat
        if np.max(np.abs(X), initial=0.0) < 1e-13:
            return
        if flat.shape[0] and within_tol(span_residual(flat.T, X.ravel()),
                                        tol * max(1.0, np.max(np.abs(X)))):
            return
        basis.append(X)
        flat = np.array([b.ravel() for b in basis])

    for X in mats:
        try_add(X)
    size = None
    while size != len(basis) and len(basis) < m * m:  # until a round adds nothing
        size = len(basis)
        for i, a in enumerate(basis[:size]):
            for b in basis[i + 1:size]:
                try_add(a @ b - b @ a)
    return basis


def ambrose_singer_check(conn, loops, samples, basepoint, steps, tol):
    """Log of every loop holonomy lies in the Lie algebra generated by the
    curvature values, all brought to the basepoint.

    Each curvature value F at a sample p, and each holonomy log L of a loop
    starting at p = curve(t0), is brought to the basepoint as g^-1 F g
    (g^-1 L g), g the parallel transport along the straight segment from
    the basepoint to p in `steps` steps.  `loops` are (curve_exprs, t0, t1)
    triples of closed curves.  Returns (inclusion_verdict, dim_h,
    max_residual).
    """
    # the segments to the samples are transported together, and each error
    # is raised where the transports one at a time would raise it first; a
    # loop's start comes from the curve that its transport compiles
    def to_basepoint(values, g):
        if isinstance(g, Exception):
            raise g
        ginv = np.linalg.inv(g)
        return [ginv @ F @ g for F in values]

    segments = _segment_transports(conn, basepoint.coords, [p.coords for p in samples], steps)
    h_basis = lie_closure([F for p, g in zip(samples, segments) for F in to_basepoint(
        curvature_coboundary(conn, p).values(), g)], tol=tol)
    flat = np.array([b.ravel() for b in h_basis]) if h_basis else None
    max_resid = 0.0
    for curve_exprs, t0, t1 in loops:
        g, curve = _transport_and_curve(conn, curve_exprs, t0, t1, steps)
        start = curve(t0)[:conn.n]
        L = to_basepoint([holonomy_log(g)],
                         _segment_transports(conn, basepoint.coords, [start], steps)[0])[0]
        size = float(np.max(np.abs(L)))
        if not within_tol(size, tol):
            max_resid = max(max_resid, size if flat is None
                            else span_residual(flat.T, L.ravel()))
    return within_tol(max_resid, tol), len(h_basis), max_resid
