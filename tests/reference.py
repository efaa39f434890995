"""References the engine is checked against, kept beside the tests that use
them: the tree walk of an expression, in W too, with Taylor lifts of any
order, the fibers of a distribution one point at a time, the
neighbour-point layer of a chart (neighbour pairs x ~ y, tangents and the
log/exp correspondence), the run that pins the curvature conventions, the
inspection and simplicial structure maps of W elements, the monomials of
W(k, n) and the product of two term maps pair by pair, the coordinate path
of combinatorial forms, and their faces with a NilElement per
coefficient."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from sdgeom import expr as ex
from sdgeom.chart import Point
from sdgeom.connections import curvature_coboundary, span_residual
from sdgeom.distributions import _coords
from sdgeom.errors import ContextMismatchError, DegreeError, DomainError, RankDeficiencyError
from sdgeom.forms import _FACE_DETS, _PERMUTATIONS, CombinatorialForm, _add_terms
from sdgeom.nil import (_MERGE_SIGNS, _ROW_IMAGES, _UNIT, NilElement, _elem_add, _elem_mul,
                        _elem_muladd, _elem_scale, _is_zero, _table, _taylor, _wrap,
                        canonicalize, generic_offsets, within_tol)


# -- the tree walk -----------------------------------------------------------

def lift_smooth(f, a, exponent=None):
    """Extend a univariate smooth primitive to a W-valued argument.

    f is one of sin, cos, exp, ln, sqrt, reciprocal, power (the latter
    takes `exponent`).  Exact: the Taylor sum at the constant term stops at
    the first power of the nilpotent part that is zero (by nilpotency, at
    order min(k, n) or before), and only the derivatives up to that order
    are taken.  A constant term outside the domain (a non-integer power of
    a negative one included), or one at which a derivative up to that order
    overflows, raises DomainError.  An array constant term is lifted sample
    by sample in the same way, with nan in place of DomainError: every
    coefficient is nan at a sample where the float lift raises or is not
    finite, or where the constant term is not finite.
    """
    if not isinstance(a, NilElement):
        raise TypeError("lift_smooth expects a NilElement")
    table = _table(f, exponent)
    nil = dict(a.terms)
    nil.pop((0, 0), None)
    powers = []  # the nonzero powers nil**1, nil**2, ...
    power = {(0, 0): 1.0}
    for _ in range(min(a.k, a.n)):
        power = _elem_mul(power, nil)
        if not power:
            break
        powers.append(power)
    derivs = _taylor(f, table, const_term(a), len(powers))
    out = {} if _is_zero(derivs[0]) else {(0, 0): derivs[0]}
    fact = 1.0
    for r, power in enumerate(powers, start=1):
        fact *= r
        if not _is_zero(derivs[r]):
            out = _elem_add(out, _elem_scale(derivs[r] / fact, power))
    return _wrap(a.k, a.n, out)


def quotient(num, den):
    """num / den: `expr._div` on floats and arrays; in W, the product with
    1.0 / den for a number den, and with the reciprocal lift of den for a W
    value."""
    if isinstance(den, NilElement):
        return num * lift_smooth("reciprocal", den)
    if isinstance(num, NilElement):
        if den == 0:
            raise DomainError("division by zero")
        return num * (1.0 / den)
    return ex._div(num, den)


def power(base, exponent):
    """base ** exponent, an integer: `expr._pow`, and a Taylor lift in W."""
    if isinstance(base, NilElement):
        return lift_smooth("power", base, exponent=exponent)
    return ex._pow(base, exponent)


def _apply_fn(fn, v):
    """fn(v): `expr._apply_fn`, and a Taylor lift in W."""
    if isinstance(v, NilElement):
        return lift_smooth(fn, v)
    return ex._apply_fn(fn, v)


def evaluate(e, env):
    """Evaluate with env: name -> float | array | NilElement (mixing
    allowed), node by node: on floats and arrays through the operations of
    `expr` (`_div`, `_pow`, `_apply_fn`), in W by the W arithmetic, a
    quotient by a W value, integer powers and primitives as Taylor lifts
    (`lift_smooth`).  The oracle for `expr.compile_w`, `expr.compile_jet`
    and the stacked paths."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        try:
            return env[e.name]
        except KeyError:
            raise DomainError(f"unbound variable {e.name!r}") from None
    if isinstance(e, ex.Add):
        return evaluate(e.left, env) + evaluate(e.right, env)
    if isinstance(e, ex.Sub):
        return evaluate(e.left, env) - evaluate(e.right, env)
    if isinstance(e, ex.Mul):
        return evaluate(e.left, env) * evaluate(e.right, env)
    if isinstance(e, ex.Div):
        return quotient(evaluate(e.left, env), evaluate(e.right, env))
    if isinstance(e, ex.Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, ex.Pow):
        return power(evaluate(e.base, env), e.power)
    if isinstance(e, ex.Call):
        return _apply_fn(e.fn, evaluate(e.arg, env))
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def tree_walk(exprs, varnames):
    """`evaluate` of each of `exprs` as one function of positional
    arguments, one per name of `varnames`, returning a tuple, in the shape
    of `expr.compile_w`'s functions: how tests evaluate expressions in W."""

    def fn(*args):
        env = dict(zip(varnames, args))
        return tuple(evaluate(e, env) for e in exprs)

    return fn


# -- the fibers of a distribution, one point at a time ----------------------
#
# From its expressions by the tree walk (`ref_*`), and from the library's
# one-row stacks.

def ref_kernel_matrix(dist, p):
    if dist.kernel is None:
        q, _ = np.linalg.qr(np.hstack([ref_span_matrix(dist, p), np.eye(dist.n)]))
        return q[:, dist.rank:dist.n].T
    env = dict(zip(dist.vars, p.coords))
    M = np.array([[evaluate(w.coeffs[(i + 1,)], env) if (i + 1,) in w.coeffs else 0.0
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
    env = dict(zip(dist.vars, p.coords))
    M = np.array([[evaluate(c, env) for c in v] for v in dist.span], dtype=float).T
    if np.linalg.matrix_rank(M, tol=1e-7) != dist.rank:
        raise RankDeficiencyError(f"span fields rank-deficient at {p.coords}")
    return M


def kernel_matrix(dist, p):
    """(n-rank) x n matrix of kernel-form coefficients at p (for SPAN input,
    orthonormal rows of the complement of the fiber): row 0 of its one-row
    stack, which raises RankDeficiencyError where the rank falls short."""
    X = _coords([p], dist.n)
    if dist.kernel is None:
        return dist._span_stack(X)[1][0, :, dist.rank:].T
    return dist._kernel_stack(X)[0][0]


def span_matrix(dist, p):
    """n x rank matrix of spanning field values at p (for KERNEL input, the
    fiber basis): row 0 of its one-row stack."""
    X = _coords([p], dist.n)
    if dist.span is None:
        return dist._kernel_stack(X)[1][0]
    return dist._span_stack(X)[0][0]


def jacobian_at(patch, s):
    """A patch's Jacobian at the parameters s: row 0 of their one-row
    stack, which raises RankDeficiencyError unless it has rank q."""
    return patch._jacobian_stack(patch._rows([s]))[0][0]


def ref_is_flat(dist, p, u, tol):
    """Whether the displacement u lies in the fiber at p: |K u| for KERNEL
    input, the least-squares distance from the span for SPAN input, within
    tol max(1, |u|)."""
    if dist.kernel is not None:
        resid = np.max(np.abs(ref_kernel_matrix(dist, p) @ u), initial=0.0)
    else:
        resid = span_residual(ref_span_matrix(dist, p), u)
    return within_tol(resid, tol * max(1.0, np.linalg.norm(u)))


def flat_generic_offsets(B, arity):
    """Displacement vectors of the generic flat simplex at a point with
    fiber basis B (n x rank): the generic offsets mapped along B
    (`NilElement.map_columns`), in W(arity, rank), and at rank 0 the zero
    elements of W(arity, 1).  For a stack of bases (N, n, rank), one per
    sample, their coefficients are arrays over the samples, each kept even
    where it is zero (as +0.0 where B's entry is -0.0)."""
    entries = B.tolist() if B.ndim == 2 else np.ascontiguousarray(B.transpose(1, 2, 0))
    return [[g.map_columns(entries) for g in row] for row in generic_offsets(arity, B.shape[-2])]


# -- neighbour points in a chart ---------------------------------------------

@dataclass(frozen=True)
class NilPoint:
    """A virtual point base + offset, the offsets being nilpotent."""

    base: Point
    offset: tuple  # n-vector of NilElement with zero constant term

    def __init__(self, base, offset):
        offset = tuple(offset)
        for o in offset:
            if not isinstance(o, NilElement):
                raise TypeError("offset entries must be NilElements")
            if const_term(o) != 0.0:
                raise ValueError("offset entries must have zero constant term")
        if len(offset) != base.n:
            raise ContextMismatchError("offset/base dimension mismatch")
        ctxs = {(o.k, o.n) for o in offset}
        if len(ctxs) > 1:
            raise ContextMismatchError("offset entries in different W contexts")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "offset", offset)

    @property
    def n(self):
        return self.base.n

    def coords_w(self):
        """Coordinates as W-valued scalars: base + offset."""
        return tuple(o + b for b, o in zip(self.base.coords, self.offset))


@dataclass(frozen=True)
class Tangent:
    """The tangent d -> base + d*direction, stored as (base, direction)."""

    base: Point
    direction: tuple  # n-vector of reals

    def __init__(self, base, direction):
        direction = tuple(float(v) for v in direction)
        if len(direction) != base.n:
            raise ContextMismatchError("direction/base dimension mismatch")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)


def _check_square_zero(d):
    if not isinstance(d, NilElement):
        raise TypeError("expected a NilElement scalar")
    if const_term(d) != 0.0:
        raise ValueError("d must have zero constant term")
    if not is_zero(d * d):
        raise DomainError("d squared is nonzero in W")


def _as_w_coords(p):
    """Coordinates of a point, a NilPoint (W-valued) or a plain sequence."""
    if isinstance(p, NilPoint):
        return p.coords_w()
    return p.coords if isinstance(p, Point) else tuple(p)


def affine_combination(d, x, y):
    """(1-d)*x + d*y, componentwise in the chart."""
    if not isinstance(d, NilElement) or const_term(d) != 0.0:
        raise ValueError("weight d must be a NilElement with zero constant term")
    xs = _as_w_coords(x)
    ys = _as_w_coords(y)
    if len(xs) != len(ys):
        raise ContextMismatchError("points in different charts")
    base = x.base if isinstance(x, NilPoint) else x
    offset = []
    for xi, yi, bi in zip(xs, ys, base.coords):
        value = xi + d * (yi - xi) - bi
        if not isinstance(value, NilElement):
            value = NilElement.constant(d.k, d.n, value)
        offset.append(value)
    return NilPoint(base, offset)


def log_pair(x, y):
    """log(x, y): the offset vector y - x of a neighbour pair."""
    if not isinstance(x, Point):
        raise TypeError("log_pair expects a real base point")
    if isinstance(y, Point):
        if y.coords != x.coords:
            raise ContextMismatchError("log of non-neighbour real points")
        return tuple(NilElement(1, x.n) for _ in range(x.n))
    if y.base.coords != x.coords:
        raise ContextMismatchError("y must be based at x")
    return y.offset


def exp_tangent(t, d):
    """exp(d*t) = base + d*direction; requires d^2 = 0 in its context."""
    _check_square_zero(d)
    return NilPoint(t.base, tuple(d * v for v in t.direction))


def pushforward_chart(phi, varnames, p):
    """Apply a smooth chart map (componentwise DSL expressions) to a
    W-valued point, through the tree walk (`tree_walk`)."""
    f = tree_walk(phi, varnames)
    images = f(*_as_w_coords(p))
    base = Point(f(*(p.base.coords if isinstance(p, NilPoint) else p.coords)))
    if isinstance(p, Point):
        return base
    k, n = p.offset[0].k, p.offset[0].n
    offset = []
    for img, b in zip(images, base.coords):
        if isinstance(img, NilElement):
            offset.append(img - b)
        else:
            offset.append(NilElement.constant(k, n, img - b))
    return NilPoint(base, offset)


# -- the curvature conventions -----------------------------------------------

def _classical_curvature(conn, p, bracket_sign):
    """F_ij = d_i A_j - d_j A_i + s [A_i, A_j] for i < j (1-based), s =
    `bracket_sign`, from the connection's compiled A and dA at p, as
    `connections.curvature_classical_oracle` forms it with s =
    BRACKET_SIGN."""
    n, m = conn.n, conn.m
    A = np.array(conn._a_w(*p.coords), dtype=float).reshape(n, m, m)
    dA = iter(np.array(conn._da_w(*p.coords), dtype=float).reshape(-1, m, m))
    return {(i, j): next(dA) + bracket_sign * (A[i - 1] @ A[j - 1] - A[j - 1] @ A[i - 1])
            for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def pin_conventions(conn, points, tol=1e-9):
    """One-time pinning run: measure the scalar ratio and bracket sign
    relating the coboundary curvature to the classical F = dA + s[A, A].
    Returns (scale, bracket_sign); `connections` freezes (0.5, +1.0)."""
    for s in (+1.0, -1.0):
        ratios = []
        ok = True
        for p in points:
            cob = curvature_coboundary(conn, p)
            classical = _classical_curvature(conn, p, s)
            for key, Fc in cob.items():
                F = classical[key]
                nF = np.max(np.abs(F))
                if nF < 1e-8:
                    continue
                ratio = float(np.sum(Fc * F) / np.sum(F * F))
                if not within_tol(np.max(np.abs(Fc - ratio * F)), tol * max(1.0, nF)):
                    ok = False
                    break
                ratios.append(ratio)
            if not ok:
                break
        if ok and ratios and within_tol(np.std(ratios), tol):
            return float(np.mean(ratios)), s
    raise RankDeficiencyError("could not pin curvature conventions")


# -- W elements: inspection, monomials and the simplicial structure maps ------

def const_term(e):
    """The constant term of a W element."""
    return e.terms.get((0, 0), 0.0)


def coeff(e, rows, cols):
    """Coefficient of the canonical monomial m(rows, cols) in e."""
    rmask = sum(1 << (r - 1) for r in rows)
    cmask = sum(1 << (c - 1) for c in cols)
    return e.terms.get((rmask, cmask), 0.0)


def is_zero(e):
    """Whether every coefficient of e is 0 (`within_tol`)."""
    return within_tol(e, 0.0)


def degree_part(e, r):
    """Component of e spanned by monomials of generator-degree r."""
    return _wrap(e.k, e.n, {key: v for key, v in e.terms.items() if key[0].bit_count() == r})


def monomial(k, n, rows, cols, coefficient=1.0):
    """Element coefficient * m(rows, cols) of W(k, n), both index sets
    sorted."""
    sign, mono = canonicalize(list(zip(sorted(rows), sorted(cols))))
    if sign == 0 or coefficient == 0:
        return NilElement(k, n)
    return NilElement(k, n, {mono: sign * float(coefficient)})


def permute_rows(e, perm):
    """Algebra morphism induced by a vertex permutation: row r (1-based) to
    perm[r-1], each monomial to its signed image (`nil._ROW_IMAGES`)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, e.k + 1)):
        raise ValueError("not a permutation of 1..k")
    images = _ROW_IMAGES[perm]
    out = {}
    for mono, v in e.terms.items():
        sign, image = images[mono]
        out[image] = sign * v
    return _wrap(e.k, e.n, out)


def zero_row(e, j):
    """Algebra morphism xi[j,*] -> 0 (identify vertex j with the base)."""
    return _wrap(e.k, e.n, {key: v for key, v in e.terms.items()
                            if not key[0] & (1 << (j - 1))})


# -- monomials -----------------------------------------------------------------

def all_monomials(k, n, r):
    """Canonical degree-r monomials of W(k, n) as (rows, cols) tuples."""
    return [(rows, cols)
            for rows in combinations(range(1, k + 1), r)
            for cols in combinations(range(1, n + 1), r)]


def ref_elem_muladd(out, c, a, b):
    """out += c * a * b on term maps, in place, float zeros pruned: every
    pair of terms, in a's order, then b's, a pair that shares a row or a
    column skipped.  The oracle for `nil._elem_muladd`, which skips the
    pairs that share a row before it visits them."""
    get = out.get
    for (s1, t1), ca in a.items():
        rows = _MERGE_SIGNS[s1]
        cols = _MERGE_SIGNS[t1]
        cca = c * ca
        for (s2, t2), cb in b.items():
            if (s1 & s2) or (t1 & t2):
                continue
            key = (s1 | s2, t1 | t2)
            v = get(key, 0.0) + rows[s2] * cols[t2] * cca * cb
            if v.__class__ is float and v == 0.0:
                if key in out:
                    del out[key]
            else:
                out[key] = v


# -- the coordinate path of combinatorial forms --------------------------------
#
# A combinatorial form evaluated on a base point and p displacement vectors,
# each coordinate a float or a NilElement: the oracle of the library's face
# path (`CombinatorialForm.on_face`) and of the generic value mapped along a
# matrix (`NilElement.map_columns`).

class CoordinateForm:
    """A combinatorial p-form as a function of a base point and p
    displacement vectors."""

    __slots__ = ("degree", "n", "evaluator")

    def __init__(self, degree, n, evaluator):
        self.degree = degree
        self.n = n
        self.evaluator = evaluator

    def __call__(self, base_coords, offsets):
        if len(offsets) != self.degree:
            raise DegreeError("wrong simplex arity")
        return self.evaluator(tuple(base_coords), [tuple(o) for o in offsets])


def ref_to_combinatorial(form):
    """`forms.to_combinatorial` in coordinates: the value
    sum_T a_T * det(offsets[:, T]), with the coefficients the tree walk's
    (`tree_walk`) at the base, a W-valued one or arrays over samples
    included, accumulated into one term map; a float offset entry or
    coefficient counts as a constant term, and a float zero coefficient adds
    nothing.  It is a NilElement when the base or an offset is W-valued,
    else a float or an array."""
    columns = [tuple(t - 1 for t in T) for T in form.coeffs]
    perms = _PERMUTATIONS[form.degree]
    coefficients = tree_walk(list(form.coeffs.values()), form.vars)

    def evaluator(base, offsets):
        values = coefficients(*base)
        context = _context(base, offsets)
        rows = [[_terms(x, context) for x in off] for off in offsets]
        out = {}
        for cols, a in zip(columns, values):
            if isinstance(a, NilElement):
                det = {}
                _add_det(det, 1.0, rows, cols, perms)
                _elem_muladd(out, 1.0, a.terms, det)
            elif not _is_zero(a):
                _add_det(out, a, rows, cols, perms)
        if context is None:
            return out.get((0, 0), 0.0)
        return _wrap(context[0], context[1], out)

    return CoordinateForm(form.degree, form.n, evaluator)


def ref_d_comb(theta):
    """`forms.d_comb` in coordinates: the alternating sum of theta on the
    faces, the face without the base rebased at its next vertex."""
    p = theta.degree

    def evaluator(base, offsets):
        total = theta(*_rebase(base, offsets[1:], offsets[0]))
        for i in range(1, p + 2):
            v = _point_value(theta(base, offsets[:i - 1] + offsets[i:]), base, offsets)
            total = total + v if i % 2 == 0 else total - v
        return total

    return CoordinateForm(p + 1, theta.n, evaluator)


def ref_wedge_comb(om, th):
    """`forms.wedge_comb` in coordinates: om on the front face times th on
    the back face, rebased at its first vertex."""
    k, l = om.degree, th.degree

    def evaluator(base, offsets):
        front = _point_value(om(base, offsets[:k]), base, offsets)
        if k == 0:
            back = th(base, offsets)
        else:
            back = th(*_rebase(base, offsets[k:], offsets[k - 1]))
        return front * back

    return CoordinateForm(k + l, om.n, evaluator)


def _context(base, offsets):
    """(k, n) of the first W-valued coordinate or offset entry, or None."""
    for x in base:
        if isinstance(x, NilElement):
            return x.k, x.n
    for off in offsets:
        for x in off:
            if isinstance(x, NilElement):
                return x.k, x.n
    return None


def _point_value(value, base, offsets):
    """A face's value on the simplex of `offsets` at `base`: a float, a
    0-form's value at the base point, is the constant element of the
    simplex's W(k, n), as `forms.to_combinatorial` gives its face (0,); it
    stays a float, or an array, where the simplex has no W-valued
    coordinate."""
    context = _context(base, offsets)
    if context is None or isinstance(value, NilElement):
        return value
    return _constant(context, value)


def _constant(context, value):
    """A float or an array over samples as a constant element of the W(k, n)
    of `context`: a float zero is no term, an array is a term."""
    if getattr(value, "ndim", 0):
        return NilElement(*context, {(0, 0): value})
    return NilElement.constant(*context, value)


def _terms(x, context):
    """Term map of an offset entry: a float is a constant term."""
    if isinstance(x, NilElement):
        if (x.k, x.n) != context:
            raise ContextMismatchError(f"W({x.k},{x.n}) vs W{context}")
        return x.terms
    return {(0, 0): float(x)} if x else {}


def _add_det(out, c, rows, cols, perms):
    """out += c * det(rows[i][cols[j]]) on term maps, in place (Leibniz)."""
    p = len(cols)
    if p == 0:
        _elem_muladd(out, c, _UNIT, _UNIT)
        return
    last = rows[p - 1]
    for sign, perm in perms:
        partial = rows[0][cols[perm[0]]] if p > 1 else _UNIT
        for i in range(1, p - 1):
            partial = _elem_mul(partial, rows[i][cols[perm[i]]])
        _elem_muladd(out, sign * c, partial, last[cols[perm[p - 1]]])


def _rebase(base, offsets, pivot):
    """A face rebased at its vertex base + pivot: that vertex, and each
    offset minus pivot.  A coordinate that is an array over samples enters
    its sum with a W-valued entry as a constant element."""
    return (tuple(_constant((o.k, o.n), b) + o
                  if getattr(b, "ndim", 0) and isinstance(o, NilElement) else b + o
                  for b, o in zip(base, pivot)),
            [tuple(a - b for a, b in zip(o, pivot)) for o in offsets])


# -- the faces of the generic simplex with a NilElement per coefficient ------

def ref_jet_faces(form):
    """`forms.to_combinatorial` with a NilElement per coefficient: at a
    vertex x + d_r of a face, each coefficient is its 1-jet as a W element
    (`expr.Jet`), multiplied by the face's determinant map, the sum of its
    permutations' products, pair of terms by pair of terms
    (`ref_elem_muladd`); at x, and for an expression without variables,
    each coefficient adds itself times each product's terms in turn.  The
    oracle for the jet-slot tables of `forms._FACE_DETS`."""
    n = form.n

    def on_face(x, k, face):
        r = face[0]
        values = form.coeff_jet()(x, k, n, r) if r else form.coeff_function()(*x)
        out = {}
        for T, a in zip(form.coeffs, values):
            products = _FACE_DETS[k, n, face, T][0]
            if isinstance(a, NilElement):
                det = {}
                _add_terms(det, 1.0, products)
                ref_elem_muladd(out, 1.0, a.terms, det)
            elif not _is_zero(a):
                _add_terms(out, a, products)
        return _wrap(k, n, out)

    return CombinatorialForm(form.degree, n, on_face)
