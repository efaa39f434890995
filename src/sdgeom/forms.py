"""Classical and combinatorial differential forms on a chart.

A classical p-form stores one scalar coefficient expression per strictly
increasing index tuple.  A combinatorial p-form is a function of
infinitesimal p-simplices, given by its values on the faces of the generic
simplex; the simplicial exterior derivative and the cup-product wedge act on
those values directly.
"""

import math
from itertools import combinations, permutations
from types import MappingProxyType

from . import expr as ex
from .errors import DegreeError, DomainError, SdgError
from .nil import (_MERGE_SIGNS, _UNIT, DEFAULT_TOL, _is_zero, _Memo, _bits,
                  _elem_add, _elem_mul, _elem_scale, _wrap, within_tol)


def default_vars(n):
    return tuple(f"x{i + 1}" for i in range(n))


class ClassicalForm:
    """Multilinear alternating form field with closed-form coefficients.

    A form is never mutated: `coeffs` is a read-only mapping, so the
    compiled coefficients and the derived forms (`_derived`: d of the form
    under "d", its wedge with a partner b under b) are computed once and
    shared."""

    __slots__ = ("degree", "n", "vars", "coeffs", "_coeff_fn", "_coeff_jet", "_derived")

    def __init__(self, degree, n, coeffs, vars=None):
        self.degree = degree
        self.n = n
        self.vars = tuple(vars) if vars is not None else default_vars(n)
        if len(self.vars) != n:
            raise ValueError("need one variable name per dimension")
        clean = {}
        for T, e in coeffs.items():
            T = tuple(T)
            if len(T) != degree or list(T) != sorted(set(T)):
                raise DegreeError(f"index tuple {T} invalid for degree {degree}")
            if T and not (1 <= T[0] and T[-1] <= n):
                raise DegreeError(f"index tuple {T} out of range for dim {n}")
            e = ex.as_expr(e)
            if not (isinstance(e, ex.Const) and e.value == 0.0):
                clean[T] = e
        self.coeffs = MappingProxyType(clean)
        self._coeff_fn = self._coeff_jet = None
        self._derived = {}

    @staticmethod
    def zero(degree, n, vars=None):
        return ClassicalForm(degree, n, {}, vars)

    @staticmethod
    def dx(i, n, vars=None):
        """The constant 1-form dx^i."""
        return ClassicalForm(1, n, {(i,): ex.Const(1.0)}, vars)

    def coeff_function(self):
        """The coefficients, in `coeffs` order, as one compiled function of
        the coordinates (floats, or arrays over samples) returning a tuple,
        by `expr.compile_w`.  Compiled on first use."""
        if self._coeff_fn is None:
            self._coeff_fn = ex.compile_w(list(self.coeffs.values()), self.vars)
        return self._coeff_fn

    def coeff_jet(self):
        """The coefficients, in `coeffs` order, as 1-jets (`expr.Jet`): at
        the point x, called as `coeff_jet()(x, k, n, r)`, their values in
        W at the vertex x + d_r of the generic simplex in W(k, n),
        whose coordinates have the row-r generators as their tangents; its
        function `fn(*x)` returns their values and tangent coefficients,
        which the faces of `to_combinatorial` read.  Compiled on first
        use."""
        if self._coeff_jet is None:
            self._coeff_jet = ex.Jet(list(self.coeffs.values()), self.vars)
        return self._coeff_jet

    def coeffs_at(self, coords):
        """Numeric coefficients at the given `n` coordinates, floats or
        arrays over samples, through `coeff_function`: the values, and the
        DomainErrors, of `expr.compile_w`."""
        if len(coords) != self.n:
            raise DomainError(f"need {self.n} coordinates, got {len(coords)}")
        return dict(zip(self.coeffs, self.coeff_function()(*coords)))

    def __add__(self, other):
        if self.degree != other.degree or self.n != other.n:
            raise DegreeError("cannot add forms of different degree/dimension")
        coeffs = dict(self.coeffs)
        for T, e in other.coeffs.items():
            coeffs[T] = ex._fold_add(coeffs[T], e) if T in coeffs else e
        return ClassicalForm(self.degree, self.n, coeffs, self.vars)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, s):
        s = ex.as_expr(s)
        return ClassicalForm(self.degree, self.n,
                             {T: ex._fold_mul(s, e) for T, e in self.coeffs.items()},
                             self.vars)

    def __repr__(self):
        if not self.coeffs:
            return f"ClassicalForm<0 (deg {self.degree})>"
        terms = " + ".join(
            f"({ex.to_str(e)})*" + "^".join(f"d{self.vars[t - 1]}" for t in T)
            if T else ex.to_str(e)
            for T, e in sorted(self.coeffs.items()))
        return f"ClassicalForm<{terms}>"


def _mask(T):
    """Bitmask of an index tuple, bit i-1 for index i, as in `nil`: the sign
    of merging disjoint sorted S and T is _MERGE_SIGNS[_mask(S)][_mask(T)]."""
    return sum(1 << (t - 1) for t in T)


def d_classical(form):
    """Textbook coordinate exterior derivative via symbolic differentiation.
    Built on the first call for `form` and shared after: forms are never
    mutated."""
    if "d" in form._derived:
        return form._derived["d"]
    coeffs = {}
    for T, a in form.coeffs.items():
        mask = _mask(T)
        for i, var in enumerate(form.vars, start=1):
            if i in T:
                continue
            da = ex.diff(a, var)
            if isinstance(da, ex.Const) and da.value == 0.0:
                continue
            sign = _MERGE_SIGNS[1 << (i - 1)][mask]
            U = tuple(sorted(T + (i,)))
            term = ex._fold_mul(ex.Const(sign), da)
            coeffs[U] = ex._fold_add(coeffs[U], term) if U in coeffs else term
    out = form._derived["d"] = ClassicalForm(form.degree + 1, form.n, coeffs, form.vars)
    return out


def wedge_classical(a, b):
    """Shuffle-sum wedge without factorial prefactor.  Built on the first
    call for the pair of objects (a, b) and shared after: forms are never
    mutated."""
    if b in a._derived:
        return a._derived[b]
    if a.n != b.n:
        raise DegreeError("wedge of forms on different charts")
    coeffs = {}
    for S, ea in a.coeffs.items():
        smask = _mask(S)
        signs = _MERGE_SIGNS[smask]
        for T, eb in b.coeffs.items():
            mask = _mask(T)
            if smask & mask:  # S and T share an index
                continue
            sign = signs[mask]
            U = tuple(sorted(S + T))
            term = ex._fold_mul(ex.Const(sign), ex._fold_mul(ea, eb))
            coeffs[U] = ex._fold_add(coeffs[U], term) if U in coeffs else term
    out = a._derived[b] = ClassicalForm(a.degree + b.degree, a.n, coeffs, a.vars)
    return out


class CombinatorialForm:
    """Function of infinitesimal p-simplices; vanishes on degenerate ones.

    It is fixed by its value on the generic simplex in W(k, n) at a point
    x, whose vertices are x and x + d_r, d_r the row-r generators: every
    other infinitesimal simplex at x is the image of the generic one under
    a linear map of its infinitesimals (`NilElement.map_columns`).  A face
    of the generic simplex is given by the increasing labels of its
    vertices, 0 for x and r for x + d_r, and `on_face(x, k, face)` is the
    value on it.  x is a sequence of floats, or of arrays over samples."""

    __slots__ = ("degree", "n", "on_face")

    def __init__(self, degree, n, on_face):
        self.degree = degree
        self.n = n
        self.on_face = on_face


def to_combinatorial(form):
    """Combinatorial form of a classical one: the classical form on the
    displacement vectors log(x0, xi), with coefficients Taylor-lifted at the
    base vertex, sum_T a_T * det(offsets[:, T]).

    On a face of the generic simplex the coefficients at x are
    `coeff_function`'s values, and each adds itself times the face's
    determinant to one term map (`_add_terms` over the products of
    `_FACE_DETS`).  At a vertex x + d_r a coefficient is its 1-jet
    (`ClassicalForm.coeff_jet`), a value a and tangents a_i: in the first
    neighbourhood of the diagonal that is all of its value in W, a +
    sum_i a_i xi[r, i].  So a adds itself times the determinant's terms,
    and each a_i itself times the terms of xi[r, i] times the
    determinant, which the same memo entry holds, signed; an expression
    without variables is a float and adds itself as at x.  Every face's
    value is a W(k, n) element; that of the face (0,), the point x, is a
    constant.
    """
    n = form.n

    def on_face(x, k, face):
        out = {}
        if face[0]:
            jet = form.coeff_jet()
            coeffs, count = jet.fn(*x), len(jet.constant)
            for j, (T, constant) in enumerate(zip(form.coeffs, jet.constant)):
                products, slots = _FACE_DETS[k, n, face, T]
                if constant:
                    slots = (products,)
                for c, terms in zip(coeffs[j::count], slots):
                    if not _is_zero(c):
                        _add_terms(out, c, terms)
        else:
            for T, a in zip(form.coeffs, form.coeff_function()(*x)):
                if not _is_zero(a):
                    _add_terms(out, a, _FACE_DETS[k, n, face, T][0])
        return _wrap(k, n, out)

    return CombinatorialForm(form.degree, n, on_face)


def _signed_permutations(p):
    """(sign, permutation) pairs of range(p), in `permutations` order."""
    out = []
    for perm in permutations(range(p)):
        inv = sum(1 for i in range(p) for j in range(i + 1, p)
                  if perm[i] > perm[j])
        out.append((-1.0 if inv & 1 else 1.0, perm))
    return out


_PERMUTATIONS = _Memo(_signed_permutations)  # one entry per p met


def _add_terms(out, c, products):
    """out += c * e at each (monomial, e) of `products` in turn, in place,
    float zeros pruned: `_elem_muladd`'s accumulation, for a coefficient
    e of +1.0 or -1.0, where c * e is exact."""
    get = out.get
    for key, e in products:
        v = get(key, 0.0) + e * c
        if v.__class__ is float and v == 0.0:
            out.pop(key, None)
        else:
            out[key] = v


def _face_det(key):
    """The tables of the face `face` (vertex labels) of the generic simplex
    in W(k, n) on the columns T, for `_FACE_DETS[k, n, face, T]`, of
    det(offsets[:, T]) for the offsets d_v - d_face[0], by the Leibniz
    rule; each a list of (monomial, e) to which c times the determinant
    adds c * e, term by term (`_add_terms`).

    First `products`, the terms of each permutation's product, permutation
    by permutation: the labels are distinct, so each is a distinct monomial
    of coefficient +1.0 or -1.0.  Then, for a face at a vertex r = face[0]
    other than x, the jet slots: the terms of the determinant itself, their
    sum, and for each column i those of xi[r, i] times it, in its order,
    each coefficient times the merge signs of the product.  A product a *
    det in W adds each term of a times each term of det in that order
    (`nil._elem_muladd`), and a term a_i xi[r, i] adds a_i * s * e for the
    sign s, which is s * e * a_i to the bit, since s is +1.0 or -1.0."""
    k, n, face, T = key
    gen = lambda v, t: {(1 << (v - 1), 1 << (t - 1)): 1.0} if v else {}
    rows = [{t: _elem_add(gen(v, t), _elem_scale(-1.0, gen(face[0], t))) for t in T}
            for v in face[1:]]
    products = []
    for sign, perm in _PERMUTATIONS[len(T)]:
        product = _UNIT
        for row, j in zip(rows, perm):
            product = _elem_mul(product, row[T[j]])
        products += [(mono, sign * e) for mono, e in product.items()]
    if not face[0]:
        return products, ()
    det = {}
    _add_terms(det, 1.0, products)
    row = 1 << (face[0] - 1)
    slots = [list(det.items())]
    for i in range(n):
        col = 1 << i
        signs = _MERGE_SIGNS[row], _MERGE_SIGNS[col]
        slots.append([((row | s, col | t), signs[0][s] * signs[1][t] * e)
                      for (s, t), e in det.items() if not (row & s or col & t)])
    return products, slots


# One entry per (k, n, face, T) met: the generic simplex's face tables do
# not depend on its base point.  Callers read the tables and never change
# them.
_FACE_DETS = _Memo(_face_det)


def eval_generic(theta, base):
    """Value of a combinatorial form on the generic infinitesimal simplex
    rooted at `base`: an element of W(degree, n), its value on the face of
    all the vertices, labelled 0..degree (`CombinatorialForm.on_face`)."""
    p = theta.degree
    return theta.on_face(base.coords, p, tuple(range(p + 1)))


def extract_classical(theta, base, tol=DEFAULT_TOL):
    """Coefficients of the classical form corresponding to `theta` at `base`,
    read off the generic value and normalized by degree!."""
    p = theta.degree
    value = eval_generic(theta, base)
    full_rows = (1 << p) - 1
    norm = math.factorial(p)
    coeffs = {T: 0.0 for T in combinations(range(1, theta.n + 1), p)}
    for (rmask, cmask), v in value.terms.items():
        if rmask == full_rows:
            coeffs[tuple(_bits(cmask))] = v / norm
        elif not within_tol(v, tol):
            raise SdgError(
                f"non-form input: lower-degree term of size {abs(v):g} "
                "in the generic value")
    return coeffs


def comparison(theta, classical, base, tol=DEFAULT_TOL):
    """Synthetic vs classical at `base`: (coefficients extracted from the
    combinatorial form `theta`, coefficients of the classical form
    `classical`, their ratios where the classical side is clearly nonzero,
    |c| > 1e-6).  The comparison theorem says the ratios are one constant
    per degree: 1/(p+1) for d, k!l!/(k+l)! for the wedge."""
    extracted = extract_classical(theta, base, tol=tol)
    oracle = classical.coeffs_at(base.coords)
    ratios = [extracted.get(T, 0.0) / c for T, c in oracle.items()
              if abs(c) > 1e-6]
    return extracted, oracle, ratios


def d_comb(theta):
    """Simplicial exterior derivative: alternating sum of face evaluations.
    On the generic simplex, the face without vertex i is the face's labels
    without the i-th, so rebasing a face at its next vertex is relabelling
    it."""
    p = theta.degree

    def on_face(x, k, face):
        total = theta.on_face(x, k, face[1:])
        for i in range(1, p + 2):
            v = theta.on_face(x, k, face[:i] + face[i + 1:])
            total = total + v if i % 2 == 0 else total - v
        return total

    return CombinatorialForm(p + 1, theta.n, on_face)


def wedge_comb(om, th):
    """Cup-product wedge: front face in `om` times rebased back face in `th`
    (on the generic simplex, the back face's labels)."""
    if om.n != th.n:
        raise DegreeError("wedge of forms on different charts")
    k, l = om.degree, th.degree

    def on_face(x, arity, face):
        return om.on_face(x, arity, face[:k + 1]) * th.on_face(x, arity, face[k:])

    return CombinatorialForm(k + l, om.n, on_face)


def eval_semi(theta, base, *vectors, tol=DEFAULT_TOL):
    """Extension of a combinatorial p-form to semi-infinitesimal simplices:
    multilinear evaluation of its extraction on p real vectors."""
    if len(vectors) != theta.degree:
        raise DegreeError("wrong number of argument vectors")
    return semi_value(extract_classical(theta, base, tol=tol), *vectors)


def semi_value(coeffs, *vectors):
    """The p-form with the classical coefficients `coeffs` ({T: a}, as
    `extract_classical` returns them) on the p vectors V, in floats:
    sum_T a_T * det(V[:, T]), each determinant by the Leibniz rule."""
    perms = _PERMUTATIONS[len(vectors)]
    total = 0.0
    for T, a in coeffs.items():
        det = 0.0
        for sign, perm in perms:
            term = sign
            for v, j in zip(vectors, perm):
                term *= v[T[j] - 1]
            det += term
        total += a * det
    return total
