"""Arithmetic in the truncated algebra W(k, n) of a generic infinitesimal
k-simplex in R^n.

Generators xi[i, a] (vertex index i in 1..k, coordinate index a in 1..n)
satisfy xi[i,a]*xi[j,b] = -xi[j,a]*xi[i,b] in a commutative algebra, which
kills repeated rows and repeated columns and makes (sorted rows, sorted
columns) a normal form.  Elements are sparse maps from such monomials to
coefficients; all operations are pure.  A coefficient is a float, or a 1-D
float64 array with one value per sample point, so that one evaluation serves
a whole batch of points: the arithmetic is the same, value by value, and a
float equal to 0.0 is pruned while an array is kept by structure.

A monomial is a pair of bitmasks (rows, cols): bit i-1 of `rows` set means
vertex-displacement index i participates, likewise for coordinate indices in
`cols`.  The canonical monomial pairs the sorted row list with the sorted
column list position by position, so the two masks determine the monomial.
"""

import math
from functools import partial
from itertools import repeat
from types import SimpleNamespace

from .errors import ContextMismatchError, DomainError

MAX_INDEX = 64  # largest row or column index a context may have


def canonicalize(factors):
    """Normal form of a product of generators.

    `factors` is a sequence of (row, col) pairs (1-based).  Returns
    (sign, (rows_mask, cols_mask)); sign 0 means the product is zero
    (repeated row or column), in which case the monomial is None.
    """
    factors = sorted(factors)  # sort by row; commutative reordering, no sign
    rows_mask = 0
    cols_mask = 0
    cols = []
    for row, col in factors:
        rbit = 1 << (row - 1)
        cbit = 1 << (col - 1)
        if rows_mask & rbit or cols_mask & cbit:
            return 0, None
        rows_mask |= rbit
        cols_mask |= cbit
        cols.append(col)
    # sign of the permutation sorting the column sequence
    inv = sum(1 for i in range(len(cols)) for j in range(i + 1, len(cols))
              if cols[i] > cols[j])
    return (-1 if inv & 1 else 1), (rows_mask, cols_mask)


def _bits(mask):
    """1-based positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


class _Memo(dict):
    """A dict that fills a missing key with `fill(key)` on its first
    lookup; a hit is a plain dict lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _merge_sign(mask, other):
    """The merge sign of one index set (a bitmask) against another:
    (-1)**#{(i, j) : i in mask, j in other, i > j}, as +1.0 or -1.0."""
    inv = 0
    while other:
        low = other & -other
        inv += (mask >> low.bit_length()).bit_count()
        other ^= low
    return -1.0 if inv & 1 else 1.0


# The sign of a product of two disjoint monomials is the merge sign of their
# row masks times the merge sign of their column masks: a pair of factors
# whose row order and column order disagree counts once in exactly one of
# the two merges, and a pair that disagrees in neither or both counts twice
# or not at all.  Rows and columns share the tables, and so do the classical
# forms' wedge and d (`forms`); a table only ever holds the mask pairs met.
_MERGE_SIGNS = _Memo(lambda mask: _Memo(partial(_merge_sign, mask)))


def _coeff_equal(a, b):
    """`==` for two coefficients: elementwise, with equal shapes, if either
    is an array."""
    if getattr(a, "ndim", 0) or getattr(b, "ndim", 0):  # numpy only then
        import numpy as np

        return bool(np.array_equal(a, b))
    return a == b


def _format_coeff(v):
    """A coefficient as `repr` prints it: `:g` for a float, and for an
    array its values in brackets."""
    if getattr(v, "ndim", 0):
        return "[" + " ".join(f"{x:g}" for x in v.tolist()) + "]"
    return f"{v:g}"


def _row_image(rows, mono):
    """The image of a monomial under a row map (a tuple, row r to rows[r-1]):
    (sign, monomial), the sign +1.0 or -1.0, or 0.0 and None where two
    factors land on one row, as under a degeneracy."""
    rmask, cmask = mono
    sign, image = canonicalize([(rows[r - 1], c)
                                for r, c in zip(_bits(rmask), _bits(cmask))])
    return float(sign), image


_ROW_IMAGES = _Memo(lambda rows: _Memo(partial(_row_image, rows)))


def _is_zero(v):
    """Whether a coefficient is pruned: a float equal to 0.0 (the term-map
    kernels below inline this test)."""
    return v.__class__ is float and v == 0.0


def _elem_muladd(out, c, a, b):
    """out += c * a * b on term maps, in place; float zeros pruned.

    The pairs of terms are visited in a's order, then b's.  A pair that
    shares a row adds nothing, so b's terms on other rows than a term of a
    are listed once per row mask of a, in b's order, with their row
    merge signs."""
    signs = _MERGE_SIGNS
    get = out.get
    partners = {}  # a row mask of a -> [(merged rows, cols, row sign, coeff)] of b
    for (s1, t1), ca in a.items():
        terms = partners.get(s1)
        if terms is None:
            rows = signs[s1]
            terms = partners[s1] = [(s1 | s2, t2, rows[s2], cb)
                                    for (s2, t2), cb in b.items() if not s1 & s2]
        cols = signs[t1]
        cca = c * ca
        for s, t2, sign, cb in terms:
            if t1 & t2:
                continue
            key = (s, t1 | t2)
            v = get(key, 0.0) + sign * cols[t2] * cca * cb
            if v.__class__ is float and v == 0.0:
                if key in out:
                    del out[key]
            else:
                out[key] = v


_UNIT = {(0, 0): 1.0}  # the term map of 1


def _elem_mul(a, b):
    """Product of two term maps {(rows, cols): coeff}, float zeros pruned.

    Two monomials multiply to zero when they share a row or a column;
    otherwise the sign is the merge sign of the rows times that of the
    columns.
    """
    out = {}
    _elem_muladd(out, 1.0, a, b)
    return out


def _elem_add(a, b):
    """Sum of two term maps, float zeros pruned."""
    out = dict(a)
    for key, cb in b.items():
        c = out.get(key, 0.0) + cb
        if c.__class__ is float and c == 0.0:
            if key in out:
                del out[key]
        else:
            out[key] = c
    return out


def _elem_scale(c, a):
    """Scalar multiple of a term map (c a float or an array), float zeros
    pruned."""
    if c.__class__ is float and c == 0.0:
        return {key: c * v for key, v in a.items() if v.__class__ is not float}
    return {key: c * v for key, v in a.items()}


class NilElement:
    """Immutable element of W(k, n), a sparse map monomial -> coefficient."""

    __slots__ = ("k", "n", "terms")

    def __init__(self, k, n, terms=None):
        if not (0 <= k <= MAX_INDEX and 1 <= n <= MAX_INDEX):
            raise ValueError(f"context ({k},{n}) out of supported range")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", dict(terms) if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("NilElement is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(k, n, c):
        return NilElement(k, n, {(0, 0): float(c)} if c else None)

    @staticmethod
    def zero(k, n):
        return NilElement(k, n)

    @staticmethod
    def generator(k, n, row, col):
        if not (1 <= row <= k and 1 <= col <= n):
            raise ValueError(f"generator ({row},{col}) outside context ({k},{n})")
        return NilElement(k, n, {(1 << (row - 1), 1 << (col - 1)): 1.0})

    @staticmethod
    def monomial(k, n, rows, cols, coeff=1.0):
        """Element coeff * m(rows, cols) with both index sets sorted."""
        sign, mono = canonicalize(list(zip(sorted(rows), sorted(cols))))
        if sign == 0 or coeff == 0:
            return NilElement.zero(k, n)
        return NilElement(k, n, {mono: sign * float(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def const_term(self):
        return self.terms.get((0, 0), 0.0)

    def coeff(self, rows, cols):
        """Coefficient of the canonical monomial m(rows, cols)."""
        rmask = 0
        for r in rows:
            rmask |= 1 << (r - 1)
        cmask = 0
        for c in cols:
            cmask |= 1 << (c - 1)
        return self.terms.get((rmask, cmask), 0.0)

    def max_abs_coeff(self):
        """Largest |coefficient|; nan if any coefficient is nan.  With array
        coefficients, an array: the largest |coefficient| at each sample."""
        best = 0.0
        arrays = []
        for v in self.terms.values():
            v = abs(v)
            if v.__class__ is not float and getattr(v, "ndim", 0):
                arrays.append(v)
            elif v != v:
                return v
            elif v > best:
                best = v
        if arrays:  # numpy only then
            import numpy as np

            return np.max(arrays, axis=0, initial=best)
        return best

    def is_zero(self, tol=0.0):
        return within_tol(self, tol)

    def degree_part(self, r):
        """Component spanned by monomials of generator-degree r."""
        t = {key: v for key, v in self.terms.items()
             if bin(key[0]).count("1") == r}
        return _wrap(self.k, self.n, t)

    def __eq__(self, other):
        """Same context, same monomials and equal coefficients; two arrays
        are equal when their shapes and values are, and nan equals nothing,
        as for floats."""
        if isinstance(other, (int, float)):
            other = NilElement.constant(self.k, self.n, other)
        if not isinstance(other, NilElement):
            return NotImplemented
        if (self.k, self.n) != (other.k, other.n) or self.terms.keys() != other.terms.keys():
            return False
        theirs = other.terms
        return all(_coeff_equal(v, theirs[key]) for key, v in self.terms.items())

    def __hash__(self):
        if any(getattr(v, "ndim", 0) for v in self.terms.values()):
            raise TypeError("unhashable NilElement: it has array coefficients")
        return hash((self.k, self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"W({self.k},{self.n})<0>"
        parts = []
        for (rmask, cmask), v in sorted(self.terms.items()):
            v = _format_coeff(v)
            if rmask == 0:
                parts.append(v)
            else:
                gens = "".join(f"xi[{r},{c}]"
                               for r, c in zip(_bits(rmask), _bits(cmask)))
                parts.append(f"{v}*{gens}")
        return f"W({self.k},{self.n})<" + " + ".join(parts) + ">"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NilElement):
            if (self.k, self.n) != (other.k, other.n):
                raise ContextMismatchError(
                    f"W({self.k},{self.n}) vs W({other.k},{other.n})")
            return other
        return None

    def __add__(self, other):
        if isinstance(other, (int, float)):
            terms = dict(self.terms)
            c = terms.get((0, 0), 0.0) + float(other)
            if _is_zero(c):
                terms.pop((0, 0), None)
            else:
                terms[(0, 0)] = c
            return _wrap(self.k, self.n, terms)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(self.k, self.n, _elem_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.k, self.n, _elem_scale(-1.0, self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(self.k, self.n,
                     _elem_add(self.terms, _elem_scale(-1.0, other.terms)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _wrap(self.k, self.n, _elem_scale(float(other), self.terms))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(self.k, self.n, _elem_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise DomainError("division by zero")
            return self * (1.0 / other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * lift_smooth("reciprocal", other)

    def __rtruediv__(self, other):
        return lift_smooth("reciprocal", self) * other

    def __pow__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        return lift_smooth("power", self, exponent=m)

    # -- simplex morphisms -------------------------------------------------

    def identify_rows(self, i, j):
        """Algebra morphism induced by the degeneracy x_j = x_i."""
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise ValueError(f"row index out of range for arity {self.k}")
        images = _ROW_IMAGES[tuple(i if r == j else r for r in range(1, self.k + 1))]
        out = {}
        for mono, v in self.terms.items():
            sign, image = images[mono]
            if sign:
                c = out.get(image, 0.0) + sign * v
                if _is_zero(c):
                    out.pop(image, None)
                else:
                    out[image] = c
        return _wrap(self.k, self.n, out)

    def permute_rows(self, perm):
        """Algebra morphism induced by a vertex permutation.

        `perm` maps row index r (1-based) to perm[r-1].  It maps monomials
        one to one, each to its signed image (`_ROW_IMAGES`).
        """
        perm = tuple(perm)
        if sorted(perm) != list(range(1, self.k + 1)):
            raise ValueError("not a permutation of 1..k")
        images = _ROW_IMAGES[perm]
        out = {}
        for mono, v in self.terms.items():
            sign, image = images[mono]
            out[image] = sign * v
        return _wrap(self.k, self.n, out)

    def zero_row(self, j):
        """Algebra morphism xi[j,*] -> 0 (identify vertex j with the base)."""
        t = {key: v for key, v in self.terms.items()
             if not key[0] & (1 << (j - 1))}
        return _wrap(self.k, self.n, t)

    def map_columns(self, B):
        """Algebra morphism W(k, n) -> W(k, q), xi[r, i] -> sum_a B[i][a]
        xi[r, a], for B given as n rows of q entries, floats or arrays over
        samples (q = 1 where B has no columns).  It maps the generic simplex
        to the simplex whose offsets are the generic ones times B, so a
        value on the generic simplex gives the value there.  A monomial is
        the product of its generators in sorted order, and maps to the
        product of their images; the merge signs of that product give the
        minors of B."""
        q = max(len(B[0]), 1)
        images = [[{(1 << (r - 1), 1 << a): c for a, c in enumerate(row) if not _is_zero(c)}
                   for row in B] for r in range(1, self.k + 1)]
        out = {}
        for (rmask, cmask), v in self.terms.items():
            factors = [images[r - 1][i - 1]
                       for r, i in zip(_bits(rmask), _bits(cmask))] or [_UNIT]
            product = factors[0] if len(factors) > 1 else _UNIT
            for image in factors[1:-1]:
                product = _elem_mul(product, image)
            _elem_muladd(out, v, product, factors[-1])
        return _wrap(self.k, q, out)


_set_k = NilElement.k.__set__
_set_n = NilElement.n.__set__
_set_terms = NilElement.terms.__set__


def _wrap(k, n, terms):
    """NilElement over a term map the caller built and gives up: no range
    check, no copy.  For results of the term-map kernels."""
    e = object.__new__(NilElement)
    _set_k(e, k)
    _set_n(e, n)
    _set_terms(e, terms)
    return e


DEFAULT_TOL = 1e-9  # every check's and the CLI's tolerance unless one is given


def within_tol(residual, tol):
    """The one pass rule for a residual (a float, a NilElement measured by its
    largest |coefficient|, or an array, elementwise against a tol that
    broadcasts with it; so a NilElement with array coefficients passes or
    fails sample by sample): it passes iff it is finite and <= tol."""
    if isinstance(residual, NilElement):
        residual = residual.max_abs_coeff()
    if getattr(residual, "ndim", 0):  # an array; numpy only then
        import numpy as np

        residual = np.abs(residual)
        return np.isfinite(residual) & (residual <= tol)
    residual = abs(residual)
    return math.isfinite(residual) and residual <= tol


def generic_offsets(k, n):
    """Displacement vectors of the generic infinitesimal k-simplex:
    offsets[j][a] = xi[j+1, a+1] as elements of W(k, n)."""
    return [[NilElement.generator(k, n, j + 1, a + 1) for a in range(n)]
            for j in range(k)]


# -- Taylor lifting of smooth primitives ------------------------------------
#
# Each table gives the derivatives f(c), f'(c), ..., f^(order)(c) at a
# constant term c through the functions of `m`: the math module for a float
# c, and for an array c `_SAMPLEWISE`, the same math functions applied sample
# by sample.  The arithmetic between them is IEEE arithmetic in both cases,
# so an array lift equals the float lift at each sample, bit for bit;
# `expr.compile_w` takes exp, ln and integer powers of arrays of samples
# from `_SAMPLEWISE` for the same reason.

def _samplewise(fn):
    """`fn(value, *args)` at each value of an array of any shape (0-d
    included), as an array of that shape; nan where it raises."""

    def apply(c, *args):
        import numpy as np

        values = np.ravel(c).tolist()
        try:
            out = np.fromiter(map(fn, values, *map(repeat, args)), float, len(values))
        except (ValueError, ArithmeticError):
            out = []
            for v in values:
                try:
                    out.append(fn(v, *args))
                except (ValueError, ArithmeticError):
                    out.append(math.nan)
            out = np.array(out, dtype=float)
        return out.reshape(np.shape(c))

    return apply


_SAMPLEWISE = SimpleNamespace(**{name: _samplewise(getattr(math, name))
                                 for name in ("sin", "cos", "exp", "log", "pow", "sqrt")})


def _derivs_sin(c, order, m):
    s, co = m.sin(c), m.cos(c)
    cyc = [s, co, -s, -co]
    return [cyc[r % 4] for r in range(order + 1)]


def _derivs_cos(c, order, m):
    s, co = m.sin(c), m.cos(c)
    cyc = [co, -s, -co, s]
    return [cyc[r % 4] for r in range(order + 1)]


def _derivs_exp(c, order, m):
    return [m.exp(c)] * (order + 1)


def _derivs_ln(c, order, m):
    out = [m.log(c)]
    for r in range(1, order + 1):
        out.append((-1.0) ** (r - 1) * math.factorial(r - 1) / m.pow(c, r))
    return out


def _derivs_sqrt(c, order, m):
    out = [m.sqrt(c)]  # correctly rounded, as `compile_w`'s float sqrt; pow is not
    fall = 0.5
    for r in range(1, order + 1):
        out.append(fall * m.pow(c, 0.5 - r))
        fall *= 0.5 - r
    return out


def _derivs_reciprocal(c, order, m):
    return [(-1.0) ** r * math.factorial(r) / m.pow(c, r + 1)
            for r in range(order + 1)]


_DERIVS = {
    "sin": _derivs_sin,
    "cos": _derivs_cos,
    "exp": _derivs_exp,
    "ln": _derivs_ln,
    "sqrt": _derivs_sqrt,
    "reciprocal": _derivs_reciprocal,
}


def _derivs_power(c, order, m, exponent):
    """Falling-factorial derivatives of x**exponent (real exponent)."""
    out = []
    fall = 1.0
    for r in range(order + 1):
        if fall == 0.0:
            out.append(0.0)
            continue
        out.append(fall * m.pow(c, exponent - r))
        fall *= exponent - r
    return out


def _array_derivs(table, c, order):
    """`table` at each sample of the array c, nan at every sample where the
    float table raises or is not finite, or where c is not finite."""
    import numpy as np

    with np.errstate(all="ignore"):
        derivs = table(c, order, _SAMPLEWISE)
    bad = ~np.isfinite(c)
    for d in derivs:
        bad |= ~np.isfinite(d)
    if bad.any():
        derivs = [np.where(bad, np.nan, d) for d in derivs]
    return derivs


def _table(f, exponent=None):
    """The derivative table of the primitive f (`power` takes `exponent`)."""
    if f == "power":
        return partial(_derivs_power, exponent=exponent)
    try:
        return _DERIVS[f]
    except KeyError:
        raise ValueError(f"unknown smooth primitive {f!r}") from None


def _taylor(f, table, c, order):
    """f(c), f'(c), ..., f^(order)(c) from the table of f, as `lift_smooth`
    takes them: through `math` at a float c, raising DomainError where that
    raises or where a derivative overflows, and through `_array_derivs` at
    an array c."""
    if getattr(c, "ndim", 0):  # an array; numpy only then
        return _array_derivs(table, c, order)
    try:
        derivs = table(c, order, math)
    except (ValueError, ArithmeticError) as err:  # math raises these
        raise DomainError(f"{f} at constant term {c}: {err}") from None
    # a float division overflows without an exception: 1.0 / 1e-310
    if math.isfinite(c) and not all(map(math.isfinite, derivs)):
        raise DomainError(f"{f} at constant term {c}: a derivative overflows")
    return derivs


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
    derivs = _taylor(f, table, a.const_term, len(powers))
    out = {} if _is_zero(derivs[0]) else {(0, 0): derivs[0]}
    fact = 1.0
    for r, power in enumerate(powers, start=1):
        fact *= r
        if not _is_zero(derivs[r]):
            out = _elem_add(out, _elem_scale(derivs[r] / fact, power))
    return _wrap(a.k, a.n, out)
