"""Scalar expression AST: construction, symbolic differentiation, and
compiled evaluation on floats and arrays, and in the first neighbourhood
of the diagonal as 1-jets.

The AST is deliberately tiny: literals, variables, +, -, *, /, unary minus,
integer pow, and the smooth primitives sin/cos/exp/ln/sqrt.  Differentiation
does light constant folding only; no general simplifier.

One evaluator: `compile_w` compiles a function of the expressions that
evaluates them on floats (a point) and on arrays of stacked samples
(`stacked`).  One code generator (`_source`'s walk) has three targets:
`compile_w` itself; `compile_rk4_step`, a whole RK4 step along a vector
field, with `compile_w`'s meaning; and `compile_jet`, the value at a
neighbour y = x + u in the first neighbourhood of the diagonal as a 1-jet,
a value and its tangent coefficients, which is all of the value in W
there: the product of two offsets in row 1 of W(2, n) vanishes.

numpy is imported only on arrays, so the float and jet paths run without
it.
"""

import math
from itertools import count

from .errors import DomainError
from .nil import _SAMPLEWISE, _is_zero, _table, _taylor
from .nil import _wrap as _element

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


class Expr:
    __slots__ = ()

    def __repr__(self):
        return f"Expr<{to_str(self)}>"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class Pow(Expr):
    __slots__ = ("base", "power")

    def __init__(self, base, power):
        if not isinstance(power, int):
            raise TypeError("pow exponent must be an integer")
        self.base = base
        self.power = power


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        if fn not in FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")
        self.fn = fn
        self.arg = arg


def as_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def _const(e):
    return e.value if isinstance(e, Const) else None


def _fold_add(a, b):
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Add(a, b)


def _fold_sub(a, b):
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return Neg(b)
    return Sub(a, b)


def _fold_mul(a, b):
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return Mul(a, b)


def diff(e, var):
    """Exact symbolic derivative of `e` with respect to variable name `var`."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Add):
        return _fold_add(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Sub):
        return _fold_sub(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Mul):
        return _fold_add(_fold_mul(diff(e.left, var), e.right),
                         _fold_mul(e.left, diff(e.right, var)))
    if isinstance(e, Div):
        num = _fold_sub(_fold_mul(diff(e.left, var), e.right),
                        _fold_mul(e.left, diff(e.right, var)))
        if _const(num) == 0.0:
            return Const(0.0)
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Neg):
        d = diff(e.arg, var)
        return Const(0.0) if _const(d) == 0.0 else Neg(d)
    if isinstance(e, Pow):
        d = diff(e.base, var)
        if e.power == 0:  # else Const(0.0) times a negative constant d folds to -0.0
            return Const(0.0)
        return _fold_mul(_fold_mul(Const(e.power), Pow(e.base, e.power - 1)), d)
    if isinstance(e, Call):
        d = diff(e.arg, var)
        if e.fn == "sin":
            outer = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = Neg(Call("sin", e.arg))
        elif e.fn == "exp":
            outer = Call("exp", e.arg)
        elif e.fn == "ln":
            outer = Div(Const(1.0), e.arg)
        else:  # sqrt
            outer = Div(Const(0.5), Call("sqrt", e.arg))
        return _fold_mul(outer, d)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _apply_fn(fn, v):
    # a float, tested first; a numpy scalar takes the float rule too
    if v.__class__ is float or not getattr(v, "ndim", 0):
        if fn == "ln":
            if v <= 0:
                raise DomainError(f"ln of {v}")
            return math.log(v)
        if fn == "sqrt":
            if v < 0:
                raise DomainError(f"sqrt of {v}")
            return math.sqrt(v)
        try:
            return _MATH[fn](v)
        except (ValueError, OverflowError) as err:  # exp overflow, sin(inf)
            raise DomainError(f"{fn} of {v}: {err}") from None
    # an array of samples: nan where the float branch raises
    if fn == "exp":
        return _SAMPLEWISE.exp(v)
    if fn == "ln":
        return _SAMPLEWISE.log(v)
    import numpy as np

    return getattr(np, fn)(v)


def _div(num, den):
    # a float, tested first; a numpy scalar takes the float rule too
    if den.__class__ is float or not getattr(den, "ndim", 0):
        if den == 0.0:
            raise DomainError("division by zero")
        return num / den
    import numpy as np

    return np.where(den == 0.0, np.nan, num / den)


def _pow(base, power):
    # a float, tested first; a numpy scalar takes the float rule too
    if base.__class__ is float or not getattr(base, "ndim", 0):
        if base == 0.0 and power < 0:
            raise DomainError("negative power of zero")
        try:
            return base ** power
        except OverflowError as err:
            raise DomainError(f"pow({base}, {power}): {err}") from None
    import numpy as np

    # nan ** 0 is 1: keep the nan of a base that could not be evaluated
    return np.where(np.isnan(base), np.nan, _SAMPLEWISE.pow(base, power))


def _children(e):
    """The operands of node `e`, left before right: none for a constant or
    a variable.  Raises TypeError on anything that is not a node."""
    if isinstance(e, (Const, Var)):
        return ()
    if isinstance(e, _Binary):
        return (e.left, e.right)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    raise TypeError(f"not an expression node: {type(e).__name__}")


def free_vars(e, acc=None):
    if acc is None:
        acc = set()
    if isinstance(e, Var):
        acc.add(e.name)
    for child in _children(e):
        free_vars(child, acc)
    return acc


def rename(e, mapping):
    """Copy of `e` with each variable renamed through `mapping`
    (name -> name); names not in `mapping` are kept."""
    if isinstance(e, Var):
        return Var(mapping.get(e.name, e.name))
    operands = [rename(child, mapping) for child in _children(e)]
    if isinstance(e, Pow):
        return Pow(*operands, e.power)
    if isinstance(e, Call):
        return Call(e.fn, *operands)
    return type(e)(*operands) if operands else e


# precedence levels for printing: higher binds tighter
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4


def _prec(e):
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def to_str(e):
    """Deterministic surface rendering, parseable back by the DSL parser."""
    if isinstance(e, Const):
        v = e.value
        if not math.isfinite(v):
            # the DSL reads 1e400 as inf; inf - inf is nan
            return "(1e400 - 1e400)" if v != v else "1e400" if v > 0 else "(-1e400)"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v)) if v >= 0 else f"(-{int(-v)})"
        return repr(v) if v >= 0 else f"({v!r})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD)}"
    if isinstance(e, Sub):
        # right side needs strictly higher precedence: a - (b + c)
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, _PREC_NEG)}"
    if isinstance(e, Pow):
        return f"pow({to_str(e.base)}, {e.power})"
    if isinstance(e, Call):
        return f"{e.fn}({to_str(e.arg)})"
    raise TypeError(f"cannot print {type(e).__name__}")


def _wrap(e, minimum):
    s = to_str(e)
    return f"({s})" if _prec(e) < minimum else s


def _literal(value):
    """Python source of a float constant, non-finite ones included."""
    return repr(value) if math.isfinite(value) else f"_float({str(value)!r})"


def _w_code(e, *args):
    """Python source of the operation at node `e` on the sources `args` of
    its operands: quotients, integer powers and primitives through the
    functions `_div`, `_pow` and `_apply_fn` of the namespace it runs in
    (`_NAMESPACE`)."""
    if isinstance(e, Add):
        return f"({args[0]} + {args[1]})"
    if isinstance(e, Sub):
        return f"({args[0]} - {args[1]})"
    if isinstance(e, Mul):
        return f"({args[0]} * {args[1]})"
    if isinstance(e, Div):
        return f"_div({args[0]}, {args[1]})"
    if isinstance(e, Neg):
        return f"(-{args[0]})"
    if isinstance(e, Pow):
        return f"_pow({args[0]}, {e.power})"
    return f"_apply_fn({e.fn!r}, {args[0]})"


def _source(e, names, combine=_w_code, shared=None):
    """The walk of the one code generator: the source of `e`, constants as
    literals, variables renamed through `names`, and each operation through
    `combine(node, *operands)`, its operands generated first, left before
    right, in the order in which Python evaluates them.  `_w_code` is
    `compile_w`'s target, a `_JetWriter` `compile_jet`'s.

    With a dict `shared` (kept across the expressions of one function), an
    operation whose tree was generated before is not generated again: it
    takes the earlier result, which the code computes first.  Evaluation
    is pure, so the value is the same, and an error has been raised at the
    earlier one.  An operation's key, built once from its operands' keys,
    is equal for two nodes exactly when their trees are equal (constants by
    `repr`, so that 0.0 and -0.0 differ); the operands of a tree generated
    before were generated with it, so they add no code."""
    keys = {}  # id of an operation node -> its key, in a shared walk

    def key(e):
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Var):
            return (e.name,)
        return keys[id(e)]

    def gen(e):
        if isinstance(e, Const):
            return _literal(e.value)
        if isinstance(e, Var):
            try:
                return names[e.name]
            except KeyError:
                raise DomainError(f"unbound variable {e.name!r}") from None
        children = _children(e)
        if shared is None:
            return combine(e, *map(gen, children))
        sources = [gen(c) for c in children]
        label = (e.fn if isinstance(e, Call) else e.power if isinstance(e, Pow)
                 else type(e).__name__)
        k = keys[id(e)] = (label, *map(key, children))
        if k not in shared:
            shared[k] = combine(e, *sources)
        return shared[k]

    return gen(e)


# The coefficient operations of compiled jets, None absent: each performs
# an operation of the W arithmetic (`compile_jet`) on one coefficient, and
# gives None for a float zero, which the term-map kernels of `nil` drop,
# testing it in line.

def _jet_sum(x, y):
    """x + y: `nil._elem_add`, which keeps x as it is where y is absent."""
    if y is None:
        return x
    v = (0.0 if x is None else x) + y
    return None if v.__class__ is float and v == 0.0 else v


def _jet_difference(x, y):
    """x - y, which `NilElement.__sub__` forms as x + (-1.0 * y)."""
    if y is None:
        return x
    v = (0.0 if x is None else x) + -1.0 * y
    return None if v.__class__ is float and v == 0.0 else v


def _jet_shift(c, k):
    """The constant term c plus a float k: `NilElement.__add__`."""
    v = (0.0 if c is None else c) + k
    return None if v.__class__ is float and v == 0.0 else v


def _jet_scale(k, c):
    """k * c for a float k: `nil._elem_scale`, which drops c only where it
    is a float and k a float zero."""
    return None if c is None or (k == 0.0 and c.__class__ is float) else k * c


def _jet_product(a0, bi, ai=None, b0=None):
    """The constant a0 * b0, or a row-1 coefficient a0 * bi + ai * b0, of
    a product of two jets: `nil._elem_mul`, in which the product of two
    row-1 terms vanishes."""
    if a0 is None or bi is None:
        if ai is None or b0 is None:
            return None
        v = 0.0 + ai * b0
    elif ai is None or b0 is None:
        v = 0.0 + a0 * bi
    else:
        v = 0.0 + a0 * bi + ai * b0
    return None if v.__class__ is float and v == 0.0 else v


def _lift(f, table, c, *tangents):
    """The Taylor lift of the primitive f, whose derivative table `table`
    (`nil._table`) its compiled jet holds, at the element of W(2, n) with
    constant term c and the row-1 coefficients `tangents` (those not absent
    when compiling), None where absent, as its constant and those row-1
    coefficients, None where absent: f(c) plus f'(c) times the row-1 part.
    A product of two row-1 monomials is 0, so the Taylor sum stops at order
    1, or at order 0 where every tangent is 0; `nil._taylor` gives the
    derivatives, and raises DomainError where they are not defined at a
    float c.  Each coefficient is tested for a float zero in line."""
    power = []
    order = 0
    for t in tangents:
        if t is not None:
            t = 0.0 + t
            if t.__class__ is float and t == 0.0:
                t = None
            else:
                order = 1
        power.append(t)
    derivs = _taylor(f, table, 0.0 if c is None else c, order)
    value = derivs[0]
    if value.__class__ is float and value == 0.0:
        value = None
    if not order:
        return (value,) + (None,) * len(tangents)
    slope = derivs[1]
    if slope.__class__ is float and slope == 0.0:
        return (value,) + (None,) * len(tangents)
    out = [value]
    for p in power:
        if p is not None:
            p = 0.0 + slope * p
            if p.__class__ is float and p == 0.0:
                p = None
        out.append(p)
    return tuple(out)


def _code(c):
    """Source of a jet coefficient: None, a float known when compiling, or
    the name of a local."""
    return _literal(c) if c.__class__ is float else str(c)


class _JetWriter:
    """The jet target of `_source`: straight-line statements that evaluate
    an expression at y = x + u, with u in row 1 of W(2, n), as the
    constant and row-1 coefficients of its value there in W (`compile_jet`).

    An operand is the source of a float, for an expression without
    variables, which is computed in its place in the walk, or a jet: a
    tuple of its coefficients, the constant first, each None where it is
    absent at every argument, a float where it is known when compiling, or
    the name of a local.  At run time an absent coefficient is None, a
    present one a float or an array.  Each operation is the operation of
    the W arithmetic at that node, restricted to degree <= 1 (a product of
    two row-1 monomials vanishes), coefficient by coefficient through the
    `_jet_*` functions and `_lift`: the same floating-point operations as
    the term-map kernels of `nil` in the same order, and the same
    coefficients dropped.  A `_jet_*` function of known coefficients is
    applied when compiling; it cannot raise, and gives the same float then
    as later."""

    def __init__(self):
        self.lines = []
        self.names = (f"_j{i}" for i in count())
        self.tables = {}  # (f, exponent) -> the namespace name of its derivative table

    def temp(self, code):
        name = next(self.names)
        self.lines.append(f"{name} = {code}")
        return name

    def apply(self, fn, *args):
        """fn, a `_jet_*` function, at the coefficients `args` (and float
        sources)."""
        if all(c is None or c.__class__ is float for c in args):
            return fn(*args)
        return self.temp(f"{fn.__name__}({', '.join(map(_code, args))})")

    def __call__(self, e, *args):
        a = args[0]
        if not any(isinstance(arg, tuple) for arg in args):
            return self.temp(_w_code(e, *args))
        if isinstance(e, Neg):
            return self.scale("-1.0", a, -1.0)
        if isinstance(e, Pow):
            return self.lift("power", a, e.power)
        if isinstance(e, Call):
            return self.lift(e.fn, a)
        b = args[1]
        left = a if isinstance(a, tuple) else None
        right = b if isinstance(b, tuple) else None
        if isinstance(e, Add):
            if left and right:
                return self.add(_jet_sum, a, b)
            return self.shift(left or right, b if left else a)
        if isinstance(e, Sub):
            if left and right:
                return self.add(_jet_difference, a, b)
            if left:
                return self.shift(a, f"(-{b})")
            return self.shift(self.scale("-1.0", b, -1.0), a)
        if isinstance(e, Mul):
            if left and right:
                return self.mul(a, b)
            factor = e.right if left else e.left
            return self.scale(b if left else a, left or right,
                              factor.value if isinstance(factor, Const) else None)
        # a quotient: num * lift("reciprocal", den), or num * (1.0 / den)
        if not right:
            return self.scale(self.temp(f"_div(1.0, {b})"), a)
        inverse = self.lift("reciprocal", b)
        if left:
            return self.mul(a, inverse)
        return self.scale(a, inverse, e.left.value if isinstance(e.left, Const) else None)

    def add(self, fn, a, b):
        """a + b or a - b, coefficient by coefficient through `fn`."""
        return tuple(x if y is None else self.apply(fn, x, y) for x, y in zip(a, b))

    def shift(self, a, k):
        """a + k for a float k."""
        return (self.temp(f"_jet_shift({_code(a[0])}, {k})"),) + a[1:]

    def scale(self, k, a, value=None):
        """k * a for a float k, `value` if it is a literal."""
        if value is None:
            return tuple(None if c is None else self.apply(_jet_scale, k, c) for c in a)
        drop = " or {c}.__class__ is float" if value == 0.0 else ""
        return tuple(_jet_scale(value, c) if c is None or c.__class__ is float else
                     self.temp(f"None if {c} is None{drop.format(c=c)} else {k} * {c}")
                     for c in a)

    def mul(self, a, b):
        """a * b: the constant from a0 * b0, each tangent from a0 * bi and
        ai * b0, a term left out where a factor is absent."""
        out = []
        tangents = [((a[0], bi), (ai, b[0])) for ai, bi in zip(a[1:], b[1:])]
        for pairs in [((a[0], b[0]),)] + tangents:
            terms = [c for pair in pairs if None not in pair for c in pair]
            out.append(self.apply(_jet_product, *terms) if terms else None)
        return tuple(out)

    def lift(self, f, a, exponent=None):
        """f(a): `_lift`, at run time, where an error is raised in its
        place; it takes f's derivative table, a constant of the compiled
        function named once per primitive and exponent (`tables`, which
        `compile_jet` resolves when compiling), and a's tangents that are
        not absent, and its tangents are absent where a's are."""
        table = self.tables.setdefault((f, exponent), f"_t{len(self.tables)}")
        out = (next(self.names),) + tuple(None if t is None else next(self.names)
                                          for t in a[1:])
        targets = "".join(f"{name}, " for name in out if name)
        args = [a[0]] + [t for t in a[1:] if t is not None]
        self.lines.append(f"{targets}= _lift({f!r}, {table}, {', '.join(map(_code, args))})")
        return out


_NAMESPACE = {"_apply_fn": _apply_fn, "_div": _div, "_pow": _pow, "_float": float,
              "_lift": _lift, "_jet_sum": _jet_sum, "_jet_difference": _jet_difference,
              "_jet_shift": _jet_shift, "_jet_scale": _jet_scale, "_jet_product": _jet_product}


def _define(args, lines, result, **constants):
    """The function `_f` of the arguments `args` that runs the statements
    `lines` and returns the tuple of the values `result` (each a sequence
    of Python sources), defined in `_NAMESPACE` with `constants` added."""
    body = "".join(f"    {line}\n" for line in lines)
    returns = "".join(f"{value}, " for value in result)
    namespace = dict(_NAMESPACE, **constants)
    exec(f"def _f({', '.join(args)}):\n{body}    return ({returns})\n", namespace)  # noqa: S102 - our own AST
    return namespace["_f"]


def compile_w(exprs, varnames):
    """Compile a sequence of expressions to one function of positional
    arguments, one per name of `varnames`, returning a tuple: the one
    evaluator, at a point and at stacked samples.  A variable not in
    `varnames` raises DomainError here.

    Each argument is a float or a 1-D float array of samples (call it
    through `stacked`).  The function evaluates the tree node by node,
    operands before their operation and left before right, by one rule for
    each kind of value:

    - floats: Python's float arithmetic and the `math` primitives; a
      quotient by zero, a negative power of zero, an overflowing power, ln
      of x <= 0, sqrt of x < 0 and a math error of sin, cos or exp raise
      DomainError;
    - arrays: at finite samples, the float rule at each sample, bit for
      bit, wherever its value is finite, and nan wherever it raises.  A
      subexpression without variables is still a float, so one that is
      not defined raises DomainError for all samples at once.
    """
    names = {name: f"_v{i}" for i, name in enumerate(varnames)}
    return _define([names[v] for v in varnames], (), [_source(e, names) for e in exprs])


def compile_jet(exprs, varnames):
    """Compile a sequence of expressions to one function of the coordinates
    of x, one positional argument per name of `varnames`, that evaluates
    them at the vertex y = x + d_1 of the generic simplex, d_1 the row-1
    generators of W(2, n), as their 1-jets: the tangent of variable i is
    the generator xi[1, i].

    It returns a flat tuple: the values of all expressions, then their
    first tangent coefficients, and so on.  These are the constant and
    row-1 coefficients of the value at y in W(2, n), bit for bit, wherever
    those are finite (an absent coefficient reads +0.0), for float and for
    array coordinates.  That value is the tree's, node by node in
    `compile_w`'s order, in the W arithmetic: a subexpression without
    variables is a float, by the float rule; sums, differences and
    products are `NilElement`'s, a float operand a constant term; a
    quotient by a float is the product with 1.0 over it, and one by a W
    value the product with the Taylor lift of its reciprocal; integer
    powers and primitives are Taylor lifts at the constant term (`_lift`).
    It raises DomainError where a float quotient is by zero or a lift's
    derivatives are not defined.  It performs those operations in their
    order on the constant and row-1 coefficients alone: on y every product
    of two row-1 monomials vanishes, so no other coefficient reaches them.
    A repeated subexpression is evaluated once.

    The function's attribute `present` says, output by output, whether the
    output can be other than +0.0: False exactly where it is the literal
    0.0, a coefficient absent at every argument or known to be 0.0 when
    compiling, as every tangent in a variable that the expression does not
    read is.
    """
    writer = _JetWriter()
    n = len(varnames)
    args = [f"_v{i}" for i in range(n)]
    names = {name: (value,) + tuple(1.0 if a == i else None for a in range(n))
             for i, (name, value) in enumerate(zip(varnames, args))}
    writer.lines += [f"{a} = None if {a}.__class__ is float and {a} == 0.0 else {a}"
                     for a in args]
    shared = {}
    jets = [_source(e, names, writer, shared) for e in exprs]
    out = []
    for s in range(n + 1):
        for jet in jets:
            if not isinstance(jet, tuple):  # a float: a zero is an absent constant
                out.append(f"({jet} + 0.0)" if s == 0 else "0.0")
            elif jet[s] is None or jet[s].__class__ is float:
                out.append(_code(0.0 if jet[s] is None else jet[s]))
            else:
                out.append(f"(0.0 if {jet[s]} is None else {jet[s]})")
    fn = _define(args, writer.lines, out,
                 **{name: _table(*key) for key, name in writer.tables.items()})
    fn.present = [code != "0.0" for code in out]
    return fn


class Jet:
    """Expressions compiled as 1-jets at a vertex of the generic simplex
    (`compile_jet`), that function kept as `fn`: called with the
    coordinates of x, a Jet returns the values in W at y = x + d_r, d_r
    the row-r generators of W(k, n), each a float for an expression
    without variables and else a W(k, n) element of its constant and its
    row terms.  On one row, as on row 1 of W(2, n), every product of two
    tangent monomials vanishes, so that is all of the value.  A float zero
    coefficient of the jet is left out; the W arithmetic keeps one only
    where a scaling underflows, and a product with finite factors that
    this value meets drops it.

    The face plans of `forms.to_combinatorial` read `fn(*x)` and list
    only the outputs that `fn.present` marks: a coefficient has a tangent
    only in the variables it reads."""

    __slots__ = ("fn", "constant", "dim")

    def __init__(self, exprs, varnames):
        self.fn = compile_jet(exprs, varnames)
        self.constant = [not free_vars(e) for e in exprs]
        self.dim = len(varnames)

    def __call__(self, x, k, n, row=1):
        coeffs = self.fn(*x)
        count = len(self.constant)
        keys = [(0, 0)] + [(1 << (row - 1), 1 << a) for a in range(self.dim)]
        return [coeffs[j] if constant else
                _element(k, n, {key: c for key, c in zip(keys, coeffs[j::count])
                                if not _is_zero(c)})
                for j, constant in enumerate(self.constant)]


def stacked(fn, *arrays):
    """`fn`, compiled by `compile_w`, at the samples of `arrays`: an array
    with one row per expression, each broadcast to the arrays' common shape
    (constants included).  Floating-point exceptions are silent, as in
    numpy, and callers test `np.isfinite`; a DomainError from an undefined
    subexpression without variables is raised.

    At a nan argument a value may be nan where the float rule's is not:
    `pow(x, 0)` at x = nan is nan, not the 1.0 of `nan ** 0`.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        values = fn(*arrays)
    out = np.empty((len(values),) + np.broadcast_shapes(*map(np.shape, arrays)))
    for i, value in enumerate(values):
        out[i] = value
    return out


def compile_rk4_step(field, varnames, stepsize):
    """Compile one classical fourth-order Runge-Kutta step along the vector
    field `field` (one expression per name of `varnames`) to a function of
    the float coordinates that returns the next point's as a tuple.

    The stages evaluate the field as `compile_w` does, at x, x + half*k1,
    x + half*k2 and x + stepsize*k3, and the step returns
    x + sixth*(k1 + 2*k2 + 2*k3 + k4), with half = 0.5*stepsize and
    sixth = stepsize/6.0, coordinate by coordinate: the float operations of
    the same step written over coordinate tuples, in their order, so its
    values are that loop's, bit for bit, and it raises where that loop
    raises.
    """
    args = [f"_v{i}" for i in range(len(varnames))]
    lines = []
    point = args
    for k, coef in (("_a", "_h"), ("_b", "_h"), ("_c", "_k"), ("_d", None)):
        names = dict(zip(varnames, point))
        lines += [f"{k}{i} = {_source(e, names)}"
                  for i, e in enumerate(field)]
        if coef:  # the point of the next stage
            point = [f"{k}p{i}" for i in range(len(args))]
            lines += [f"{p} = {a} + {coef} * {k}{i}"
                      for i, (p, a) in enumerate(zip(point, args))]
    update = [f"{a} + _s * (_a{i} + 2 * _b{i} + 2 * _c{i} + _d{i})"
              for i, a in enumerate(args)]
    return _define(args, lines, update, _h=0.5 * stepsize, _k=stepsize, _s=stepsize / 6.0)
