"""Expression language: parser, symbolic differentiation, pretty printing."""

import json
import math
import os
import random
import subprocess
import sys

import pytest

from sdgeom import expr as ex
from sdgeom.errors import DomainError, ParseError
from sdgeom.nil import NilElement
from sdgeom.program import parse, pretty_print

from corpus import random_scalar_expr
from reference import evaluate

CONTACT = """\
# contact structure
dim 3
var x y z
form w = dz - y*dx
dist D = ker(w)
patch P(s, t) = (s, t, 0)
"""

MIXED = """\
dim 2
var x y
form a = sin(x)*dx + pow(y, 3)*dy
form b = (x*y)*dx
form c = a ^ b
vector u = (1, 0)
vector v = (-y, x)
dist S = span(u, v)
conn A = [0*dx, (0.5*y)*dx - (0.5*x)*dy; (-0.5*y)*dx + (0.5*x)*dy, 0*dx]
"""


def test_parse_contact_program():
    prog = parse(CONTACT)
    assert prog.dim == 3
    assert prog.vars == ("x", "y", "z")
    assert prog.forms["w"].degree == 1
    assert prog.dists["D"].rank == 2
    assert prog.patches["P"].q == 2


def test_parse_wedge_and_connection():
    prog = parse(MIXED)
    assert prog.forms["c"].degree == 2
    assert prog.dists["S"].rank == 2
    assert prog.conns["A"].m == 2


def test_degree_mismatch_reports_position():
    bad = "dim 2\nvar x y\nform f = dx + x*dx^dy\n"
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.line == 3
    assert err.value.col > 0
    assert "degree" in str(err.value)


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse("dim 2\nvar x y\nform f = q*dx\n")


def test_missing_juxtaposition_star_rejected():
    with pytest.raises(ParseError):
        parse("dim 2\nvar x y\nform f = x dx\n")


def test_comments_and_blank_lines():
    prog = parse("# leading comment\n\ndim 1\nvar t\n# trailing\n")
    assert prog.dim == 1


def test_pretty_print_round_trip_fixed_point():
    for text in (CONTACT, MIXED, "dim 2\nvar x y\nform f = x\n"):
        s1 = pretty_print(parse(text))
        s2 = pretty_print(parse(s1))
        assert s1 == s2
    assert s1 == "dim 2\nvar x y\nform f = x\n"


@pytest.mark.parametrize("spelling", ["(x/y)*dx", "x/y*dx"])
def test_quotient_coefficient_parses(spelling):
    (coeff,) = parse(f"dim 2\nvar x y\nform a = {spelling}\n").forms["a"].coeffs.values()
    assert isinstance(coeff, ex.Div)
    assert ex.to_str(coeff) == "x/y"
    assert evaluate(coeff, {"x": 3.0, "y": 4.0}) == 0.75


def test_quotient_coefficient_round_trips():
    text = pretty_print(parse("dim 2\nvar x y\nform a = x/y*dx + dy\n"))
    assert "form a = (x/y)*dx + dy" in text
    assert pretty_print(parse(text)) == text


@pytest.mark.parametrize("spelling, expanded", [
    ("(dx + x*dy)^dz", "dx^dz + x*dy^dz"),
    ("dz^(dx + x*dy)", "dz^dx + x*dz^dy"),
    ("(y*dx - dy)^(dz + x*dx)", "y*dx^dz - dy^dz - x*dy^dx"),
], ids=["sum-wedge", "wedge-sum", "sum-wedge-sum"])
def test_parenthesised_wedge_factor_is_its_expansion(spelling, expanded):
    prog = parse(f"dim 3\nvar x y z\nform a = {spelling}\nform b = {expanded}\n")
    a, b = prog.forms["a"], prog.forms["b"]
    assert a.degree == b.degree == 2 and sorted(a.coeffs) == sorted(b.coeffs)
    env = {"x": 0.3, "y": -1.7, "z": 2.5}
    assert {T: evaluate(e, env) for T, e in a.coeffs.items()} == \
        {T: evaluate(e, env) for T, e in b.coeffs.items()}


def test_doubled_minus_in_a_component_is_its_expansion():
    prog = parse("dim 2\nvar x y\nvector u = (--x, ---y)\nvector v = (x, -y)\n")
    assert [ex.to_str(c) for c in prog.vectors["u"]] == \
        [ex.to_str(c) for c in prog.vectors["v"]] == ["x", "-y"]


# a literal beyond the float range reads as inf
HUGE = """\
dim 2
var x y
form a = 1e400*dx - (1e400*x)*dy
vector u = (1e400, -1e400*y)
conn A = [1e400*dx, 0*dx; 0*dx, x*dy]
"""


def test_non_finite_constants_print_and_round_trip():
    # int(inf) and int(nan) raised OverflowError and ValueError
    assert repr(ex.Const(math.inf)) == "Expr<1e400>"
    assert repr(ex.Const(-math.inf)) == "Expr<(-1e400)>"
    assert repr(ex.Const(math.nan)) == "Expr<(1e400 - 1e400)>"
    prog = parse(HUGE)
    text = pretty_print(prog)
    assert "vector u = (1e400, (-1e400)*y)" in text
    again = parse(text)
    assert pretty_print(again) == text
    for p in (prog, again):
        assert [evaluate(c, {"x": 1.0, "y": 2.0}) for c in p.vectors["u"]] == [math.inf, -math.inf]
        assert evaluate(p.forms["a"].coeffs[(1,)], {}) == math.inf
    nan = evaluate(parse("dim 1\nvar x\nvector u = ((1e400 - 1e400))\n").vectors["u"][0], {})
    assert math.isnan(nan)


def test_distributions_patches_and_connections_are_built_on_lookup(monkeypatch):
    from sdgeom import connections, distributions

    built = []
    for module, name in ((distributions, "Distribution"), (distributions, "IntegralPatch"),
                         (connections, "ConnectionData")):
        cls = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, cls=cls, **kwargs: built.append(cls.__name__)
                            or cls(*args, **kwargs))
    prog = parse(CONTACT + "conn A = [0*dx, x*dy, 0*dx; dz, 0*dx, 0*dx; 0*dx, 0*dx, y*dx]\n")
    assert "D" in prog.dists and "Q" not in prog.patches
    assert (list(prog.dists), len(prog.patches), list(prog.conns)) == (["D"], 1, ["A"])
    assert built == []
    assert prog.dists["D"] is prog.dists["D"]
    assert prog.patches["P"].q == 2 and prog.conns["A"].m == 3
    assert built == ["Distribution", "IntegralPatch", "ConnectionData"]
    with pytest.raises(ParseError, match="unknown distribution 'Q'"):
        prog.lookup("dists", "Q", "distribution")


def test_pretty_print_builds_nothing_and_loads_no_numpy():
    # a patch, a distribution and a connection print from their declarations
    text = CONTACT + "conn A = [0*dx, x*dy; dz, y*dx]\n"
    script = ("import json, sys\n"
              "from sdgeom.program import parse, pretty_print\n"
              "out = pretty_print(parse(sys.argv[1]))\n"
              "heavy = ('numpy', 'sdgeom.distributions', 'sdgeom.connections')\n"
              "print(json.dumps([out, [m for m in heavy if m in sys.modules]]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["sdgeom"].__file__)))
    done = subprocess.run([sys.executable, "-c", script, text],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out, loaded = json.loads(done.stdout)
    assert loaded == []
    assert out == pretty_print(parse(text))
    assert "patch P(s, t) = (s, t, 0)\n" in out


# -- symbolic differentiation -------------------------------------------------

def _num(e, env):
    return evaluate(e, env)


def test_diff_product_rule():
    e = ex.Mul(ex.Var("x"), ex.Call("sin", ex.Var("x")))
    de = ex.diff(e, "x")
    env = {"x": 0.7}
    want = math.sin(0.7) + 0.7 * math.cos(0.7)
    assert abs(_num(de, env) - want) <= 1e-12


def test_diff_chain_rule_pow():
    e = ex.Pow(ex.Add(ex.Var("x"), ex.Const(1.0)), 3)
    de = ex.diff(e, "x")
    assert abs(_num(de, {"x": 2.0}) - 27.0) <= 1e-12


def test_diff_quotient():
    e = ex.Div(ex.Const(1.0), ex.Var("x"))
    de = ex.diff(e, "x")
    assert abs(_num(de, {"x": 2.0}) + 0.25) <= 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_diff_matches_finite_differences(seed):
    rng = __import__("numpy").random.default_rng(seed)
    vars = ("x", "y")
    e = random_scalar_expr(rng, vars, trig=True)
    pr = random.Random(seed)
    at = {"x": pr.uniform(0.2, 1.2), "y": pr.uniform(0.2, 1.2)}
    h = 1e-6
    for v in vars:
        de = _num(ex.diff(e, v), at)
        up = dict(at); up[v] += h
        dn = dict(at); dn[v] -= h
        fd = (_num(e, up) - _num(e, dn)) / (2 * h)
        scale = max(1.0, abs(de))
        assert abs(de - fd) / scale <= 1e-5


def test_evaluate_on_nilpotent_argument_matches_derivative():
    # f(c + xi) = f(c) + f'(c) xi exactly, for the square-zero generator
    e = ex.Mul(ex.Var("x"), ex.Call("cos", ex.Var("x")))
    c = 0.4
    xi = NilElement.generator(1, 1, 1, 1)
    val = evaluate(e, {"x": NilElement.constant(1, 1, c) + xi})
    f = c * math.cos(c)
    fp = math.cos(c) - c * math.sin(c)
    assert abs(val.const_term - f) <= 1e-12
    assert abs(val.coeff((1,), (1,)) - fp) <= 1e-12


def test_ad_consistency_via_nilpotent_evaluation():
    # first-order coefficient of evaluation at c + xi equals symbolic diff
    import numpy as np
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = random_scalar_expr(rng, ("x",), trig=True)
        c = float(rng.uniform(0.3, 1.0))
        xi = NilElement.generator(1, 1, 1, 1)
        val = evaluate(e, {"x": NilElement.constant(1, 1, c) + xi})
        sym = evaluate(ex.diff(e, "x"), {"x": c})
        got = val.coeff((1,), (1,)) if isinstance(val, NilElement) else 0.0
        assert abs(got - sym) <= 1e-12 * max(1.0, abs(sym))


def test_to_str_parses_back():
    import numpy as np
    rng = np.random.default_rng(9)
    for _ in range(25):
        e = random_scalar_expr(rng, ("x", "y"), trig=True)
        s = ex.to_str(e)
        prog = parse(f"dim 2\nvar x y\nform f = ({s})*dx\n")
        e2 = prog.forms["f"].coeffs[(1,)]
        env = {"x": 0.37, "y": -0.81}
        assert abs(evaluate(e, env) - evaluate(e2, env)) <= 1e-12


def test_rename_every_node_kind():
    x, y = ex.Var("x"), ex.Var("y")
    e = ex.Div(ex.Sub(ex.Mul(x, ex.Const(2.0)), ex.Neg(y)),
               ex.Add(ex.Pow(ex.Call("exp", x), 2), ex.Const(1.0)))
    got = ex.rename(e, {"x": "t"})
    assert ex.free_vars(got) == {"t", "y"}
    assert ex.free_vars(e) == {"x", "y"}
    assert ex.to_str(got) == "(t*2 - -y)/(pow(exp(t), 2) + 1)"
    env = {"t": 0.3, "y": -0.7}
    assert evaluate(got, env) == evaluate(e, {"x": 0.3, "y": -0.7})


@pytest.mark.parametrize("walk, message", [
    (ex.free_vars, "not an expression node: float"),
    (lambda e: ex.rename(e, {}), "not an expression node: float"),
    (lambda e: ex.compile_w([e], ("x",)), "not an expression node: float"),
    (lambda e: ex.diff(e, "x"), "cannot differentiate float"),
    (ex.to_str, "cannot print float"),
], ids=["free_vars", "rename", "compile_w", "diff", "to_str"])
def test_operand_walks_reject_a_non_node(walk, message):
    # Add does not coerce: its right operand is a float, not a Const
    with pytest.raises(TypeError, match=f"^{message}$"):
        walk(ex.Add(ex.Var("x"), 2.0))


@pytest.mark.parametrize("build, error, message", [
    (lambda: ex.Pow(ex.Var("x"), 1.5), TypeError, "pow exponent must be an integer"),
    (lambda: ex.Call("tan", ex.Var("x")), ValueError, "unknown function 'tan'"),
    (lambda: ex.as_expr("x"), TypeError, "cannot coerce str to Expr"),
], ids=["pow-float", "unknown-call", "coerce-str"])
def test_nodes_reject_what_they_cannot_hold(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


# -- compiled evaluation on floats and W values ------------------------------------

def _same(got, want):
    """Bit-for-bit equality of evaluation results (floats or NilElements)."""
    if isinstance(want, NilElement):
        return (isinstance(got, NilElement) and (got.k, got.n) == (want.k, want.n)
                and got.terms.keys() == want.terms.keys()
                and all(_same(got.terms[key], v) for key, v in want.terms.items()))
    return (type(got) is type(want) and got == want
            and math.copysign(1.0, got) == math.copysign(1.0, want))


_X, _Y = ex.Var("x"), ex.Var("y")
EVERY_NODE_KIND = [
    ex.Const(2.5), ex.Const(-0.0), _X,
    ex.Add(_X, _Y), ex.Add(ex.Const(1.5), _X),
    ex.Sub(_X, _Y), ex.Sub(_X, ex.Const(1.5)), ex.Sub(ex.Const(1.5), _X),
    ex.Mul(_X, _Y), ex.Mul(ex.Const(-3.0), _X),
    ex.Div(_X, _Y), ex.Div(_X, ex.Const(4.0)), ex.Div(ex.Const(1.0), _X),
    ex.Neg(_X), ex.Pow(_X, 3), ex.Pow(_X, 0), ex.Pow(_X, -2), ex.Pow(ex.Const(-2.0), 2),
    ex.Call("sin", _X), ex.Call("cos", _X), ex.Call("exp", _X),
    ex.Call("ln", _Y), ex.Call("sqrt", _Y),
    ex.Div(ex.Mul(ex.Call("sin", _X), ex.Pow(_Y, -1)),
           ex.Add(ex.Call("sqrt", _Y), ex.Neg(_X))),
]


def _w(const, *terms):
    """const + sum of coeff * xi[row, col] in W(2, 3)."""
    out = NilElement.constant(2, 3, const)
    for coeff, row, col in terms:
        out = out + coeff * NilElement.generator(2, 3, row, col)
    return out


@pytest.mark.parametrize("x, y", [
    (0.7, 1.3),
    (_w(0.7, (1.0, 1, 1), (0.5, 2, 2)), _w(1.3, (-1.0, 1, 2), (2.0, 2, 1))),
    (0.7, _w(1.3, (-1.0, 1, 2), (0.25, 2, 3))),
    (_w(-0.4, (3.0, 2, 3)), 2.0),
], ids=["floats", "w", "float-w", "w-float"])
def test_compile_w_equals_evaluate_bit_for_bit(x, y):
    got = ex.compile_w(EVERY_NODE_KIND, ("x", "y"))(x, y)
    env = {"x": x, "y": y}
    for e, value in zip(EVERY_NODE_KIND, got):
        assert _same(value, evaluate(e, env)), ex.to_str(e)


@pytest.mark.parametrize("e, x", [
    (ex.Div(ex.Const(1.0), _X), _w(0.0, (1.0, 1, 1))),
    (ex.Div(_X, ex.Const(0.0)), 1.5),
    (ex.Div(_X, ex.Const(0.0)), _w(1.5, (1.0, 1, 1))),
    (ex.Div(ex.Const(1.0), _X), 0.0),
    (ex.Pow(_X, -1), 0.0),
    (ex.Pow(_X, -2), _w(0.0, (1.0, 1, 1))),
    (ex.Call("ln", _X), -1.0),
    (ex.Call("ln", _X), _w(-1.0, (1.0, 2, 2))),
    (ex.Call("sqrt", _X), -1.0),
    (ex.Call("sqrt", _X), _w(0.0, (1.0, 2, 2))),
    (ex.Add(_X, _Y), 1.0),
    # an overflow, or an infinite argument, is a domain error too
    (ex.Call("exp", _X), 1000.0),
    (ex.Call("exp", _X), _w(1000.0, (1.0, 1, 1))),
    (ex.Pow(_X, 400), 1000.0),
    (ex.Pow(_X, -400), _w(1e-5, (1.0, 1, 1))),
    (ex.Call("sin", _X), float("inf")),
    (ex.Call("cos", _X), _w(float("inf"), (1.0, 1, 1))),
    # an integer power overflows at a W-valued argument as at a float one
    (ex.Pow(_X, 400), _w(1000.0, (1.0, 1, 1))),
])
def test_compile_w_raises_the_domain_error_of_evaluate(e, x):
    with pytest.raises(DomainError) as want:
        evaluate(e, {"x": x})
    with pytest.raises(DomainError) as got:
        ex.compile_w([e], ("x",))(x)  # an unbound variable raises on compiling
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("e", [
    ex.Pow(ex.Const(-2.0), 2), ex.Pow(ex.Const(-0.0), 1),
    ex.Add(ex.Const(float("inf")), _X), ex.Mul(ex.Const(float("nan")), _X),
], ids=["negative-base", "negative-zero-base", "inf", "nan"])
def test_compiled_literals_match_evaluate(e):
    want = evaluate(e, {"x": 0.5})
    got = ex.compile_w([e], ("x",))(0.5)[0]
    assert _same(got, want) or (math.isnan(got) and math.isnan(want))
