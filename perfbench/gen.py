"""Seeded input generators for the three workloads.

Each generator returns ``(sources, ops)``: ``sources`` maps a file name to
``.sdg`` source text, and ``ops`` is one pass of the closed loop as a list of
plain dicts.  The shape of a pass (which forms, checks, batch sizes and W
contexts it holds) is fixed per workload, so the cost of a run does not
depend on the seed.  The seed picks the coefficients, the points, the sample
seeds and the order of the ops.

This module imports nothing from ``sdgeom``: the program sees only the text.
"""

import random
from itertools import combinations

WORKLOADS = ("forms_dense", "checks_sparse", "cli_session")


def generate(workload, seed):
    """``(sources, ops)`` for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()[workload](seed)


# -- coefficient text ----------------------------------------------------------

def _num(rng, lo=0.5, hi=2.0):
    return f"{rng.uniform(lo, hi):.3f}"


def _sign(rng):
    return rng.choice("+-")


def _coefficient(rng, slot, names):
    """A scalar expression whose tree shape depends only on ``slot``.

    The four shapes cycle: a polynomial, a sin/cos term, an exp term and a
    quotient with a denominator bounded away from zero.
    """
    n = len(names)
    xi, xj, xk = names[slot % n], names[(3 * slot + 1) % n], names[(5 * slot + 2) % n]
    kind = slot % 4
    if kind == 0:
        return (f"{_num(rng)}*{xi}*{xj} {_sign(rng)} {_num(rng)}*{xk}"
                f" {_sign(rng)} {_num(rng)}")
    if kind == 1:
        fn = rng.choice(("sin", "cos"))
        return f"{_num(rng)}*{fn}({_num(rng)}*{xi}) {_sign(rng)} {_num(rng)}*{xj}*{xk}"
    if kind == 2:
        return f"{_num(rng)}*exp({_num(rng, 0.2, 0.8)}*{xi})*{xj} {_sign(rng)} {_num(rng)}"
    return f"({_num(rng)}*{xi} {_sign(rng)} {_num(rng)})/({_num(rng, 1.0, 2.0)} + {xj}*{xj})"


def _form_text(rng, name, names, tuples):
    # Double parentheses: the parser reads a single parenthesised group in
    # front of a differential as a form first, which rejects '/'.
    terms = []
    for slot, T in enumerate(tuples):
        dxs = "^".join(f"d{names[t - 1]}" for t in T)
        terms.append(f"(({_coefficient(rng, slot, names)}))*{dxs}")
    return f"form {name} = " + " + ".join(terms)


def _components(dim, degree, count):
    """A fixed, seed-independent choice of ``count`` index tuples."""
    tuples = list(combinations(range(1, dim + 1), degree))
    pick = random.Random(f"components-{dim}-{degree}-{count}").sample(
        range(len(tuples)), min(count, len(tuples)))
    return [tuples[i] for i in sorted(pick)]


def _point(rng, dim, lo=-1.0, hi=1.0):
    return [round(rng.uniform(lo, hi), 4) for _ in range(dim)]


# -- forms_dense ---------------------------------------------------------------

# dim -> {form name: (degree, number of components)}
_FORMS = {
    3: {"a": (1, 3), "b": (1, 3), "s": (2, 3)},
    6: {"a": (1, 6), "b": (1, 6), "s": (2, 8), "t": (2, 8)},
    8: {"a": (1, 8), "b": (1, 8), "s": (2, 14), "t": (2, 14), "u": (3, 10)},
}
# dim -> ops as (operation, form names, points per pass); the context is
# W(degree sum, dim).  d(u), the slowest op at about twice the next one, is
# 3 of the 143 ops of a pass, so the p99 latency falls near its median
# rather than in the spikes of its worst samples.
_FORM_OPS = {
    3: [("d", ("a",), 10), ("d", ("s",), 10), ("wedge", ("a", "b"), 10),
        ("wedge", ("a", "s"), 10)],
    6: [("d", ("a",), 10), ("d", ("s",), 10), ("wedge", ("a", "b"), 10),
        ("wedge", ("a", "s"), 10), ("wedge", ("s", "t"), 10)],
    8: [("d", ("a",), 10), ("d", ("s",), 10), ("wedge", ("a", "b"), 10),
        ("wedge", ("a", "s"), 10), ("wedge", ("s", "t"), 10), ("d", ("u",), 3)],
}


def forms_dense(seed):
    """Comparisons of d_comb / wedge_comb with their classical oracles."""
    rng = random.Random(f"forms_dense-{seed}")
    sources, ops = {}, []
    for dim, forms in _FORMS.items():
        names = [f"x{i}" for i in range(1, dim + 1)]
        lines = [f"dim {dim}", "var " + " ".join(names)]
        for name, (degree, count) in forms.items():
            lines.append(_form_text(rng, name, names,
                                    _components(dim, degree, count)))
        file = f"dim{dim}.sdg"
        sources[file] = "\n".join(lines) + "\n"
        for op, args, points in _FORM_OPS[dim]:
            k = sum(forms[a][0] for a in args) + (op == "d")
            for _ in range(points):
                ops.append({"op": op, "file": file, "forms": list(args),
                            "point": _point(rng, dim), "ctx": f"W{k}-{dim}"})
    rng.shuffle(ops)
    return sources, ops


# -- checks_sparse -------------------------------------------------------------

def _graph(rng):
    """Coefficients of g(x, y) = a*x*y + b*sin(x) + c*y^3."""
    return [float(_num(rng)) for _ in range(3)]


def _g(abc, x, y):
    a, b, c = abc
    return f"{a}*{x}*{y} + {b}*sin({x}) + {c}*{y}*{y}*{y}"


def _g_x(abc, x, y):
    a, b, _ = abc
    return f"{a}*{y} + {b}*cos({x})"


def _g_y(abc, x, y):
    a, _, c = abc
    return f"{a}*{x} + {3 * c:.3f}*{y}*{y}"


def _dim3_source(rng):
    g = _graph(rng)
    gx, gy = _g_x(g, "x", "y"), _g_y(g, "x", "y")
    scale = f"{_num(rng, 1.5, 2.5)} + {_num(rng, 0.2, 0.5)}*sin(x)"
    c = _num(rng)
    return "\n".join([
        "dim 3", "var x y z",
        # integrable but not closed: h * (dz - dg), so d(wi) != 0
        f"form wi = (({scale}))*dz - (({scale})*({gx}))*dx - (({scale})*({gy}))*dy",
        "dist I = ker(wi)",
        f"form wc = dz - (({c}*y))*dx",
        "dist C = ker(wc)",
        f"patch G(s, t) = (s, t, {_g(g, 's', 't')})",
        "patch P(s, t) = (s, t, 0)",
        f"vector u = (1, 0, {gx})",
        f"vector v = (0, 1, {gy})",
        "dist S = span(u, v)",
        "vector e = (1, 0, 0)",
        f"vector h = (0, 1, {c}*x)",
        "dist H = span(e, h)",
    ]) + "\n"


def _dim4_source(rng):
    g1, g2 = _graph(rng), _graph(rng)
    h1 = f"{_num(rng, 1.5, 2.5)} + {_num(rng, 0.2, 0.5)}*sin(y)"
    h2 = f"{_num(rng, 1.5, 2.5)} + {_num(rng, 0.2, 0.5)}*cos(x)"
    c, e = _num(rng), _num(rng)

    def scaled(h, dv, g):
        return (f"(({h}))*{dv} - (({h})*({_g_x(g, 'x', 'y')}))*dx"
                f" - (({h})*({_g_y(g, 'x', 'y')}))*dy")

    return "\n".join([
        "dim 4", "var x y z w",
        f"form w1 = {scaled(h1, 'dz', g1)}",
        f"form w2 = {scaled(h2, 'dw', g2)}",
        "dist I = ker(w1, w2)",
        f"form c1 = dz - (({c}*y))*dx",
        f"form c2 = dw - (({e}*x))*dy",
        "dist C = ker(c1, c2)",
        f"patch G(s, t) = (s, t, {_g(g1, 's', 't')}, {_g(g2, 's', 't')})",
        "patch P(s, t) = (s, t, 0, 0)",
    ]) + "\n"


def _one_form(terms, negate=False):
    if not terms:
        return "0*dx"
    text = (" - " if negate else " + ").join(f"(({c}))*d{v}" for c, v in terms)
    return "-" + text if negate else text


def _conn_source(rng, dim, m, skew):
    """A connection 1-form with m x m matrix values: skew-symmetric (so(m))
    or general (gl(m)), with polynomial coefficients."""
    names = ["x", "y", "z", "w"][:dim]
    entries = {}
    for r in range(m):
        for c in range(m):
            if skew and r >= c:
                continue
            entries[r, c] = [
                (f"{_num(rng)}*{names[(i + 1) % dim]} {_sign(rng)} "
                 f"{_num(rng)}*{x}*{names[(i + 2) % dim]}", x)
                for i, x in enumerate(names)]
    rows = []
    for r in range(m):
        cells = []
        for c in range(m):
            if (r, c) in entries:
                cells.append(_one_form(entries[r, c]))
            elif r == c:
                cells.append(_one_form([]))
            else:
                cells.append(_one_form(entries[c, r], negate=True))
        rows.append(", ".join(cells))
    return "\n".join([f"dim {dim}", "var " + " ".join(names),
                      "conn A = [" + "; ".join(rows) + "]"]) + "\n"


# (check, file, entity, extra, expected verdict, W context, batch sizes).
# A pass holds an odd number of ops (35), so that the median latency is the
# median of one op's own samples, not the midpoint of the gap between two.
_CHECKS = [
    ("involutive_kernel", "k3.sdg", "I", None, True, "W2-2", (1, 16, 256)),
    ("involutive_kernel", "k3.sdg", "C", None, False, "W2-2", (1, 16, 256)),
    ("involutive_kernel", "k4.sdg", "I", None, True, "W2-2", (1, 16)),
    ("involutive_kernel", "k4.sdg", "C", None, False, "W2-2", (1, 16)),
    ("involutive_span", "k3.sdg", "S", None, True, "float", (1, 16)),
    ("involutive_span", "k3.sdg", "H", None, False, "float", (1, 16)),
    ("integral_patch", "k3.sdg", "I", ("G", "weak"), True, "float", (16, 256)),
    ("integral_patch", "k3.sdg", "I", ("G", "strong"), True, "float", (16, 256)),
    ("integral_patch", "k3.sdg", "C", ("P", "weak"), False, "float", (1, 16, 256)),
    ("integral_patch", "k3.sdg", "C", ("P", "strong"), False, "float", (16, 256)),
    ("integral_patch", "k4.sdg", "I", ("G", "strong"), True, "float", (16,)),
    ("integral_patch", "k4.sdg", "I", ("P", "weak"), False, "float", (16,)),
    ("semi_annihilation", "k3.sdg", "I", "wi", True, "W2-2", (1, 16)),
    ("semi_annihilation", "k3.sdg", "C", "wc", False, "W2-2", (1, 16)),
    ("curvature", "so2.sdg", "A", None, True, "W2-2", (1, 16)),
    ("curvature", "so3.sdg", "A", None, True, "W2-3", (1, 16)),
    ("curvature", "gl2.sdg", "A", None, True, "W2-4", (1, 16)),
]


def checks_sparse(seed):
    """Check calls over sample batches, with verdicts known by construction."""
    rng = random.Random(f"checks_sparse-{seed}")
    sources = {
        "k3.sdg": _dim3_source(rng),
        "k4.sdg": _dim4_source(rng),
        "so2.sdg": _conn_source(rng, 2, 2, skew=True),
        "so3.sdg": _conn_source(rng, 3, 3, skew=True),
        "gl2.sdg": _conn_source(rng, 4, 2, skew=False),
    }
    ops = []
    for check, file, entity, extra, expect, ctx, batches in _CHECKS:
        for batch in batches:
            ops.append({"op": check, "file": file, "entity": entity,
                        "extra": extra, "expect": expect, "batch": batch,
                        "sample_seed": rng.randrange(1, 100003), "ctx": ctx})
    rng.shuffle(ops)
    return sources, ops


# -- cli_session ---------------------------------------------------------------

# The two files of the README, verbatim.
CONTACT_SDG = """\
dim 3
var x y z
form w = dz - y*dx
dist D = ker(w)
patch P(s, t) = (s, t, 0)
"""

ROT_SDG = """\
dim 2
var x y
conn A = [0*dx, (0.5*y)*dx - (0.5*x)*dy; (-0.5*y)*dx + (0.5*x)*dy, 0*dx]
"""

LEAF_STEPS = 3000

# (command, arguments after the command name, exit code the README documents).
# The README's holonomy runs 10000 RK4 steps and Ambrose-Singer its default
# 2000; here they run 2000 and 250, so that no command takes more than a few
# tenths of a second and each timing sits close to its host-speed probes
# (see calib).  Both still pass their oracles with a wide margin.
_README = [
    ("d", ["--file", "contact.sdg", "--form", "w", "--at", "0,2,0"], 0),
    ("check-involutive", ["--file", "contact.sdg", "--dist", "D", "--box=-1..1"], 1),
    ("check-integral", ["--file", "contact.sdg", "--dist", "D", "--patch", "P",
                        "--mode", "weak", "--box=-1..1"], 1),
    ("curvature", ["--file", "rot.sdg", "--conn", "A", "--at", "0.3,0.7"], 0),
    ("holonomy", ["--file", "rot.sdg", "--conn", "A", "--loop", "circle 0,0,1",
                  "--steps", "2000"], 0),
    ("ambrose-singer", ["--file", "rot.sdg", "--conn", "A", "--loop",
                        "circle 0,0,0.6", "--steps", "250"], 0),
]
COMMANDS = tuple(c for c, _, _ in _README) + ("leaf",)


def cli_session(seed):
    """The README's CLI examples plus a leaf trace, as ``sdg`` argument lists."""
    rng = random.Random(f"cli_session-{seed}")
    g = _graph(rng)
    leaf = "\n".join([
        "dim 3", "var x y z",
        f"vector u = (1, 0, {_g_x(g, 'x', 'y')})",
        f"vector v = (0, 1, {_g_y(g, 'x', 'y')})",
        "dist S = span(u, v)",
    ]) + "\n"
    sources = {"contact.sdg": CONTACT_SDG, "rot.sdg": ROT_SDG, "leaf.sdg": leaf}
    sample_seed = str(rng.randrange(1, 100003))
    ops = []
    for command, args, code in _README:
        ops.append({"op": command, "argv": [command, *args, "--format", "json",
                                            "--seed", sample_seed],
                    "expect_exit": code})
    start = _point(rng, 3, -0.5, 0.5)
    ops.append({"op": "leaf", "expect_exit": 0, "graph": g, "start": start,
                "argv": ["leaf", "--file", "leaf.sdg", "--dist", "S",
                         "--start=" + ",".join(map(str, start)), "--steps", str(LEAF_STEPS),
                         "--format", "json", "--seed", sample_seed]})
    rng.shuffle(ops)
    return sources, ops
