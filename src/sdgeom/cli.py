"""Command-line front end: parse a .sdg file, dispatch to the engine, print
deterministic text or JSON.

Exit codes: 0 success / check true, 1 check evaluated false (for
`curvature`: coboundary and classical oracle differ by more than --tol,
scaled by the size of the curvature; for `d` and `wedge`: an extracted
coefficient is not the comparison theorem's constant times the classical
one to within --tol, scaled likewise), 2 parse or usage error, 3 numeric
failure (rank drop, domain violation, log branch).

numpy and the `distributions` and `connections` modules are imported by the
commands that use them, so `sdg --help`, and `sdg d`, `wedge` and `eval` on
a file of forms and vectors alone, start without them.
"""

import argparse
import json
import math
import sys
from itertools import chain

from . import expr as ex
from . import forms as fm
from .chart import Point
from .errors import (DomainError, LogBranchError, ParseError,
                     RankDeficiencyError, SdgError)
from .nil import DEFAULT_TOL, within_tol
from .program import parse_file
from .sampling import finite_floats, parse_box, sample_box

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x):
    """17-significant-digit rendering of a float in text output; JSON's
    `%.17g` writes the same."""
    return format(x, ".17g")


def _json_floats(values, template):
    """`values` through `template`, a `%`-format with one `%.17g` per value,
    which writes a float as `_fmt` does.  JSON has no literal for nan or
    inf, so a non-finite value is a numeric failure."""
    if not all(map(math.isfinite, values)):
        raise DomainError("non-finite value in the JSON output")
    return template % tuple(values)


def _float_rows(o):
    """The values of `o` row after row, if `o` is a non-empty list of
    equal-length rows of floats (leaf points, a matrix); else None."""
    if not o or not all(isinstance(row, (list, tuple)) for row in o):
        return None
    width = len(o[0])
    if any(len(row) != width for row in o):
        return None
    values = list(chain.from_iterable(o))
    if not all(isinstance(v, float) for v in values):
        return None
    return values


def _json_dump(obj, out):
    """Stable-order JSON with floats at 17 significant digits; keys and
    strings are escaped by the json module.  A row of floats, and a list of
    equal-length rows of floats, is printed by one `%`-format."""
    def emit(o):
        if isinstance(o, dict):
            return "{" + ", ".join(f"{json.dumps(str(k))}: {emit(v)}"
                                   for k, v in o.items()) + "}"
        if isinstance(o, (list, tuple)):
            if all(isinstance(v, float) for v in o):  # a point or a matrix row
                return "[" + _json_floats(o, ", ".join(["%.17g"] * len(o))) + "]"
            values = _float_rows(o)
            if values is not None:
                row = "[" + ", ".join(["%.17g"] * len(o[0])) + "]"
                return "[" + _json_floats(values, ", ".join([row] * len(o))) + "]"
            return "[" + ", ".join(emit(v) for v in o) + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, float):
            return _json_floats((o,), "%.17g")
        if isinstance(o, int):
            return str(o)
        if o is None:
            return "null"
        return json.dumps(str(o))

    out.write(emit(obj) + "\n")


class _Reporter:
    def __init__(self, fmt, out):
        self.fmt = fmt
        self.out = out
        self.payload = {}

    def add(self, key, value):
        self.payload[key] = value

    def line(self, text):
        if self.fmt == "text":
            self.out.write(text + "\n")

    def finish(self):
        if self.fmt == "json":
            _json_dump(self.payload, self.out)


def _parse_vectors(text, dim, what="vector"):
    """';'-separated vectors of exactly `dim` finite, ','-separated entries."""
    vectors = []
    for chunk in text.split(";"):
        vector = finite_floats(chunk, ",")
        if vector is None or len(vector) != dim:
            raise ValueError(f"{what} {chunk!r} needs {dim} finite entries")
        vectors.append(vector)
    return vectors


def _parse_points(text, dim):
    return [Point(v) for v in _parse_vectors(text, dim, "point")]


def _parse_point(text, dim):
    """Exactly one point, for the options that take a single point."""
    points = _parse_points(text, dim)
    if len(points) != 1:
        raise ValueError(f"expected one point, got {len(points)} in {text!r}")
    return points[0]


def _mat_list(M):
    import numpy as np

    return [[float(v) for v in row] for row in np.asarray(M, dtype=float)]


def _cmd_compare(args, rep, prog, theta, classical, ratio):
    """Combinatorial vs classical coefficients, and their ratio, at each
    --at point.  Every extracted coefficient must be `ratio` times the
    classical one, those where the classical one is zero included, to
    within --tol scaled by max(1, largest |classical coefficient|) at that
    point, as `cmd_curvature` scales each face F_ij by max(1, its largest
    |entry|): the last-bit rounding of a coefficient of 1e16 is more than
    1e-9.  An entry that is not is named, in the JSON output under
    "failing" too, and the exit code is 1."""
    code = EXIT_OK
    for p in _parse_points(args.at, prog.dim):
        comb, oracle, ratios = fm.comparison(theta, classical, p, tol=args.tol)
        tol = args.tol * max(1.0, max(map(abs, oracle.values()), default=0.0))
        keys = {T: "".join(map(str, T)) for T in comb}
        entry = {
            "point": list(p.coords),
            "combinatorial": {keys[T]: v for T, v in comb.items()},
            "classical": {keys[T]: oracle.get(T, 0.0) for T in comb},
            "ratio": ratios[0] if ratios else None,
        }
        rep.add(f"at {','.join(_fmt(c) for c in p.coords)}", entry)
        rep.line(f"at ({', '.join(_fmt(c) for c in p.coords)}):")
        failing = []
        for T, v in sorted(comb.items()):
            label = "d" + " d".join(prog.vars[t - 1] for t in T)
            c = oracle.get(T, 0.0)
            rep.line(f"  [{label}] combinatorial={_fmt(v)} "
                     f"classical={_fmt(c)}")
            if not within_tol(v - ratio * c, tol):
                failing.append(label)
        rep.line(f"  measured ratio: "
                 f"{_fmt(ratios[0]) if ratios else 'n/a (zero form)'}")
        if failing:
            entry["failing"] = failing
        for label in failing:
            rep.line(f"  [{label}] FAILS: combinatorial is not "
                     f"{_fmt(ratio)} x classical to within {_fmt(tol)}")
            code = EXIT_FALSE
    return code


def cmd_d(args, rep, prog):
    form = prog.lookup("forms", args.form, "form")
    return _cmd_compare(args, rep, prog, fm.d_comb(fm.to_combinatorial(form)),
                        fm.d_classical(form), 1.0 / (form.degree + 1))


def cmd_wedge(args, rep, prog):
    name_a, _, name_b = args.forms.partition(",")
    a = prog.lookup("forms", name_a.strip(), "form")
    b = prog.lookup("forms", name_b.strip(), "form")
    k, l = a.degree, b.degree
    return _cmd_compare(args, rep, prog,
                        fm.wedge_comb(fm.to_combinatorial(a), fm.to_combinatorial(b)),
                        fm.wedge_classical(a, b),
                        math.factorial(k) * math.factorial(l) / math.factorial(k + l))


def cmd_eval(args, rep, prog):
    form = prog.lookup("forms", args.form, "form")
    p = _parse_point(args.at, prog.dim)
    # an empty --vectors gives none, for a 0-form
    vectors = _parse_vectors(args.vectors, prog.dim) if args.vectors else []
    if len(vectors) != form.degree:
        raise ParseError(f"form of degree {form.degree} needs that many vectors")
    value = fm.eval_semi(fm.to_combinatorial(form), p, *vectors, tol=args.tol)
    rep.add("value", float(value))
    rep.line(f"value: {_fmt(float(value))}")
    return EXIT_OK


def cmd_check_involutive(args, rep, prog):
    from . import distributions as ds

    dist = prog.lookup("dists", args.dist, "distribution")
    samples = sample_box(parse_box(args.box, prog.dim), args.samples, args.seed)
    classical = ds.check_involutive_classical(dist, samples, tol=args.tol)
    if dist.kernel is not None:
        _, comb = ds.check_involutive_combinatorial(dist, samples, tol=args.tol)
    else:
        _, comb = ds.pointwise_involutive_span(dist, samples, tol=args.tol)
    agree = comb == classical
    verdict = comb and classical
    rep.add("combinatorial", comb)
    rep.add("classical", classical)
    rep.add("agree", agree)
    rep.add("mode", "exact-fiber")
    word = lambda b: "involutive" if b else "non-involutive"
    rep.line(f"combinatorial: {word(comb)}; classical: {word(classical)}; "
             f"tests {'agree' if agree else 'DISAGREE'}")
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_check_integral(args, rep, prog):
    from . import distributions as ds

    dist = prog.lookup("dists", args.dist, "distribution")
    patch = prog.lookup("patches", args.patch, "patch")
    box = parse_box(args.box, patch.q)
    samples = [tuple(p.coords) for p in sample_box(box, args.samples, args.seed)]
    ok = ds.check_integral_patch(dist, patch, args.mode, samples, tol=args.tol)
    rep.add("mode", args.mode)
    rep.add("integral", ok)
    rep.line(f"{args.mode} integral: {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_curvature(args, rep, prog):
    import numpy as np

    from . import connections as cn

    conn = prog.lookup("conns", args.conn, "connection")
    agree = True
    for p in _parse_points(args.at, prog.dim):
        cob = cn.curvature_coboundary(conn, p, tol=args.tol)
        oracle = cn.curvature_classical_oracle(conn, p)
        # the coboundary carries the degree-2 extraction normalization; the
        # tolerance scales with the largest |F| entry, floored at 1
        agree &= all(within_tol(np.max(np.abs(cob[key] - cn.COBOUNDARY_SCALE * F)),
                                args.tol * max(1.0, np.max(np.abs(F), initial=0.0)))
                     for key, F in oracle.items())
        key = f"at {','.join(_fmt(c) for c in p.coords)}"
        rep.add(key, {f"F{i}{j}": {"coboundary": _mat_list(cob[(i, j)]),
                                   "classical": _mat_list(oracle[(i, j)])}
                      for (i, j) in sorted(cob)})
        rep.line(f"at ({', '.join(_fmt(c) for c in p.coords)}):")
        for (i, j) in sorted(cob):
            rep.line(f"  F{i}{j} coboundary: {_mat_list(cob[(i, j)])}")
            rep.line(f"  F{i}{j} classical:  {_mat_list(oracle[(i, j)])}")
    return EXIT_OK if agree else EXIT_FALSE


def _circle(spec):
    """Centre and radius of a loop spec 'circle cx,cy,r': three finite
    numbers, r nonzero (a zero radius has identity holonomy, so an
    ambrose-singer run on it would check nothing)."""
    parts = spec.split()
    circle = (finite_floats(parts[1], ",")
              if len(parts) == 2 and parts[0] == "circle" else None)
    if circle is None or len(circle) != 3 or circle[2] == 0.0:
        raise ParseError(f"bad loop spec {spec!r} (expected 'circle cx,cy,r' "
                         "with finite cx, cy and r, r nonzero)")
    return circle


def _loop_curves(args, prog):
    loops = []
    if args.loop:
        for spec in args.loop.split(";"):
            cx, cy, r = _circle(spec)
            t = ex.Var("t")
            curve = [ex.Add(ex.Const(cx), ex.Mul(ex.Const(r), ex.Call("cos", t))),
                     ex.Add(ex.Const(cy), ex.Mul(ex.Const(r), ex.Call("sin", t)))]
            if prog.dim != 2:
                raise ParseError("circle loops require a 2-dimensional chart")
            loops.append((curve, 0.0, 2.0 * math.pi))
    if args.curve:
        for name in map(str.strip, args.curve.split(",")):
            vec = prog.lookup("vectors", name, "curve vector")
            others = sorted(set().union(*map(ex.free_vars, vec)) - {prog.vars[0]})
            if others:
                raise ParseError(f"curve vector {name!r} uses {', '.join(others)}: a curve "
                                 f"is a vector in the parameter {prog.vars[0]} alone")
            # the parameter t from 0 to 1 is the first variable
            curve = [ex.rename(c, {prog.vars[0]: "t"}) for c in vec]
            start, end = map(ex.compile_w(curve, ("t",)), (0.0, 1.0))
            if not all(map(math.isfinite, start + end)):
                raise DomainError(f"curve vector {name!r} is not finite: from {start} to {end}")
            # closed to within the default tolerance, relative to the start
            if not within_tol(max(abs(b - a) for a, b in zip(start, end)),
                              DEFAULT_TOL * max(1.0, *map(abs, start))):
                raise ParseError(f"curve vector {name!r} is open: from {start} to {end}")
            loops.append((curve, 0.0, 1.0))
    if not loops:
        raise ParseError("need --loop or --curve")
    return loops


def cmd_holonomy(args, rep, prog):
    from . import connections as cn

    conn = prog.lookup("conns", args.conn, "connection")
    loops = _loop_curves(args, prog)
    for idx, (curve, t0, t1) in enumerate(loops):
        g = cn.parallel_transport(conn, curve, t0, t1, args.steps)
        rep.add(f"loop{idx}", {"holonomy": _mat_list(g)})
        rep.line(f"loop {idx} holonomy: {_mat_list(g)}")
        try:
            L = cn.holonomy_log(g)
            rep.add(f"loop{idx}_log", _mat_list(L))
            rep.line(f"loop {idx} log: {_mat_list(L)}")
        except LogBranchError:
            rep.add(f"loop{idx}_log", None)
            rep.line(f"loop {idx} log: no principal branch")
    return EXIT_OK


def cmd_ambrose_singer(args, rep, prog):
    from . import connections as cn

    conn = prog.lookup("conns", args.conn, "connection")
    loops = _loop_curves(args, prog)
    samples = sample_box(parse_box(args.box, prog.dim), args.samples, args.seed)
    base = _parse_point(args.at, prog.dim) if args.at else samples[0]
    ok, dim_h, resid = cn.ambrose_singer_check(
        conn, loops, samples, base, steps=args.steps, tol=args.tol)
    rep.add("inclusion", ok)
    rep.add("dim_h", dim_h)
    rep.add("max_residual", resid)
    rep.line(f"holonomy-log inclusion: {'holds' if ok else 'FAILS'} "
             f"(dim h = {dim_h}, max residual = {_fmt(resid)})")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_leaf(args, rep, prog):
    from . import distributions as ds

    dist = prog.lookup("dists", args.dist, "distribution")
    start = _parse_point(args.start, prog.dim)
    pts = ds.trace_leaf(dist, start, args.steps, args.stepsize)
    rep.add("points", pts)
    if rep.fmt == "text":
        stride = max(1, len(pts) // 10)
        shown = pts[::stride]
        if (len(pts) - 1) % stride:  # the last point falls off the stride
            shown.append(pts[-1])
        for p in shown:
            rep.line(" ".join(_fmt(c) for c in p))
    return EXIT_OK


def _checked(convert, kind, ok, refusal):
    """An argparse type: the text must `convert` (else `not <kind>: 'text'`)
    to a value that is `ok` (else `refusal`, formatted with the value and the
    text)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(refusal.format(value=value, text=text))
        return value

    return parse


# --samples and --steps (no vacuous check, no empty trace), --tol (a NaN one
# fails no comparison) and --stepsize (the trace moves)
_count = _checked(int, "an integer", lambda v: v >= 1, "must be at least 1, got {value}")
_tolerance = _checked(float, "a number", lambda v: math.isfinite(v) and v >= 0.0,
                      "must be finite and >= 0, got {text}")
_stepsize = _checked(float, "a number", lambda v: math.isfinite(v) and v != 0.0,
                     "must be finite and nonzero, got {text}")


def _common(*, tol=True, box=False, steps=None, at=False):
    """The options every command takes (--seed on all, so that one argument
    list fixes the output of any command), then those some of them share."""
    options = [("--file", {"required": True}),
               ("--format", {"choices": ("text", "json"), "default": "text"})]
    if tol:
        options.append(("--tol", {"type": _tolerance, "default": DEFAULT_TOL}))
    options.append(("--seed", {"type": int, "default": 0}))
    if box:
        options += [("--samples", {"type": _count, "default": 20}),
                    ("--box", {"default": "-1..1"})]
    if steps is not None:
        options.append(("--steps", {"type": _count, "default": steps}))
    if at:
        options.append(("--at", {"required": True,
                                 "help": "semicolon-separated comma vectors"}))
    return options


# name -> (help, options, handler), in the order `sdg --help` lists them
COMMANDS = {
    "d": ("simplicial vs classical exterior derivative",
          _common(at=True) + [("--form", {"required": True})], cmd_d),
    "wedge": ("cup-product vs classical wedge",
              _common(at=True) + [("--forms", {"required": True,
                                               "help": "two names, comma-separated"})],
              cmd_wedge),
    "eval": ("evaluate a form on displacement vectors",
             _common() + [("--at", {"required": True, "help": "one comma vector"}),
                          ("--form", {"required": True}),
                          ("--vectors", {"required": True})], cmd_eval),
    "check-involutive": ("combinatorial + classical test",
                         _common(box=True) + [("--dist", {"required": True})],
                         cmd_check_involutive),
    "check-integral": ("weak/strong integral patch",
                       _common(box=True) + [("--dist", {"required": True}),
                                            ("--patch", {"required": True}),
                                            ("--mode", {"choices": ("weak", "strong"),
                                                        "required": True})],
                       cmd_check_integral),
    "curvature": ("coboundary vs classical curvature",
                  _common(at=True) + [("--conn", {"required": True})], cmd_curvature),
    "holonomy": ("parallel transport around loops",
                 _common(tol=False, steps=10000) + [
                     ("--conn", {"required": True}),
                     ("--loop", {"help": "'circle cx,cy,r' specs, ';'-separated"}),
                     ("--curve", {"help": "named curve vectors, ','-separated"})],
                 cmd_holonomy),
    "ambrose-singer": ("holonomy-curvature inclusion",
                       _common(box=True, steps=2000) + [
                           ("--conn", {"required": True}), ("--loop", {}),
                           ("--curve", {}), ("--at", {"help": "basepoint"})],
                       cmd_ambrose_singer),
    "leaf": ("numeric leaf trace along span fields",
             _common(tol=False) + [("--dist", {"required": True}),
                                   ("--start", {"required": True}),
                                   ("--stepsize", {"type": _stepsize, "default": 1e-3}),
                                   ("--steps", {"type": _count, "default": 100})], cmd_leaf),
}


def build_parser(argv=None):
    """The `sdg` parser for the arguments `argv`.  When argv[0] names a
    command, only that command's subparser is registered, under the usage
    line of all of them; otherwise (no command, --help, an unknown name)
    every command is."""
    ap = argparse.ArgumentParser(
        prog="sdg",
        description="combinatorial differential geometry engine")
    if argv and argv[0] in COMMANDS:
        names = [argv[0]]
        # the usage line argparse would write with every command registered
        metavar = "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, options, handler = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=handler)
    return ap


def run(argv=None, stdout=None, stderr=None):
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    rep = _Reporter(args.format, stdout)
    try:
        # every command reads its --file before any other option
        prog = parse_file(args.file)
        code = args.fn(args, rep, prog)
        rep.finish()
        return code
    except FileNotFoundError as err:
        stderr.write(f"error: file not found: {err.filename}\n")
        return EXIT_USAGE
    except (ParseError, ValueError) as err:
        stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except (RankDeficiencyError, DomainError, LogBranchError) as err:
        stderr.write(f"numeric failure: {err}\n")
        return EXIT_NUMERIC
    except SdgError as err:
        stderr.write(f"error: {err}\n")
        return EXIT_NUMERIC


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
