"""Command-line front end: golden outputs, exit-code contract, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdgeom import connections as cn
from sdgeom import forms as fm
from sdgeom.chart import Point
from sdgeom.cli import (COMMANDS, EXIT_FALSE, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                        _float_rows, _json_dump, build_parser, run)
from sdgeom.distributions import trace_leaf
from sdgeom.errors import DomainError, LogBranchError
from sdgeom.program import parse_file

CONTACT = """\
dim 3
var x y z
form w = dz - y*dx
dist D = ker(w)
patch P(s, t) = (s, t, 0)
"""

FLAT = """\
dim 3
var x y z
form w = dz
dist D = ker(w)
patch P(s, t) = (s, t, 7)
vector u = (1, 0, 0)
vector v = (0, 1, 0)
dist S = span(u, v)
"""

# a and b have the nonzero wedge -x dy^dz - x*y dx^dy
PAIR = """\
dim 3
var x y z
form a = dz - y*dx
form b = x*dy
"""

# forms and vectors alone: no distribution, patch or connection
FORMS_ONLY = PAIR + """\
form c = a ^ b
vector u = (1, y, 0)
"""

ROT = """\
dim 2
var x y
conn A = [0*dx, (0.5*y)*dx - (0.5*x)*dy; (-0.5*y)*dx + (0.5*x)*dy, 0*dx]
"""

# a gl(2) connection with [A_x, A_y] != 0 off the axes
GL2 = """\
dim 2
var x y
conn A = [x*dy, y*dx; 0*dx, x*dx]
"""

# the same with curvature entries of ~1e9
BIG_GL2 = """\
dim 2
var x y
conn A = [100000*x*dy, 100000*y*dx; 0*dx, 100000*x*dx]
"""

# [u, v] = -1e-5 dz: involutive to within a tolerance of 1e-3, not of 1e-9
NEARLY_FLAT_SPAN = """\
dim 3
var x y z
vector u = (1, 0, 0.00001*y)
vector v = (0, 1, 0)
dist S = span(u, v)
"""

# a connection and span fields through ln(x), undefined for x <= 0
LOG_CONN = """\
dim 2
var x y
conn A = [(ln(x))*dy, 0*dx; 0*dx, 0*dx]
"""

LOG_SPAN = """\
dim 3
var x y z
vector u = (1, 0, ln(x))
vector v = (0, 1, 0)
dist S = span(u, v)
"""

# coefficients that overflow at x = 1000
OVERFLOW = """\
dim 2
var x y
form e = exp(x)*dy
form p = pow(x, 400)*dy
"""

# A is inf at x = 0.5, and its degree-1 coefficient at y = x + u is inf
NON_FINITE_CONN = """\
dim 2
var x y
conn A = [(x*1e300*1e300)*dx, 0*dx; 0*dx, 0*dx]
"""

# every stage value is finite, but the RK4 products overflow
HUGE_CONN = ("dim 2\nvar x y\n"
             "conn A = [0*dx, (1e160*y)*dx + (1e160*x)*dy; (-1e160*y)*dx, 0*dx]\n")

# ker(dx, dy): the zero sub-bundle of R^2
RANK_ZERO = "dim 2\nvar x y\nform a = dx\nform b = dy\ndist D = ker(a, b)\n"

# span fields of the leaves z - g(x, y) = const, g = 0.8 x y + 1.2 sin(x) + y^3
LEAF = """\
dim 3
var x y z
vector u = (1, 0, 0.8*y + 1.2*cos(x))
vector v = (0, 1, 0.8*x + 3.0*y*y)
dist S = span(u, v)
"""


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in (("contact", CONTACT), ("flat", FLAT), ("pair", PAIR),
                       ("forms_only", FORMS_ONLY), ("rot", ROT), ("gl2", GL2), ("big_gl2", BIG_GL2), ("nearly_flat", NEARLY_FLAT_SPAN),
                       ("log_conn", LOG_CONN),
                       ("log_span", LOG_SPAN), ("leaf", LEAF), ("overflow", OVERFLOW),
                       ("non_finite_conn", NON_FINITE_CONN), ("huge_conn", HUGE_CONN),
                       ("rank_zero", RANK_ZERO)):
        p = tmp_path / f"{name}.sdg"
        p.write_text(text)
        out[name] = str(p)
    return out


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# -- exit-code contract -------------------------------------------------------

def test_involutive_true_exits_zero(files):
    code, _, _ = invoke(["check-involutive", "--file", files["flat"],
                         "--dist", "D", "--box=-1..1"])
    assert code == EXIT_OK
    # rank 0 exited 2, on a W(2, 0) context
    for samples in ("1", "20"):
        assert invoke(["check-involutive", "--file", files["rank_zero"], "--dist", "D",
                       "--samples", samples]) == (EXIT_OK, "combinatorial: involutive; "
                                                  "classical: involutive; tests agree\n", "")


def test_involutive_false_exits_one(files):
    code, _, _ = invoke(["check-involutive", "--file", files["contact"],
                         "--dist", "D", "--box=-1..1"])
    assert code == EXIT_FALSE


def test_missing_file_exits_two(files):
    code, _, err = invoke(["d", "--file", files["contact"] + ".nope",
                           "--form", "w", "--at", "0,0,0"])
    assert code == EXIT_USAGE
    assert "not found" in err


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.sdg"
    bad.write_text("dim 2\nvar x y\nform f = dx + x*dx^dy\n")
    code, _, err = invoke(["d", "--file", str(bad),
                           "--form", "f", "--at", "0,0"])
    assert code == EXIT_USAGE
    assert "degree" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("text, argv, where", [
    ("form a = dx\nform b = dy\nform c = x*dy\ndist D = ker(a, b, c)\n",
     ["check-involutive", "--dist", "D"], "6:20: ker has 3 members"),
    ("vector u = (1, 0)\nvector v = (0, 1)\nvector w = (x, y)\ndist D = span(u, v, w)\n",
     ["check-involutive", "--dist", "D"], "6:21: span has 3 members"),
    ("vector u = (1, 0)\nvector v = (0, 1)\nvector w = (x, y)\ndist D = span(u, v, w)\n",
     ["leaf", "--dist", "D", "--start", "0,0", "--steps", "3"], "6:21: span has 3 members"),
], ids=["ker", "span", "span-leaf"])
def test_more_members_than_dim_exits_two(tmp_path, text, argv, where, fmt):
    # three kernel forms in dim 2 died with an IndexError (exit 1), three
    # span fields exited 3 (rank-deficient) or traced a leaf (exit 0)
    path = tmp_path / "over.sdg"
    path.write_text("dim 2\nvar x y\n" + text)
    code, out, err = invoke([*argv, "--file", str(path), "--format", fmt])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {where}, more than dim 2\n"


CHART2 = "dim 2\nvar x y\n"


@pytest.mark.parametrize("text, message", [
    (CHART2 + "form span = dx\n", "3:6: 'span' is a reserved word"),
    (CHART2 + "form a = dx\nform a = dy\n", "4:6: duplicate name 'a'"),
    (CHART2 + "vector a = (1, 0)\nform a = dy\n", "4:6: duplicate name 'a'"),
    (CHART2 + "form x = dx\n", "3:6: 'x' is already a chart variable"),
    ("dim 2\ndim 2\nvar x y\n", "2:1: duplicate 'dim' declaration"),
    ("dim 2.5\nvar x y\n", "1:5: dimension must be an integer"),
    ("dim 0\n", "1:5: dimension must be positive"),
    (CHART2 + "var z\n", "3:1: duplicate 'var' declaration"),
    ("dim 2\nvar\n", "3:1: expected variable names after 'var'"),
    ("dim 2\nvar x x\n", "2:1: duplicate variable names"),
    # dx would be the differential inside a form and the variable elsewhere
    ("dim 2\nvar x dx\n", "2:7: variable 'dx' reads as the differential of 'x'"),
    ("dim 2\nvar dx x\n", "2:5: variable 'dx' reads as the differential of 'x'"),
    ("var x\n", "missing 'dim' declaration"),
    ("dim 3\nvar x y\n", "declared 2 variables for dim 3"),
    ("dim 2\nform a = dx\n", "2:1: chart ('dim' and 'var') must be declared first"),
    ("dim 2\nfrm a = dx\n", "2:1: unknown statement 'frm'"),
    # the variable names end with their line
    (CHART2 + "frm a = dx\n", "3:1: unknown statement 'frm'"),
    (CHART2 + "= dx\n", "3:1: expected a statement keyword, found '='"),
    (CHART2 + "vector u = (1, 0, 0)\n", "3:1: vector needs 2 components"),
    (CHART2 + "vector u = 1\n", "3:12: expected (, found '1'"),
    (CHART2 + "patch P(s) = (s)\n", "3:1: patch needs 2 components"),
    # a patch is a function of its parameters: sdg check-integral crashed on
    # a repeated one (exit 1) and failed numerically on a chart variable (exit 3)
    (CHART2 + "patch P(s, s) = (s, s)\n", "3:12: duplicate parameter name 's'"),
    (CHART2 + "patch P(s, t) = (s, y)\n", "3:21: unknown identifier 'y'"),
    (CHART2 + "form a = dx\ndist D = kr(a)\n", "4:10: expected 'span' or 'ker'"),
    (CHART2 + "dist D = span(u)\n", "3:15: unknown vector 'u'"),
    (CHART2 + "dist D = ker(a)\n", "3:14: unknown form 'a'"),
    (CHART2 + "form a = dx ^ dy\ndist D = ker(a)\n", "4:14: kernel member 'a' is not a 1-form"),
    (CHART2 + "conn A = [dx, dy; dx]\n", "3:1: connection matrix must be square"),
    (CHART2 + "conn A = [dx ^ dy]\n", "3:18: connection entries must be 1-forms"),
    (CHART2 + "vector u = (1.5e, 0)\n", "3:13: bad number '1.5e'"),
    # a number ends before its second point
    (CHART2 + "vector u = (1.2.3, 0)\n", "3:16: expected ), found '.3'"),
    (CHART2 + "vector u = (pow(x, 1.5), 0)\n", "3:20: pow exponent must be an integer"),
    (CHART2 + "vector u = (pow(x, y), 0)\n", "3:20: pow exponent must be an integer"),
    (CHART2 + "vector u = (q, 0)\n", "3:13: unknown identifier 'q'"),
    (CHART2 + "vector u = (*, 0)\n", "3:13: unexpected token '*'"),
    (CHART2 + "form a = dx*dy\n", "3:13: two form factors in a product; use '^' to wedge"),
    # a parenthesised sum is read as a form, as a scalar only if it is a 0-form
    (CHART2 + "form a = (1 + dx)*dy\n", "3:13: degree mismatch: 0-form + 1-form"),
    (CHART2 + "form a = (x*dx + 1)\n", "3:16: degree mismatch: 1-form + 0-form"),
    (CHART2 + "form a = dx ^ b\n", "3:15: unknown form 'b'"),
    (CHART2 + "form a = dx ^ 1\n", "3:15: expected a form, found '1'"),
    (CHART2 + "form a = $\n", "3:10: unexpected character '$'"),
])
def test_parse_error_names_its_place(tmp_path, text, message):
    path = tmp_path / "bad.sdg"
    path.write_text(text)
    code, out, err = invoke(["d", "--file", str(path), "--form", "a", "--at", "0,0"])
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_unknown_flag_exits_two(files):
    code, _, _ = invoke(["d", "--file", files["contact"], "--form", "w",
                         "--at", "0,0,0", "--bogus"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command, extra", [
    ("check-involutive", ["--samples", "0"]),
    ("check-involutive", ["--samples", "-3"]),
    ("check-integral", ["--patch", "P", "--mode", "strong", "--samples", "0"]),
    ("check-involutive", ["--tol", "nan"]),
    ("check-involutive", ["--box=1..-1"]),
    ("leaf", ["--start", "0,0,0", "--steps", "-3"]),
    ("leaf", ["--start", "0,0,0", "--stepsize", "0"]),
    ("leaf", ["--start", "0,0,0", "--stepsize", "nan"]),
], ids=["samples-0", "samples-negative", "strong-samples-0", "tol-nan",
        "box-reversed", "leaf-steps-negative", "leaf-stepsize-0", "leaf-stepsize-nan"])
def test_invalid_input_exits_two(files, command, extra):
    # no verdict from zero samples, a NaN tolerance or a reversed box, and no
    # trace without a step
    code, out, _ = invoke([command, "--file", files["contact"], "--dist", "D",
                           *extra])
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("box", ["a..1", "1", "1..2..3", "..1"])
def test_a_malformed_box_range_names_itself(files, box):
    # float()'s message went through: "could not convert string to float"
    code, out, err = invoke(["check-involutive", "--file", files["contact"], "--dist", "D",
                             f"--box={box}"])
    assert (code, out, err) == (
        EXIT_USAGE, "", f"error: box range {box!r} needs finite bounds with lo <= hi\n")


@pytest.mark.parametrize("vectors", ["1,2", "1,2,3,4", "1,nan,3", "1,x,2"],
                         ids=["short", "long", "nan", "not-a-number"])
def test_eval_vector_needs_dim_finite_entries(files, vectors):
    # a short vector ran into an IndexError, a long one lost its last entry
    # and a nan was read as 0: all exited 1 or 0; an entry that is not a
    # number printed float()'s message
    code, out, err = invoke(["eval", "--file", files["contact"], "--form", "w",
                             "--at", "0,1,0", "--vectors", vectors])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: vector {vectors!r} needs 3 finite entries\n"


def test_point_with_an_empty_chunk_needs_dim_finite_entries(files):
    # a trailing ';' printed "could not convert string to float: ''"
    code, out, err = invoke(["d", "--file", files["contact"], "--form", "w",
                             "--at", "0,2,0;"])
    assert (code, out, err) == (EXIT_USAGE, "", "error: point '' needs 3 finite entries\n")


def one_sample(command):
    """`--samples 1` for ambrose-singer, the one of the two that samples."""
    return ["--samples", "1"] if command == "ambrose-singer" else []


@pytest.mark.parametrize("command", ["holonomy", "ambrose-singer"])
@pytest.mark.parametrize("loops, bad", [
    ("circle 0,0,1;", ""),
    ("circle 0,0,nan", "circle 0,0,nan"),
    ("circle 0,0,inf", "circle 0,0,inf"),
    ("circle 0,0", "circle 0,0"),
    ("circle 0,0,1,2", "circle 0,0,1,2"),
    ("circle 0,0,0", "circle 0,0,0"),
    ("circle 0,0,1;square 0,0,1", "square 0,0,1"),
], ids=["empty", "nan", "inf", "two-numbers", "four-numbers", "zero-radius",
        "not-a-circle"])
def test_bad_loop_spec_exits_two(files, command, loops, bad):
    # an empty spec ran into an IndexError, a non-finite one into a numeric
    # failure on the curve, and a zero radius made ambrose-singer hold
    # without checking anything
    code, out, err = invoke([command, "--file", files["rot"], "--conn", "A",
                             "--loop", loops, "--steps", "10", *one_sample(command)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: bad loop spec {bad!r}")


@pytest.mark.parametrize("command, option, value, message", [
    ("check-involutive", "--samples", "x", "not an integer: 'x'"),
    ("leaf", "--steps", "1.5", "not an integer: '1.5'"),
    ("check-involutive", "--tol", "x", "not a number: 'x'"),
    ("leaf", "--stepsize", "1e", "not a number: '1e'"),
], ids=["samples", "steps", "tol", "stepsize"])
def test_option_values_name_their_error(files, capsys, command, option, value, message):
    start = ["--start", "0,0,0"] if command == "leaf" else []
    code, out, _ = invoke([command, "--file", files["contact"], "--dist", "D", *start,
                           option, value])
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {message}\n")


@pytest.mark.parametrize("command, option, value, message", [
    ("check-involutive", "--samples", "0", "must be at least 1, got 0"),
    ("check-involutive", "--samples", "-0", "must be at least 1, got 0"),
    ("leaf", "--steps", "-3", "must be at least 1, got -3"),
    ("check-involutive", "--tol", "NaN", "must be finite and >= 0, got NaN"),
    ("check-involutive", "--tol", "1e999", "must be finite and >= 0, got 1e999"),
    ("check-involutive", "--tol", "-1", "must be finite and >= 0, got -1"),
    ("leaf", "--stepsize", "-0.0", "must be finite and nonzero, got -0.0"),
    ("leaf", "--stepsize", "inf", "must be finite and nonzero, got inf"),
])
def test_option_values_out_of_range_name_their_rule(files, capsys, command, option, value,
                                                    message):
    # a count is shown as the integer read, a number as it was given
    start = ["--start", "0,0,0"] if command == "leaf" else []
    code, out, _ = invoke([command, "--file", files["contact"], "--dist", "D", *start,
                           option, value])
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {message}\n")


# each command declares the options it reads: --samples only the three that
# sample a box, --tol all but holonomy and leaf
@pytest.mark.parametrize("command, name, argv, dead", [
    ("d", "contact", ["--form", "w", "--at", "0,2,0"], "--samples 5"),
    ("wedge", "pair", ["--forms", "a,b", "--at", "1,2,3"], "--samples 5"),
    ("eval", "contact", ["--form", "w", "--at", "0,1,0", "--vectors", "1,2,3"], "--samples 5"),
    ("curvature", "rot", ["--conn", "A", "--at", "0.3,0.7"], "--samples 5"),
    ("holonomy", "rot", ["--conn", "A", "--loop", "circle 0,0,1", "--steps", "10"],
     "--samples 5"),
    ("holonomy", "rot", ["--conn", "A", "--loop", "circle 0,0,1", "--steps", "10"],
     "--tol 1e-3"),
    ("leaf", "leaf", ["--dist", "S", "--start", "0,0,0", "--steps", "3"], "--samples 5"),
    ("leaf", "leaf", ["--dist", "S", "--start", "0,0,0", "--steps", "3"], "--tol 1e-3"),
], ids=["d-samples", "wedge-samples", "eval-samples", "curvature-samples",
        "holonomy-samples", "holonomy-tol", "leaf-samples", "leaf-tol"])
def test_options_a_command_does_not_read_exit_two(files, capsys, command, name, argv, dead):
    # each was accepted and ignored: the command exited 0
    argv = [command, "--file", files[name], *argv]
    assert invoke(argv)[0] == EXIT_OK
    capsys.readouterr()
    assert invoke(argv + dead.split()) == (EXIT_USAGE, "", "")
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {dead}\n")


@pytest.mark.parametrize("command", ["holonomy", "ambrose-singer"])
@pytest.mark.parametrize("text, argv, message", [
    ("dim 3\nvar x y z\nconn A = [dx]\n", ["--loop", "circle 0,0,1"],
     "circle loops require a 2-dimensional chart"),
    (ROT, [], "need --loop or --curve"),
], ids=["circle-in-3d", "no-loop"])
def test_loops_need_a_plane_and_a_spec(tmp_path, command, text, argv, message):
    path = tmp_path / "conn.sdg"
    path.write_text(text)
    code, out, err = invoke([command, "--file", str(path), "--conn", "A", "--steps", "10",
                             *one_sample(command), *argv])
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_numeric_error_exits_three(files):
    # leaf tracing without a span representation is a numeric-domain error
    code, _, err = invoke(["leaf", "--file", files["contact"],
                           "--dist", "D", "--start", "0,0,0"])
    assert code == EXIT_NUMERIC


def test_holonomy_domain_error_exits_three(files):
    # the circle passes through x <= 0, where ln(x) is undefined
    code, _, err = invoke(["holonomy", "--file", files["log_conn"], "--conn", "A",
                           "--loop", "circle 0,0,1", "--steps", "100"])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in err
    # a nan holonomy exited 0 in text, and ambrose-singer exited 2 on its SVD;
    # ambrose-singer stops earlier, at its first curvature value, which overflows
    for command, message in (("holonomy", "parallel transport overflows for t from"),
                             ("ambrose-singer", "non-finite curvature at")):
        for fmt in ("text", "json"):
            code, out, err = invoke([command, "--file", files["huge_conn"], "--conn", "A",
                                     "--loop", "circle 0,0,0.5", "--format", fmt])
            assert (code, out) == (EXIT_NUMERIC, "")
            assert err.startswith(f"numeric failure: {message}")


# on the closed curve c(t) = (0.5, sin 2 pi t), c_1' = 0: A leaves out an
# entry undefined through its variables, B has one with an undefined constant
# subexpression
MASKED = """\
dim 2
var x y
vector c = (0.5, sin(6.283185307179586*x))
conn A = [ln(x - 1)*dx + y*dy, 0*dx; 0*dx, 0*dx]
conn B = [(ln(0-1)*y)*dx + y*dy, 0*dx; 0*dx, 0*dx]
"""


def test_holonomy_masks_only_entries_undefined_through_their_variables(tmp_path):
    path = tmp_path / "masked.sdg"
    path.write_text(MASKED)
    holonomy = ["holonomy", "--file", str(path), "--curve", "c", "--steps", "100"]
    code, out, _ = invoke(holonomy + ["--conn", "A"])
    assert code == EXIT_OK
    assert out.startswith("loop 0 holonomy: ")
    # B printed a holonomy and exited 0, while its curvature exited 3
    assert invoke(holonomy + ["--conn", "B"]) == (EXIT_NUMERIC, "",
                                                 "numeric failure: ln of -1.0\n")
    code, _, _ = invoke(["curvature", "--file", str(path), "--conn", "B", "--at", "0.3,0.7"])
    assert code == EXIT_NUMERIC


ROT_CONN = "conn A = [0*dx, (0.5*y)*dx - (0.5*x)*dy; (-0.5*y)*dx + (0.5*x)*dy, 0*dx]\n"


@pytest.mark.parametrize("command", ["holonomy", "ambrose-singer"])
@pytest.mark.parametrize("text, others", [
    ("dim 2\nvar x y\nvector c = (cos(x), sin(y))\n" + ROT_CONN, "y"),
    ("dim 2\nvar x t\nvector c = (cos(6.2831853*x), t)\n"
     + ROT_CONN.replace("y", "t"), "t"),
], ids=["second-variable", "second-variable-named-t"])
def test_curve_in_more_than_the_parameter_exits_two(tmp_path, command, text, others):
    # a curve is read in the chart's first variable: one that used y exited
    # 3 on an unbound variable, and one that used a second variable named t
    # exited 0, transported along (cos 2 pi t, t)
    path = tmp_path / "curve.sdg"
    path.write_text(text)
    code, out, err = invoke([command, "--file", str(path), "--conn", "A", "--curve", "c",
                             "--steps", "100", *one_sample(command)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: curve vector 'c' uses {others}: ")


# curves in t = x from 0 to 1: a holonomy needs a closed one, to within
# the default tolerance times max(1, largest |c_i(0)|), whatever --tol is
CURVES = """\
dim 2
var x y
vector open = (x, 1)
vector circle = (cos(6.283185307179586*x), sin(6.283185307179586*x))
vector near = (0.5 + 0.000001*x, sin(6.283185307179586*x))
vector far = (1000 + 0.0000001*x, 0)
vector log = (ln(x), 0)
vector huge = (x*1e300*1e300, 0)
""" + ROT_CONN


@pytest.mark.parametrize("command", ["holonomy", "ambrose-singer"])
def test_an_open_curve_exits_two(tmp_path, command):
    # holonomy printed the transport along an open curve as "loop 0
    # holonomy", and ambrose-singer tested its log: both exited 0
    path = tmp_path / "curves.sdg"
    path.write_text(CURVES)

    def curve(name, *tol):
        return invoke([command, "--file", str(path), "--conn", "A", "--curve", name,
                       "--steps", "1000", *one_sample(command), *tol])

    verdict = "loop 0 holonomy: " if command == "holonomy" else "holonomy-log inclusion: holds"
    assert curve("open") == (EXIT_USAGE, "", "error: curve vector 'open' is open: "
                             "from (0.0, 1.0) to (1.0, 1.0)\n")
    # 1e-6 apart is open; 1e-7 apart at 1000 is closed
    code, out, err = curve("near")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: curve vector 'near' is open: from (0.5, 0.0) to (0.500001, ")
    for name in ("circle", "far"):
        code, out, _ = curve(name)
        assert (code, out.startswith(verdict)) == (EXIT_OK, True), name
    if command == "ambrose-singer":
        # --tol is the verdict's alone: at --tol 0 the circle, open by
        # sin(2 pi) = -2.4e-16, is still closed and gets a verdict, and
        # --tol 1e-3 does not close near
        code, out, _ = curve("circle", "--tol", "0")
        assert (code, out.startswith("holonomy-log inclusion: FAILS")) == (EXIT_FALSE, True)
        assert curve("near", "--tol", "1e-3")[:2] == (EXIT_USAGE, "")
    # a curve undefined or overflowing at an end is a numeric failure
    assert curve("log") == (EXIT_NUMERIC, "", "numeric failure: ln of 0.0\n")
    assert curve("huge") == (EXIT_NUMERIC, "", "numeric failure: curve vector 'huge' is "
                             "not finite: from (0.0, 0.0) to (inf, 0.0)\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_curvature_overflow_exits_three(files, fmt):
    # every value of A is finite, but the coboundary's products and the
    # oracle's bracket overflow: it printed inf entries and exited 1
    code, out, err = invoke(["curvature", "--file", files["huge_conn"], "--conn", "A",
                             "--at", "0.3,0.7", "--format", fmt])
    assert (code, out, err) == (EXIT_NUMERIC, "",
                                "numeric failure: non-finite curvature at (0.3, 0.7)\n")


def test_leaf_domain_error_exits_three(files):
    code, _, err = invoke(["leaf", "--file", files["log_span"], "--dist", "S",
                           "--start=-0.5,0,0", "--steps", "10"])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in err


@pytest.mark.parametrize("form", ["e", "p"])
@pytest.mark.parametrize("command", [["d"], ["eval", "--vectors", "0,1"]],
                         ids=["d", "eval"])
def test_overflow_exits_three(files, command, form):
    code, _, err = invoke([command[0], "--file", files["overflow"], "--form", form,
                           "--at", "1000,0", *command[1:]])
    assert code == EXIT_NUMERIC
    assert "numeric failure:" in err


# a patch point that overflows, and a kernel coefficient -inf*0 = nan at x = 0:
# each exited 2 with numpy's or Point's ValueError
NON_FINITE_PATCH = ("dim 3\nvar x y z\nform w = dz - y*dx\ndist D = ker(w)\n"
                    "patch P(s, t) = (s, t, s*t*1e300*1e300 + 1)\n")
NAN_KERNEL = "dim 3\nvar x y z\nform u = dz - (y*1e300*1e300*x)*dx\ndist E = ker(u)\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("text, argv, message", [
    (NON_FINITE_PATCH, ["check-integral", "--dist", "D", "--patch", "P", "--mode", "weak",
                        "--box=0.1..1"],
     "non-finite patch point at parameters (0.55, 0.4)"),
    (NAN_KERNEL, ["check-involutive", "--dist", "E", "--box=-1..1"],
     "kernel forms rank-deficient at (0.0, -0.33333333333333337, -0.6)"),
], ids=["patch-point", "nan-kernel"])
def test_non_finite_sample_values_exit_three(tmp_path, text, argv, message, fmt):
    path = tmp_path / "case.sdg"
    path.write_text(text)
    code, out, err = invoke([argv[0], "--file", str(path), *argv[1:], "--format", fmt])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == f"numeric failure: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("at, where", [
    ("0,0", "in the first neighbourhood of (0.0, 0.0)"),
    ("0.5,0.25", "at (0.5, 0.25)"),
], ids=["degree-1-part", "value"])
def test_curvature_non_finite_connection_exits_three(files, fmt, at, where):
    # printed a nan coboundary at the origin (exit 1), and reported an
    # unexpected degree-1 part at (0.5, 0.25)
    code, out, err = invoke(["curvature", "--file", files["non_finite_conn"],
                             "--conn", "A", "--at", at, "--format", fmt])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == f"numeric failure: non-finite connection value {where}\n"


@pytest.mark.parametrize("name, argv, option", [
    ("contact", ["eval", "--form", "w", "--vectors", "1,2,3"], "--at"),
    ("leaf", ["leaf", "--dist", "S", "--steps", "10"], "--start"),
    ("rot", ["ambrose-singer", "--conn", "A", "--loop", "circle 0,0,0.6",
             "--steps", "10", "--samples", "1", "--tol", "1e-6"], "--at"),
], ids=["eval", "leaf", "ambrose-singer"])
def test_single_point_options_take_one_point(files, name, argv, option):
    # the points after the first were dropped without a word
    dim = 2 if name == "rot" else 3
    one, two = ",".join(["0.1"] * dim), ",".join(["0.5"] * dim)
    cmd = [argv[0], "--file", files[name], *argv[1:]]
    assert invoke(cmd + [option, one])[0] == EXIT_OK
    code, out, err = invoke(cmd + [option, f"{one};{two}"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: expected one point, got 2 in {one + ';' + two!r}\n"


def test_span_involutivity_takes_tol(files):
    # both tests of a SPAN-only distribution take --tol
    argv = ["check-involutive", "--file", files["nearly_flat"], "--dist", "S",
            "--format", "json"]
    code, out, _ = invoke(argv + ["--tol", "1e-3"])
    assert (code, json.loads(out)["combinatorial"], json.loads(out)["agree"]) == (
        EXIT_OK, True, True)
    assert json.loads(out)["mode"] == "exact-fiber"  # as for KERNEL input
    code, out, _ = invoke(argv)
    assert (code, json.loads(out)["combinatorial"], json.loads(out)["agree"]) == (
        EXIT_FALSE, False, True)


def test_curvature_exit_code_follows_the_oracle(files, monkeypatch):
    argv = ["curvature", "--file", files["gl2"], "--conn", "A", "--at", "0.3,0.7;-0.2,0.4"]
    code, agreeing, _ = invoke(argv)
    assert code == EXIT_OK
    monkeypatch.setattr(cn, "BRACKET_SIGN", -cn.BRACKET_SIGN)
    code, disagreeing, _ = invoke(argv)
    assert code == EXIT_FALSE
    assert disagreeing != agreeing  # the same report, with the wrong oracle values
    assert disagreeing.count("classical") == agreeing.count("classical")


@pytest.mark.parametrize("relative, want", [(1e-12, EXIT_OK), (1e-6, EXIT_FALSE)])
def test_curvature_tolerance_scales_with_the_curvature(files, monkeypatch, relative, want):
    # |F| ~ 2e9 at (0.3, 0.7): an oracle off by 1e-12 of it (~2e-3) agrees to
    # within the default tol 1e-9, scaled by |F|; one off by 1e-6 does not
    oracle = cn.curvature_classical_oracle
    monkeypatch.setattr(cn, "curvature_classical_oracle", lambda conn, p: {
        key: F * (1 + relative) for key, F in oracle(conn, p).items()})
    code, _, _ = invoke(["curvature", "--file", files["big_gl2"], "--conn", "A",
                         "--at", "0.3,0.7"])
    assert code == want


def test_integral_patch_verdicts(files):
    code, _, _ = invoke(["check-integral", "--file", files["flat"],
                         "--dist", "D", "--patch", "P", "--mode", "strong",
                         "--box=-1..1"])
    assert code == EXIT_OK
    code, _, _ = invoke(["check-integral", "--file", files["contact"],
                         "--dist", "D", "--patch", "P", "--mode", "weak",
                         "--box=-1..1"])
    assert code == EXIT_FALSE


# -- golden outputs -------------------------------------------------------------

def test_d_golden_json(files):
    code, out, _ = invoke(["d", "--file", files["contact"], "--form", "w",
                           "--at", "0,2,0", "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(out)
    block = data["at 0,2,0"]
    assert block["point"] == [0, 2, 0]
    assert block["combinatorial"]["12"] == 0.5
    assert block["classical"]["12"] == 1
    assert block["ratio"] == 0.5


def test_wedge_golden_json(files):
    # the layout of `sdg d`: a point key, then the cup product's extracted
    # coefficients, the classical wedge's, and their ratio 1!1!/2! = 1/2
    code, out, _ = invoke(["wedge", "--file", files["pair"], "--forms", "a,b",
                           "--at", "1,2,3;0.5,-1,0", "--format", "json"])
    assert code == EXIT_OK
    assert out == (
        '{"at 1,2,3": {"point": [1, 2, 3], "combinatorial": {"12": -1, "13": 0, '
        '"23": -0.5}, "classical": {"12": -2, "13": 0, "23": -1}, "ratio": 0.5}, '
        '"at 0.5,-1,0": {"point": [0.5, -1, 0], "combinatorial": {"12": 0.25, '
        '"13": 0, "23": -0.25}, "classical": {"12": 0.5, "13": 0, "23": -0.5}, '
        '"ratio": 0.5}}\n')


# a 3-form u and a 1-form b in dimension 4: d(u) and u ^ b are 4-forms, on
# the generic simplex of W(4, 4)
THREE_FORM = """\
dim 4
var x y z w
form u = (sin(x*y) + z*w)*dx ^ dy ^ dz + (exp(0.5*w)*x - y*y*z)*dx ^ dy ^ dw + \
((x + 2)/(1 + z*z))*dx ^ dz ^ dw + (cos(y)*w*x)*dy ^ dz ^ dw
form b = (x*z - sin(w))*dx + (y + exp(z))*dw
"""


@pytest.mark.parametrize("argv, want", [
    (["d", "--form", "u", "--at", "0.3,-0.7,0.2,0.9;-1.1,0.4,0.6,-0.25"],
     '{"at 0.29999999999999999,-0.69999999999999996,0.20000000000000001,0.90000000000000002": '
     '{"point": [0.29999999999999999, -0.69999999999999996, 0.20000000000000001, '
     '0.90000000000000002], "combinatorial": {"1234": -0.00041050786099006142}, '
     '"classical": {"1234": -0.0016420314439602457}, "ratio": 0.25}, '
     '"at -1.1000000000000001,0.40000000000000002,0.59999999999999998,-0.25": '
     '{"point": [-1.1000000000000001, 0.40000000000000002, 0.59999999999999998, -0.25], '
     '"combinatorial": {"1234": -0.24756631212518032}, '
     '"classical": {"1234": -0.99026524850072128}, "ratio": 0.25}}\n'),
    # the front face's 3-form adds its coefficient once per permutation of a
    # determinant: times 6 in one step, the last bits of both values differ
    (["wedge", "--forms", "u,b", "--at", "0.37,0.73,0.89,1.33;0.72,1.27,-1.41,-0.1"],
     '{"at 0.37,0.72999999999999998,0.89000000000000001,1.3300000000000001": '
     '{"point": [0.37, 0.72999999999999998, 0.89000000000000001, 1.3300000000000001], '
     '"combinatorial": {"1234": 1.2066186492356756}, '
     '"classical": {"1234": 4.8264745969427034}, "ratio": 0.24999999999999994}, '
     '"at 0.71999999999999997,1.27,-1.4099999999999999,-0.10000000000000001": '
     '{"point": [0.71999999999999997, 1.27, -1.4099999999999999, -0.10000000000000001], '
     '"combinatorial": {"1234": 0.34836662855377526}, '
     '"classical": {"1234": 1.3934665142151008}, "ratio": 0.25000000000000006}}\n'),
], ids=["d", "wedge"])
def test_four_form_golden_json(tmp_path, argv, want):
    path = tmp_path / "three.sdg"
    path.write_text(THREE_FORM)
    code, out, _ = invoke([argv[0], "--file", str(path)] + argv[1:] + ["--format", "json"])
    assert code == EXIT_OK
    assert out == want


def test_eval_golden(files):
    code, out, _ = invoke(["eval", "--file", files["contact"], "--form", "w",
                           "--at", "1,2,3", "--vectors", "1,0,0",
                           "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out) == {"value": -2}


def test_eval_three_form_golden(tmp_path):
    # a 3-form in dimension 4 on three vectors V: sum_T a_T det(V[:, T]) of
    # its extracted coefficients, against its classical coefficients
    path = tmp_path / "three.sdg"
    path.write_text(THREE_FORM)
    code, out, _ = invoke(["eval", "--file", str(path), "--form", "u",
                           "--at", "0.3,-0.7,0.2,0.9",
                           "--vectors", "1,0.5,-2,0.25;0,1,3,-1;2,-1,0.5,1", "--format", "json"])
    assert (code, out) == (EXIT_OK, '{"value": 12.953743237614027}\n')
    form = parse_file(str(path)).forms["u"]
    coeffs = form.coeffs_at((0.3, -0.7, 0.2, 0.9))
    V = np.array([[1.0, 0.5, -2.0, 0.25], [0.0, 1.0, 3.0, -1.0], [2.0, -1.0, 0.5, 1.0]])
    want = sum(a * np.linalg.det(V[:, [t - 1 for t in T]]) for T, a in coeffs.items())
    assert abs(json.loads(out)["value"] - want) <= 1e-12


def test_eval_zero_form_takes_no_vectors(tmp_path):
    # an empty --vectors failed with "could not convert string to float: ''"
    path = tmp_path / "scalar.sdg"
    path.write_text("dim 3\nvar x y z\nform f = x*y + sin(z)\nform w = dz - y*dx\n")
    cmd = ["eval", "--file", str(path), "--at", "1,2,0", "--vectors="]
    for fmt, want in (("text", "value: 2\n"), ("json", '{"value": 2}\n')):
        assert invoke(cmd + ["--form", "f", "--format", fmt]) == (EXIT_OK, want, "")


def test_eval_one_form_needs_a_vector(files):
    code, out, err = invoke(["eval", "--file", files["contact"], "--form", "w",
                             "--at", "1,2,3", "--vectors="])
    assert (code, out, err) == (EXIT_USAGE, "",
                                "error: form of degree 1 needs that many vectors\n")


def test_curvature_golden(files):
    code, out, _ = invoke(["curvature", "--file", files["rot"],
                           "--conn", "A", "--at", "0.3,0.7"])
    assert code == EXIT_OK
    assert "F12 coboundary: [[0.0, -0.5], [0.5, 0.0]]" in out
    assert "F12 classical:  [[0.0, -1.0], [1.0, 0.0]]" in out


def test_holonomy_golden(files):
    code, out, _ = invoke(["holonomy", "--file", files["rot"], "--conn", "A",
                           "--loop", "circle 0,0,1", "--steps", "4000",
                           "--format", "json"])
    assert code == EXIT_OK
    data = json.loads(out)
    g = data["loop0"]["holonomy"]
    assert abs(g[0][0] + 1.0) <= 1e-6
    L = data["loop0_log"]
    assert abs(abs(L[0][1]) - 3.141592653589793) <= 1e-6


@pytest.mark.parametrize("fmt, want", [
    ("text", "loop 0 log: no principal branch\n"),
    ("json", '"loop0_log": null}\n'),
])
def test_holonomy_without_a_log_still_exits_zero(files, monkeypatch, fmt, want):
    def no_branch(g):
        raise LogBranchError("holonomy has no real principal logarithm")

    monkeypatch.setattr(cn, "holonomy_log", no_branch)
    code, out, err = invoke(["holonomy", "--file", files["rot"], "--conn", "A",
                             "--loop", "circle 0,0,1", "--steps", "100", "--format", fmt])
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("loop 0 holonomy: [[" if fmt == "text" else '{"loop0": {"holonomy"')
    assert out.endswith(want)


def test_a_rotation_off_orthogonal_by_rk4_drift_gets_its_log(files, tmp_path):
    # at 100 steps the unit circle's holonomy, a rotation by about -pi, is
    # 1.3e-9 off orthogonal: it went to logm, which has no real log near -I,
    # so holonomy printed no log, ambrose-singer on the loop exited 3, and on
    # the same circle as a closed curve answered FAILS
    loop = ["--file", files["rot"], "--conn", "A", "--loop", "circle 0,0,1", "--steps", "100"]
    code, out, _ = invoke(["holonomy", *loop, "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["loop0_log"] == [[0.0, pytest.approx(3.141592628097141, abs=1e-12)],
                                            [pytest.approx(-3.141592628097141, abs=1e-12), 0.0]]
    path = tmp_path / "circle.sdg"
    path.write_text(CURVES)
    curve = ["--file", str(path), "--conn", "A", "--curve", "circle", "--steps", "100"]
    for argv in (loop, curve):
        code, out, _ = invoke(["ambrose-singer", *argv, "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["inclusion"] is True
    # a gl(2) holonomy, far from orthogonal, keeps logm's log
    code, out, _ = invoke(["holonomy", "--file", files["gl2"], "--conn", "A", "--loop",
                           "circle 0.5,0,0.3", "--steps", "200", "--format", "json"])
    assert code == EXIT_OK
    assert np.max(np.abs(np.array(json.loads(out)["loop0_log"]) - [
        [-0.28274333882252961, 0.34030017252519046], [0.0, -5.0625059700010661e-12]])) <= 1e-12

def test_ambrose_singer_cli(files):
    code, out, _ = invoke(["ambrose-singer", "--file", files["rot"],
                           "--conn", "A", "--loop", "circle 0,0,0.6",
                           "--samples", "5", "--seed", "3"])
    assert code == EXIT_OK
    assert "holds" in out


def test_leaf_text_shows_every_stride_and_the_last_point(files):
    # 22 points at a stride of 2: the last falls off the stride and is added
    argv = ["leaf", "--file", files["leaf"], "--dist", "S", "--start=0.1,-0.2,0.3",
            "--steps", "21", "--stepsize", "0.01"]
    code, out, _ = invoke(argv)
    _, data, _ = invoke(argv + ["--format", "json"])
    points = json.loads(data)["points"]
    dist = parse_file(files["leaf"]).dists["S"]
    want = trace_leaf(dist, Point((0.1, -0.2, 0.3)), 21, 0.01)
    assert points == [list(p) for p in want]
    assert code == EXIT_OK
    assert out.splitlines() == [" ".join(format(c, ".17g") for c in p)
                                for p in points[::2] + points[-1:]]


def test_leaf_stays_in_plane(files):
    code, out, _ = invoke(["leaf", "--file", files["flat"], "--dist", "S",
                           "--start", "1,2,7", "--steps", "100"])
    assert code == EXIT_OK
    for line in out.strip().splitlines():
        assert line.split()[-1] == "7"


# The README's six commands and a leaf trace at --seed 7.  The leaf output
# (3001 points) is pinned by its SHA-256 digest.  The circle's holonomy is a
# rotation by -pi, the log's branch point, so the sign of its log follows the
# rounding of the transport.
README_GOLDEN = [
    (["d", "--file", "contact", "--form", "w", "--at", "0,2,0"], 0,
     '{"at 0,2,0": {"point": [0, 2, 0], "combinatorial": {"12": 0.5, "13": 0, '
     '"23": 0}, "classical": {"12": 1, "13": 0, "23": 0}, "ratio": 0.5}}\n'),
    (["check-involutive", "--file", "contact", "--dist", "D", "--box=-1..1"], 1,
     '{"combinatorial": false, "classical": false, "agree": true, '
     '"mode": "exact-fiber"}\n'),
    (["check-integral", "--file", "contact", "--dist", "D", "--patch", "P",
      "--mode", "weak", "--box=-1..1"], 1,
     '{"mode": "weak", "integral": false}\n'),
    (["curvature", "--file", "rot", "--conn", "A", "--at", "0.3,0.7"], 0,
     '{"at 0.29999999999999999,0.69999999999999996": {"F12": {"coboundary": '
     '[[0, -0.5], [0.5, 0]], "classical": [[0, -1], [1, 0]]}}}\n'),
    (["holonomy", "--file", "rot", "--conn", "A", "--loop", "circle 0,0,1",
      "--steps", "10000"], 0,
     '{"loop0": {"holonomy": [[-1, -2.2204460492503131e-16], '
     '[-5.5511151231257827e-17, -1]]}, "loop0_log": [[0, 3.1415926535897931], '
     '[-3.1415926535897931, 0]]}\n'),
    (["ambrose-singer", "--file", "rot", "--conn", "A", "--loop",
      "circle 0,0,0.6"], 0,
     '{"inclusion": true, "dim_h": 1, "max_residual": 3.1414426384230277e-16}\n'),
    (["leaf", "--file", "leaf", "--dist", "S", "--start=0.1,-0.2,0.3",
      "--steps", "3000"], 0,
     "ab2f5646472eca70d8c27ddf79998027ceea9c9683300070a8f21a6518063da5"),
]


@pytest.mark.parametrize("argv, exit_code, want", README_GOLDEN,
                         ids=[argv[0] for argv, _, _ in README_GOLDEN])
def test_json_golden(files, argv, exit_code, want):
    argv = list(argv)
    argv[2] = files[argv[2]]
    code, out, _ = invoke(argv + ["--format", "json", "--seed", "7"])
    assert code == exit_code
    if argv[0] == "leaf":
        assert hashlib.sha256(out.encode()).hexdigest() == want, out[:200]
    else:
        assert out == want


def test_json_escapes_keys_and_strings():
    out = io.StringIO()
    _json_dump({'say "hi"\n': ["back\\slash", "tab\t"], "x": (1.5, np.float64(2.0))}, out)
    assert out.getvalue() == ('{"say \\"hi\\"\\n": ["back\\\\slash", "tab\\t"], '
                              '"x": [1.5, 2]}\n')
    assert json.loads(out.getvalue()) == {'say "hi"\n': ["back\\slash", "tab\t"],
                                          "x": [1.5, 2]}


def test_json_float_rows_are_one_block_of_the_per_value_format():
    # equal-length rows of floats (leaf points, matrices) are printed by one
    # `%`-format of their values: the bytes of format(v, ".17g") value by value
    bits = np.random.default_rng(5).integers(0, 2**64, 3000, dtype=np.uint64)
    finite = [float(v) for v in bits.view(np.float64) if np.isfinite(v)]
    special = [(-0.0, 5e-324, 1e22), [1 / 3, np.float64(-2.5e-8), 1.0]]
    points = [tuple(finite[i:i + 3]) for i in range(0, len(finite) - 2, 3)]
    for rows in (special, [[], []], points):
        assert _float_rows(rows) is not None
        out = io.StringIO()
        _json_dump({"rows": rows}, out)
        want = ", ".join("[" + ", ".join(format(v, ".17g") for v in row) + "]"
                         for row in rows)
        assert out.getvalue() == '{"rows": [' + want + "]}\n"
    # ragged or mixed rows are printed element by element
    other = {"ragged": [(1.0, 2.0), (3.0,)], "int": [(0.5, 2), (1.5, 3.0)],
             "bool": [[1.0, True]], "none": [(1.5, None)], "nested": [[(1.0,)]],
             "text": [[0.5], "ab"]}
    assert all(_float_rows(v) is None for v in other.values())
    out = io.StringIO()
    _json_dump(other, out)
    assert out.getvalue() == (
        '{"ragged": [[1, 2], [3]], "int": [[0.5, 2], [1.5, 3]], "bool": [[1, true]], '
        '"none": [[1.5, null]], "nested": [[[1]]], "text": [[0.5], "ab"]}\n')


@pytest.mark.parametrize("value", [float("nan"), float("inf"), [1.0, float("-inf")],
                                   [[1.0, 2.0], [3.0, 4.0], [5.0, float("nan")]]])
def test_json_non_finite_is_a_numeric_failure(value):
    with pytest.raises(DomainError, match="non-finite value in the JSON output"):
        _json_dump({"value": value}, io.StringIO())


def test_cli_start_up_does_not_import_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["sdgeom"].__file__)))
    script = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "import sdgeom.cli\n"
        "from sdgeom.connections import holonomy_log\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert sdgeom.cli.run(['--help']) == 0\n"
        "print('scipy' in sys.modules)\n"
        "holonomy_log(np.diag([2.0, 3.0, 0.5]))\n"
        "print('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


# each command's exit code, output and the heavy modules loaded after it, in
# a fresh interpreter that runs the argument lists of argv[1] in turn
IMPORT_SET = """\
import contextlib, io, json, sys
import sdgeom.cli
heavy = ("numpy", "scipy", "sdgeom.distributions", "sdgeom.connections")
results = [[None, "", [m for m in heavy if m in sys.modules]]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sdgeom.cli.run(argv)
    results.append([code, out.getvalue(), [m for m in heavy if m in sys.modules]])
print(json.dumps(results))
"""


def test_form_commands_start_without_numpy(files):
    # `import sdgeom.cli`, --help, and d, wedge and eval load neither numpy
    # nor the check modules, also on a file that declares a distribution; a
    # check loads them after
    json_flag = ["--format", "json"]
    forms = ["--file", files["forms_only"]]
    contact = ["--file", files["contact"]]
    check = ["check-involutive", *contact, "--dist", "D", "--box=-1..1"]
    commands = [["--help"],
                ["d", *forms, "--form", "a", "--at", "0,2,0", *json_flag],
                # a file that declares a distribution and a patch, unused
                ["d", *contact, "--form", "w", "--at", "0,2,0"],
                ["wedge", *contact, "--forms", "w,w", "--at", "1,2,3", *json_flag],
                ["eval", *contact, "--form", "w", "--at", "0,1,0", "--vectors", "1,2,3"],
                ["wedge", *forms, "--forms", "a,b", "--at", "1,2,3", *json_flag],
                ["eval", *forms, "--form", "a", "--at", "1,2,3", "--vectors", "1,0,0",
                 *json_flag],
                ["eval", *forms, "--form", "c", "--at", "1,2,3",
                 "--vectors", "1,0,0;0,1,1", *json_flag],
                check]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["sdgeom"].__file__)))
    done = subprocess.run([sys.executable, "-c", IMPORT_SET, json.dumps(commands)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert results[0] == [None, "", []]
    for argv, (code, out, loaded) in zip(commands, results[1:-1]):
        assert (code, loaded) == (EXIT_OK, []), argv
        if argv != ["--help"]:
            assert out == invoke(argv)[1], argv
    code, out, loaded = results[-1]
    assert code == EXIT_FALSE and (code, out) == invoke(check)[:2]
    assert out.startswith("combinatorial: non-involutive")
    assert loaded == ["numpy", "sdgeom.distributions"]


# -- argparse's text ---------------------------------------------------------------

# help, usage errors and their exit codes, written by the parser of all nine
# commands on Python 3.11 at 80 columns
CLI_TEXT = json.loads((Path(__file__).parent / "cli_text.json").read_text())


def argparse_text(parse, argv):
    """Exit code, stdout and stderr of `parse(argv)`, which exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's wording differs between Python versions")
@pytest.mark.parametrize("case", CLI_TEXT, ids=lambda case: " ".join(case["argv"]) or "none")
def test_cli_text_is_unchanged(case, monkeypatch):
    # the top-level usage lists every command, and an unknown command is an
    # invalid choice of "argument command", also where one parser is built
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(case["argv"])
    assert (code, out.getvalue(), err.getvalue()) == (case["exit"], case["stdout"],
                                                      case["stderr"])


@pytest.mark.parametrize("argv", [case["argv"] for case in CLI_TEXT
                                  if case["argv"] and case["argv"][0] in COMMANDS],
                         ids=" ".join)
def test_one_command_parser_writes_the_text_of_all(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser(argv)
    (sub,) = parser._subparsers._group_actions
    assert list(sub.choices) == [argv[0]]
    assert (argparse_text(parser.parse_args, argv)
            == argparse_text(build_parser().parse_args, argv))


# -- determinism ------------------------------------------------------------------

def test_byte_identical_under_fixed_seed(files):
    argv = ["check-involutive", "--file", files["contact"], "--dist", "D",
            "--box=-1..1", "--seed", "11", "--samples", "9",
            "--format", "json"]
    runs = [invoke(argv) for _ in range(3)]
    assert all(r == runs[0] for r in runs)


def test_wedge_reports_ratio(files):
    code, out, _ = invoke(["wedge", "--file", files["flat"], "--forms", "w,w",
                           "--at", "0,0,7"])
    assert code == EXIT_OK


# -- d and wedge exit 1 where the comparison theorem fails ------------------------

@pytest.mark.parametrize("wrong", ["scaled", "zero"])
@pytest.mark.parametrize("command, name, argv", [
    ("d", "d_classical", ["--file", "contact", "--form", "w", "--at", "0,2,0"]),
    ("wedge", "wedge_classical", ["--file", "pair", "--forms", "a,b",
                                  "--at", "1,2,3;0.5,-1,0"]),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compare_exit_code_follows_the_oracle(files, monkeypatch, command, name,
                                              argv, wrong, fmt):
    argv = [command] + [files.get(a, a) for a in argv] + ["--format", fmt]
    code, agreeing, _ = invoke(argv)
    assert code == EXIT_OK
    oracle = getattr(fm, name)

    def wrong_oracle(*forms):
        right = oracle(*forms)
        if wrong == "scaled":
            return right.scale(2.0)
        return fm.ClassicalForm.zero(right.degree, right.n, right.vars)

    monkeypatch.setattr(fm, name, wrong_oracle)
    code, disagreeing, _ = invoke(argv)
    assert code == EXIT_FALSE
    if fmt == "json":  # the same keys, and the entries the text names
        agree, disagree = json.loads(agreeing), json.loads(disagreeing)
        assert disagree.keys() == agree.keys()
        assert not any("failing" in at for at in agree.values())
        text = invoke(argv[:-2])[1].splitlines()
        named = [line[3:line.index("]")] for line in text if "FAILS" in line]
        failing = [at["failing"] for at in disagree.values() if "failing" in at]
        assert all(failing) and named and named == sum(failing, [])
    else:  # the same report, and a line per failing entry
        failing = [line for line in disagreeing.splitlines() if "FAILS" in line]
        assert failing and all(line.startswith("  [d") for line in failing)
        kept = [line for line in disagreeing.splitlines() if "FAILS" not in line]
        assert len(kept) == len(agreeing.splitlines())


def test_compare_fails_on_a_nonzero_entry_where_the_classical_one_is_zero(
        files, monkeypatch):
    # the classical d of dz - y*dx is dx^dy alone; dropping it leaves a
    # classical side of zero at [dx dy], and no ratio to measure
    monkeypatch.setattr(fm, "d_classical",
                        lambda form: fm.ClassicalForm.zero(2, 3, form.vars))
    code, out, _ = invoke(["d", "--file", files["contact"], "--form", "w",
                           "--at", "0,2,0"])
    assert code == EXIT_FALSE
    assert "measured ratio: n/a (zero form)" in out
    assert "  [dx dy] FAILS: combinatorial is not 0.5 x classical to within 1.0000000000000001e-09" in out
    assert "[dx dz] FAILS" not in out


def test_wedge_of_a_zero_form_is_its_product(tmp_path):
    # 0!1!/1! = 1: f a = x^2 y dy + x y dz
    path = tmp_path / "forms.sdg"
    path.write_text("dim 3\nvar x y z\nform f = x*y\nform a = x*dy + dz\n")
    code, out, _ = invoke(["wedge", "--file", str(path), "--forms", "f,a",
                           "--at", "1,2,3", "--format", "json"])
    assert code == EXIT_OK
    entry = json.loads(out)["at 1,2,3"]
    assert entry["classical"] == {"1": 0.0, "2": 2.0, "3": 2.0}
    assert entry["combinatorial"] == pytest.approx(entry["classical"], abs=1e-12)
    assert entry["ratio"] == pytest.approx(1.0)


def test_wedge_of_a_two_form_compares_with_its_own_constant(tmp_path):
    # 1!2!/3! = 1/3 for a 1-form and a 2-form
    path = tmp_path / "forms.sdg"
    path.write_text("dim 3\nvar x y z\nform a = x*dy + dz\nform b = y*dx ^ dz\n")
    code, out, _ = invoke(["wedge", "--file", str(path), "--forms", "a,b",
                           "--at", "1,2,3", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["at 1,2,3"]["ratio"] == pytest.approx(1 / 3)


def test_compare_tolerance_scales_with_the_classical_coefficients(tmp_path, monkeypatch):
    # the wedge's dx^dy^dz coefficient is ~1e16 at (0.3, -0.7, 0.2): it
    # agrees to within the default tol 1e-9 scaled by its size, not absolutely
    path = tmp_path / "big.sdg"
    path.write_text("dim 3\nvar x y z\n"
                    "form w = (123456789.123*x*y + 98765.4321*sin(z))*dz + 3e7*x*z*z*dy\n"
                    "form c = (1.234e9*x*y*y)*dx ^ dz + 7.77e8*exp(z)*dy ^ dz"
                    " + 5.5e8*cos(x)*dx ^ dy\n")
    argv = ["wedge", "--file", str(path), "--forms", "w,c", "--at", "0.3,-0.7,0.2"]
    code, out, _ = invoke(argv)
    assert (code, "FAILS" in out) == (EXIT_OK, False)
    forms = parse_file(str(path)).forms
    theta = fm.wedge_comb(fm.to_combinatorial(forms["w"]), fm.to_combinatorial(forms["c"]))
    comb, oracle, _ = fm.comparison(theta, fm.wedge_classical(forms["w"], forms["c"]),
                                    Point((0.3, -0.7, 0.2)))
    assert abs(comb[(1, 2, 3)] - (2 / 6) * oracle[(1, 2, 3)]) > 1e-9  # not absolutely
    wedge = fm.wedge_classical
    monkeypatch.setattr(fm, "wedge_classical", lambda a, b: wedge(a, b).scale(1 + 1e-6))
    assert invoke(argv)[0] == EXIT_FALSE
