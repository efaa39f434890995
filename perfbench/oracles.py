"""Oracles for the ops that ``gen`` describes.

An op that raises or disagrees with its oracle is a failed op.  The oracles
take plain results (numbers, dicts, decoded CLI output), so a test can feed
them a perturbed result and see it rejected.
"""

import json
import math

from gen import LEAF_STEPS

TOL = 1e-9


class OracleError(Exception):
    """A result disagrees with its oracle."""


def _require(cond, message):
    if not cond:
        raise OracleError(message)


def check_ratio(comb, classical, ratio, tol=TOL):
    """Extracted combinatorial coefficients equal ``ratio`` times the
    classical ones, componentwise; the classical side must not be zero."""
    _require(any(abs(v) > 1e-6 for v in classical.values()),
             "vacuous comparison: classical side is zero")
    for T in set(comb) | set(classical):
        c, v = comb.get(T, 0.0), classical.get(T, 0.0)
        _require(math.isfinite(c) and abs(c - ratio * v) <= tol * max(1.0, abs(v)),
                 f"component {T}: combinatorial {c!r} != {ratio!r} * {v!r}")


def check_vanishes(value, scale, tol=TOL):
    """A W element (given by its largest coefficient) vanishes."""
    _require(value <= tol * max(1.0, scale),
             f"degenerate value {value!r} does not vanish")


def check_verdict(name, got, expect):
    _require(got is expect, f"{name}: verdict {got!r}, expected {expect!r}")


def check_curvature(cob, classical, tol=TOL):
    """Coboundary curvature equals 0.5 x the classical gauge curvature."""
    _require(set(cob) == set(classical), "curvature components differ")
    for key, F in classical.items():
        for row_c, row_f in zip(cob[key], F):
            for c, f in zip(row_c, row_f):
                _require(abs(c - 0.5 * f) <= tol * max(1.0, abs(f)),
                         f"curvature {key}: {c!r} != 0.5 * {f!r}")


def _angle_residual(angle, want):
    return abs((angle - want + math.pi) % (2.0 * math.pi) - math.pi)


def check_cli(op, code, stdout):
    """Exit code and JSON output of one CLI command against its oracle."""
    _require(code == op["expect_exit"],
             f"{op['op']}: exit {code}, expected {op['expect_exit']}")
    try:
        out = json.loads(stdout)
    except ValueError as err:
        raise OracleError(f"{op['op']}: output is not JSON ({err})") from None
    command = op["op"]
    if command == "d":
        (entry,) = out.values()
        _require(abs(entry["ratio"] - 0.5) <= TOL, f"d: ratio {entry['ratio']!r}")
        check_ratio(entry["combinatorial"], entry["classical"], 0.5)
    elif command == "check-involutive":
        _require(out["combinatorial"] is False and out["classical"] is False
                 and out["agree"] is True, f"check-involutive: {out}")
    elif command == "check-integral":
        _require(out["integral"] is False and out["mode"] == "weak",
                 f"check-integral: {out}")
    elif command == "curvature":
        (entry,) = out.values()
        _require(entry, "curvature: no components")
        check_curvature({k: v["coboundary"] for k, v in entry.items()},
                        {k: v["classical"] for k, v in entry.items()})
    elif command == "holonomy":
        # rot.sdg has curvature J, so the log angle is minus the enclosed
        # area, mod 2 pi, around the circle "circle cx,cy,r"
        radius = float(op["argv"][op["argv"].index("--loop") + 1].split(",")[-1])
        area = math.pi * radius ** 2
        log = out["loop0_log"]
        _require(log is not None, "holonomy: no principal log")
        _require(_angle_residual(log[1][0], -area) <= 1e-3,
                 f"holonomy: log angle {log[1][0]!r}, expected {-area!r} mod 2 pi")
    elif command == "ambrose-singer":
        _require(out["inclusion"] is True and out["dim_h"] == 1
                 and out["max_residual"] <= 1e-6, f"ambrose-singer: {out}")
    elif command == "leaf":
        check_leaf(out["points"], op)
    else:
        raise OracleError(f"no oracle for command {command!r}")


def check_leaf(points, op, tol=1e-6):
    """The leaf of span(d/dx + g_x d/dz, d/dy + g_y d/dz) lies on a
    translate of the graph of g: z - g(x, y) stays constant."""
    _require(len(points) == LEAF_STEPS + 1, f"leaf: {len(points)} points")
    _require(points[0] == op["start"], "leaf: wrong start point")
    a, b, c = op["graph"]

    def level(x, y, z):
        return z - (a * x * y + b * math.sin(x) + c * y ** 3)

    want = level(*points[0])
    worst = max(abs(level(*p) - want) for p in points)
    _require(math.isfinite(worst) and worst <= tol,
             f"leaf: left its level set by {worst!r}")
    moved = math.dist(points[0][:2], points[-1][:2])
    _require(moved > 1.0, f"leaf: moved only {moved!r}")
