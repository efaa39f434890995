"""In-process executor for the forms_dense and checks_sparse ops.

Every op reaches ``sdgeom`` only through public functions and ends in an
oracle check; an op that raises or disagrees with its oracle fails.
"""

import math

import numpy as np

from sdgeom import connections as cn
from sdgeom import distributions as ds
from sdgeom import forms as fm
from sdgeom import program, sampling
from sdgeom.chart import Point

from oracles import (TOL, check_curvature, check_ratio, check_vanishes,
                     check_verdict, OracleError)


def _verdict(result):
    """Verdict of a check: some return ``(per_point, aggregate)``."""
    if isinstance(result, tuple):
        return bool(result[1])
    return bool(result)


class Runner:
    """Parsed inputs of one workload, and the op executor for them."""

    def __init__(self, sources, ops):
        self.programs = {name: program.parse(text) for name, text in sources.items()}
        self.samples = {}
        for i, op in enumerate(ops):
            if "batch" not in op:
                continue
            prog = self.programs[op["file"]]
            if op["op"] == "integral_patch":
                q = prog.patches[op["extra"][0]].q
                pts = sampling.sample_box([(-1.0, 1.0)] * q, op["batch"], op["sample_seed"])
                self.samples[i] = [tuple(p.coords) for p in pts]
            else:
                self.samples[i] = sampling.sample_box(
                    [(-1.0, 1.0)] * prog.dim, op["batch"], op["sample_seed"])

    def run(self, i, op):
        return getattr(self, "_" + op["op"])(op, self.programs[op["file"]],
                                             self.samples.get(i))

    # forms_dense: one comparison at one base point
    def _compare(self, op, prog, ratio, theta, classical):
        base = Point(op["point"])
        comb = fm.extract_classical(theta, base, tol=TOL)
        check_ratio(comb, classical.coeffs_at(base.coords), ratio)
        generic = fm.eval_generic(theta, base)
        check_vanishes(generic.identify_rows(1, 2).max_abs_coeff(),
                       generic.max_abs_coeff())

    def _d(self, op, prog, _samples):
        form = prog.forms[op["forms"][0]]
        self._compare(op, prog, 1.0 / (form.degree + 1),
                      fm.d_comb(fm.to_combinatorial(form)), fm.d_classical(form))

    def _wedge(self, op, prog, _samples):
        a, b = (prog.forms[name] for name in op["forms"])
        ratio = (math.factorial(a.degree) * math.factorial(b.degree)
                 / math.factorial(a.degree + b.degree))
        self._compare(op, prog, ratio,
                      fm.wedge_comb(fm.to_combinatorial(a), fm.to_combinatorial(b)),
                      fm.wedge_classical(a, b))

    # checks_sparse: one check call over a batch of sample points
    def _involutive_kernel(self, op, prog, samples):
        dist = prog.dists[op["entity"]]
        check_verdict("combinatorial", _verdict(
            ds.check_involutive_combinatorial(dist, samples)), op["expect"])
        check_verdict("classical", _verdict(
            ds.check_involutive_classical(dist, samples)), op["expect"])

    def _involutive_span(self, op, prog, samples):
        dist = prog.dists[op["entity"]]
        check_verdict("pointwise", _verdict(
            ds.pointwise_involutive_span(dist, samples)), op["expect"])
        check_verdict("classical", _verdict(
            ds.check_involutive_classical(dist, samples)), op["expect"])

    def _integral_patch(self, op, prog, samples):
        patch, mode = op["extra"]
        check_verdict(f"{mode} integral", _verdict(ds.check_integral_patch(
            prog.dists[op["entity"]], prog.patches[patch], mode, samples)),
            op["expect"])

    def _semi_annihilation(self, op, prog, samples):
        theta = fm.d_comb(fm.to_combinatorial(prog.forms[op["extra"]]))
        result = ds.semi_annihilation_check(
            prog.dists[op["entity"]], theta, samples,
            rng=np.random.default_rng(op["sample_seed"]))
        check_verdict("semi-annihilation", _verdict(result), op["expect"])

    def _curvature(self, op, prog, samples):
        conn = prog.conns[op["entity"]]
        nonzero = False
        for p in samples:
            classical = cn.curvature_classical_oracle(conn, p)
            check_curvature(cn.curvature_coboundary(conn, p), classical)
            nonzero |= any(abs(v) > 1e-6 for F in classical.values() for v in F.flat)
        if not nonzero:
            raise OracleError("vacuous comparison: curvature is zero")
