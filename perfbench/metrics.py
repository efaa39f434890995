"""Turn worker results into the benchmark's metrics.

End-to-end metrics come from untraced runs; per-layer metrics from the
aggregates of a traced run (see ``tracer``).  Every metric a run reports is
named in ``BENCHMARK.json``, which also gives its unit.
"""

import statistics

import calib
from gen import COMMANDS

# Fixed per workload, so that two versions of the program compare the same
# percentile.  Each is the highest of 99/95/75 that leaves at least ten
# samples beyond it at this program's speed; the worker runs at least
# MIN_OPS ops unless that would take more than twice the run length.
TAIL_PERCENTILE = {"forms_dense": 99, "checks_sparse": 95, "cli_session": 75}
MIN_OPS = {w: round(10 / (1 - p / 100)) for w, p in TAIL_PERCENTILE.items()}

LAYERS = ("nil", "expr", "chart", "forms", "distributions", "connections",
          "program", "cli")
CONTEXTS = ("W2-2", "W2-3", "W2-4", "W3-3", "W2-6", "W3-6", "W4-6", "W2-8",
            "W3-8", "W4-8")
CHECKS = ("involutive_comb", "involutive_classical", "pointwise_span",
          "integral_patch", "semi_annihilation")


def percentile(values, q):
    """Linear-interpolation percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, setups, result):
    """Values of the end-to-end metrics, plus notes for the report.

    ``setups`` holds ``(seconds, probe at start, probe at end)`` per set-up.
    Every timing is scaled to the reference host speed by the probes around
    it (see ``calib``); the notes give the raw wall times.
    """
    raw, probes = result["latencies"], result["probes"]
    lat = [calib.scaled(t, probes[k], probes[k + 1]) for k, t in enumerate(raw)]
    per_pass, k = [], 0
    for n, _ in result["passes"]:
        per_pass.append(n / sum(lat[k:k + n]))
        k += n
    setup = [calib.scaled(*s) for s in setups]
    q = TAIL_PERCENTILE[workload]
    values = {
        "setup_s": statistics.median(setup),
        "throughput_ops_per_s": statistics.median(per_pass),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * percentile(lat, q),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }
    beyond = sum(1 for v in lat if v > percentile(lat, q))
    wall = " at reference host speed; wall"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, range {min(setup):.3f}..{max(setup):.3f} s"
                   f"{wall} median {statistics.median(t for t, _, _ in setups):.4g} s",
        "throughput_ops_per_s": f"median over {len(per_pass)} passes, {len(lat)} ops{wall} "
                                f"{statistics.median(n / t for n, t in result['passes']):.4g}"
                                " ops/s with the probes",
        "latency_p50_ms": f"n={len(lat)}{wall} {1e3 * statistics.median(raw):.4g} ms",
        "latency_tail_ms": f"p{q}, n={len(lat)}, {beyond} beyond{wall} "
                           f"{1e3 * percentile(raw, q):.4g} ms",
        "peak_rss_mb": "workload interpreter",
    }
    return values, notes


def per_layer(t, extra):
    """Per-layer metric values from merged tracer aggregates ``t``.

    ``extra`` supplies the metrics measured outside the tracer: the CLI
    start-up and command times, the CLI error count and the overhead ratio.
    """
    agg, c, errors = t["agg"], t["counters"], t["errors"]

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    visited = c.get("samples_visited", 0)
    check_s = sum(total(f"distributions.{k}") for k in CHECKS)
    chart = ("chart.NilPoint", "chart.affine_combination", "chart.log_pair")
    m = {
        "nil.mul_calls": calls("nil.mul"),
        "nil.mul_self_s": self_s("nil.mul"),
        "nil.term_pairs": c.get("term_pairs", 0),
        "nil.term_yield": ratio(c.get("terms_out", 0), c.get("term_pairs", 0)),
        "nil.lift_smooth_calls": calls("nil.lift_smooth"),
        "nil.lift_smooth_self_s": self_s("nil.lift_smooth"),
        "nil.morphism_calls": calls("nil.morphism"),
        "expr.evaluate_w_calls": calls("expr.evaluate_w"),
        "expr.evaluate_w_self_s": self_s("expr.evaluate_w"),
        "expr.evaluate_float_calls": calls("expr.evaluate_float"),
        "expr.evaluate_float_self_s": self_s("expr.evaluate_float"),
        "expr.diff_calls": calls("expr.diff"),
        "expr.diff_unique_ratio": ratio(c.get("diff_unique", 0), calls("expr.diff")),
        "expr.compile_numeric_calls": calls("expr.compile_numeric"),
        "expr.compile_numeric_s": total("expr.compile_numeric"),
        "chart.calls": sum(calls(n) for n in chart),
        "chart.self_s": sum(self_s(n) for n in chart),
        "forms.comb_eval_self_s": self_s("forms.comb_eval"),
        "forms.extract_classical_calls": calls("forms.extract_classical"),
        "forms.extract_classical_s": total("forms.extract_classical"),
        "forms.classical_oracle_s": total("forms.classical_oracle"),
        "distributions.samples_checked": visited,
        "distributions.samples_per_s": ratio(visited, check_s),
        "distributions.basis_at_per_sample": ratio(c.get("basis_at_in_checks", 0), visited),
        "distributions.kernel_matrix_per_sample": ratio(
            c.get("kernel_matrix_in_checks", 0), visited),
        "distributions.sample_visit_ratio": ratio(visited, c.get("samples_requested", 0)),
        "distributions.trace_leaf_s": total("distributions.trace_leaf"),
        "distributions.leaf_steps": c.get("leaf_steps", 0),
        "connections.curvature_coboundary_s": total("connections.curvature_coboundary"),
        "connections.curvature_oracle_s": total("connections.curvature_oracle"),
        "connections.parallel_transport_s": total("connections.parallel_transport"),
        "connections.rk4_steps": c.get("rk4_steps", 0),
        "connections.rk4_steps_per_s": ratio(c.get("rk4_steps", 0),
                                             total("connections.parallel_transport")),
        "connections.holonomy_log_s": total("connections.holonomy_log"),
        "connections.lie_closure_s": total("connections.lie_closure"),
        "connections.ambrose_singer_s": total("connections.ambrose_singer"),
        "program.parse_calls": calls("program.parse"),
        "program.parse_s": total("program.parse"),
    }
    for k in CHECKS:
        m[f"distributions.{k}_s"] = total(f"distributions.{k}")
    for ctx in CONTEXTS:
        m[f"nil.peak_terms.{ctx}"] = t["peak_terms"].get(ctx, 0)
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors.get(layer, 0)
    # measured outside the tracer, and only where the workload runs the CLI
    for key in ("cli.startup_s", "cli.import_s", "cli.import_scipy_s",
                *(f"cli.command_s.{c}" for c in COMMANDS)):
        m[key] = 0.0
    m.update(extra)
    return m
