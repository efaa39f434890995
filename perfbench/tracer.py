"""In-memory span tracer that wraps sdgeom's public functions from outside.

``Tracer.install()`` replaces each traced function, in every ``sdgeom``
module that binds it, with a wrapper that records a span.  A span's self
time is its duration minus the time its child spans cover.  Hot, fine-grained
spans (W products, expression evaluation, per-sample helpers) are folded into
per-name aggregates as they close; coarser spans are also kept in memory with
their start, end, parent and op id, and ``write`` puts them in a file.

Targets that a later version of the program no longer has are skipped and
listed in ``Tracer.missing``; their metrics then read 0.
"""

import importlib
import json
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

# (module, object, attribute, span name, layer, keep the span in memory)
_TARGETS = [
    ("nil", "NilElement", "__mul__", "nil.mul", "nil", False),
    ("nil", "NilElement", "__rmul__", "nil.mul", "nil", False),
    ("nil", None, "lift_smooth", "nil.lift_smooth", "nil", False),
    ("nil", "NilElement", "identify_rows", "nil.morphism", "nil", False),
    ("nil", "NilElement", "permute_rows", "nil.morphism", "nil", False),
    ("nil", "NilElement", "zero_row", "nil.morphism", "nil", False),
    ("nil", "NilElement", "substitute_rows", "nil.morphism", "nil", False),
    ("expr", None, "evaluate", "expr.evaluate", "expr", False),
    ("expr", None, "diff", "expr.diff", "expr", False),
    ("expr", None, "compile_numeric", "expr.compile_numeric", "expr", False),
    ("chart", "NilPoint", "__init__", "chart.NilPoint", "chart", False),
    ("chart", None, "affine_combination", "chart.affine_combination", "chart", False),
    ("chart", None, "log_pair", "chart.log_pair", "chart", False),
    ("forms", "CombinatorialForm", "__call__", "forms.comb_eval", "forms", True),
    ("forms", None, "extract_classical", "forms.extract_classical", "forms", True),
    ("forms", None, "eval_generic", "forms.eval_generic", "forms", True),
    ("forms", None, "d_classical", "forms.classical_oracle", "forms", True),
    ("forms", None, "wedge_classical", "forms.classical_oracle", "forms", True),
    ("distributions", None, "check_involutive_combinatorial",
     "distributions.involutive_comb", "distributions", True),
    ("distributions", None, "check_involutive_classical",
     "distributions.involutive_classical", "distributions", True),
    ("distributions", None, "pointwise_involutive_span",
     "distributions.pointwise_span", "distributions", True),
    ("distributions", None, "check_integral_patch",
     "distributions.integral_patch", "distributions", True),
    ("distributions", None, "semi_annihilation_check",
     "distributions.semi_annihilation", "distributions", True),
    ("distributions", None, "trace_leaf", "distributions.trace_leaf", "distributions", True),
    ("distributions", "Distribution", "basis_at", "distributions.basis_at",
     "distributions", False),
    ("distributions", "Distribution", "kernel_matrix", "distributions.kernel_matrix",
     "distributions", False),
    ("distributions", "Distribution", "span_matrix", "distributions.span_matrix",
     "distributions", False),
    ("distributions", "IntegralPatch", "point_at", "distributions.point_at",
     "distributions", False),
    ("distributions", "IntegralPatch", "jacobian_at", "distributions.jacobian_at",
     "distributions", False),
    ("connections", None, "curvature_coboundary", "connections.curvature_coboundary",
     "connections", True),
    ("connections", None, "curvature_classical_oracle", "connections.curvature_oracle",
     "connections", True),
    ("connections", None, "parallel_transport", "connections.parallel_transport",
     "connections", True),
    ("connections", None, "holonomy_log", "connections.holonomy_log", "connections", True),
    ("connections", None, "lie_closure", "connections.lie_closure", "connections", True),
    ("connections", None, "ambrose_singer_check", "connections.ambrose_singer",
     "connections", True),
    ("program", None, "parse", "program.parse", "program", True),
]

# check span -> position of its sample list among the positional arguments
_CHECK_SAMPLES = {
    "distributions.involutive_comb": 1,
    "distributions.involutive_classical": 1,
    "distributions.pointwise_span": 1,
    "distributions.integral_patch": 3,
    "distributions.semi_annihilation": 2,
}
# helper span -> it marks the sample point or parameter it is given as visited
_SAMPLE_MARKERS = {"distributions.basis_at", "distributions.kernel_matrix",
                   "distributions.span_matrix", "distributions.point_at",
                   "distributions.jacobian_at"}


def _coords(x):
    return tuple(getattr(x, "coords", x))


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.frames = []     # open spans: [start, child time, layer, kept index]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counters = defaultdict(float)
        self.errors = defaultdict(int)
        self.peak_terms = {}
        self.spans = []      # kept spans: (name, start, end, parent, op)
        self.op = -1
        self.missing = []
        self._diff_keys = set()
        self._diff_keep = []
        self._check = None   # (requested, visited) of the check in progress
        self._op_checks = self._op_visited = 0
        self._in_eval = self._in_diff = self._in_parse = False

    # -- span bookkeeping ------------------------------------------------------

    def _call(self, name, layer, keep, fn, args, kwargs):
        frames = self.frames
        parent = frames[-1][3] if frames else -1
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        frame = [_perf(), 0.0, layer, index if keep else parent]
        frames.append(frame)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            # count an exception once per layer boundary it crosses
            if len(frames) < 2 or frames[-2][2] != layer:
                self.errors[layer] += 1
            raise
        finally:
            end = _perf()
            frames.pop()
            dur = end - frame[0]
            rec = self.agg[name]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]
            if frames:
                frames[-1][1] += dur
            if keep:
                self.spans[index] = (name, frame[0], end, parent, self.op)

    def run_op(self, op_id, label, fn, *args):
        """Call ``fn(*args)`` as the root span of op ``op_id``."""
        self.op = op_id
        self._op_checks = self._op_visited = 0
        try:
            return self._call(f"op.{label}", "bench", True, fn, args, {})
        finally:
            if self._op_checks and not self._op_visited:
                self.counters["ops_visiting_nothing"] += 1

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name, layer, keep, fn):
        special = getattr(self, "_wrap_" + name.replace(".", "_"), None)
        if special is not None:
            return special(name, layer, keep, fn)
        if name in _CHECK_SAMPLES:
            return self._wrap_check(name, layer, keep, fn)
        if name in _SAMPLE_MARKERS:
            return self._wrap_marker(name, layer, keep, fn)
        call = self._call

        def wrapper(*args, **kwargs):
            return call(name, layer, keep, fn, args, kwargs)
        return wrapper

    def _wrap_nil_mul(self, name, layer, keep, fn):
        call, counters, peak = self._call, self.counters, self.peak_terms
        nil_type = None

        def wrapper(a, b):
            nonlocal nil_type
            if nil_type is None:
                nil_type = type(a)
            if type(b) is not nil_type:   # scalar products are not W products
                return fn(a, b)
            out = call(name, layer, keep, fn, (a, b), {})
            ta, tb, to = (getattr(x, "terms", None) for x in (a, b, out))
            if ta is not None and to is not None:
                counters["term_pairs"] += len(ta) * len(tb)
                counters["terms_out"] += len(to)
                ctx = f"W{a.k}-{a.n}"
                peak[ctx] = max(peak.get(ctx, 0), len(ta), len(tb), len(to))
            return out
        return wrapper

    def _wrap_expr_evaluate(self, name, layer, keep, fn):
        tracer, call = self, self._call

        def wrapper(e, env):
            if tracer._in_eval:
                return fn(e, env)
            values = tuple(env.values())
            w_valued = any(not isinstance(v, (int, float)) for v in values)
            if not w_valued and tracer._check is not None:
                tracer._mark(values)
            tracer._in_eval = True
            try:
                return call(name + ("_w" if w_valued else "_float"), layer, keep,
                            fn, (e, env), {})
            finally:
                tracer._in_eval = False
        return wrapper

    def _wrap_expr_diff(self, name, layer, keep, fn):
        tracer, call = self, self._call

        def wrapper(e, var):
            if tracer._in_diff:
                return fn(e, var)
            key = (id(e), var)
            if key not in tracer._diff_keys:
                tracer._diff_keys.add(key)
                tracer._diff_keep.append(e)   # keeps id(e) unique
            tracer._in_diff = True
            try:
                return call(name, layer, keep, fn, (e, var), {})
            finally:
                tracer._in_diff = False
        return wrapper

    def _wrap_program_parse(self, name, layer, keep, fn):
        tracer, call = self, self._call

        def wrapper(*args, **kwargs):
            tracer._in_parse = True
            try:
                return call(name, layer, keep, fn, args, kwargs)
            finally:
                tracer._in_parse = False
        return wrapper

    def _wrap_forms_classical_oracle(self, name, layer, keep, fn):
        # the parser builds wedges with wedge_classical; that is not oracle work
        tracer, call = self, self._call

        def wrapper(*args, **kwargs):
            if tracer._in_parse:
                return fn(*args, **kwargs)
            return call(name, layer, keep, fn, args, kwargs)
        return wrapper

    def _wrap_connections_parallel_transport(self, name, layer, keep, fn):
        counters, call = self.counters, self._call

        def wrapper(conn, curve, t0, t1, steps, *args, **kwargs):
            counters["rk4_steps"] += steps
            return call(name, layer, keep, fn, (conn, curve, t0, t1, steps) + args, kwargs)
        return wrapper

    def _wrap_distributions_trace_leaf(self, name, layer, keep, fn):
        counters, call = self.counters, self._call

        def wrapper(dist, start, steps, *args, **kwargs):
            counters["leaf_steps"] += steps
            return call(name, layer, keep, fn, (dist, start, steps) + args, kwargs)
        return wrapper

    def _wrap_check(self, name, layer, keep, fn):
        tracer, counters, call = self, self.counters, self._call
        position = _CHECK_SAMPLES[name]

        def wrapper(*args, **kwargs):
            requested = {_coords(s) for s in args[position]}
            outer = tracer._check
            tracer._check = (requested, set())
            try:
                return call(name, layer, keep, fn, args, kwargs)
            finally:
                visited = tracer._check[1]
                tracer._check = outer
                counters["samples_requested"] += len(args[position])
                counters["samples_visited"] += len(visited)
                tracer._op_checks += 1
                tracer._op_visited += len(visited)
        return wrapper

    def _wrap_marker(self, name, layer, keep, fn):
        tracer, counters, call = self, self.counters, self._call
        counter = name.split(".")[1] + "_in_checks"

        def wrapper(obj, point, *args, **kwargs):
            if tracer._check is not None:
                counters[counter] += 1
                tracer._mark(_coords(point))
            return call(name, layer, keep, fn, (obj, point) + args, kwargs)
        return wrapper

    def _mark(self, coords):
        requested, visited = self._check
        if coords in requested:
            visited.add(coords)

    # -- installation and output -------------------------------------------------

    def install(self):
        """Wrap every target in every loaded sdgeom module; returns self."""
        for module_name, owner, attr, name, layer, keep in _TARGETS:
            try:
                module = importlib.import_module(f"sdgeom.{module_name}")
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if owner is not None:
                cls = getattr(module, owner, None)
                fn = None if cls is None else cls.__dict__.get(attr)
                if fn is None:
                    self.missing.append(f"{module_name}.{owner}.{attr}")
                    continue
                setattr(cls, attr, self._wrap(name, layer, keep, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, layer, keep, fn)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name == "sdgeom" or loaded_name.startswith("sdgeom."):
                    for key, value in list(vars(loaded).items()):
                        if value is fn:
                            setattr(loaded, key, wrapper)
        return self

    def export(self):
        """Aggregates as a JSON-able dict (summed across processes by ``merge``)."""
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "counters": dict(self.counters, diff_unique=len(self._diff_keys)),
            "errors": dict(self.errors),
            "peak_terms": dict(self.peak_terms),
            "spans_kept": len(self.spans),
            "missing": list(self.missing),
        }


def write(path, aggregates, spans):
    """Write aggregates and kept spans as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"aggregates": aggregates,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": spans}, fh)


def merge(exports):
    """Sum aggregates of several traced processes; peaks take the maximum."""
    out = {"agg": {}, "counters": defaultdict(float), "errors": defaultdict(int),
           "peak_terms": {}, "spans_kept": 0, "missing": []}
    for e in exports:
        for k, (calls, total, self_s) in e["agg"].items():
            rec = out["agg"].setdefault(k, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for k, v in e["counters"].items():
            out["counters"][k] += v
        for k, v in e["errors"].items():
            out["errors"][k] += v
        for k, v in e["peak_terms"].items():
            out["peak_terms"][k] = max(out["peak_terms"].get(k, 0), v)
        out["spans_kept"] += e["spans_kept"]
        out["missing"] = sorted(set(out["missing"]) | set(e["missing"]))
    return out
