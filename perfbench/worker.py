"""One workload process: set up, then run the closed loop or trace it.

Usage: ``python perfbench/worker.py WORKLOAD SEED SECONDS MODE WORKDIR``,
with MODE one of ``setup``, ``measure`` or ``trace``.  ``run.py`` launches
it with the checkout's ``src`` first on PYTHONPATH.  It prints one JSON
object on stdout.

The loop is closed with one client: each op starts when the previous one
has finished.  It runs whole passes over the op list, so every run sees the
same mix, until SECONDS have passed and enough ops ran for the tail
percentile (``metrics.MIN_OPS``), or until twice SECONDS have passed: on a
slow host the time limit wins, and the report says how few samples lie
beyond the tail percentile.
"""

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import calib
import gen
import metrics
import oracles
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_TIMEOUT_S = 120
SETUP_SLICES = 3   # calibration slices per probe at the start and end of a set-up
_perf = time.perf_counter


def _import_checkout():
    """Import sdgeom and make sure it is the checkout's copy."""
    import sdgeom  # noqa: PLC0415
    src = (ROOT / "src").resolve()
    if not Path(sdgeom.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sdgeom was imported from {sdgeom.__file__}, not {src}")
    return sdgeom


def _machine(sdgeom):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"
    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "backend": getattr(sdgeom, "BACKEND", "unknown")}


def _ready(sdgeom):
    """The set-up is over: its end, and a host-speed probe taken then."""
    return {"ready": time.monotonic(), "ready_probe": calib.probe(SETUP_SLICES),
            "machine": _machine(sdgeom)}


class Loop:
    """Latencies, passes and failures of a closed loop."""

    def __init__(self):
        self.latencies = []
        self.passes = []     # (ops, seconds) per pass
        self.failed = 0
        self.failures = []
        self.probes = []     # calibration slice times around the ops (calib)

    def attempt(self, fn, *args):
        t0 = _perf()
        try:
            fn(*args)
        except Exception as err:  # noqa: BLE001 - any failure is a failed op
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append("".join(
                    traceback.format_exception_only(type(err), err)).strip())
        self.latencies.append(_perf() - t0)

    def run(self, ops, run_one, seconds, min_ops, calibrate=False):
        """Closed loop over whole passes of ``ops``.  With ``calibrate``, a
        host-speed probe is taken before the first op and after every op,
        so op k lies between probes k and k + 1."""
        if calibrate:
            calib.probe()   # warm-up
            self.probes.append(calib.probe())
        start = _perf()
        while True:
            t_pass = _perf()
            for i, op in enumerate(ops):
                self.attempt(run_one, i, op)
                if calibrate:
                    self.probes.append(calib.probe())
            self.passes.append((len(ops), _perf() - t_pass))
            elapsed = _perf() - start
            if elapsed >= seconds and (len(self.latencies) >= min_ops
                                       or elapsed >= 2 * seconds):
                return

    def result(self):
        return {"latencies": self.latencies, "passes": self.passes, "probes": self.probes,
                "attempted": len(self.latencies), "failed": self.failed,
                "failures": self.failures}


# -- forms_dense and checks_sparse: ops in this process -------------------------

def in_process(workload, seed, seconds, mode, workdir):
    sdgeom = _import_checkout()
    import ops as ops_module  # noqa: PLC0415 - imports sdgeom
    sources, ops = gen.generate(workload, seed)
    runner = ops_module.Runner(sources, ops)
    warm = {}
    for i, op in enumerate(ops):
        if op["ctx"] not in warm or op.get("batch", 0) < ops[warm[op["ctx"]]].get("batch", 0):
            warm[op["ctx"]] = i
    for i in warm.values():   # one untimed op per W context
        runner.run(i, ops[i])
    out = _ready(sdgeom)
    if mode == "setup":
        return out
    loop = Loop()
    if mode == "measure":
        loop.run(ops, runner.run, seconds, metrics.MIN_OPS[workload], calibrate=True)
        out.update(loop.result())
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return out
    loop.run(ops, runner.run, seconds / 2, 1)
    untraced_s = statistics.median(t for _, t in loop.passes)
    tr = tracing.Tracer().install()
    traced = ops_module.Runner(sources, ops)   # parse again, traced
    for i, op in enumerate(ops):
        loop.attempt(tr.run_op, i, op["op"], traced.run, i, op)
    traced_s = sum(loop.latencies[-len(ops):])
    _vacuous_checks(tr.counters, loop)
    out.update(loop.result())
    out["trace"] = tr.export()
    out["extra"] = {"trace.overhead_ratio": traced_s / untraced_s}
    out["trace_file"] = str(workdir.parent / f"trace-{workload}-seed{seed}.json")
    tracing.write(out["trace_file"], tr.export(), tr.spans)
    return out


def _vacuous_checks(counters, loop):
    """An op whose checks visited none of their samples passed vacuously."""
    vacuous = int(counters.get("ops_visiting_nothing", 0))
    if vacuous:
        loop.failed += vacuous
        loop.failures.append(f"{vacuous} ops checked no sample")


# -- cli_session: commands in this interpreter; one subprocess each when traced --

def _cli(op, workdir, trace_out=None):
    if trace_out is None:
        cmd = [sys.executable, "-m", "sdgeom.cli", *op["argv"]]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *op["argv"]]
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=False)
    try:
        oracles.check_cli(op, proc.returncode, proc.stdout)
    except oracles.OracleError as err:
        raise oracles.OracleError(f"{err}; stderr: {proc.stderr.strip()[-300:]}") from None


def _import_scipy_s():
    """Cumulative import time of scipy under ``import sdgeom.cli``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sdgeom.cli"],
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if cumulative.strip().isdigit() and name.strip().startswith("scipy"):
            rows.append((len(name) - len(name.lstrip()), int(cumulative)))
    if not rows:
        return 0.0
    top = min(depth for depth, _ in rows)
    return sum(us for depth, us in rows if depth == top) / 1e6


def _cli_in_process(_i, op):
    """One command through ``sdgeom.cli.run``, in this interpreter."""
    import sdgeom.cli  # noqa: PLC0415 - imported during set-up
    stdout, stderr = io.StringIO(), io.StringIO()
    code = sdgeom.cli.run(op["argv"], stdout=stdout, stderr=stderr)
    try:
        oracles.check_cli(op, code, stdout.getvalue())
    except oracles.OracleError as err:
        raise oracles.OracleError(f"{err}; stderr: {stderr.getvalue().strip()[-300:]}") from None


def cli_session(workload, seed, seconds, mode, workdir):
    sdgeom = _import_checkout()
    import sdgeom.cli  # noqa: PLC0415 - the start-up a CLI user pays
    with contextlib.redirect_stdout(io.StringIO()):
        code = sdgeom.cli.run(["--help"])
    if code != 0:
        raise SystemExit(f"sdg --help exited {code}")
    sources, ops = gen.generate(workload, seed)
    for name, text in sources.items():
        (workdir / name).write_text(text, encoding="utf-8")
    if mode == "measure":
        for i, op in enumerate(ops):   # one untimed run per command
            _cli_in_process(i, op)
    out = _ready(sdgeom)
    if mode == "setup":
        return out
    loop = Loop()
    if mode == "measure":
        # The commands run in this interpreter, each timed between two
        # host-speed probes; the interpreter start-up that a CLI user pays
        # on every command is measured apart, as setup_s (run.py).
        loop.run(ops, _cli_in_process, seconds, metrics.MIN_OPS[workload], calibrate=True)
        out.update(loop.result())
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return out

    def run_one(_i, op):
        _cli(op, workdir)

    loop.run(ops, run_one, seconds / 2, 1)
    n_pass = len(loop.passes)
    untraced_s = statistics.median(t for _, t in loop.passes)
    extra = {}
    for j, op in enumerate(ops):
        times = loop.latencies[j::len(ops)][:n_pass]
        extra[f"cli.command_s.{op['op']}"] = statistics.median(times)
    exports, spans = [], []
    for i, op in enumerate(ops):
        path = workdir / f"child-{i}.json"
        loop.attempt(_cli, op, workdir, path)
        if path.exists():
            child = json.loads(path.read_text(encoding="utf-8"))
            exports.append(child["aggregates"])
            base = len(spans)   # re-index parents into the merged span list
            spans.extend([name, start, end, parent + base if parent >= 0 else -1, i]
                         for name, start, end, parent, _ in child["spans"])
            path.unlink()
    traced_s = sum(loop.latencies[-len(ops):])
    merged = tracing.merge(exports)
    imports = [e["counters"]["import_s"] for e in exports]
    merged["counters"].pop("import_s", None)
    _vacuous_checks(merged["counters"], loop)
    extra.update({
        "trace.overhead_ratio": traced_s / untraced_s,
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.import_scipy_s": _import_scipy_s(),
        "cli.errors": loop.failed,
    })
    out.update(loop.result())
    out["trace"] = merged
    out["extra"] = extra
    out["trace_file"] = str(workdir.parent / f"trace-{workload}-seed{seed}.json")
    tracing.write(out["trace_file"], merged, spans)
    return out


def main(argv):
    workload, seed, seconds, mode, workdir = argv
    # host speed at the start of the set-up, before its imports (see calib)
    t0 = time.monotonic()
    start_probe = calib.probe(SETUP_SLICES)
    probe_s = time.monotonic() - t0
    fn = cli_session if workload == "cli_session" else in_process
    out = fn(workload, int(seed), float(seconds), mode, Path(workdir))
    out.update(start_probe=start_probe, probe_s=probe_s)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
