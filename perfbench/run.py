"""sdgeom benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload forms_dense --seed 1 --seconds 20 --trace 0

Workloads: forms_dense, checks_sparse, cli_session (see gen.py and
BENCHMARK.json).  With ``--trace 0`` the run measures the end-to-end metrics
with nothing traced; with ``--trace 1`` it makes a separate traced run and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give each metric with its unit and sample count, and the machine.
``--workload all`` runs the three workloads in turn, each ending in its own
JSON line.

Every timing is reported at reference host speed: scaled by a fixed
pure-Python calibration slice timed next to it (``calib``), because the host
this was built on drifts by up to 2x within minutes.  The report lines give
the raw wall times beside the scaled values.

The program is measured from the checkout's ``src``, never from an installed
copy, with BLAS and OpenMP pools pinned to one thread.  Scratch files go to
``.perfbench/`` in the checkout; a traced run leaves its spans there.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ("forms_dense", "checks_sparse", "cli_session")
SETUPS = 15            # set-ups per run; setup_s is their median
RUN_TIMEOUT_S = 170    # one run must end within 180 s
_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in _PINNED})
    env["PYTHONHASHSEED"] = "0"
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


class Launcher:
    """Launches the processes of one run and enforces its deadline."""

    def __init__(self, root, workload, seed, seconds):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.env = _env(root)
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.workdir = root / ".perfbench" / f"{workload}-seed{seed}-{os.getpid()}"

    def _run(self, cmd):
        # own session, so that a timeout also ends the CLI processes a worker started
        with subprocess.Popen(cmd, cwd=self.workdir, env=self.env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd[:4])} ... exited {proc.returncode}:\n"
                               f"{stderr.strip()}")
        return stdout

    def worker(self, mode):
        """Run worker.py; returns (its JSON result, its set-up as (seconds
        from launch to ready, host-speed probes at its start and end))."""
        launched = time.monotonic()
        stdout = self._run([sys.executable, str(HERE / "worker.py"), self.workload,
                            str(self.seed), str(self.seconds), mode, str(self.workdir)])
        out = json.loads(stdout.strip().splitlines()[-1])
        # the start probe is the worker's, not the program's, time
        seconds = out["ready"] - launched - out["probe_s"]
        return out, (seconds, out["start_probe"], out["ready_probe"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "sdgeom" / "__init__.py").is_file():
        sys.stderr.write(f"error: {root} is not an sdgeom checkout (no src/sdgeom)\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(root, spec, w, args) for w in workloads)


def run_workload(root, spec, workload, args):
    """Run and report one workload; returns the exit code."""
    run = Launcher(root, workload, args.seed, args.seconds)
    run.workdir.mkdir(parents=True, exist_ok=True)
    # Set-ups run before and after the measured loop, so that their median
    # does not rest on one stretch of host noise.
    # A cli_session set-up is the start-up alone; its measuring worker also
    # runs each command once before it is ready, so it is not a set-up.
    if workload == "cli_session":
        n_setups = SETUPS
    else:
        n_setups = 0 if args.trace else SETUPS - 1

    def setup():
        return run.worker("setup")[1]

    try:
        setups = [setup() for _ in range(n_setups // 2)]
        result, ready = run.worker("trace" if args.trace else "measure")
        setups += [setup() for _ in range(n_setups - n_setups // 2)]
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if workload != "cli_session":
        setups.append(ready)   # the measuring worker's own set-up

    machine = dict(result["machine"], nproc=os.cpu_count(), cpu=_cpu_model(),
                   commit=_commit(root), pinned_threads=1)
    print(f"# perfbench {workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    if args.trace:
        extra = dict(result["extra"])
        if workload == "cli_session":
            extra["cli.startup_s"] = statistics.median(t for t, _, _ in setups)
        values = metrics.per_layer(result["trace"], extra)
        names = spec["per_layer"]
        notes = {}
        print(f"# spans kept in memory: {result['trace']['spans_kept']}, written to "
              f"{Path(result['trace_file']).relative_to(root)}")
        if result["trace"]["missing"]:
            print(f"# not traced (absent from the program): {result['trace']['missing']}")
    else:
        values, notes = metrics.end_to_end(workload, setups, result)
        names = spec["end_to_end"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} failed of "
          f"{attempted} attempted)")
    for failure in result["failures"]:
        print(f"# failure: {failure}")
    lines, out = format_metrics(names, values, notes)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def format_metrics(names, values, notes):
    """Report lines and the ``metrics`` object for the metrics ``names``
    (entries of BENCHMARK.json) with their ``values``."""
    lines, out = [], {}
    for m in names:
        value = values[m["name"]]
        note = notes.get(m["name"])
        lines.append(f"{m['name']} = {value:.6g} {m['unit']}" + (f" ({note})" if note else ""))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return lines, out


if __name__ == "__main__":
    sys.exit(main())
