"""Tests of the benchmark itself: seeded inputs, oracle gates, metric names.

Run from the repository root with the checkout's ``src`` on PYTHONPATH:
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calib
import gen
import metrics
import oracles
import ops
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- seeded inputs ----------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert gen.generate(workload, 7) == gen.generate(workload, 7)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_other_inputs_same_shape(workload):
    (src_a, ops_a), (src_b, ops_b) = gen.generate(workload, 7), gen.generate(workload, 8)
    assert (src_a, ops_a) != (src_b, ops_b)
    # the shape of a pass does not depend on the seed, so neither does its cost
    shape = lambda ops: sorted(  # noqa: E731
        (op["op"], op.get("ctx", ""), op.get("batch", 0)) for op in ops)
    assert shape(ops_a) == shape(ops_b)
    assert src_a.keys() == src_b.keys()


def test_inputs_parse_and_pass_their_oracles():
    for workload in ("forms_dense", "checks_sparse"):
        sources, op_list = gen.generate(workload, 11)
        runner = ops.Runner(sources, op_list)
        for i, op in enumerate(op_list):
            if op.get("batch", 1) <= 16:
                runner.run(i, op)


def test_checks_expect_no_on_a_large_share():
    _, op_list = gen.generate("checks_sparse", 1)
    share = sum(not op["expect"] for op in op_list) / len(op_list)
    assert 0.35 <= share <= 0.65


# -- the oracle gate rejects perturbed results -------------------------------------

def test_ratio_oracle_rejects_perturbation():
    classical = {(1, 2): 2.0, (1, 3): -1.5}
    comb = {T: v / 3.0 for T, v in classical.items()}
    oracles.check_ratio(comb, classical, 1 / 3)
    comb[(1, 3)] *= 1 + 1e-6
    with pytest.raises(oracles.OracleError):
        oracles.check_ratio(comb, classical, 1 / 3)
    with pytest.raises(oracles.OracleError):   # a zero form proves nothing
        oracles.check_ratio({}, {(1, 2): 0.0}, 1 / 3)


def test_verdict_and_vanishing_oracles_reject():
    with pytest.raises(oracles.OracleError):
        oracles.check_verdict("classical", True, False)
    with pytest.raises(oracles.OracleError):
        oracles.check_vanishes(1e-6, 1.0)


def _cli_op(command):
    _, op_list = gen.generate("cli_session", 1)
    return next(op for op in op_list if op["op"] == command)


CLI_OUTPUTS = {
    "d": {"at 0,2,0": {"point": [0, 2, 0], "combinatorial": {"12": 0.5, "13": 0, "23": 0},
                       "classical": {"12": 1, "13": 0, "23": 0}, "ratio": 0.5}},
    "check-involutive": {"combinatorial": False, "classical": False, "agree": True,
                         "mode": "exact-fiber"},
    "check-integral": {"mode": "weak", "integral": False},
    "curvature": {"at 0.3,0.7": {"F12": {"coboundary": [[0, -0.5], [0.5, 0]],
                                         "classical": [[0, -1], [1, 0]]}}},
    "holonomy": {"loop0": {"holonomy": [[-1, 0], [0, -1]]},
                 "loop0_log": [[0, -math.pi], [math.pi, 0]]},
    "ambrose-singer": {"inclusion": True, "dim_h": 1, "max_residual": 3e-16},
}


def _perturb(command, out):
    bad = copy.deepcopy(out)
    if command == "d":
        bad["at 0,2,0"]["combinatorial"]["12"] = 0.5 + 1e-6
    elif command == "check-involutive":
        bad["combinatorial"] = True
    elif command == "check-integral":
        bad["integral"] = True
    elif command == "curvature":
        bad["at 0.3,0.7"]["F12"]["coboundary"][0][1] = -0.5001
    elif command == "holonomy":
        bad["loop0_log"][1][0] = math.pi - 0.01
    else:
        bad["dim_h"] = 2
    return bad


@pytest.mark.parametrize("command", sorted(CLI_OUTPUTS))
def test_cli_oracle_accepts_good_and_rejects_perturbed(command):
    op = _cli_op(command)
    out = CLI_OUTPUTS[command]
    oracles.check_cli(op, op["expect_exit"], json.dumps(out))
    with pytest.raises(oracles.OracleError):
        oracles.check_cli(op, op["expect_exit"], json.dumps(_perturb(command, out)))
    with pytest.raises(oracles.OracleError):   # the README's exit code is part of the oracle
        oracles.check_cli(op, 1 - op["expect_exit"], json.dumps(out))


def test_leaf_oracle_rejects_a_point_off_the_level_set():
    op = _cli_op("leaf")
    a, b, c = op["graph"]
    x0, y0, z0 = op["start"]
    level = z0 - (a * x0 * y0 + b * math.sin(x0) + c * y0 ** 3)
    points = []
    for i in range(gen.LEAF_STEPS + 1):
        x, y = x0 + i * 1e-3, y0 + i * 1e-3
        points.append([x, y, level + a * x * y + b * math.sin(x) + c * y ** 3])
    points[0] = list(op["start"])
    oracles.check_leaf(points, op)
    points[1500][2] += 1e-4
    with pytest.raises(oracles.OracleError):
        oracles.check_leaf(points, op)


# -- metrics -----------------------------------------------------------------------

def test_units_and_names_follow_the_contract():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    plan = json.loads((ROOT / "perfbench" / "plan.json").read_text(encoding="utf-8"))
    assert set(plan["per_layer_moves"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    result = {"latencies": [0.001 * (i + 1) for i in range(200)],
              "passes": [(100, 0.2), (100, 0.25)], "maxrss_kb": 60000,
              "probes": [1.3e-3] * 201}
    setups = [(0.4, 1.3e-3, 1.4e-3), (0.5, 1.2e-3, 1.3e-3), (0.45, 1.3e-3, 1.3e-3)]
    values, notes = metrics.end_to_end(workload, setups, result)
    lines, out = run.format_metrics(SPEC["end_to_end"], values, notes)
    for m, line in zip(SPEC["end_to_end"], lines):
        assert line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
        assert out[m["name"]]["unit"] == m["unit"] and out[m["name"]]["value"] > 0


def test_timings_scale_with_the_host_speed_probes():
    # the same op on a host half as fast reads the same; a slower op reads slower
    assert calib.scaled(0.002, 1.3e-3, 1.3e-3) == pytest.approx(0.002)
    assert calib.scaled(0.004, 2.6e-3, 2.6e-3) == pytest.approx(0.002)
    assert calib.scaled(0.004, 1.3e-3, 1.3e-3) == pytest.approx(0.004)
    result = {"latencies": [0.004] * 8, "passes": [(4, 0.02), (4, 0.02)],
              "maxrss_kb": 1, "probes": [2.6e-3] * 9}
    values, _ = metrics.end_to_end("forms_dense", [(0.8, 2.6e-3, 2.6e-3)], result)
    assert values["setup_s"] == pytest.approx(0.4)
    assert values["latency_p50_ms"] == pytest.approx(2.0)
    assert values["throughput_ops_per_s"] == pytest.approx(500.0)
    assert calib.probe(3) > 0


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forms_dense", "--seed", "3",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    assert result["metrics"]["nil.mul_calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forms_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
