"""Self-test of the benchmark at tiny size; no timing bounds.

    python3 -m pytest perfbench/test_selftest.py -q

Checks the BENCHMARK.json schema, that every run prints exactly the
metrics BENCHMARK.json names with their units, that op times are scaled
to the probe's reference speed as documented, that the correctness
checks pass on good outputs and catch broken ones, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def _expect(metrics, declared):
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in declared}
    for v in metrics.values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_declared_metrics(workload):
    res = result_of(run_bench("--workload", workload, "--seed", "3",
                              "--seconds", "0.01", "--trace", "0",
                              "--scale", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] == len(workloads.WORKLOADS[workload]("tiny"))
    _expect(res["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tiny_traced_run_prints_layer_metrics():
    res = result_of(run_bench("--workload", "frames", "--seed", "3",
                              "--seconds", "0.01", "--trace", "1",
                              "--scale", "tiny"))
    assert res["correct"] is True
    _expect(res["metrics"], SPEC["per_layer"])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["frames.row_hit_ratio"] > 0.9 and m["frames.cg_iters"] >= 1
    assert m["trace.self_gap_s"] < 0.01


def test_op_times_are_scaled_by_the_probes_around_them():
    import run
    ops = workloads.WORKLOADS["frames"]("tiny")[:2]
    rec = {"op_s": {ops[0].label: 2.0, ops[1].label: 3.0},
           "probe_s": [0.1, 0.3, 0.2]}
    assert run.at_ref_speed(ops, rec, 0.2) == pytest.approx(
        {ops[0].label: 2.0, ops[1].label: 3.0 * 0.2 / 0.25})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "symbol", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# the checks pass on real outputs and catch broken ones


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """Every tiny op run once in this process: (checker, op, argv, dirs,
    stdouts) per op label."""
    sys.path.insert(0, str(ROOT / "src"))
    from alphamod.cli import main
    import contextlib
    import io

    base = tmp_path_factory.mktemp("bench")
    chirp = workloads.Chirp.from_seed(5, "tiny")
    signals = workloads.write_inputs(base / "in", chirp, "tiny")
    found = {}
    for name, make in workloads.WORKLOADS.items():
        ops = make("tiny")
        checker = checks.Checker(ops, signals, 5, "tiny")
        dirs = {op.label: base / name / op.label.replace(":", "_")
                for op in ops}
        stdouts = {}
        for op in ops:
            dirs[op.label].mkdir(parents=True)
            argv = workloads.expand(op, base / "in", dirs)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) in op.ok_codes
            stdouts[op.label] = out.getvalue()
        for op in ops:
            argv = workloads.expand(op, base / "in", dirs)
            found[op.label] = (checker, op, argv, dirs, stdouts)
    return found


def _check(entry):
    checker, op, argv, dirs, stdouts = entry
    return checker.check(op, argv, dirs, stdouts)


def test_checks_pass_on_program_outputs(tiny_outputs):
    for label, entry in tiny_outputs.items():
        assert _check(entry) == [], label


def _shift_csv(path, col, delta, rows=None, skip=0):
    """Adds delta to one column of a numeric CSV (all rows, or some)."""
    lines = Path(path).read_text().splitlines()
    head, data = lines[:skip], np.array(
        [[float(c) for c in ln.split(",")] for ln in lines[skip:]])
    data[slice(None) if rows is None else rows, col] += delta
    body = [",".join(repr(float(c)) for c in row) for row in data]
    Path(path).write_text("\n".join(head + body) + "\n")


def _edit_json(path, **changes):
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


BREAKAGES = {
    # label: (file in the op's output dir, how to break it)
    "admissible:gaussian": ("m_curve.csv", lambda p: _shift_csv(
        p, 1, 1e-4, rows=[21], skip=1)),           # xi = 1 on the tiny grid
    "roundtrip": ("reconstructed.csv", lambda p: _shift_csv(
        p, 0, 1e-2, rows=[64])),
    "frame-info": ("frame_info.json", lambda p: _edit_json(
        p, A_est=0.99 * json.loads(p.read_text())["A_est"])),
    "analyze": ("coefficients.csv", lambda p: _shift_csv(p, 4, 1e-6,
                                                         skip=1)),
    "synthesize": ("synthesized.csv", lambda p: _shift_csv(
        p, 0, 1e-3, rows=[128])),
    "diagnostics": ("diagnostics.json", lambda p: _edit_json(
        p, **{"pass": [True]})),
}


@pytest.mark.parametrize("label", sorted(BREAKAGES))
def test_checks_catch_broken_outputs(tiny_outputs, label):
    entry = tiny_outputs[label]
    path = Path(entry[3][label]) / BREAKAGES[label][0]
    saved = path.read_bytes()
    try:
        BREAKAGES[label][1](path)
        assert _check(entry) != []
    finally:
        path.write_bytes(saved)


def test_coorbit_check_catches_a_wrong_norm(tiny_outputs):
    checker, op, argv, dirs, stdouts = tiny_outputs["coorbit-norm-offgrid"]
    report = json.loads(stdouts[op.label])
    report["norm"] *= 1.0 + 1e-5
    bad = {**stdouts, op.label: json.dumps(report)}
    assert checker.check(op, argv, dirs, bad) != []


def test_symbol_reference_tail_limit():
    # the symbol tends to ||psi||^2 at large |xi|: 1 for the unit-norm
    # Gaussian and bump, ||B_4||^2 = 151/315 for bspline:4
    assert abs(checks.symbol_reference("gaussian", [500.0])[0] - 1.0) < 1e-9
    assert abs(checks.symbol_reference("bump:1.0", [500.0])[0] - 1.0) < 1e-9
    assert abs(checks.symbol_reference("bspline:4", [500.0])[0]
               - 151.0 / 315.0) < 1e-9
