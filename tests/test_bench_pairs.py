"""tools/bench_pairs.py on synthetic runs: no benchmark is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = {"pass_at_ref_speed_s": {"name": "pass_at_ref_speed_s",
                                      "better": "lower", "bound": 0.25},
              "throughput": {"name": "throughput", "better": "higher",
                             "bound": 0.1}}


def _run(seed, pass_s, throughput=1.0, correct=True, failed=0):
    return {"seed": seed, "correct": correct, "attempted": 12,
            "failed": failed,
            "metrics": {"pass_at_ref_speed_s": pass_s,
                        "throughput": throughput, "ops": 12.0},
            "op_s": {"analyze": 0.6 * pass_s, "frame-info": 0.4 * pass_s}}


def test_run_once_keeps_the_per_op_times(tmp_path, monkeypatch):
    # run.py's stdout ends with the record line, then the result line
    record = {"record": {"ops": {
        "analyze": {"median_s": 0.2, "median_at_ref_speed_s": 0.1},
        "frame-info": {"median_s": 0.4, "median_at_ref_speed_s": 0.3}}}}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"pass_at_ref_speed_s": {"value": 0.4,
                                                  "unit": "s"}}}
    stdout = "\n".join(json.dumps(x) for x in ({"setup_s": 1.0}, record,
                                               result)) + "\n"
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append((argv, cwd))
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run = bench_pairs.run_once(tmp_path, "frames", 7, 45)
    assert run == {"seed": 7, "correct": True, "attempted": 4, "failed": 0,
                   "metrics": {"pass_at_ref_speed_s": 0.4},
                   "op_s": {"analyze": 0.1, "frame-info": 0.3}}
    (argv, cwd), = calls
    assert cwd == tmp_path and argv[1:] == [
        "perfbench/run.py", "--workload", "frames", "--seed", "7",
        "--seconds", "45", "--trace", "0"]


def test_worse_by_reads_the_direction():
    assert bench_pairs.worse_by(1.1, 1.0, "lower") == pytest.approx(0.1)
    assert bench_pairs.worse_by(0.9, 1.0, "lower") == pytest.approx(-0.1)
    assert bench_pairs.worse_by(0.9, 1.0, "higher") == pytest.approx(0.1)
    assert bench_pairs.worse_by(1.2, 1.0, "higher") == pytest.approx(-0.2)


def test_summary_counts_wrong_runs_and_judges_each_metric():
    parent = [_run(s, 2.0 + 0.01 * s, throughput=1.0) for s in range(10)]
    change = [_run(s, 1.5 + 0.01 * s, throughput=0.8,
                   correct=s != 3, failed=2 if s in (3, 7) else 0)
              for s in range(10)]
    # frame-info runs slower than the parent's (0.80-0.84 s) in the last
    # three pairs, which leaves its median as it was
    for r in change[7:]:
        r["op_s"]["frame-info"] = 0.9
    out = bench_pairs.summary({"parent": parent, "change": change},
                              END_TO_END)
    assert out["incorrect_runs"] == {"parent": 0, "change": 1}
    assert out["failed_ops"] == {"parent": 0, "change": 4}
    speed = out["metrics"]["pass_at_ref_speed_s"]
    assert speed["parent"]["median"] == pytest.approx(2.045)
    assert speed["change"]["median"] == pytest.approx(1.545)
    assert speed["change_better_in_pairs"] == 10
    assert speed["median_change_rel"] == pytest.approx(1.545 / 2.045 - 1)
    assert not speed["regressed"] and not speed["unresolved"]
    assert speed["change_every_run_better"] and speed["quartiles_separate"]
    # per-op medians of each side show which op moved
    assert out["op_s"]["parent"] == {
        "analyze": pytest.approx(0.6 * 2.045),
        "frame-info": pytest.approx(0.4 * 2.045)}
    assert out["op_s"]["change"]["frame-info"] == pytest.approx(0.4 * 1.545)
    assert out["op_change_rel"] == {
        "analyze": pytest.approx(1.545 / 2.045 - 1),
        "frame-info": pytest.approx(1.545 / 2.045 - 1)}
    assert out["op_better_in_pairs"] == {"analyze": 10, "frame-info": 7}
    # higher is better here, so 20 % less is a regression past the bound
    tput = out["metrics"]["throughput"]
    assert tput["change_better_in_pairs"] == 0 and tput["regressed"]
    assert not tput["change_every_run_better"]
    assert not tput["quartiles_separate"]
    # a metric outside BENCHMARK.json gets statistics but no verdict
    assert "regressed" not in out["metrics"]["ops"]
    # one slow run of the change: its quartiles still separate from the
    # parent's, but not every run is better
    change[9]["metrics"]["pass_at_ref_speed_s"] = 2.5
    # higher is better, so the change's q1 must lie above the parent's
    # q3: throughput 0.9 in half the pairs and 1.5 in the others does not
    for i, r in enumerate(change):
        r["metrics"]["throughput"] = 0.9 if i % 2 else 1.5
    out = bench_pairs.summary({"parent": parent, "change": change},
                              END_TO_END)
    speed = out["metrics"]["pass_at_ref_speed_s"]
    assert speed["quartiles_separate"]
    assert not speed["change_every_run_better"]
    tput = out["metrics"]["throughput"]
    assert tput["change_better_in_pairs"] == 5
    assert not tput["quartiles_separate"]
    # 1.2 throughout does, against one parent run of 1.3
    for r in change:
        r["metrics"]["throughput"] = 1.2
    parent[4]["metrics"]["throughput"] = 1.3
    tput = bench_pairs.summary({"parent": parent, "change": change},
                               END_TO_END)["metrics"]["throughput"]
    assert tput["quartiles_separate"]
    assert not tput["change_every_run_better"]


def test_summary_flags_a_spread_parent_as_unresolved():
    parent = [_run(s, 1.0 if s % 2 else 2.0) for s in range(10)]
    change = [_run(s, 1.4) for s in range(10)]
    speed = bench_pairs.summary({"parent": parent, "change": change},
                                END_TO_END)["metrics"]["pass_at_ref_speed_s"]
    assert speed["parent_iqr_rel"] > 0.25 and speed["unresolved"]
    assert speed["change_better_in_pairs"] == 5


@pytest.mark.parametrize("correct, code", [(True, 0), (False, 1)])
def test_main_exits_1_on_an_incorrect_run(tmp_path, monkeypatch, capsys,
                                          correct, code):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": list(END_TO_END.values())}))
    monkeypatch.setattr(bench_pairs, "commit",
                        lambda checkout: {"head": "0" * 40, "dirty": False})
    monkeypatch.setattr(
        bench_pairs, "run_once",
        lambda checkout, workload, seed, seconds: _run(
            seed, 1.0, correct=correct or checkout.name == "parent"))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload", "symbol",
                             "--seeds", *map(str, range(10)),
                             "--out", str(out)]) == code
    summ = json.loads(out.read_text())["workloads"]["symbol"]["summary"]
    assert summ["incorrect_runs"] == {"parent": 0,
                                      "change": 0 if correct else 10}
    assert ("incorrect runs" in capsys.readouterr().err) == (not correct)
