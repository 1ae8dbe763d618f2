#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, written to one JSON file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload symbol \
        --seeds 101 102 103 104 105 106 107 108 109 110 --out BENCH_abc1234.json

For every seed, and for every ``--workload`` given, this runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each checkout, one after the other, with T the ``run_seconds`` of the
parent's ``BENCHMARK.json``; the checkout that goes first alternates
from pair to pair, so a slow drift of the host does not favour either
side.  Each run is a fresh process started in its checkout's root.  The
file gets each checkout's commit and whether its tree differs from it,
every run's result line and per-op times (each op's
``median_at_ref_speed_s`` from the record line that run.py prints before
the result), the per-metric medians and quartiles of both sides, each
side's per-op medians, each op's median change relative to the parent
and the number of pairs in which the change ran it faster, for each
metric the number of pairs in which the change is better,
``change_every_run_better`` (every run of the change is better than
every run of the parent), ``quartiles_separate`` (the change's worse
quartile is better than the parent's better one: its q3 below the
parent's q1 where lower is better) and ``gain_met`` (the change is better
in at least 9 of 10 pairs, ties counting for neither side, and its
median is better than the parent's by more than the parent's q3 - q1:
the rule a claimed gain must meet), each checkout's line count of
``src/alphamod/*.py``, and the machine (CPU count and model, Python,
numpy and scipy versions).  At least ten seeds are required.  Nothing
under ``perfbench/`` is imported.

Each end-to-end metric of the parent's ``BENCHMARK.json`` also gets a
no-regression verdict, read against its ``better`` direction and its
relative ``bound``: ``regressed`` when the change's median is worse than
the parent's by more than the bound, and ``unresolved`` when the
parent's interquartile range exceeds the bound (relative to its median)
and not every run of the change is better than every run of the parent.

A run whose checks failed (``correct: false``) or that lost ops
(``failed > 0``) still enters the medians, so each workload's summary
counts the incorrect runs and the failed ops of each side, and the tool
exits 1 when any run is incorrect: a broken result must not read as a
speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import numpy
import scipy

SIDES = ("parent", "change")
MIN_SEEDS = 10


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run; its last stdout line is the result, and the
    line before it the record with the per-op times."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "op_s": {op: v["median_at_ref_speed_s"]
                     for op, v in record["ops"].items()}}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse a is than b, relative to b; negative when better."""
    rel = a / b - 1.0
    return -rel if better == "higher" else rel


def summary(runs: dict, end_to_end: dict) -> dict:
    """The incorrect runs and failed ops of each side; under "op_s",
    each side's median over its runs of each op's time at reference
    speed; under "op_change_rel", each op's change of that median
    relative to the parent's; under "op_better_in_pairs", the pairs in
    which the change ran each op faster; and under "metrics", medians
    and quartiles per metric and side, the pairs in which the change is
    better, whether every run of the change is better than every run of
    the parent, whether the change's worse quartile is better than the
    parent's better one (the quartiles separate), whether a claimed gain
    is met (gain_met: better in 9 of 10 pairs, by a median step wider
    than the parent's interquartile range), and the no-regression
    verdict of each metric in end_to_end (name -> its BENCHMARK.json
    entry)."""
    metrics = {}
    op_s = {s: {op: median(r["op_s"][op] for r in runs[s])
                for op in runs[s][0]["op_s"]} for s in SIDES}
    out = {"incorrect_runs": {s: sum(not r["correct"] for r in runs[s])
                              for s in SIDES},
           "failed_ops": {s: sum(r["failed"] for r in runs[s])
                          for s in SIDES},
           "op_s": op_s,
           "op_change_rel": {op: op_s["change"][op] / t - 1.0
                             for op, t in op_s["parent"].items()},
           "op_better_in_pairs": {
               op: sum(c["op_s"][op] < p["op_s"][op]
                       for p, c in zip(runs["parent"], runs["change"]))
               for op in op_s["parent"]},
           "metrics": metrics}
    for name in runs["parent"][0]["metrics"]:
        vals = {s: [r["metrics"][name] for r in runs[s]] for s in SIDES}
        spec = end_to_end.get(name, {})
        better = spec.get("better", "lower")
        entry = {}
        for s in SIDES:
            q = quantiles(vals[s], n=4)
            entry[s] = {"median": median(vals[s]), "q1": q[0], "q3": q[2]}
        parent, change = entry["parent"], entry["change"]
        entry["change_better_in_pairs"] = sum(
            worse_by(c, p, better) < 0
            for p, c in zip(vals["parent"], vals["change"]))
        entry["median_change_rel"] = change["median"] / parent["median"] - 1.0
        entry["change_every_run_better"] = all(
            worse_by(c, p, better) < 0
            for p in vals["parent"] for c in vals["change"])
        # the change's worse quartile is better than the parent's better one
        lower = better != "higher"
        entry["quartiles_separate"] = worse_by(
            change["q3" if lower else "q1"], parent["q1" if lower else "q3"],
            better) < 0
        step = (parent["median"] - change["median"]) * (1 if lower else -1)
        entry["gain_met"] = (10 * entry["change_better_in_pairs"]
                             >= 9 * len(vals["parent"])
                             and step > parent["q3"] - parent["q1"])
        if spec:
            entry["bound"] = spec["bound"]
            entry["regressed"] = worse_by(change["median"], parent["median"],
                                          better) > spec["bound"]
            entry["parent_iqr_rel"] = ((parent["q3"] - parent["q1"])
                                       / parent["median"])
            entry["unresolved"] = (entry["parent_iqr_rel"] > spec["bound"]
                                   and not entry["change_every_run_better"])
        metrics[name] = entry
    return out


def commit(checkout: Path) -> dict:
    """The checkout's HEAD and whether its tree differs from HEAD."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, check=True,
                              capture_output=True, text=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


def src_lines(checkout: Path) -> int:
    """Lines of the package's modules, src/alphamod/*.py, in a checkout."""
    return sum(len(path.read_bytes().splitlines())
               for path in (checkout / "src" / "alphamod").glob("*.py"))


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        model = platform.processor()
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", type=Path, required=True,
                   help="output file, BENCH_<parent short sha>.json")
    args = p.parse_args(argv)
    if len(args.seeds) < MIN_SEEDS:
        p.error(f"--seeds needs at least {MIN_SEEDS} seeds")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["parent"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    report = {"seconds": seconds, "seeds": args.seeds,
              "commits": {s: commit(dirs[s]) for s in SIDES},
              "src_lines": {s: src_lines(dirs[s]) for s in SIDES},
              "machine": machine(), "workloads": {}}
    incorrect = 0
    for workload in args.workload:
        runs = {s: [] for s in SIDES}
        for i, seed in enumerate(args.seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(dirs[side], workload, seed,
                                           seconds))
                last = runs[side][-1]
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps(last["metrics"]), flush=True)
        summ = summary(runs, end_to_end)
        report["workloads"][workload] = {"runs": runs, "summary": summ}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        bad = summ["incorrect_runs"]
        if any(bad.values()) or any(summ["failed_ops"].values()):
            print(f"{workload}: incorrect runs {bad}, failed ops "
                  f"{summ['failed_ops']}", file=sys.stderr)
        incorrect += sum(bad.values())
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
