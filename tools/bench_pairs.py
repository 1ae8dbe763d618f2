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
every run's result line, the per-metric medians and quartiles of both
sides, the number of pairs in which the change is better, and the
machine (CPU count and model, Python, numpy and scipy versions).  At
least ten seeds are required.  Nothing under ``perfbench/`` is imported.
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
    """One benchmark run; its last stdout line is the result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(runs: dict) -> dict:
    """Medians and quartiles per metric and side, and the pairs in which
    the change has the lower value (every end-to-end metric here is
    better when lower)."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        vals = {s: [r["metrics"][name] for r in runs[s]] for s in SIDES}
        entry = {}
        for s in SIDES:
            q = quantiles(vals[s], n=4)
            entry[s] = {"median": median(vals[s]), "q1": q[0], "q3": q[2]}
        entry["change_lower_in_pairs"] = sum(
            c < p for p, c in zip(vals["parent"], vals["change"]))
        entry["median_change_rel"] = (entry["change"]["median"]
                                      / entry["parent"]["median"] - 1.0)
        out[name] = entry
    return out


def commit(checkout: Path) -> dict:
    """The checkout's HEAD and whether its tree differs from HEAD."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, check=True,
                              capture_output=True, text=True).stdout.strip()
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


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
    seconds = json.loads(
        (dirs["parent"] / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"seconds": seconds, "seeds": args.seeds,
              "commits": {s: commit(dirs[s]) for s in SIDES},
              "machine": machine(), "workloads": {}}
    for workload in args.workload:
        runs = {s: [] for s in SIDES}
        for i, seed in enumerate(args.seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(dirs[side], workload, seed,
                                           seconds))
                last = runs[side][-1]
                print(f"{workload} seed {seed} {side}: "
                      + json.dumps(last["metrics"]), flush=True)
        report["workloads"][workload] = {"runs": runs,
                                         "summary": summary(runs)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
