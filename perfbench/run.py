#!/usr/bin/env python3
"""alphamod benchmark: seeded CLI workloads, checked outputs, one JSON line.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 perfbench/run.py --workload symbol --seed 1 --seconds 45 --trace 0

A run sets up (imports the package, writes the seeded inputs, runs one
untimed warm-up pass at tiny size), computes the references its checks
need, then repeats passes of the workload's ops until ``--seconds`` have
passed (it stops at the pass boundary nearest to them), at least one
pass.  Each op is one ``alphamod.cli.main(argv)`` call in this process,
one after the other (closed loop, one caller).  A host speed probe
(speed.py) runs before every op and after the last; op times are
reported at the probe's reference speed.  Every op's outputs are
checked after its pass.  With ``--trace 1`` the
passes alternate between untraced and traced, and the layer metrics of
the traced passes are reported instead of the end-to-end metrics.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the full record (environment, per-op times,
failures); it is also written to ``.perfbench/results/``.  See
perfbench/README.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import envinfo  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3    # set-ups per run (this process + fresh processes)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a set-up step failed)."""


def process_age() -> float:
    """Seconds since this process started, from /proc (10 ms steps), or
    0 where /proc is missing."""
    try:
        stat = Path("/proc/self/stat").read_text()
        start = int(stat.rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start / os.sysconf("SC_CLK_TCK"))


STARTUP_S = max(0.0, process_age() - (time.perf_counter() - T_START))


def import_cli():
    """alphamod.cli imported from this checkout's src/, never from an
    installed copy."""
    if not (SRC / "alphamod" / "__init__.py").is_file():
        raise BenchError(f"no alphamod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import alphamod
    import alphamod.cli
    if Path(alphamod.__file__).resolve().parent != (SRC / "alphamod").resolve():
        raise BenchError(f"alphamod imported from {alphamod.__file__}")
    return alphamod.cli


def call_op(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:   # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:           # an op that crashes counts as failed
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def op_dirs(base: Path, ops) -> dict:
    return {op.label: base / op.label.replace(":", "_") for op in ops}


def fresh_dirs(dirs: dict):
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)


def set_up(workload: str, seed: int, scale: str, work: Path):
    """Imports the package, writes the inputs and runs the warm-up pass.
    Returns (cli, signals, input dir, set-up seconds since process
    start)."""
    cli = import_cli()
    in_dir = work / "inputs"
    signals = workloads.write_inputs(
        in_dir, workloads.Chirp.from_seed(seed, scale), scale)
    tiny_dir = work / "inputs-tiny"
    workloads.write_inputs(tiny_dir, workloads.Chirp.from_seed(seed, "tiny"),
                           "tiny")
    warm = workloads.warmup_ops(workload)
    dirs = op_dirs(work / "warmup", warm)
    fresh_dirs(dirs)
    for op in warm:
        code, _, err, _ = call_op(cli, workloads.expand(op, tiny_dir, dirs))
        if code not in op.ok_codes:
            raise BenchError(f"warm-up {op.label} exited {code}: {err[-500:]}")
    return cli, signals, in_dir, STARTUP_S + time.perf_counter() - T_START


def probe_setup(args, work: Path) -> float:
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--setup-probe", str(work)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=150)
    except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
        raise BenchError("set-up probe timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr[-500:]}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def run_pass(cli, ops, in_dir, dirs, probe, tracer=None) -> dict:
    """Runs the ops back to back; returns codes, stdouts and times.

    Between ops (untimed) the garbage of the previous op is collected, so
    each op starts on a clean heap as it would in its own CLI process,
    and the host speed probe runs: before every op and after the last.
    """
    fresh_dirs(dirs)
    rec = {"codes": {}, "stdout": {}, "stderr": {}, "op_s": {}, "argv": {},
           "probe_s": []}
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            gc.collect()
            rec["probe_s"].append(probe())
            argv = workloads.expand(op, in_dir, dirs)
            if tracer is not None:
                tracer.op = op.label
            code, out, err, secs = call_op(cli, argv)
            rec["codes"][op.label] = code
            rec["stdout"][op.label] = out
            rec["stderr"][op.label] = err
            rec["op_s"][op.label] = secs
            rec["argv"][op.label] = argv
        rec["probe_s"].append(probe())
        rec["pass_s"] = sum(rec["op_s"].values())
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec["wall_s"] = time.perf_counter() - t0
    return rec


def at_ref_speed(ops, rec, ref_s) -> dict:
    """label -> the op's time at the probe's reference speed: its wall time
    scaled by ref_s over the mean of the probes before and after it."""
    return {op.label: rec["op_s"][op.label] * ref_s / (0.5 * (p0 + p1))
            for op, p0, p1 in zip(ops, rec["probe_s"], rec["probe_s"][1:])}


def check_pass(checker, ops, dirs, rec) -> dict:
    """label -> list of problems (empty when the op is correct)."""
    found = {}
    for op in ops:
        code = rec["codes"][op.label]
        if code not in op.ok_codes:
            tail = rec["stderr"][op.label].strip()[-300:]
            found[op.label] = [f"exit code {code}: {tail}"]
            continue
        try:
            found[op.label] = checker.check(op, rec["argv"][op.label], dirs,
                                            rec["stdout"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found[op.label] = [f"output unreadable: {exc!r}"]
    return found


def layer_result(plain, traced, layer_runs) -> dict:
    """Per-layer metrics: medians over the traced passes, plus the
    tracing overhead against the untraced passes of the same run."""
    metrics = {name: median([m[name] for m in layer_runs])
               for name in layer_runs[0] if name != "trace.self_sum_s"}
    traced_s = median([r["pass_s"] for r in traced])
    plain_s = median([r["pass_s"] for r in plain])
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    # self times of a pass add up to its op wall times, less call overhead
    metrics["trace.self_gap_s"] = max(
        abs(m["trace.self_sum_s"] - r["pass_s"])
        for m, r in zip(layer_runs, traced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: self-test size")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        work = Path(args.setup_probe) / f"probe-{os.getpid()}"
        try:
            secs = set_up(args.workload, args.seed, args.scale, work)[3]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": secs}))
        return 0

    work = WORK / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    cli, signals, in_dir, setup_s = set_up(args.workload, args.seed,
                                           args.scale, work)
    setups = [setup_s] + [probe_setup(args, work)
                          for _ in range(SETUP_REPEATS - 1)]

    # imported after set-up so that set-up times the program's imports only
    import checks
    import spans
    import speed

    ops = workloads.WORKLOADS[args.workload](args.scale)
    checker = checks.Checker(ops, signals, args.seed, args.scale)
    dirs = op_dirs(work / "pass", ops)
    tracer = spans.Tracer() if args.trace else None

    plain, traced, layer_runs, op_layers, failures = [], [], [], [], []
    attempted = failed = 0
    speed.probe()  # untimed: the probe's own first call pays its FFT plan
    t0 = time.perf_counter()
    while True:
        use_tracer = tracer if (tracer and len(plain) > len(traced)) else None
        rec = run_pass(cli, ops, in_dir, dirs, speed.probe, use_tracer)
        rec["op_ref_s"] = at_ref_speed(ops, rec, speed.REF_S)
        if use_tracer is not None:
            traced.append(rec)
            taken = tracer.take()
            layer_runs.append(spans.layer_metrics(taken))
            # the same metrics per op, from the spans tagged with its label
            op_layers.append({op.label: spans.layer_metrics(
                [s for s in taken if s[2] == op.label]) for op in ops})
        else:
            plain.append(rec)
        for label, problems in check_pass(checker, ops, dirs, rec).items():
            attempted += 1
            if problems:
                failed += 1
                failures.append({"op": label, "problems": problems})
        # stop at the pass boundary nearest to --seconds
        typical = median([r["wall_s"] for r in plain + traced])
        if time.perf_counter() - t0 + typical / 2 >= args.seconds and (
                not tracer or traced):
            break

    if args.trace:
        metrics = layer_result(plain, traced, layer_runs)
    else:
        op_s = [median([r["op_ref_s"][op.label] for r in plain])
                for op in ops]
        metrics = {
            "pass_at_ref_speed_s": sum(op_s),
            "slowest_op_at_ref_speed_s": max(op_s),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": median(setups),
        }
    units = envinfo.units(metrics)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "environment": envinfo.environment(ROOT),
        "setup_s": {"samples": setups, "median": median(setups)},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "ops": {op.label: {
            "argv": plain[0]["argv"][op.label],
            "median_s": median([r["op_s"][op.label] for r in plain]),
            "median_at_ref_speed_s":
                median([r["op_ref_s"][op.label] for r in plain]),
            "samples": len(plain),
        } for op in ops},
        "op_s_per_pass": [r["op_s"] for r in plain],
        "probe_s_per_pass": [r["probe_s"] for r in plain],
        "layers_per_traced_pass": layer_runs,
        "layers_per_op_per_traced_pass": op_layers,
        "failures": failures[:20],
        "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
