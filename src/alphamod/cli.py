"""Batch command line front end.

Subcommands wire the library into reproducible file-based runs:

    admissible     window admissibility scan + hypothesis check
    frame-info     build a frame, report bounds and covering diagnostics
    analyze        signal -> coefficient file
    synthesize     coefficient file -> signal
    roundtrip      analyze + reconstruct, report the error
    diagnostics    rho/gamma/C_w sweep over an epsilon list
    coorbit-norm   weighted L^p norm of the voice transform
    covering-dump  covering nodes and boxes as CSV

Exit codes: 0 success, 1 a quantitative threshold failed, 2 bad
configuration, 3 numerical failure.  Options may come from a JSON config
file (--config); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import (
    AlphaFrame, CoveringGapError, IterationError, NotAdmissibleError,
    Purpose, QuadratureError, SampledGrid, ScanConfig, Signal,
    TruncationConfig, admissibility_scan, analysis, build_covering,
    check_hypotheses, coorbit_norm, covering_diagnostics,
    estimate_frame_bounds, load_coefficients, load_signal_csv,
    load_signal_raw, parse_window_spec, reconstruct, save_signal_csv,
    save_signal_raw, synthesis, diagnostics_report,
)
from .frames import read_coefficient_header
from .grids import _sidecar, _write_csv

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# every run option, name: (type, default); its flag is --name with "-"
# for "_", and its config-file key is the name
_OPTIONS = {
    "window": (str, "gaussian"),
    "alpha": (float, 0.5),
    "eps": (float, 0.25),
    "c": (float, 1.0),
    "s": (float, 0.0),
    "p": (float, 2.0),
    "time_range": (str, "-8,8"),
    "freq_range": (str, "-8,8"),
    "grid_n": (int, 256),
    "grid_spacing": (float, None),
    "xi_max": (float, 200.0),
    "scan_nodes": (int, 2001),
    "tol": (float, 1e-8),
    "threshold": (float, 1e-6),
    "eps_list": (str, "0.5,0.25,0.125"),
    "x_max": (float, 8.0),
    "omega_max": (float, 32.0),
    "seed": (int, 42),
    "output_dir": (str, "."),
}
# float options that must be positive (and finite)
_POSITIVE = ("eps", "c", "grid_spacing", "xi_max", "tol", "threshold",
             "x_max", "omega_max")
_WINDOW_HELP = ("window spec, e.g. gaussian, bspline:4, bump:1.0, "
                "bandlimited:2.0")


class ConfigError(ValueError):
    """One or more option values violate a precondition."""


def _parse_pair(name: str, text: str):
    parts = [float(p) for p in str(text).split(",")]
    if len(parts) != 2 or not -math.inf < parts[0] < parts[1] < math.inf:
        raise ConfigError(
            f"{name} must be 'lo,hi' with finite hi > lo: {text!r}")
    return parts[0], parts[1]


class RunConfig:
    """Merged defaults / config file / flags, validated up front."""

    def __init__(self, args: argparse.Namespace):
        merged = {name: default for name, (_, default) in _OPTIONS.items()}
        if getattr(args, "config", None):
            try:
                data = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            unknown = set(data) - set(_OPTIONS)
            if unknown:
                raise ConfigError(
                    f"unknown config keys: {', '.join(sorted(unknown))}")
            merged.update(data)
        for key in _OPTIONS:
            flag = getattr(args, key, None)
            if flag is not None:
                merged[key] = flag
        problems = []
        self.window_spec = str(merged["window"])
        try:
            self.window = parse_window_spec(self.window_spec)
        except ValueError as exc:
            problems.append(str(exc))
            self.window = None
        self.alpha = float(merged["alpha"])
        if not 0 <= self.alpha < 1:
            problems.append(f"alpha must be in [0, 1), got {self.alpha}")
        self.eps = float(merged["eps"])
        self.c = float(merged["c"])
        self.s = float(merged["s"])
        if not math.isfinite(self.s):
            problems.append(f"s must be finite, got {self.s}")
        self.p = float(merged["p"])
        if not self.p >= 1:  # inf is allowed
            problems.append(f"p must be >= 1, got {self.p}")
        try:
            self.time_range = _parse_pair("time_range", merged["time_range"])
            self.freq_range = _parse_pair("freq_range", merged["freq_range"])
        except ConfigError as exc:
            problems.append(str(exc))
            self.time_range = self.freq_range = (-8.0, 8.0)
        self.grid_n = int(merged["grid_n"])
        if self.grid_n < 2:
            problems.append("grid_n must be at least 2")
        spacing = merged["grid_spacing"]
        self.grid_spacing = (float(spacing) if spacing is not None else
                             (self.time_range[1] - self.time_range[0])
                             / max(self.grid_n, 1))  # grid_n < 2: above
        self.xi_max = float(merged["xi_max"])
        self.scan_nodes = int(merged["scan_nodes"])
        if self.scan_nodes < 3:
            problems.append(
                f"scan_nodes must be at least 3, got {self.scan_nodes}")
        self.tol = float(merged["tol"])
        self.threshold = float(merged["threshold"])
        try:
            self.eps_list = [float(e) for e in
                             str(merged["eps_list"]).split(",") if e.strip()]
        except ValueError:
            problems.append(f"bad eps_list: {merged['eps_list']!r}")
            self.eps_list = []
        if not all(e > 0 and math.isfinite(e) for e in self.eps_list):
            problems.append(f"eps_list must hold positive finite values, "
                            f"got {merged['eps_list']!r}")
        self.x_max = float(merged["x_max"])
        self.omega_max = float(merged["omega_max"])
        self.seed = int(merged["seed"])
        self.output_dir = Path(str(merged["output_dir"]))
        for name in _POSITIVE:
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                problems.append(
                    f"{name} must be positive and finite, got {value}")
        if problems:
            raise ConfigError("; ".join(problems))

    def grid(self) -> SampledGrid:
        return SampledGrid(self.grid_n, self.grid_spacing,
                           self.time_range[0])

    def scan_config(self) -> ScanConfig:
        return ScanConfig(xi_max=self.xi_max, n_nodes=self.scan_nodes,
                          tol=self.tol)

    def frame(self, grid: SampledGrid | None = None) -> AlphaFrame:
        """Frame on the given grid, by default the configured one."""
        cov = build_covering(self.alpha, self.eps, self.c,
                             self.time_range, self.freq_range)
        return AlphaFrame(cov, self.window, grid or self.grid())


def _load_signal(path: str) -> Signal:
    if str(path).endswith(".csv"):
        return load_signal_csv(path)
    return load_signal_raw(path)


def _save_signal(f: Signal, path: Path):
    if str(path).endswith(".csv"):
        save_signal_csv(f, path)
    else:
        save_signal_raw(f, path)


def _write_json(payload: dict, path: Path):
    path.write_text(json.dumps(payload, indent=2, default=float))


def cmd_admissible(cfg: RunConfig, args: argparse.Namespace) -> int:
    verdict = check_hypotheses(cfg.window, cfg.alpha, cfg.s,
                               Purpose.ADMISSIBILITY)
    out = cfg.output_dir
    try:
        tab = admissibility_scan(cfg.window, cfg.alpha, cfg.scan_config())
    except QuadratureError as exc:
        # a window that violates the decay hypothesis makes the symbol
        # integral non-integrable; record the failed verdict instead of
        # surfacing a numerical error
        if verdict.passed:
            raise
        report = {"alpha": cfg.alpha, "window": cfg.window_spec,
                  "A": 0.0, "B": None, "admissible": False,
                  "scan_error": str(exc)}
        tab = None
    if tab is not None:
        tab.save_csv(out / "m_curve.csv")
        report = tab.report()
    report["hypothesis"] = {
        "required_r": verdict.required_r,
        "certified_r": verdict.certified_r,
        "passed": verdict.passed,
    }
    _write_json(report, out / "admissible.json")
    print(json.dumps(report, default=float))
    ok = tab is not None and tab.admissible and verdict.passed
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_frame_info(cfg: RunConfig, args: argparse.Namespace) -> int:
    fr = cfg.frame()
    A_est, B_est = estimate_frame_bounds(fr, seed=cfg.seed)
    diag = covering_diagnostics(fr.covering, s=cfg.s)
    report = {
        "n_atoms": fr.n_atoms, "A_est": A_est, "B_est": B_est,
        "ratio": B_est / A_est if A_est > 0 else float("inf"),
        "max_overlap": diag.max_overlap,
        "covers_region": diag.covers_region,
        "moderate": diag.moderate, "C_w": diag.C_w,
    }
    _write_json(report, cfg.output_dir / "frame_info.json")
    print(json.dumps(report, default=float))
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    fr = cfg.frame(f.grid)
    coeffs = analysis(f, fr)
    coeffs.save(cfg.output_dir / "coefficients.bin", cfg.window_spec)
    coeffs.save_csv(cfg.output_dir / "coefficients.csv")
    print(f"wrote {fr.n_atoms} coefficients")
    return EXIT_OK


def cmd_synthesize(cfg: RunConfig, args: argparse.Namespace) -> int:
    # the frame comes from the file's header alone; load_coefficients
    # rejects a covering that does not match the stored node table
    header = read_coefficient_header(args.coefficients)
    grid = SampledGrid.from_json(header["grid"], _sidecar(args.coefficients))
    cov = build_covering(header["alpha"], header["eps"], header["c"],
                         header["time_range"], header["freq_range"])
    fr = AlphaFrame(cov, parse_window_spec(header["window"]), grid)
    out = synthesis(load_coefficients(args.coefficients, fr, header), fr)
    _save_signal(out, cfg.output_dir / args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_roundtrip(cfg: RunConfig, args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    fr = cfg.frame(f.grid)
    coeffs = analysis(f, fr)
    coeffs.save(cfg.output_dir / "coefficients.bin", cfg.window_spec)
    res = reconstruct(f, fr, tol=min(cfg.threshold / 10, 1e-8))
    _save_signal(res.f_rec, cfg.output_dir / "reconstructed.csv")
    report = {"error": res.error, "iters": res.iters,
              "residual": res.residual, "threshold": cfg.threshold}
    _write_json(report, cfg.output_dir / "roundtrip.json")
    print(json.dumps(report, default=float))
    return EXIT_OK if res.error <= cfg.threshold else EXIT_THRESHOLD


def cmd_diagnostics(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not cfg.eps_list:
        raise ConfigError("eps_list must not be empty")
    tab = admissibility_scan(cfg.window, cfg.alpha, cfg.scan_config())
    trunc = TruncationConfig(x_max=cfg.x_max, omega_max=cfg.omega_max)
    report = diagnostics_report(cfg.window, cfg.window_spec, cfg.alpha,
                                cfg.s, tab, cfg.eps_list, cfg.c, trunc)
    _write_json(report, cfg.output_dir / "diagnostics.json")
    _write_csv(cfg.output_dir / "diagnostics.csv",
               np.column_stack([report["eps_list"], report["gamma"],
                                report["lhs"]]), "eps,gamma,lhs")
    print(json.dumps({"rho": report["rho"], "gamma": report["gamma"],
                      "pass": report["pass"]}, default=float))
    return EXIT_OK if all(report["pass"]) else EXIT_THRESHOLD


def cmd_coorbit_norm(cfg: RunConfig, args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    tab = admissibility_scan(cfg.window, cfg.alpha, cfg.scan_config())
    t0, t1 = cfg.time_range
    f0, f1 = cfg.freq_range
    nx = max(32, cfg.grid_n // 4)
    x_grid = SampledGrid(nx, (t1 - t0) / nx, t0)
    w_grid = SampledGrid(nx, (f1 - f0) / nx, f0)
    value = coorbit_norm(f, cfg.window, cfg.alpha, tab, cfg.p, cfg.s,
                         x_grid, w_grid)
    print(json.dumps({"p": cfg.p, "s": cfg.s, "norm": value}))
    return EXIT_OK


def cmd_covering_dump(cfg: RunConfig, args: argparse.Namespace) -> int:
    cov = build_covering(cfg.alpha, cfg.eps, cfg.c, cfg.time_range,
                         cfg.freq_range)
    cov.save_csv(cfg.output_dir / "covering.csv")
    print(f"wrote covering.csv ({cov.n_boxes} boxes)")
    return EXIT_OK


# subcommands in the order --help lists them
_COMMANDS = {
    "admissible": cmd_admissible,
    "frame-info": cmd_frame_info,
    "diagnostics": cmd_diagnostics,
    "coorbit-norm": cmd_coorbit_norm,
    "covering-dump": cmd_covering_dump,
    "analyze": cmd_analyze,
    "synthesize": cmd_synthesize,
    "roundtrip": cmd_roundtrip,
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override")
    for name, (kind, _) in _OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind,
                       help=_WINDOW_HELP if name == "window" else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphamod",
        description="adaptive time-frequency analysis toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        _add_common(sp)
        if name in ("analyze", "roundtrip", "coorbit-norm"):
            sp.add_argument("input", help="signal file (.csv or raw)")
        if name == "synthesize":
            sp.add_argument("coefficients", help="coefficient file")
            sp.add_argument("--output", default="synthesized.csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except (QuadratureError, IterationError, NotAdmissibleError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, CoveringGapError, FileNotFoundError, OSError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
