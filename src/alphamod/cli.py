"""Batch command line front end.

Subcommands wire the library into reproducible file-based runs:

    admissible     window admissibility scan + hypothesis check
    frame-info     frame bounds and the covering's exact overlap and gaps
    analyze        signal -> coefficient file
    synthesize     coefficient file -> signal
    roundtrip      analyze + reconstruct, report the error
    diagnostics    rho/gamma/C_w sweep over an epsilon list
    coorbit-norm   weighted L^p norm of the voice transform
    covering-dump  covering nodes and boxes as CSV

Exit codes: 0 success, 1 a quantitative threshold failed, 2 bad
configuration, 3 numerical failure.  Options may come from a JSON config
file (--config) holding a JSON object; explicit flags override file
values.  Each value is read the way its flag's text would be, by its
entry in _OPTIONS: ranges and eps lists are "lo,hi" strings, integer
options reject fractions, and a bad value exits 2 naming its option.
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
    Purpose, QuadratureError, SampledGrid, Signal, SymbolTable,
    TruncationConfig, admissibility_scan, analysis, build_covering,
    check_hypotheses, coorbit_norm, covering_diagnostics,
    estimate_frame_bounds, load_coefficients, load_signal_csv,
    load_signal_raw, parse_window_spec, reconstruct, save_signal_csv,
    save_signal_raw, synthesis, diagnostics_report,
)
from .grids import _write_csv

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _positive(value: float) -> bool:
    return 0 < value < math.inf


_RANGE = (lambda t: tuple(float(part) for part in t.split(",")), "-8,8",
          "'lo,hi' with finite hi > lo",
          lambda v: len(v) == 2 and -math.inf < v[0] < v[1] < math.inf)

# every run option, name: (parse, default, rule, test).  Its flag is
# --name with "-" for "_" and its config-file key is the name; a flag's
# text or a file's value v is read as parse(str(v)) and must pass test.
# rule, which --help prints, says what test accepts.
_OPTIONS = {
    "window": (parse_window_spec, "gaussian",
               "window spec, e.g. gaussian, bspline:4, bump:1.0, "
               "bandlimited:2.0", lambda v: True),
    "alpha": (float, "0.5", "in [0, 1)", lambda v: 0 <= v < 1),
    "eps": (float, "0.25", "positive and finite", _positive),
    "c": (float, "1", "positive and finite", _positive),
    "s": (float, "0", "finite", math.isfinite),
    "p": (float, "2", ">= 1 (inf allowed)", lambda v: v >= 1),
    "time_range": _RANGE,
    "freq_range": _RANGE,
    "grid_n": (int, "256", "an integer >= 2", lambda v: v >= 2),
    "xi_max": (float, "200", "positive and finite", _positive),
    "scan_nodes": (int, "2001", "an odd integer >= 3",
                   lambda v: v >= 3 and v % 2 == 1),
    "tol": (float, "1e-8", "positive and finite", _positive),
    "threshold": (float, "1e-6", "positive and finite", _positive),
    "eps_list": (lambda t: [float(e) for e in t.split(",") if e.strip()],
                 "0.5,0.25,0.125",
                 "one or more comma-separated positive finite values",
                 lambda v: v and all(map(_positive, v))),
    "x_max": (float, "8", "positive and finite", _positive),
    "omega_max": (float, "32", "positive and finite", _positive),
    "output_dir": (Path, ".", "a directory path", lambda v: True),
}


class ConfigError(ValueError):
    """One or more option values violate a precondition."""


class RunConfig:
    """Merged defaults / config file / flags, validated up front."""

    def __init__(self, args: argparse.Namespace):
        merged = {name: entry[1] for name, entry in _OPTIONS.items()}
        if getattr(args, "config", None):
            try:
                data = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            if not isinstance(data, dict):
                raise ConfigError(f"config file must hold a JSON object, "
                                  f"got {data!r}")
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
        for name, (parse, _, rule, test) in _OPTIONS.items():
            value = merged[name]
            try:
                # only text and numbers read the way a flag's text does
                if isinstance(value, bool) or not isinstance(
                        value, (str, int, float)):
                    raise ValueError
                parsed = parse(str(value))
                if not test(parsed):
                    raise ValueError
            except ValueError as exc:
                # the parser's own reason, e.g. a window parameter's range
                reason = f" ({exc})" if str(exc) else ""
                problems.append(f"{name} must be {rule}, got {value!r}"
                                + reason)
            else:
                setattr(self, name, parsed)
        if problems:
            raise ConfigError("; ".join(problems))

    def scan(self) -> SymbolTable:
        """The window's symbol table on the configured xi grid."""
        return admissibility_scan(self.window, self.alpha, self.xi_max,
                                  self.scan_nodes, self.tol)

    def frame(self, grid: SampledGrid | None = None) -> AlphaFrame:
        """Frame on the given grid, by default grid_n samples that span
        the time range from its start, as the covering does."""
        t0, t1 = self.time_range
        cov = build_covering(self.alpha, self.eps, self.c,
                             self.time_range, self.freq_range)
        return AlphaFrame(cov, self.window, grid or SampledGrid(
            self.grid_n, (t1 - t0) / self.grid_n, t0))


def _load_signal(path: str) -> Signal:
    if str(path).endswith(".csv"):
        return load_signal_csv(path)
    return load_signal_raw(path)


def _save_signal(f: Signal, path: Path):
    if str(path).endswith(".csv"):
        save_signal_csv(f, path)
    else:
        save_signal_raw(f, path)


def _plain(value):
    """value for strict JSON (RFC 8259): a number that is not an int as
    a float, or as "inf", "-inf" or "nan", which float() reads back."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (str, int)):
        return value
    value = float(value)
    return value if math.isfinite(value) else str(value)


def _json(payload: dict, indent: int | None = None) -> str:
    """The one JSON writer of the CLI's files and printed lines."""
    return json.dumps(_plain(payload), indent=indent, allow_nan=False)


def _write_json(payload: dict, path: Path):
    path.write_text(_json(payload, indent=2))


def cmd_admissible(cfg: RunConfig, args: argparse.Namespace) -> int:
    verdict = check_hypotheses(cfg.window, cfg.alpha, cfg.s,
                               Purpose.ADMISSIBILITY)
    out = cfg.output_dir
    try:
        tab = cfg.scan()
    except QuadratureError as exc:
        # a window that violates the decay hypothesis makes the symbol
        # integral non-integrable; record the failed verdict instead of
        # surfacing a numerical error
        if verdict.passed:
            raise
        report = {"alpha": cfg.alpha, "window": cfg.window.label,
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
    print(_json(report))
    ok = tab is not None and tab.admissible and verdict.passed
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_frame_info(cfg: RunConfig, args: argparse.Namespace) -> int:
    fr = cfg.frame()
    A_est, B_est = estimate_frame_bounds(fr)
    diag = covering_diagnostics(fr.covering, s=cfg.s)
    report = {
        "n_atoms": fr.n_atoms, "A_est": A_est, "B_est": B_est,
        "ratio": B_est / A_est if A_est > 0 else float("inf"),
        "max_overlap": diag.max_overlap,
        "covers_region": diag.covers_region,
        "moderate": diag.moderate, "C_w": diag.C_w,
    }
    _write_json(report, cfg.output_dir / "frame_info.json")
    print(_json(report))
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    fr = cfg.frame(f.grid)
    coeffs = analysis(f, fr)
    coeffs.save(cfg.output_dir / "coefficients.bin")
    coeffs.save_csv(cfg.output_dir / "coefficients.csv")
    print(f"wrote {fr.n_atoms} coefficients")
    return EXIT_OK


def cmd_synthesize(cfg: RunConfig, args: argparse.Namespace) -> int:
    # the frame comes from the file's header alone
    c = load_coefficients(args.coefficients)
    _save_signal(synthesis(c, c.frame), cfg.output_dir / args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_roundtrip(cfg: RunConfig, args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    fr = cfg.frame(f.grid)
    coeffs = analysis(f, fr)
    coeffs.save(cfg.output_dir / "coefficients.bin")
    res = reconstruct(f, fr, tol=min(cfg.threshold / 10, 1e-8))
    _save_signal(res.f_rec, cfg.output_dir / "reconstructed.csv")
    report = {"error": res.error, "iters": res.iters,
              "residual": res.residual, "threshold": cfg.threshold}
    _write_json(report, cfg.output_dir / "roundtrip.json")
    print(_json(report))
    return EXIT_OK if res.error <= cfg.threshold else EXIT_THRESHOLD


def cmd_diagnostics(cfg: RunConfig, args: argparse.Namespace) -> int:
    tab = cfg.scan()
    trunc = TruncationConfig(x_max=cfg.x_max, omega_max=cfg.omega_max)
    report = diagnostics_report(cfg.window, cfg.alpha, cfg.s, tab,
                                cfg.eps_list, cfg.c, trunc)
    _write_json(report, cfg.output_dir / "diagnostics.json")
    _write_csv(cfg.output_dir / "diagnostics.csv",
               np.column_stack([report["eps_list"], report["gamma"],
                                report["lhs"]]), "eps,gamma,lhs")
    print(_json({"rho": report["rho"], "gamma": report["gamma"],
                 "pass": report["pass"]}))
    return EXIT_OK if all(report["pass"]) else EXIT_THRESHOLD


def cmd_coorbit_norm(cfg: RunConfig, args: argparse.Namespace) -> int:
    f = _load_signal(args.input)
    tab = cfg.scan()
    t0, t1 = cfg.time_range
    f0, f1 = cfg.freq_range
    nx = max(32, cfg.grid_n // 4)
    x_grid = SampledGrid(nx, (t1 - t0) / nx, t0)
    w_grid = SampledGrid(nx, (f1 - f0) / nx, f0)
    value = coorbit_norm(f, cfg.window, cfg.alpha, tab, cfg.p, cfg.s,
                         x_grid, w_grid)
    print(_json({"p": cfg.p, "s": cfg.s, "norm": value}))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphamod",
        description="adaptive time-frequency analysis toolbox",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override")
    for option, (_, _, rule, _) in _OPTIONS.items():
        common.add_argument("--" + option.replace("_", "-"), help=rule)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name, parents=[common])
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
