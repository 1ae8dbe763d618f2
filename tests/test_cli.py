import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alphamod.cli import _OPTIONS, RunConfig, _json, build_parser, main
from alphamod.grids import (SampledGrid, Signal, load_signal_csv,
                            save_signal_csv)


@pytest.fixture()
def chirp_csv(tmp_path, chirp):
    path = tmp_path / "chirp.csv"
    save_signal_csv(chirp, path)
    return str(path)


def run(*argv):
    return main(list(argv))


def test_admissible_gaussian(tmp_path):
    out = tmp_path / "adm"
    code = run("admissible", "--window", "gaussian", "--alpha", "0.5",
               "--xi-max", "40", "--scan-nodes", "401",
               "--output-dir", str(out))
    assert code == 0
    report = json.loads((out / "admissible.json").read_text())
    assert report["admissible"] and report["A"] > 0
    assert report["hypothesis"]["passed"]
    curve = np.loadtxt(out / "m_curve.csv", delimiter=",", skiprows=1)
    assert curve.shape == (401, 2)


def test_admissible_wide_bump(tmp_path):
    code = run("admissible", "--window", "bump:4", "--alpha", "0.5",
               "--scan-nodes", "41", "--xi-max", "20",
               "--output-dir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "admissible.json").read_text())
    assert float(report["hypothesis"]["certified_r"]) > 1.0


def _strict(text):
    """json.loads under RFC 8259, which has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("window", ["gaussian", "bump:1.0"])
def test_admissible_writes_strict_json_for_an_infinite_certificate(
        tmp_path, capsys, window):
    code = run("admissible", "--window", window, "--alpha", "0.5",
               "--scan-nodes", "41", "--xi-max", "20",
               "--output-dir", str(tmp_path))
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    for text in ((tmp_path / "admissible.json").read_text(), printed):
        hypothesis = _strict(text)["hypothesis"]
        assert hypothesis["certified_r"] == "inf"
        assert hypothesis["passed"] is True


def test_coorbit_norm_p_inf_prints_strict_json(tmp_path, chirp_csv, capsys):
    code = run("coorbit-norm", chirp_csv, "--alpha", "0.5", "--p", "inf",
               "--xi-max", "40", "--scan-nodes", "401",
               "--output-dir", str(tmp_path))
    assert code == 0
    out = _strict(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["p"] == "inf" and out["norm"] > 0


def test_json_writes_non_finite_floats_as_strings():
    payload = {"a": [np.float64(np.inf), -math.inf, math.nan, 1.5],
               "b": (True, None, "x", 3, np.int64(4), np.bool_(True))}
    out = _strict(_json(payload))
    assert out == {"a": ["inf", "-inf", "nan", 1.5],
                   "b": [True, None, "x", 3, 4.0, 1.0]}
    assert [float(v) for v in out["a"][:2]] == [math.inf, -math.inf]


def test_admissible_rejects_alpha_one(tmp_path):
    assert run("admissible", "--window", "gaussian", "--alpha", "1.0",
               "--output-dir", str(tmp_path)) == 2


def test_admissible_hypothesis_failure_exit(tmp_path):
    # bspline(1) decays too slowly for alpha = 0.9
    code = run("admissible", "--window", "bspline:1", "--alpha", "0.9",
               "--xi-max", "20", "--scan-nodes", "201",
               "--output-dir", str(tmp_path))
    assert code == 1
    report = json.loads((tmp_path / "admissible.json").read_text())
    assert not report["hypothesis"]["passed"]


def test_frame_info(tmp_path):
    out = tmp_path / "fi"
    code = run("frame-info", "--alpha", "0.5", "--eps", "0.25",
               "--grid-n", "64",
               "--time-range=-8,8", "--freq-range=-2,2",
               "--output-dir", str(out))
    assert code == 0
    report = json.loads((out / "frame_info.json").read_text())
    assert report["A_est"] > 0
    assert report["A_est"] <= report["B_est"]
    assert report["covers_region"] and report["moderate"]


_IMPORT_GUARD = """
import sys
from alphamod.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
scan = ["--alpha", "0.5", "--scan-nodes", "41", "--xi-max", "20"]
for window in ("gaussian", "bump:1.0", "bspline:4"):
    assert main(["admissible", "--window", window, *scan,
                 "--output-dir", out]) == 0
assert main(["diagnostics", "--eps-list", "0.5", "--x-max", "1",
             "--omega-max", "2", *scan, "--output-dir", out]) in (0, 1)
assert main(["covering-dump", "--output-dir", out]) == 0
assert not loaded(), loaded()
assert main(["frame-info", "--alpha", "0.5", "--eps", "0.25", "--grid-n",
             "64", "--time-range=-8,8", "--freq-range=-2,2",
             "--output-dir", out]) == 0
assert "scipy.sparse.linalg" in loaded()
assert not {"scipy.interpolate", "scipy.integrate"} & set(loaded()), loaded()
"""


def test_scans_and_the_gate_import_no_scipy(tmp_path):
    """The symbol path runs on numpy alone; frames load scipy's sparse
    matrices and solvers only when a frame op runs.  A fresh process, as
    the test session itself has scipy loaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD,
                           str(tmp_path)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_roundtrip_chirp(tmp_path, chirp_csv):
    out = tmp_path / "rt"
    code = run("roundtrip", chirp_csv, "--alpha", "0.5", "--eps", "0.25",
               "--output-dir", str(out))
    assert code == 0
    report = json.loads((out / "roundtrip.json").read_text())
    assert report["error"] <= report["threshold"]
    rec = load_signal_csv(out / "reconstructed.csv")
    orig = load_signal_csv(chirp_csv)
    rel = np.linalg.norm(rec.values - orig.values) \
        / np.linalg.norm(orig.values)
    assert rel <= 1e-6


def test_roundtrip_zero_signal(tmp_path):
    grid = SampledGrid.centered(128, 1.0 / 16.0)
    path = tmp_path / "zero.csv"
    save_signal_csv(Signal(grid, np.zeros(128, dtype=complex)), path)
    out = tmp_path / "rtz"
    assert run("roundtrip", str(path), "--alpha", "0.5", "--eps", "0.25",
               "--output-dir", str(out)) == 0
    assert json.loads((out / "roundtrip.json").read_text())["error"] == 0.0


def test_roundtrip_undersampled_fails_threshold(tmp_path, chirp_csv):
    out = tmp_path / "rt4"
    code = run("roundtrip", chirp_csv, "--alpha", "0.5", "--eps", "4",
               "--output-dir", str(out))
    assert code == 1
    report = json.loads((out / "roundtrip.json").read_text())
    assert report["error"] > report["threshold"]


def test_roundtrip_iteration_cap_exits_3(tmp_path, capsys):
    # on the undersampled eps = 4 frame CG stalls near a relative
    # residual of 1e-4, so a tolerance of 1e-31 runs it to its cap
    grid = SampledGrid.centered(64, 0.25)
    t = grid.coords
    path = tmp_path / "short.csv"
    save_signal_csv(Signal(grid, np.exp(-np.pi * (t / 2.5) ** 2)
                           * np.exp(2j * np.pi * 0.5 * t)), path)
    assert run("roundtrip", str(path), "--alpha", "0.5", "--eps", "4",
               "--threshold", "1e-30", "--output-dir", str(tmp_path)) == 3
    assert "cap of 1000 iterations" in capsys.readouterr().err


def test_roundtrip_below_attainable_accuracy_exits_3(tmp_path, chirp_csv,
                                                   capsys):
    # a well-sampled frame: CG's recursive residual passes tol = 1e-31
    # while the true one stays near 1e-16
    assert run("roundtrip", chirp_csv, "--alpha", "0.5", "--eps", "0.25",
               "--threshold", "1e-30", "--output-dir", str(tmp_path)) == 3
    assert "relative residual" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (("diagnostics", "--x-max", "0"), "x_max"),
    (("diagnostics", "--x-max", "-1"), "x_max"),
    (("diagnostics", "--omega-max", "0"), "omega_max"),
    (("diagnostics", "--s", "nan"), "s"),
    (("admissible", "--scan-nodes", "1"), "scan_nodes"),
    (("admissible", "--tol", "nan"), "tol"),
    (("frame-info", "--c", "inf"), "c"),
    (("frame-info", "--eps", "nan"), "eps"),
    (("roundtrip", "signal.csv", "--threshold", "nan"), "threshold"),
    (("diagnostics", "--eps-list", "0.5,nan"), "eps_list"),
    (("frame-info", "--grid-n", "0"), "grid_n"),
    (("frame-info", "--time-range=-inf,4"), "time_range"),
    (("admissible", "--scan-nodes", "400"), "scan_nodes"),
])
def test_bad_numeric_option_exits_2_naming_it(tmp_path, capsys, argv, key):
    assert run(*argv, "--output-dir", str(tmp_path)) == 2
    assert f"config error: {key} must" in capsys.readouterr().err


@pytest.mark.parametrize("spec, bounds", [
    ("bandlimited:1e-300", "[1e-100, 1e100]"),
    ("bandlimited:inf", "[1e-100, 1e100]"),
    ("bandlimited:nan", "[1e-100, 1e100]"),
    ("bump:1e-300", "[0.0625, 16]"),
    ("bump:nan", "[0.0625, 16]"),
])
def test_degenerate_window_parameter_exits_2_stating_range(tmp_path, capsys,
                                                          spec, bounds):
    out = tmp_path / "out"
    assert run("admissible", "--window", spec, "--scan-nodes", "41",
               "--xi-max", "20", "--output-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert "config error: window must be window spec" in err
    assert f"must be in {bounds}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_roundtrip_missing_input(tmp_path):
    assert run("roundtrip", str(tmp_path / "nope.csv"),
               "--output-dir", str(tmp_path)) == 2


def test_analyze_then_synthesize(tmp_path, chirp_csv):
    out = tmp_path / "an"
    code = run("analyze", chirp_csv, "--alpha", "0.5", "--eps", "0.25",
               "--output-dir", str(out))
    assert code == 0
    assert (out / "coefficients.bin").exists()
    assert (out / "coefficients.bin.json").exists()
    assert (out / "coefficients.csv").exists()
    code = run("synthesize", str(out / "coefficients.bin"),
               "--alpha", "0.5", "--eps", "0.25",
               "--output", str(out / "synth.csv"),
               "--output-dir", str(out))
    assert code == 0
    synth = load_signal_csv(out / "synth.csv")
    orig = load_signal_csv(chirp_csv)
    assert synth.grid.isclose(orig.grid)
    # synthesis of raw analysis coefficients is S f, not f: same energy
    # scale but not equal
    assert synth.norm() > 0


def test_synthesize_uses_stored_covering(tmp_path, chirp_csv):
    out = tmp_path / "an"
    assert run("analyze", chirp_csv, "--time-range=-6,6",
               "--freq-range=-3,3", "--output-dir", str(out)) == 0
    header = json.loads((out / "coefficients.bin.json").read_text())
    assert header["time_range"] == [-6.0, 6.0]
    assert header["freq_range"] == [-3.0, 3.0]
    # no range flags: the covering comes from the file, not the defaults
    assert run("synthesize", str(out / "coefficients.bin"),
               "--output-dir", str(out)) == 0
    assert (out / "synthesized.csv").exists()


@pytest.mark.parametrize("key", ["time_range", "freq_range", "window"])
def test_synthesize_rejects_header_without_key(tmp_path, chirp_csv, capsys,
                                               key):
    out = tmp_path / "an"
    assert run("analyze", chirp_csv, "--output-dir", str(out)) == 0
    path = out / "coefficients.bin.json"
    header = json.loads(path.read_text())
    del header[key]
    path.write_text(json.dumps(header))
    capsys.readouterr()
    assert run("synthesize", str(out / "coefficients.bin"),
               "--output-dir", str(out)) == 2
    assert key in capsys.readouterr().err
    assert not (out / "synthesized.csv").exists()


@pytest.mark.parametrize("target, edit, key", [
    ("signal", lambda meta: meta.pop("origin"), "origin"),
    ("header", lambda meta: meta.pop("n_atoms"), "n_atoms"),
    ("header", lambda meta: meta["grid"].pop("spacing"), "spacing"),
    ("header", lambda meta: meta.update(grid=[256, 0.0625, -8.0]), "grid"),
    ("header", lambda meta: meta["grid"].update(n=256.5), "grid n"),
], ids=["sidecar-origin", "header-n_atoms", "grid-spacing", "grid-list",
        "grid-n-fraction"])
def test_bad_grid_or_header_exits_2(tmp_path, chirp_csv, capsys, target,
                                    edit, key):
    out = tmp_path / "an"
    assert run("analyze", chirp_csv, "--output-dir", str(out)) == 0
    if target == "signal":
        path, argv = Path(chirp_csv + ".json"), ("analyze", chirp_csv)
    else:
        path = out / "coefficients.bin.json"
        argv = ("synthesize", str(out / "coefficients.bin"))
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert run(*argv, "--output-dir", str(tmp_path / "again")) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err


@pytest.mark.parametrize("key, value", [
    ("eps", None), ("alpha", "0.5"), ("c", [1]), ("n_atoms", None),
    ("time_range", [-8]), ("freq_range", [2, -2]), ("n_atoms", 3.0),
    ("window", 4), ("window", "bspline:0"),
], ids=["eps-null", "alpha-text", "c-list", "n_atoms-null",
        "time_range-short", "freq_range-reversed", "n_atoms-float",
        "window-number", "window-bad-spec"])
def test_bad_header_value_exits_2_naming_file_and_key(tmp_path, chirp_csv,
                                                      capsys, key, value):
    out = tmp_path / "an"
    assert run("analyze", chirp_csv, "--output-dir", str(out)) == 0
    path = out / "coefficients.bin.json"
    header = json.loads(path.read_text())
    header[key] = value
    path.write_text(json.dumps(header))
    capsys.readouterr()
    assert run("synthesize", str(out / "coefficients.bin"),
               "--output-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{path}: {key} must" in err
    assert "Traceback" not in err
    assert not (out / "synthesized.csv").exists()


def test_synthesize_rejects_tampered_node_table(tmp_path, chirp_csv):
    out = tmp_path / "an"
    assert run("analyze", chirp_csv, "--output-dir", str(out)) == 0
    path = out / "coefficients.bin"
    blob = np.fromfile(path, dtype="<f8")
    blob[3] += 1.0  # k of the second atom
    blob.tofile(path)
    assert run("synthesize", str(path), "--output-dir", str(out)) == 2
    assert not (out / "synthesized.csv").exists()


def test_synthesize_rejects_a_padded_coefficient_file(tmp_path, chirp_csv,
                                                      capsys):
    """3 stray bytes after the last float make the file no whole
    coefficient file: exit 2, naming it."""
    out = tmp_path / "an"
    assert run("analyze", chirp_csv, "--output-dir", str(out)) == 0
    path = out / "coefficients.bin"
    path.write_bytes(path.read_bytes() + b"abc")
    capsys.readouterr()
    assert run("synthesize", str(path), "--output-dir", str(out)) == 2
    assert f"{path} holds" in capsys.readouterr().err
    assert not (out / "synthesized.csv").exists()


@pytest.mark.parametrize("target", ["signal", "header"])
def test_sidecar_that_is_not_json_exits_2_naming_it(tmp_path, chirp_csv,
                                                    capsys, target):
    out = tmp_path / "an"
    assert run("analyze", chirp_csv, "--output-dir", str(out)) == 0
    if target == "signal":
        path, argv = Path(chirp_csv + ".json"), ("analyze", chirp_csv)
    else:
        path = out / "coefficients.bin.json"
        argv = ("synthesize", str(out / "coefficients.bin"))
    path.write_text(path.read_text()[:-1] + ",\n")
    capsys.readouterr()
    assert run(*argv, "--output-dir", str(tmp_path / "again")) == 2
    assert f"{path} is not JSON" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for block in re.findall(r"```sh\n(.*?)```",
                                        readme.read_text(), re.S)
             for ln in block.splitlines() if ln.startswith("alphamod ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_coorbit_norm(tmp_path, chirp_csv, capsys):
    code = run("coorbit-norm", chirp_csv, "--alpha", "0.5",
               "--p", "2", "--s", "0",
               "--xi-max", "40", "--scan-nodes", "401",
               "--output-dir", str(tmp_path))
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["norm"] > 0


def test_covering_dump(tmp_path):
    out = tmp_path / "cov"
    code = run("covering-dump", "--alpha", "0.5", "--eps", "0.5",
               "--output-dir", str(out))
    assert code == 0
    files = list(out.glob("*.csv"))
    assert files
    data = np.loadtxt(files[0], delimiter=",", skiprows=1)
    assert data.shape[1] == 8


def test_covering_with_a_missing_row(tmp_path):
    # rows -9..-1 and 1..10 at alpha = 0.9: row 0 misses the rectangle
    cfg = ("--alpha", "0.9", "--eps", "1", "--c", "1", "--time-range=-4,4",
           "--freq-range=3,4")
    out = tmp_path / "cov"
    assert run("covering-dump", *cfg, "--output-dir", str(out)) == 0
    data = np.loadtxt(out / "covering.csv", delimiter=",", skiprows=1)
    assert sorted(set(data[:, 0])) == [*range(-9, 0), *range(1, 11)]
    assert run("frame-info", *cfg, "--grid-n", "64",
               "--output-dir", str(tmp_path / "fi")) == 0


@pytest.mark.parametrize("argv", [
    # fewer than 3 DFT bins of the grid inside the frequency range
    ("--alpha", "0.5", "--eps", "0.5", "--time-range=-4,4",
     "--freq-range=-0.1,0.1", "--grid-n", "64"),
    ("--grid-n", "2"),
])
def test_frame_info_tiny_dimension_exit(tmp_path, capsys, argv):
    assert run("frame-info", *argv, "--output-dir", str(tmp_path)) == 2
    assert "in-band" in capsys.readouterr().err


def test_frame_info_on_touching_bands_exits_2(tmp_path, capsys):
    # bands (0.5 j -+ 0.25) only touch: no box contains omega = 0.75
    assert run("frame-info", "--alpha", "0", "--eps", "0.5", "--c", "0.25",
               "--time-range=-4,4", "--freq-range=0.3,2",
               "--output-dir", str(tmp_path)) == 2
    assert "(0.0, 0.75) uncovered" in capsys.readouterr().err


def test_diagnostics_empty_eps_list(tmp_path):
    assert run("diagnostics", "--eps-list", "", "--alpha", "0.5",
               "--output-dir", str(tmp_path)) == 2


def test_diagnostics_gate_failure_exit(tmp_path, capsys):
    code = run("diagnostics", "--eps-list", "0.25", "--alpha", "0.5",
               "--x-max", "1", "--omega-max", "5", "--scan-nodes", "201",
               "--xi-max", "20", "--output-dir", str(tmp_path))
    assert code == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["pass"] == [False]
    report = json.loads((tmp_path / "diagnostics.json").read_text())
    assert report["pass"] == [False] and report["lhs"][0] >= 1.0


def test_config_file_with_flag_override(tmp_path, chirp_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "eps": 4.0,
                               "output_dir": str(tmp_path / "cfgout")}))
    # flag overrides the bad eps from the file
    code = run("roundtrip", chirp_csv, "--config", str(cfg),
               "--eps", "0.25")
    assert code == 0
    assert (tmp_path / "cfgout" / "roundtrip.json").exists()


@pytest.mark.parametrize("content, key", [
    ({"eps": None}, "eps"),
    ({"grid_n": 64.7}, "grid_n"),
    ({"alpha": "abc"}, "alpha"),
    ({"time_range": [-4, 4]}, "time_range"),
    ({"output_dir": None}, "output_dir"),
    ({"window": True}, "window"),
    ([1, 2], "config file"),
], ids=["eps-null", "grid_n-fraction", "alpha-text", "time_range-list",
        "output_dir-null", "window-bool", "list"])
def test_bad_config_value_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                           content, key):
    # no --output-dir flag, which would override the file's output_dir
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(content))
    assert run("covering-dump", "--config", "cfg.json") == 2
    err = capsys.readouterr().err
    assert f"config error: {key} must" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_file_invalid_key(tmp_path, chirp_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpah": 0.5}))
    assert run("roundtrip", chirp_csv, "--config", str(cfg),
               "--output-dir", str(tmp_path)) == 2


def test_deterministic_reports(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("frame-info", "--alpha", "0.5", "--eps", "0.25",
                   "--grid-n", "64",
                   "--time-range=-8,8", "--freq-range=-2,2",
                   "--output-dir", str(out)) == 0
        outs.append((out / "frame_info.json").read_text())
    assert outs[0] == outs[1]


# a value other than the default for every option in the table
OPTION_VALUES = {
    "window": "bspline:4", "alpha": 0.25, "eps": 0.5, "c": 2.0, "s": 1.0,
    "p": 3.0, "time_range": "-4,4", "freq_range": "-2,2", "grid_n": 64,
    "xi_max": 40.0, "scan_nodes": 401, "tol": 1e-6, "threshold": 1e-3,
    "eps_list": "0.5,0.25", "x_max": 4.0, "omega_max": 16.0,
    "output_dir": "elsewhere",
}


def _attribute(cfg, key):
    return cfg.window.label if key == "window" else getattr(cfg, key)


@pytest.mark.parametrize("key", sorted(_OPTIONS))
def test_option_from_config_file_equals_flag(tmp_path, key):
    value = OPTION_VALUES[key]
    parser = build_parser()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    from_file = RunConfig(parser.parse_args(
        ["covering-dump", "--config", str(cfg_file)]))
    flag = "--" + key.replace("_", "-")
    from_flag = RunConfig(parser.parse_args(
        ["covering-dump", f"{flag}={value}"]))
    default = RunConfig(parser.parse_args(["covering-dump"]))
    assert _attribute(from_file, key) == _attribute(from_flag, key)
    assert _attribute(from_file, key) != _attribute(default, key)


@pytest.mark.parametrize("command", [
    "admissible", "frame-info", "diagnostics", "coorbit-norm",
    "covering-dump", "analyze", "synthesize", "roundtrip"])
def test_help_lists_every_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    # the table's flags, which OPTION_VALUES names one by one
    flags = {"--help", "--config"} | {"--" + key.replace("_", "-")
                                      for key in OPTION_VALUES}
    if command == "synthesize":
        flags.add("--output")
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == flags
    assert ("--window WINDOW window spec, e.g. gaussian, bspline:4, "
            "bump:1.0, bandlimited:2.0") in " ".join(text.split())
