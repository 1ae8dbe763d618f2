import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from alphamod.grids import (_CSV_CHUNK_VALUES, GridMismatchError,
                            SampledGrid, Signal, Weight, _write_csv,
                            cubic_spline, forward_fourier, inner_product,
                            inverse_fourier, load_signal_csv, load_signal_raw,
                            save_signal_csv, save_signal_raw,
                            weighted_lp_norm)


def gaussian_signal(n=256, dt=1.0 / 16.0):
    grid = SampledGrid.centered(n, dt)
    return Signal(grid, np.exp(-np.pi * grid.coords**2).astype(complex))


def test_centered_grid_brackets_zero():
    g = SampledGrid.centered(64, 0.25)
    assert g.coords[0] == -8.0
    assert g.coords[-1] == 7.75
    assert 0.0 in g.coords


def test_dual_spacing_reciprocal():
    g = SampledGrid.centered(128, 0.125)
    d = g.dual()
    assert d.spacing == pytest.approx(1.0 / (g.n * g.spacing))
    assert d.n == g.n


def test_fourier_roundtrip_exact():
    f = gaussian_signal()
    back = inverse_fourier(forward_fourier(f), f.grid)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_fourier_matches_analytic_gaussian():
    # exp(-pi t^2) is its own transform under this convention
    f = gaussian_signal()
    F = forward_fourier(f)
    expected = np.exp(-np.pi * F.grid.coords**2)
    assert np.max(np.abs(F.values - expected)) < 1e-12


def test_fourier_modulation_shift():
    grid = SampledGrid.centered(256, 1.0 / 16.0)
    t = grid.coords
    f = Signal(grid, np.exp(-np.pi * t**2) * np.exp(2j * np.pi * 3.0 * t))
    F = forward_fourier(f)
    expected = np.exp(-np.pi * (F.grid.coords - 3.0) ** 2)
    assert np.max(np.abs(F.values - expected)) < 1e-12


def test_parseval():
    f = gaussian_signal()
    assert forward_fourier(f).norm() == pytest.approx(f.norm(), rel=1e-12)


def test_inner_product_conjugate_linear_first_slot():
    grid = SampledGrid.centered(32, 0.5)
    rng = np.random.default_rng(0)
    f = Signal(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    g = Signal(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert inner_product(f, g) == pytest.approx(
        np.conj(inner_product(g, f)), rel=1e-12)
    assert inner_product(f, f).real == pytest.approx(f.norm() ** 2, rel=1e-12)


def test_grid_mismatch_raises():
    f = gaussian_signal(64)
    g = gaussian_signal(128)
    with pytest.raises(GridMismatchError):
        inner_product(f, g)


@given(st.floats(-4, 4), st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=200, deadline=None)
def test_weight_mutual_symmetric_and_bounded_below(s, a, b):
    w = Weight(s)
    m = w.mutual(a, b)
    assert m == pytest.approx(w.mutual(b, a))
    assert m >= 1.0 or math.isclose(m, 1.0)


def test_weighted_lp_norm_l2_matches_manual():
    gx = SampledGrid.centered(16, 0.5)
    gw = SampledGrid.centered(8, 0.25)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    wgt = Weight(1.5)
    manual = np.sqrt(np.sum(
        (np.abs(vals) * wgt(gw.coords)[:, None]) ** 2) * 0.5 * 0.25)
    assert weighted_lp_norm(vals, gx, gw, 2.0, wgt) == pytest.approx(manual)


def test_weighted_lp_norm_sup():
    gx = SampledGrid.centered(4, 1.0)
    gw = SampledGrid.centered(4, 1.0)
    vals = np.zeros((4, 4), dtype=complex)
    vals[2, 1] = 3.0
    assert weighted_lp_norm(vals, gx, gw, math.inf, Weight(0.0)) == 3.0


def test_signal_file_roundtrips(tmp_path):
    f = gaussian_signal(64)
    raw = tmp_path / "sig.bin"
    save_signal_raw(f, raw)
    g = load_signal_raw(raw)
    assert g.grid.isclose(f.grid)
    assert np.array_equal(g.values, f.values)  # bit-exact

    csv = tmp_path / "sig.csv"
    save_signal_csv(f, csv)
    h = load_signal_csv(csv)
    assert h.grid.isclose(f.grid)
    assert np.max(np.abs(h.values - f.values)) < 1e-15


def test_signal_files_of_another_shape(tmp_path):
    """A one-column CSV is a real signal; a CSV of three columns, or a
    raw file that is not exactly 2 * n floats (one short, one long, or
    with 3 stray bytes), is refused with the file and both sizes named."""
    f = gaussian_signal(64)
    csv, raw = tmp_path / "sig.csv", tmp_path / "sig.bin"
    save_signal_csv(f, csv)
    _write_csv(csv, f.values.real, "")
    assert np.array_equal(load_signal_csv(csv).values, f.values)
    _write_csv(csv, np.column_stack([f.values.real] * 3), "")
    with pytest.raises(ValueError, match="expected 1 or 2 CSV columns, "
                       "got 3"):
        load_signal_csv(csv)
    save_signal_raw(f, raw)
    whole = raw.read_bytes()
    for blob in (whole[:-8], whole + whole[:8], whole + b"abc"):
        raw.write_bytes(blob)
        with pytest.raises(ValueError, match=re.escape(
                f"{raw} holds {len(blob)} bytes, expected 1024 "
                f"(128 floats)")):
            load_signal_raw(raw)


@pytest.mark.parametrize("header", ["j,k,x", ""])
def test_csv_bytes_equal_savetxt(tmp_path, header):
    """The chunked writer writes np.savetxt's bytes: signed zero, nan,
    infinities, subnormals, 17 digits, 1-D and empty input, row counts
    at the chunk edges (c rows of six columns fill one chunk), 1-D
    arrays (one column, so _CSV_CHUNK_VALUES rows a chunk) and
    300-column rows, which the chunks cut by values into 20 rows each."""
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308,
               1.0 / 3.0, -1e300, 12345678901234567.0, 1.0, -7.0]
    rng = np.random.default_rng(3)
    c = _CSV_CHUNK_VALUES // 6
    arrays = [np.array(special).reshape(4, 3), np.array(special),
              rng.standard_normal((50, 6)), np.empty((0, 4)),
              *(rng.standard_normal((m, 6))
                for m in (0, 1, c - 1, c, c + 1, 2 * c + 1)),
              rng.standard_normal(c + 1),
              rng.standard_normal(_CSV_CHUNK_VALUES + 1),
              rng.standard_normal((100, 300))]
    for i, rows in enumerate(arrays):
        ours, ref = tmp_path / f"ours{i}.csv", tmp_path / f"ref{i}.csv"
        _write_csv(ours, rows, header)
        np.savetxt(ref, rows, delimiter=",", fmt="%.17g", header=header,
                   comments="")
        assert ours.read_bytes() == ref.read_bytes(), rows.shape


@pytest.mark.parametrize("shape", [(50_000, 6), (200, 1_500)])
def test_csv_writer_memory_is_bounded_by_a_chunk(tmp_path, shape):
    """300 000 values, in narrow rows or wide ones, make a 5.8 MiB file;
    formatting it in one % would trace 17 MiB.  The chunked writer holds
    one chunk's floats and text, 0.4 MiB measured, under a 2 MiB bound."""
    rows = np.random.default_rng(4).standard_normal(shape)
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", rows, "header")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_grid_json_roundtrip_and_rejects():
    g = SampledGrid(5, 0.1, -0.3)
    assert SampledGrid.from_json(g.to_json(), "f.json") == g
    assert list(g.to_json()) == ["n", "spacing", "origin"]
    with pytest.raises(ValueError, match=r"f\.json: grid lacks origin"):
        SampledGrid.from_json({"n": 5, "spacing": 0.1}, "f.json")
    with pytest.raises(ValueError, match=r"f\.json: grid is not an object"):
        SampledGrid.from_json([5, 0.1, -0.3], "f.json")
    with pytest.raises(ValueError, match=r"f\.json: bad grid"):
        SampledGrid.from_json({"n": 5, "spacing": None, "origin": 0}, "f.json")


@pytest.mark.parametrize("n", [3, 4, 5, 2001, 65536])
@pytest.mark.parametrize("uniform", [True])
@pytest.mark.parametrize("columns", [None, 4])
def test_cubic_spline_matches_scipy(n, uniform, columns):
    """The not-a-knot spline against scipy's CubicSpline, at its nodes
    and between them, on uniform nodes: the only ones it takes."""
    rng = np.random.default_rng(n)
    x = 3.0 * np.linspace(-1.0, 1.0, n)
    y = rng.standard_normal(n if columns is None else (n, columns))
    xi = np.concatenate([x, rng.uniform(x[0], x[-1], 4000)])
    ref = CubicSpline(x, y)(xi).reshape(xi.size, -1)
    spline = cubic_spline(x, y)
    for col in range(ref.shape[1]):
        assert np.max(np.abs(spline(xi, col) - ref[:, col])) \
            <= 1e-14 * np.max(np.abs(y))


def test_only_grids_reads_or_writes_binary():
    """The binary data format (little-endian float64 with a JSON
    sidecar) has one owner: no other module of the package calls numpy's
    fromfile or tofile.  So has the CSV dialect: no other module calls
    savetxt or spells its %.17g format, so every CSV goes through the
    chunked _write_csv."""
    src = Path(__file__).resolve().parents[1] / "src" / "alphamod"
    for pattern in (r"fromfile|tofile", r"savetxt|%\.17g"):
        users = sorted(p.name for p in src.glob("*.py")
                       if re.search(pattern, p.read_text()))
        assert users == ["grids.py"], pattern
