import json
import re
import warnings

import numpy as np
import pytest
from conftest import dense_atom_rows
from scipy import sparse

from alphamod import frames as frames_module
from alphamod.cli import RunConfig, build_parser
from alphamod.covering import build_covering
from alphamod.symbol import admissibility_scan
from alphamod.transform import coorbit_norm
from alphamod.frames import (AlphaFrame, Coefficients, IterationError,
                             _S_block, _S_bounds, analysis,
                             estimate_frame_bounds, frame_operator_apply,
                             load_coefficients, reconstruct, synthesis)
from alphamod.grids import (GridMismatchError, SampledGrid, Signal,
                            inner_product)
from alphamod.windows import Window, gaussian_window, parse_window_spec


@pytest.fixture()
def small_frame(gauss):
    grid = SampledGrid.centered(64, 0.25)
    cov = build_covering(0.5, 0.25, 1.0, (-8.0, 8.0), (-2.0, 2.0))
    return AlphaFrame(cov, gauss, grid)


@pytest.fixture()
def demo_frame(gauss):
    # demos/03_frame_reconstruction.py at eps = 0.5
    grid = SampledGrid.centered(256, 1.0 / 16.0)
    cov = build_covering(0.5, 0.5, 1.0, (-8.0, 8.0), (-8.0, 8.0))
    return AlphaFrame(cov, gauss, grid)


@pytest.fixture()
def snug_frame(gauss):
    # oversampled alpha = 0 system: a Gabor frame whose top eigenvalues
    # cluster
    grid = SampledGrid.centered(64, 0.25)
    cov = build_covering(0.0, 0.5, 1.0, (-12.0, 12.0), (-1.0, 1.0))
    return AlphaFrame(cov, gauss, grid)


@pytest.fixture()
def band_frame():
    # every atom of the bandlimited window fills the 128-sample grid, so
    # the bounds keep S in its product form
    grid = SampledGrid.centered(128, 0.125)
    cov = build_covering(0.5, 0.25, 1.0, (-8.0, 8.0), (-3.0, 3.0))
    return AlphaFrame(cov, parse_window_spec("bandlimited:1.0"), grid)


# whether the frame bounds assemble each fixture's S as a sparse matrix
_ASSEMBLED = {"small_frame": True, "demo_frame": True, "snug_frame": True,
              "band_frame": False}


def rand_signal(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Signal(grid, rng.standard_normal(grid.n)
                  + 1j * rng.standard_normal(grid.n))


def band_limited_signal(grid, f0, f1, seed=0):
    """Random signal whose plain-DFT spectrum lies inside [f0, f1]."""
    f = rand_signal(grid, seed)
    dual = grid.dual()
    k = np.arange(grid.n)
    pre = np.exp(-2j * np.pi * dual.origin * grid.spacing * k)
    spec = np.fft.fft(f.values * pre)
    spec[(dual.coords < f0) | (dual.coords > f1)] = 0.0
    return Signal(grid, np.fft.ifft(spec) / pre)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("spec", ["gaussian", "bspline:2", "bump:1.0",
                                  "bandlimited:1.0"])
def test_engine_matches_dense_oracle(spec):
    # the covering spans the whole grid, so edge atoms are cut off by
    # the grid, and the random signal is nonzero at both edges
    w = parse_window_spec(spec)
    grid = SampledGrid.centered(128, 0.125)
    cov = build_covering(0.5, 0.25, 1.0, (-8.0, 8.0), (-3.0, 3.0))
    fr = AlphaFrame(cov, w, grid)
    nodes = fr.nodes()
    M = np.vstack([dense_atom_rows(w, 0.5, om, nodes[nodes[:, 0] == j, 2],
                                   grid)
                   for j, om in zip(cov.js, cov.omegas)])
    f = rand_signal(grid, 9)
    assert f.values[0] != 0 and f.values[-1] != 0
    dt = grid.spacing
    c = analysis(f, fr)
    assert _rel(c.values, dt * (M.conj() @ f.values)) <= 1e-12
    assert _rel(synthesis(c, fr).values, c.values @ M) <= 1e-12
    V = np.column_stack([f.values, rand_signal(grid, 10).values])
    assert _rel(_S_block(V, fr), M.T @ (dt * (M.conj() @ V))) <= 1e-12
    Sf = frame_operator_apply(f, fr).values
    assert _rel(Sf, M.T @ (dt * (M.conj() @ f.values))) <= 1e-12


def test_atom_count_matches_covering(small_frame):
    assert small_frame.n_atoms == small_frame.covering.n_boxes
    assert small_frame.nodes().shape == (small_frame.n_atoms, 4)


def test_analysis_values_are_inner_products(small_frame):
    f = rand_signal(small_frame.signal_grid)
    coeffs = analysis(f, small_frame)
    cov = small_frame.covering
    r = cov.js.size // 2
    j, k0, k1 = cov.js[r], cov.k_lo[r], cov.k_hi[r]
    for k in (k0, (k0 + k1) // 2, k1):
        atom = small_frame.atom(j, k)
        assert coeffs.value_at(j, k) == pytest.approx(
            inner_product(f, atom), abs=1e-12)
    # a k past either end of the row, or a j that is not a row, is not
    # an atom of the frame
    for jj, kk in ((j, k0 - 1), (j, k1 + 1), (cov.js[-1] + 1, k0)):
        with pytest.raises(KeyError):
            coeffs.value_at(jj, kk)


def test_frame_on_a_covering_with_a_missing_row(gauss):
    # rows -9..-1 and 1..10: row 0 misses the rectangle
    cov = build_covering(0.9, 1.0, 1.0, (-4, 4), (3, 4))
    fr = AlphaFrame(cov, gauss, SampledGrid.centered(64, 0.125))
    assert fr.n_atoms == cov.n_boxes
    f = rand_signal(fr.signal_grid, 12)
    coeffs = analysis(f, fr)
    for j in (-1, 1, 4):
        r = cov.row(j)
        for k in (cov.k_lo[r], cov.k_hi[r]):
            assert coeffs.value_at(j, k) == pytest.approx(
                inner_product(f, fr.atom(j, k)), abs=1e-12)


def test_analysis_synthesis_adjoint(small_frame):
    f = rand_signal(small_frame.signal_grid, 1)
    rng = np.random.default_rng(2)
    c = Coefficients(small_frame,
                     rng.standard_normal(small_frame.n_atoms)
                     + 1j * rng.standard_normal(small_frame.n_atoms))
    g = synthesis(c, small_frame)
    lhs = inner_product(g, f)
    rhs = np.sum(c.values * np.conj(analysis(f, small_frame).values))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_frame_operator_hermitian_psd(small_frame):
    f = rand_signal(small_frame.signal_grid, 3)
    g = rand_signal(small_frame.signal_grid, 4)
    Sf = frame_operator_apply(f, small_frame)
    Sg = frame_operator_apply(g, small_frame)
    assert inner_product(Sf, g) == pytest.approx(inner_product(f, Sg),
                                                 rel=1e-10)
    quad = inner_product(Sf, f)
    assert abs(quad.imag) < 1e-10 * abs(quad)
    assert quad.real > 0


def test_grid_mismatch_rejected(small_frame):
    f = rand_signal(SampledGrid.centered(32, 0.25))
    with pytest.raises(GridMismatchError):
        analysis(f, small_frame)
    with pytest.raises(GridMismatchError):
        reconstruct(f, small_frame)


def test_synthesis_refuses_coefficients_of_another_frame(small_frame,
                                                         snug_frame):
    c = analysis(rand_signal(snug_frame.signal_grid), snug_frame)
    assert snug_frame.n_atoms != small_frame.n_atoms
    with pytest.raises(ValueError, match="different frame"):
        synthesis(c, small_frame)


def test_assembled_frame_operator_matches_S_block(small_frame):
    S = _S_bounds(small_frame)
    assert sparse.issparse(S)
    dense = S.toarray()
    oracle = _S_block(np.eye(small_frame.signal_grid.n), small_frame)
    for k in range(oracle.shape[1]):
        assert _rel(dense[:, k], oracle[:, k]) <= 1e-14


@pytest.mark.parametrize("name", ["small_frame", "demo_frame",
                                  "snug_frame", "band_frame"])
def test_bounds_against_dense_operator(name, request):
    fr = request.getfixturevalue(name)
    assert sparse.issparse(_S_bounds(fr)) == _ASSEMBLED[name]
    A_est, B_est = estimate_frame_bounds(fr)
    grid = fr.signal_grid
    n = grid.n
    S = np.empty((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        S[:, k] = frame_operator_apply(Signal(grid, e), fr).values
    top = float(np.linalg.eigvalsh(0.5 * (S + S.conj().T))[-1])
    assert B_est == pytest.approx(top, rel=1e-10)

    # bottom of the in-band spectrum via the exact orthonormal basis of
    # band-limited signals
    dual = grid.dual()
    f0, f1 = fr.covering.freq_range
    idx = np.nonzero((dual.coords >= f0) & (dual.coords <= f1))[0]
    k = np.arange(n)
    pre = np.exp(-2j * np.pi * dual.origin * grid.spacing * k)
    basis = np.zeros((n, idx.size), dtype=complex)
    for i, b in enumerate(idx):
        z = np.zeros(n, dtype=complex)
        z[b] = 1.0
        basis[:, i] = np.conj(pre) * np.fft.ifft(z) * np.sqrt(n)
    Sband = basis.conj().T @ S @ basis
    bottom = float(np.linalg.eigvalsh(0.5 * (Sband + Sband.conj().T))[0])
    assert A_est == pytest.approx(bottom, rel=1e-6)


def test_bounds_sandwich_rayleigh_quotients(small_frame):
    A_est, B_est = estimate_frame_bounds(small_frame)
    assert 0 < A_est <= B_est
    f0, f1 = small_frame.covering.freq_range
    f = band_limited_signal(small_frame.signal_grid, f0, f1, seed=5)
    quad = inner_product(frame_operator_apply(f, small_frame), f).real
    assert A_est * f.norm() ** 2 <= quad * (1 + 1e-9)
    assert quad <= B_est * f.norm() ** 2 * (1 + 1e-9)


def test_bounds_scale_with_window_energy(small_frame, gauss):
    g2 = Window("gaussian-x2", lambda t: 2.0 * gauss.time(t),
                lambda xi, l=0: 2.0 * gauss.fourier(xi, l),
                2.0 * gauss.l2_norm, time_radius=gauss.time_radius)
    fr2 = AlphaFrame(small_frame.covering, g2, small_frame.signal_grid)
    A1, B1 = estimate_frame_bounds(small_frame)
    A2, B2 = estimate_frame_bounds(fr2)
    assert A2 == pytest.approx(4.0 * A1, rel=1e-6)
    assert B2 == pytest.approx(4.0 * B1, rel=1e-6)


def test_snug_gabor_frame(snug_frame):
    # the bound ratio of the oversampled Gabor frame stays modest
    A, B = estimate_frame_bounds(snug_frame)
    assert B / A <= 1.5


def test_critical_density_is_not_snug(gauss):
    # eps = c = 1 at alpha = 0 is the critically sampled Gaussian Gabor
    # system, which degenerates: the bound ratio blows up
    grid = SampledGrid.centered(64, 0.25)
    cov = build_covering(0.0, 1.0, 1.0, (-12.0, 12.0), (-1.0, 1.0))
    A, B = estimate_frame_bounds(AlphaFrame(cov, gauss, grid))
    assert B / A > 5.0


def _gabor_bounds(eps):
    """L2(R) frame bounds (A, B) of the Gaussian's Gabor system on the
    lattice eps Z x eps Z.  Walnut's representation writes its frame
    operator as S f(t) = b^-1 sum_n G_n(t) f(t - n/b) with G_n(t) =
    sum_k g(t - n/b - ka) g(t - ka), here a = b = eps.  On functions of
    period 8, sampled 8 times per eps, S is a dense matrix whose extreme
    eigenvalues are the bounds (period 16, or 16 samples per eps, moves
    eps^2 A and eps^2 B by under 2e-15)."""
    dt = eps / 8
    n = 64 * round(1 / eps)
    t = dt * np.arange(n)[:, None]
    ka = eps * np.arange(-round(24 / eps), round(24 / eps) + 1)
    g = gaussian_window().time
    rows = np.arange(n)
    S = np.zeros((n, n))
    for m in range(-round(12 * eps), round(12 * eps) + 1):
        G = np.sum(g(t - m / eps - ka) * g(t - ka), axis=1)
        S[rows, (rows - round(m / eps / dt)) % n] += G / eps
    eigs = np.linalg.eigvalsh(S)
    return eigs[0], eigs[-1]


def test_frame_upper_bound_approaches_the_gabor_bound_from_below():
    # alpha 0 is the Gabor lattice eps Z x eps Z; frame-info's grid spans
    # the covering's time range +-R at dt 1/32.  The finite frame keeps
    # the atoms of one rectangle, so its B lies below B_inf, and the edge
    # effects that keep it there shrink as R doubles: eps^2 times the
    # shortfall is 9.4e-4 at R = 4 and 4.5e-4 at R = 8
    A_inf, B_inf = _gabor_bounds(0.5)
    assert 0.25 * A_inf == pytest.approx(0.992544178491, abs=1e-12)
    assert 0.25 * B_inf == pytest.approx(1.007483720345, abs=1e-12)
    shortfalls = []
    for R in (4, 8):
        args = build_parser().parse_args([
            "frame-info", "--alpha", "0", "--eps", "0.5", "--c", "1",
            f"--time-range=-{R},{R}", "--freq-range=-8,8",
            "--grid-n", str(64 * R)])
        fr = RunConfig(args).frame()
        assert fr.signal_grid == SampledGrid(64 * R, 1 / 32, -R)
        shortfalls.append(B_inf - estimate_frame_bounds(fr)[1])
    assert 0 < shortfalls[1] < shortfalls[0] / 1.5


def test_reconstruction_of_band_limited_signal(small_frame):
    f0, f1 = small_frame.covering.freq_range
    f = band_limited_signal(small_frame.signal_grid, f0, f1, seed=6)
    res = reconstruct(f, small_frame)
    assert res.error <= 1e-6
    assert res.iters < 200


def test_lanczos_that_cannot_converge_raises(monkeypatch, snug_frame,
                                            band_frame):
    # on either side of the assembly rule
    assert sparse.issparse(_S_bounds(snug_frame))
    assert not sparse.issparse(_S_bounds(band_frame))
    monkeypatch.setattr(frames_module, "_LANCZOS_MAX_ITER", 1)
    for fr in (snug_frame, band_frame):
        with pytest.raises(IterationError, match="Lanczos"):
            estimate_frame_bounds(fr)


def test_reconstruction_chirp(chirp, gauss):
    cov = build_covering(0.5, 0.25, 1.0, (-8.0, 8.0), (-8.0, 8.0))
    fr = AlphaFrame(cov, gauss, chirp.grid)
    res = reconstruct(chirp, fr)
    assert res.error <= 1e-8
    assert res.iters <= 50


def test_reconstruction_raises_at_iteration_cap(monkeypatch, chirp, gauss):
    # the chirp needs 6 iterations on this frame
    cov = build_covering(0.5, 0.25, 1.0, (-8.0, 8.0), (-8.0, 8.0))
    fr = AlphaFrame(cov, gauss, chirp.grid)
    monkeypatch.setattr(frames_module, "_CG_MAX_ITER", 1)
    with pytest.raises(IterationError, match="cap of 1 iterations"):
        reconstruct(chirp, fr)


def _chirp(grid):
    t = grid.coords
    return Signal(grid, np.exp(-np.pi * (t / 2.5) ** 2)
                  * np.exp(2j * np.pi * (0.5 * t + 0.35 * t ** 2)))


@pytest.mark.parametrize("tol", [1e-31, 1e-301])
def test_reconstruction_raises_below_attainable_accuracy(small_frame, tol):
    """cg's recursive residual can pass a tol below rounding level while
    the true one stays near 1e-16 (tol = 1e-31), or reach 0 and turn
    the iterates into NaN (tol = 1e-301); neither result is returned."""
    with pytest.raises(IterationError, match="relative residual"):
        reconstruct(_chirp(small_frame.signal_grid), small_frame, tol=tol)


def test_reconstruction_stops_at_the_first_nonfinite_iterate(small_frame):
    """At tol = 1e-301 cg's recursive residual reaches 0, and the next
    iterate is NaN: reconstruct raises there, far below the cap, and
    scipy's overflow warnings of that step stay quiet."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IterationError, match="not finite") as exc:
            reconstruct(_chirp(small_frame.signal_grid), small_frame,
                        tol=1e-301)
    iters = int(re.search(r"CG iterate (\d+) ", str(exc.value)).group(1))
    assert iters < 500


def test_reconstruction_residual_is_the_true_residual(small_frame):
    """residual is ||b - S x|| / ||b|| for b = S f and the returned x,
    recomputed here with a dense S built column by column."""
    grid = small_frame.signal_grid
    S = np.column_stack([frame_operator_apply(Signal(grid, e), small_frame)
                         .values for e in np.eye(grid.n, dtype=complex)])
    f = rand_signal(grid, 4)
    tol = 1e-8
    res = reconstruct(f, small_frame, tol=tol)
    b = S @ f.values
    true = np.linalg.norm(b - S @ res.f_rec.values) / np.linalg.norm(b)
    assert res.residual == pytest.approx(true, abs=1e-12)
    assert res.residual <= tol


def test_coefficients_file_roundtrip(tmp_path, small_frame):
    f = rand_signal(small_frame.signal_grid, 8)
    coeffs = analysis(f, small_frame)
    path = tmp_path / "coeffs.bin"
    coeffs.save(path)
    back = load_coefficients(path)
    assert np.array_equal(back.values, coeffs.values)  # bit-exact
    # the frame is rebuilt from the header alone
    assert np.array_equal(back.frame.nodes(), small_frame.nodes())
    assert back.frame.signal_grid == small_frame.signal_grid
    assert np.array_equal(synthesis(back, back.frame).values,
                          synthesis(coeffs, small_frame).values)


def test_coefficients_file_keeps_the_exact_window(tmp_path, small_frame):
    """The header names the window by its label, which parse_window_spec
    reads back to the same window: a bump of radius 1.2345678 reloads
    with that radius, not 1.23457, and so with the same time samples."""
    bump = parse_window_spec("bump:1.2345678")
    fr = AlphaFrame(small_frame.covering, bump, small_frame.signal_grid)
    path = tmp_path / "coeffs.bin"
    analysis(rand_signal(fr.signal_grid, 8), fr).save(path)
    back = load_coefficients(path).frame.window
    t = np.linspace(-1.3, 1.3, 2601)
    assert np.array_equal(back.time(t), bump.time(t))


def test_coefficients_refuse_a_label_that_is_no_spec(tmp_path, small_frame,
                                                    gauss):
    """A hand-built window's label would be written and then refused
    by load_coefficients: save refuses it first and writes no file."""
    mine = Window("my-gauss", gauss.time, gauss.fourier, gauss.l2_norm,
                  support=gauss.support)
    fr = AlphaFrame(small_frame.covering, mine, small_frame.signal_grid)
    coeffs = analysis(rand_signal(fr.signal_grid, 8), fr)
    with pytest.raises(ValueError, match="'my-gauss' is not a window spec"):
        coeffs.save(tmp_path / "coeffs.bin")
    assert not any(tmp_path.iterdir())


def test_load_coefficients_checks_the_atom_count(tmp_path, small_frame):
    """n_atoms must be the count of the covering the header describes,
    and the file must hold exactly 4 * n_atoms floats, the node table
    and the complex coefficients: not one short, one long, or with 3
    stray bytes."""
    path = tmp_path / "coeffs.bin"
    analysis(rand_signal(small_frame.signal_grid, 8), small_frame).save(path)
    side = tmp_path / "coeffs.bin.json"
    header = json.loads(side.read_text())
    n = header["n_atoms"]
    side.write_text(json.dumps({**header, "n_atoms": n + 1}))
    with pytest.raises(ValueError, match=f"n_atoms is {n + 1}, but the "
                       f"covering it describes has {n} boxes"):
        load_coefficients(path)
    side.write_text(json.dumps(header))
    whole = path.read_bytes()
    for blob in (whole[:-8], whole + whole[:8], whole + b"abc"):
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=re.escape(
                f"{path} holds {len(blob)} bytes, expected {32 * n} "
                f"({4 * n} floats)")):
            load_coefficients(path)


@pytest.mark.parametrize("key", ["n_atoms", "window", None])
def test_load_coefficients_rejects_header_without_key(tmp_path, small_frame,
                                                      key):
    """A header without a key that save writes is a ValueError naming the
    header file and the key; None writes the header as a JSON list."""
    path = tmp_path / "coeffs.bin"
    analysis(rand_signal(small_frame.signal_grid, 8), small_frame).save(path)
    side = tmp_path / "coeffs.bin.json"
    header = json.loads(side.read_text())
    if key is None:
        header, key = [header], "n_atoms"
    else:
        del header[key]
    side.write_text(json.dumps(header))
    with pytest.raises(ValueError, match=key) as exc:
        load_coefficients(path)
    assert str(side) in str(exc.value)


def test_coefficients_length_validated(small_frame):
    with pytest.raises(ValueError):
        Coefficients(small_frame, np.zeros(small_frame.n_atoms + 1))


@pytest.mark.parametrize("spec", ["gaussian", "bspline:2"])
@pytest.mark.parametrize("eps, tol", [(0.5, 0.04), (0.25, 0.01)])
def test_fourier_diagonal_is_a_riemann_sum_of_the_symbol(spec, eps, tol):
    # <S e_xi, e_xi> = sum_j |psi_hat_j(xi)|^2 over the atoms, a Riemann
    # sum of m_psi(xi) whose cells have area eps^2 (eps beta in time,
    # eps / beta in frequency); the band edges at +-8 are left out
    w = parse_window_spec(spec)
    grid = SampledGrid.centered(512, 1.0 / 32.0)
    fr = AlphaFrame(build_covering(0.5, eps, 1.0, (-8.0, 8.0), (-8.0, 8.0)),
                    w, grid)
    xis = grid.dual().coords
    xis = xis[np.abs(xis) < 6.0]
    # the scan's nodes are the DFT bins, spacing 1/16
    tab = admissibility_scan(w, 0.5, xi_max=8.0, n_nodes=257)
    t = grid.coords
    diag = np.array([
        inner_product(frame_operator_apply(e, fr), e).real
        for e in (Signal(grid, np.exp(2j * np.pi * xi * t)
                         / np.sqrt(grid.n * grid.spacing)) for xi in xis)])
    ratio = eps**2 * diag / tab(xis)
    assert np.all(np.abs(ratio - 1.0) < tol), (ratio.min(), ratio.max())


def test_coefficient_norm_is_a_riemann_sum_of_the_coorbit_norm(gauss,
                                                                gauss_tab):
    """Coefficients.norm of analysis coefficients against coorbit_norm on
    Gaussian packets at alpha 0.5 (grid +-8, covering +-8 x +-8, voice
    grids of spacing 1/8).  Over ten packets and (p, s) = (1, 0), (2, 0),
    (2, 1), (4, 1) the ratio measured 0.9728-1.0135 at eps = 1/2 and
    0.9952-1.0001 at eps = 1/4; the tolerances, 4 % and 1 %, leave 1.3
    and 0.5 points of margin above the worst error measured.  Halving eps
    shrinks the worst error."""
    grid = SampledGrid.centered(512, 1.0 / 32.0)
    voice = SampledGrid.centered(128, 1.0 / 8.0)
    t = grid.coords
    rng = np.random.default_rng(7)
    packets = []
    for _ in range(4):  # centre time, centre frequency, width
        t0, w0, width = rng.uniform([-3, -3, 0.5], [3, 3, 2])
        packets.append(Signal(grid, np.exp(-np.pi * ((t - t0) / width) ** 2
                                           + 2j * np.pi * w0 * t)))
    pairs = [(1.0, 0.0), (2.0, 1.0), (4.0, 1.0)]
    ref = np.array([[coorbit_norm(f, gauss, 0.5, gauss_tab, p, s, voice,
                                  voice) for p, s in pairs]
                    for f in packets])
    errors = []
    for eps, tol in ((0.5, 0.04), (0.25, 0.01)):
        fr = AlphaFrame(build_covering(0.5, eps, 1.0, (-8.0, 8.0),
                                       (-8.0, 8.0)), gauss, grid)
        ratio = np.array([[analysis(f, fr).norm(p, s) for p, s in pairs]
                          for f in packets]) / ref
        errors.append(np.max(np.abs(ratio - 1.0)))
        assert errors[-1] < tol, (eps, ratio.min(), ratio.max())
    assert errors[1] < errors[0]
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        analysis(packets[0], fr).norm(0.5, 0.0)
