import numpy as np
import pytest

from alphamod.covering import build_covering
from alphamod.frames import (AlphaFrame, Coefficients, _S_block, analysis,
                             estimate_frame_bounds, frame_operator_apply,
                             load_coefficients, reconstruct, synthesis)
from alphamod.grids import (GridMismatchError, SampledGrid, Signal,
                            inner_product)
from alphamod.transform import _atom_rows
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
    M = np.vstack([_atom_rows(w, 0.5, cov.omega_nodes[j],
                              nodes[nodes[:, 0] == j, 2], grid)
                   for j in fr._js])
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
    j = small_frame._js[len(small_frame._js) // 2]
    k0, k1 = small_frame.covering.k_ranges[j]
    for k in (k0, (k0 + k1) // 2, k1):
        atom = small_frame.atom(j, k)
        assert coeffs.value_at(j, k) == pytest.approx(
            inner_product(f, atom), abs=1e-12)


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


@pytest.mark.parametrize("name", ["small_frame", "demo_frame",
                                  "snug_frame"])
def test_bounds_against_dense_operator(name, request):
    fr = request.getfixturevalue(name)
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
    g2 = Window("gaussian", "gaussian-x2",
                lambda t: 2.0 * gauss.time(t),
                lambda xi, l=0: 2.0 * gauss.fourier(xi, l),
                2.0 * gauss.l2_norm, max_deriv=3)
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


def test_reconstruction_of_band_limited_signal(small_frame):
    f0, f1 = small_frame.covering.freq_range
    f = band_limited_signal(small_frame.signal_grid, f0, f1, seed=6)
    res = reconstruct(f, small_frame)
    assert res.error <= 1e-6
    assert res.iters < 200


def test_reconstruction_chirp(chirp, gauss):
    cov = build_covering(0.5, 0.25, 1.0, (-8.0, 8.0), (-8.0, 8.0))
    fr = AlphaFrame(cov, gauss, chirp.grid)
    res = reconstruct(chirp, fr)
    assert res.error <= 1e-8
    assert res.iters <= 50


def test_coefficients_file_roundtrip(tmp_path, small_frame):
    f = rand_signal(small_frame.signal_grid, 8)
    coeffs = analysis(f, small_frame)
    path = tmp_path / "coeffs.bin"
    coeffs.save(path, "gaussian")
    back = load_coefficients(path, small_frame)
    assert np.array_equal(back.values, coeffs.values)  # bit-exact


def test_coefficients_length_validated(small_frame):
    with pytest.raises(ValueError):
        Coefficients(small_frame, np.zeros(small_frame.n_atoms + 1))
