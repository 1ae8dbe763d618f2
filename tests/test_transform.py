import numpy as np
import pytest

from alphamod.grids import SampledGrid, Signal, inner_product
from alphamod.symbol import NotAdmissibleError, beta
from alphamod.transform import (MassCaptureError, SupportSpillWarning,
                                VoiceMap, _atom_rows, check_reproducing,
                                coorbit_norm, dual_transform, kernel_K,
                                make_atom, reproducing_kernel,
                                synthesize_voice, voice_transform)
from alphamod.windows import parse_window_spec

# one window per time-support rule of the banded atom matrix: the
# Gaussian's radius, compact supports, and dense bandlimited rows
ORACLE_SPECS = ("gaussian", "bspline:2", "bump:1.0", "bandlimited:1.0")
ORACLE_WINDOWS = [parse_window_spec(s) for s in ORACLE_SPECS]


@pytest.fixture()
def voice_grids():
    return (SampledGrid.centered(128, 0.125),
            SampledGrid.centered(97, 1.0 / 6.0))


def test_atom_unit_norm(gauss):
    grid = SampledGrid.centered(512, 1.0 / 32.0)
    a = make_atom(gauss, 0.5, 1.0, 2.0, grid)
    assert a.norm() == pytest.approx(1.0, abs=1e-8)


def test_atom_spill_warning(gauss):
    grid = SampledGrid.centered(64, 0.25)
    with pytest.warns(SupportSpillWarning):
        make_atom(gauss, 0.5, 7.5, 0.0, grid)  # sits at the grid edge


def test_atom_frequency_location(gauss):
    from alphamod.grids import forward_fourier
    grid = SampledGrid.centered(512, 1.0 / 16.0)
    omega = 3.0
    a = make_atom(gauss, 0.5, 0.0, omega, grid)
    A = forward_fourier(a)
    peak = A.grid.coords[np.argmax(np.abs(A.values))]
    assert abs(peak - omega) <= 2 * A.grid.spacing
    b = beta(omega, 0.5)
    expected = np.sqrt(b) * gauss.fourier(b * (A.grid.coords - omega))
    assert np.max(np.abs(A.values - expected)) < 1e-8


def _voice_oracle(f, w, x_grid, omega_grid):
    """Voice map from dense _atom_rows stacks, one frequency at a time."""
    return np.vstack([
        f.grid.spacing * (_atom_rows(w, 0.5, float(om), x_grid.coords,
                                     f.grid).conj() @ f.values)
        for om in omega_grid.coords])


def _check_voice_against_oracle(x_grid):
    # random signal, nonzero at both grid edges; the x nodes reach past
    # both edges, so the grid cuts atoms off on either side
    grid = SampledGrid.centered(128, 0.125)
    rng = np.random.default_rng(11)
    f = Signal(grid, rng.standard_normal(grid.n)
               + 1j * rng.standard_normal(grid.n))
    gw = SampledGrid.centered(13, 0.5)
    vm_rand = rng.standard_normal((gw.n, x_grid.n)) \
        + 1j * rng.standard_normal((gw.n, x_grid.n))
    for w in ORACLE_WINDOWS:
        V = voice_transform(f, w, 0.5, x_grid, gw).values
        Vd = _voice_oracle(f, w, x_grid, gw)
        assert np.linalg.norm(V - Vd) <= 1e-12 * np.linalg.norm(Vd), w
        g = synthesize_voice(VoiceMap(x_grid, gw, vm_rand), w, 0.5, grid)
        cell = x_grid.spacing * gw.spacing
        gd = cell * sum(vm_rand[jj] @ _atom_rows(w, 0.5, float(om),
                                                 x_grid.coords, grid)
                        for jj, om in enumerate(gw.coords))
        assert np.linalg.norm(g.values - gd) <= 1e-12 * np.linalg.norm(gd), w


def test_voice_on_lattice_matches_dense_oracle():
    # nodes every 3 samples, from one node before the grid to one after
    _check_voice_against_oracle(SampledGrid(45, 0.375, -8.375))


def test_voice_off_lattice_matches_dense_oracle():
    # spacing 0.3 is no multiple of the sample spacing 1/8
    _check_voice_against_oracle(SampledGrid(57, 0.3, -8.45))


def test_voice_values_are_inner_products(chirp, gauss):
    gx = SampledGrid(3, 1.0, -1.0)
    gw = SampledGrid(3, 2.0, -2.0)
    vm = voice_transform(chirp, gauss, 0.5, gx, gw)
    for jj, om in enumerate(gw.coords):
        for kk, x in enumerate(gx.coords):
            atom = make_atom(gauss, 0.5, float(x), float(om), chirp.grid)
            assert vm.values[jj, kk] == pytest.approx(
                inner_product(chirp, atom), abs=1e-12)


def test_voicemap_save_load_bit_exact(tmp_path, chirp, gauss, voice_grids):
    gx, gw = voice_grids
    vm = voice_transform(chirp, gauss, 0.5, gx, gw)
    path = tmp_path / "voice.bin"
    vm.save(path)
    back = VoiceMap.load(path)
    assert np.array_equal(back.values, vm.values)
    assert back.x_grid.isclose(gx) and back.omega_grid.isclose(gw)


def test_dual_transform_inverts_multiplier(chirp, gauss, gauss_tab,
                                           voice_grids):
    gx, gw = voice_grids
    wm = dual_transform(chirp, gauss, 0.5, gauss_tab, gx, gw)
    vm = voice_transform(chirp, gauss, 0.5, gx, gw)
    # for the Gaussian at alpha=0.5 the symbol is within 3% of 1, so the
    # dual map must stay close to the voice map but not equal it
    ratio = np.abs(wm.values).max() / np.abs(vm.values).max()
    assert 0.9 < ratio < 1.1
    assert np.max(np.abs(wm.values - vm.values)) > 1e-6


def test_dual_transform_needs_admissibility(chirp, gauss, gauss_tab,
                                            voice_grids):
    from dataclasses import replace
    bad = replace(gauss_tab, A=0.0)
    gx, gw = voice_grids
    with pytest.raises(NotAdmissibleError):
        dual_transform(chirp, gauss, 0.5, bad, gx, gw)
    with pytest.raises(NotAdmissibleError):
        check_reproducing(chirp, gauss, 0.5, bad, gx, gw)


def test_kernel_hermitian_symmetry(gauss, gauss_tab):
    p1, p2 = (0.3, 1.0), (-0.4, 2.5)
    k12 = kernel_K(gauss, gauss, 0.5, gauss_tab, 1, p1, p2)
    k21 = kernel_K(gauss, gauss, 0.5, gauss_tab, 1, p2, p1)
    assert k12 == pytest.approx(np.conj(k21), abs=1e-10)


def test_kernel_diagonal_positive(gauss, gauss_tab):
    val = reproducing_kernel(gauss, 0.5, gauss_tab, (0.5, 1.5), (0.5, 1.5))
    assert abs(val.imag) < 1e-10
    assert val.real > 0


def test_kernel_time_shift_covariance(gauss, gauss_tab):
    a = kernel_K(gauss, gauss, 0.5, gauss_tab, 1, (0.7, 1.0), (0.2, 2.0))
    b = kernel_K(gauss, gauss, 0.5, gauss_tab, 1, (1.7, 1.0), (1.2, 2.0))
    assert a == pytest.approx(b, abs=1e-10)


def test_kernel_kappa_zero_is_atom_pairing(gauss, gauss_tab):
    # K^0(p, p) = ||a_p||^2 = 1 for the unit-norm Gaussian
    val = kernel_K(gauss, gauss, 0.5, gauss_tab, 0, (0.0, 1.0), (0.0, 1.0))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_reproducing_identity_residual(chirp, gauss, gauss_tab, voice_grids):
    gx, gw = voice_grids
    res = check_reproducing(chirp, gauss, 0.5, gauss_tab, gx, gw)
    assert res < 1e-2
    # pinned: a change in how the four voice products are formed shows
    assert res == pytest.approx(0.0014160075828093537, rel=1e-12)
    # Riemann discretization: refining the grid shrinks the residual
    fine = check_reproducing(chirp, gauss, 0.5, gauss_tab,
                             SampledGrid.centered(257, 1.0 / 16.0),
                             SampledGrid.centered(129, 0.125))
    assert fine < res


def test_reproducing_zero_signal(gauss, gauss_tab, voice_grids):
    gx, gw = voice_grids
    grid = SampledGrid.centered(256, 1.0 / 16.0)
    z = Signal(grid, np.zeros(256, dtype=complex))
    assert check_reproducing(z, gauss, 0.5, gauss_tab, gx, gw) == 0.0


def test_reproducing_rejects_starved_grid(chirp, gauss, gauss_tab):
    gx = SampledGrid(3, 0.5, -0.5)
    gw = SampledGrid(3, 0.5, -0.5)  # far too small a window in frequency
    with pytest.raises(MassCaptureError):
        check_reproducing(chirp, gauss, 0.5, gauss_tab, gx, gw)


def test_synthesis_adjoint_to_analysis(chirp, gauss, voice_grids):
    gx, gw = voice_grids
    rng = np.random.default_rng(7)
    vm = VoiceMap(gx, gw, rng.standard_normal((gw.n, gx.n))
                  + 1j * rng.standard_normal((gw.n, gx.n)))
    g = synthesize_voice(vm, gauss, 0.5, chirp.grid)
    lhs = inner_product(g, chirp)
    V = voice_transform(chirp, gauss, 0.5, gx, gw)
    cell = gx.spacing * gw.spacing
    rhs = cell * np.sum(vm.values * np.conj(V.values))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_coorbit_norm_matches_voice_norm(chirp, gauss, gauss_tab,
                                         voice_grids):
    gx, gw = voice_grids
    val = coorbit_norm(chirp, gauss, 0.5, gauss_tab, 2.0, 0.0, gx, gw)
    vm = voice_transform(chirp, gauss, 0.5, gx, gw)
    assert val == pytest.approx(vm.norm(2.0, 0.0))
    assert coorbit_norm(chirp, gauss, 0.5, gauss_tab, 2.0, 1.0, gx, gw) > val
