import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from alphamod import quadrature
from alphamod import symbol as symbol_module
from alphamod.grids import SampledGrid, Signal, forward_fourier
from alphamod.quadrature import QuadratureError, integrate
from alphamod.symbol import (CriticalPointNotApplicable, NotAdmissibleError,
                             admissibility_scan, apply_multiplier, beta, r_xi,
                             rxi_profile, symbol_m)
from alphamod.windows import (Window, bspline_window, gaussian_window,
                              parse_window_spec)


def test_beta_values():
    assert beta(0.0, 0.5) == 1.0
    assert beta(3.0, 0.5) == pytest.approx(0.5)
    assert beta(-3.0, 0.5) == beta(3.0, 0.5)
    assert np.all(beta(np.linspace(-10, 10, 7), 0.7) <= 1.0)


def test_beta_alpha_zero_constant():
    assert np.all(beta(np.linspace(-100, 100, 11), 0.0) == 1.0)


def test_rxi_closed_form_profile():
    alpha, xi = 0.5, 10.0
    prof = rxi_profile(xi, alpha)
    assert prof.omega_star == pytest.approx((1 - alpha * xi) / (1 - alpha))
    assert r_xi(xi, prof.omega_star, alpha) == pytest.approx(prof.min_value)
    assert prof.max_value == xi
    # interior minimum: neighbors are larger
    for d in (-1e-3, 1e-3):
        assert r_xi(xi, prof.omega_star + d, alpha) > prof.min_value


def test_rxi_profile_domain():
    with pytest.raises(CriticalPointNotApplicable):
        rxi_profile(3.0, 0.5)  # needs xi > 2/alpha
    with pytest.raises(CriticalPointNotApplicable):
        rxi_profile(10.0, 0.0)


def test_symbol_alpha_zero_is_window_energy():
    w = gaussian_window()
    for xi in (0.0, 1.7, -4.2, 25.0):
        assert symbol_m(w, 0.0, xi) == pytest.approx(1.0, abs=1e-9)


def test_symbol_against_trapezoid_reference():
    w = gaussian_window()
    alpha, xi = 0.5, 3.0
    om = np.linspace(-400.0, 400.0, 4_000_001)
    b = beta(om, alpha)
    integ = np.abs(w.fourier(b * (xi - om))) ** 2 * b
    ref = np.trapezoid(integ, om)
    assert symbol_m(w, alpha, xi) == pytest.approx(ref, abs=1e-8)


def test_symbol_even_for_real_window():
    w = bspline_window(2)
    for xi in (0.5, 2.0, 7.0):
        assert symbol_m(w, 0.5, xi) == pytest.approx(
            symbol_m(w, 0.5, -xi), rel=1e-10)


def test_symbol_derivatives_match_finite_differences():
    w = gaussian_window()
    alpha, h, tol = 0.5, 1e-4, 1e-11
    for xi in (0.7, 2.3):
        fd1 = (symbol_m(w, alpha, xi + h, tol=tol)
               - symbol_m(w, alpha, xi - h, tol=tol)) / (2 * h)
        assert symbol_m(w, alpha, xi, deriv=1, tol=tol) \
            == pytest.approx(fd1, abs=1e-6)
        fd2 = (symbol_m(w, alpha, xi + h, tol=tol)
               - 2 * symbol_m(w, alpha, xi, tol=tol)
               + symbol_m(w, alpha, xi - h, tol=tol)) / h**2
        assert symbol_m(w, alpha, xi, deriv=2, tol=tol) \
            == pytest.approx(fd2, abs=1e-4)


# m_psi at alpha = 0.5 on xi = 0, 2, ..., 40, as scanned before the
# batched quadrature engine; each node has its own panels in the engine,
# so the values may move only by rounding
PIN_SCAN = {"xi_max": 40, "n_nodes": 41}
PINNED = {
    "gaussian": [
        1.1104225468998206, 1.0000000000074079, 0.9999999999999971,
        0.9999999999999969, 0.9999999999999971, 0.9999999999999969,
        0.9999999999999979, 0.9999999999999972, 0.9999999999999971,
        0.9999999999999959, 0.9999999999999963, 0.9999999999999971,
        0.9999999999999969, 0.9999999999999968, 0.9999999999999966,
        0.9999999999999954, 0.9999999999999956, 0.999999999999999,
        0.999999999999999, 0.9999999999999966, 0.9999999999999968,
    ],
    "bspline:2": [
        0.7354226564236062, 0.6669934315590349, 0.6668695382728748,
        0.6667592526361645, 0.6667188766867422, 0.6666884448628487,
        0.6666861825757293, 0.6666842938588221, 0.6666765288769544,
        0.6666790888100134, 0.6666739262310742, 0.6666746158521422,
        0.6666738463760252, 0.6666717193469431, 0.6666737164235956,
        0.6666704742654505, 0.6666709302416529, 0.6666715446141005,
        0.6666694243838024, 0.6666700664674096, 0.6666704505831028,
    ],
    "bump:1.0": [
        1.1048483840542538, 1.00043975126639, 1.000079222778088,
        1.0000219943688553, 1.0000039448484082, 1.0000026471598684,
        1.0000015749448448, 1.0000008536116325, 1.0000004954068675,
        1.0000002980713054, 1.0000001692136355, 1.000000084232017,
        1.00000005001928, 1.0000000494014112, 1.0000000423563413,
        1.0000000211028581, 1.000000016378178, 1.0000000173344799,
        1.0000000075216842, 1.0000000080377396, 1.0000000075223083,
    ],
}


@pytest.fixture(scope="module")
def pinned_scans():
    windows = {spec: parse_window_spec(spec) for spec in PINNED}
    return {spec: (w, admissibility_scan(w, 0.5, **PIN_SCAN))
            for spec, w in windows.items()}


@pytest.mark.parametrize("spec", list(PINNED))
def test_scan_values_pinned(pinned_scans, spec):
    _, tab = pinned_scans[spec]
    half = PIN_SCAN["n_nodes"] // 2
    np.testing.assert_allclose(tab.values[half:], PINNED[spec], rtol=1e-13,
                               atol=0)


@pytest.mark.parametrize("spec", list(PINNED))
def test_scan_batch_matches_single_nodes(pinned_scans, spec):
    w, tab = pinned_scans[spec]
    half = PIN_SCAN["n_nodes"] // 2
    xis = tab.xi_grid.coords[half:]
    single = [symbol_m(w, 0.5, xi) for xi in xis]
    assert np.array_equal(tab.values[half:], single)
    # the scan is symbol_m on arrays, xi = 0 first and then the rest
    batch = np.concatenate([symbol_m(w, 0.5, xis[:1]),
                            symbol_m(w, 0.5, xis[1:])])
    assert np.array_equal(batch, tab.values[half:])
    with pytest.raises(ValueError, match="derivative order"):
        symbol_m(w, 0.5, xis, deriv=3)


@pytest.mark.parametrize("n_nodes", [41, 201])
def test_scan_engine_calls_do_not_grow_with_nodes(monkeypatch, n_nodes):
    # xi = 0 alone, then the rest: one main integral and at most 12 tail
    # doublings each
    calls = []

    def counted(*args):
        calls.append(1)
        return integrate(*args)

    monkeypatch.setattr(symbol_module, "integrate", counted)
    admissibility_scan(bspline_window(2), 0.5,
                       xi_max=40, n_nodes=n_nodes)
    assert 4 <= len(calls) <= 2 * 13


def _counting(w):
    """The same window, with a count of the spectrum points evaluated."""
    points = [0]

    def fourier_fn(xi, l):
        points[0] += xi.size
        return w.fourier(xi, l)

    return Window(w.label, w.time, fourier_fn, w.l2_norm,
                  support=w.support), points


def test_divergent_scan_stops_after_one_node():
    # bspline:1 decays too slowly for alpha = 0.9: the tails never settle
    w, points = _counting(bspline_window(1))
    with pytest.raises(QuadratureError, match=r"tails .* at xi=0\.0 "):
        symbol_m(w, 0.9, 0.0)
    one_node, points[0] = points[0], 0
    with pytest.raises(QuadratureError, match=r"tails .* at xi=0\.0 "):
        admissibility_scan(w, 0.9, xi_max=20, n_nodes=201)
    assert 0 < points[0] <= one_node


def test_scan_refuses_a_spectrum_that_is_not_even(gauss):
    # a Gaussian modulated to frequency 1: psi_hat(xi) = g(xi - 1) is real
    # but not even, so m(-3) != m(3) and a mirrored table would be wrong
    w = Window("gaussian at 1",
               lambda t: gauss.time(t) * np.exp(2j * np.pi * t),
               lambda xi, l: gauss.fourier(xi - 1.0, l), 1.0)
    assert symbol_m(w, 0.5, -3.0) == pytest.approx(1.241, abs=1e-3)
    assert symbol_m(w, 0.5, 3.0) == pytest.approx(0.759, abs=1e-3)
    with pytest.raises(ValueError, match=r"window gaussian at 1: \|psi_hat"):
        admissibility_scan(w, 0.5, xi_max=20, n_nodes=41)


def test_panel_budget_failure_names_xi(monkeypatch, gauss):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(QuadratureError, match=r"at xi=3\.0: no convergence"):
        symbol_m(gauss, 0.5, 3.0, tol=1e-14)


def test_scan_table_interpolates_and_tails(gauss, gauss_tab):
    tab = gauss_tab
    assert tab.admissible
    assert 0 < tab.A <= tab.B
    # off-grid point against direct quadrature (spline interpolation
    # error dominates at the 0.2-spaced table)
    xi = 1.2345
    assert tab(xi) == pytest.approx(symbol_m(gauss, 0.5, xi), abs=2e-5)
    # beyond the scanned range the constant tail takes over
    assert tab(500.0) == tab.tail_value
    assert tab(np.array([-500.0, 500.0])) == pytest.approx(tab.tail_value)


def test_scan_table_is_scipys_spline_inside_and_the_tail_outside(gauss_tab):
    tab = gauss_tab
    xi_max = tab.xi_grid.coords[-1]
    xi = np.random.default_rng(0).uniform(-1.5 * xi_max, 1.5 * xi_max, 4000)
    inside = np.abs(xi) <= xi_max
    ref = np.where(inside, CubicSpline(tab.xi_grid.coords, tab.values)(xi),
                   tab.tail_value)
    assert np.max(np.abs(tab(xi) - ref)) <= 1e-14 * np.max(tab.values)
    assert np.array_equal(tab(xi[~inside]), ref[~inside])


def test_scan_symmetric_grid_for_real_window(gauss_tab):
    vals = gauss_tab.values
    assert np.max(np.abs(vals - vals[::-1])) == 0.0


def test_scan_rejects_even_node_count(gauss):
    with pytest.raises(ValueError):
        admissibility_scan(gauss, 0.5, xi_max=10, n_nodes=10)


def test_scan_bounds_are_the_measured_extremes(gauss_tab):
    """A and B are the table's extremes with the tail limit ||psi||^2
    taken in, and no margin: the Gaussian's symbol at alpha = 0.5 tends
    to its tail limit 1 and stays above it to 1e-14, so A is 1 to 1e-12."""
    tab = gauss_tab
    assert abs(tab.A - 1.0) <= 1e-12
    assert tab.A == min(tab.values.min(), tab.tail_value)
    assert tab.B == max(tab.values.max(), tab.tail_value)


def test_scan_report_and_csv(tmp_path, gauss_tab):
    rep = gauss_tab.report()
    assert rep["admissible"] and rep["A"] == gauss_tab.A
    path = tmp_path / "m.csv"
    gauss_tab.save_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (gauss_tab.xi_grid.n, 2)
    assert np.max(np.abs(data[:, 1] - gauss_tab.values)) == 0.0


def test_apply_multiplier_inverse_pair(gauss_tab):
    grid = SampledGrid.centered(128, 0.125)
    rng = np.random.default_rng(3)
    f = Signal(grid, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    g = apply_multiplier(apply_multiplier(f, gauss_tab, -1), gauss_tab, 1)
    assert np.max(np.abs(g.values - f.values)) < 1e-10
    h = apply_multiplier(f, gauss_tab, 0)
    assert np.array_equal(h.values, f.values)


def test_apply_multiplier_acts_in_frequency(gauss_tab):
    grid = SampledGrid.centered(256, 1.0 / 16.0)
    t = grid.coords
    f = Signal(grid, np.exp(-np.pi * t**2).astype(complex))
    g = apply_multiplier(f, gauss_tab, 1)
    F, G = forward_fourier(f), forward_fourier(g)
    core = np.abs(F.values) > 1e-6
    ratio = G.values[core] / F.values[core]
    expected = gauss_tab(F.grid.coords[core])
    assert np.max(np.abs(ratio - expected)) < 1e-9


def test_inverse_multiplier_needs_admissibility(gauss_tab):
    from dataclasses import replace
    bad = replace(gauss_tab, A=0.0)
    grid = SampledGrid.centered(32, 0.5)
    f = Signal(grid, np.ones(32, dtype=complex))
    with pytest.raises(NotAdmissibleError):
        apply_multiplier(f, bad, -1)
