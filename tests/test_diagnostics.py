import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamod import ScanConfig, admissibility_scan, parse_window_spec
from alphamod.covering import build_covering, q_samples
from alphamod.diagnostics import (KernelEstimate, TruncationConfig,
                                  _osc, _SliceEngine,
                                  discretization_condition, estimate_gamma,
                                  estimate_rho, lambda_fn,
                                  oscillation_kernel, theta_fn)
from alphamod.symbol import NotAdmissibleError, beta
from alphamod.transform import kernel_K


LIGHT = TruncationConfig(x_max=4.0, omega_max=8.0, n_probes=3,
                         probe_omega_max=2.0, z_density=3, max_doublings=2)


def test_verdict_cases():
    v = discretization_condition(3.0, 0.0, 2.0)
    assert v.lhs == 0.0 and v.passed
    v = discretization_condition(1.0, 0.2, 1.0)
    assert v.lhs == pytest.approx(0.44, abs=1e-15) and v.passed
    v = discretization_condition(2.0, 0.5, 3.0)
    assert v.lhs == 4.0 and not v.passed


def test_verdict_branches():
    # gamma small: the rho*C_w term dominates the max
    v = discretization_condition(1.0, 0.1, 5.0)
    assert v.lhs == pytest.approx(0.1 * (1.0 + 5.0))
    # gamma large: the rho + gamma term dominates
    v = discretization_condition(1.0, 3.0, 1.0)
    assert v.lhs == pytest.approx(3.0 * (1.0 + 4.0))


def test_verdict_rejects_negative():
    with pytest.raises(ValueError):
        discretization_condition(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        discretization_condition(1.0, -0.1, 1.0)


def test_kernel_estimate_validation():
    with pytest.raises(ValueError):
        KernelEstimate(kappa=3, s=0.0, value=1.0, truncation={},
                       quad_error=0.0)
    with pytest.raises(ValueError):
        KernelEstimate(kappa=1, s=0.0, value=-1.0, truncation={},
                       quad_error=0.0)


def test_lambda_at_zero_xi_is_one():
    for alpha in (0.25, 0.5, 0.75):
        assert lambda_fn(0.0, 3.7, alpha) == 1.0
        assert lambda_fn(0.0, -12.0, alpha) == 1.0


@given(st.floats(-100, 100), st.floats(-100, 100),
       st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=500, deadline=None)
def test_lambda_bound_property(xi, omega, alpha):
    assert lambda_fn(xi, omega, alpha) <= 2.0 ** (1.0 / (1.0 - alpha)) + 1e-12


def test_lambda_reflection_symmetry():
    xi, om = 1.7, -3.2
    for alpha in (0.25, 0.6):
        assert lambda_fn(-xi, om, alpha) == pytest.approx(
            lambda_fn(xi, -om, alpha))


def test_theta_at_zero_is_one():
    assert theta_fn(0.0, 5.0, 0.5) == 1.0


@given(st.floats(-50, 50), st.floats(-50, 50),
       st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=500, deadline=None)
def test_theta_bound_property(omega, omega_star, alpha):
    bound = (1.0 + abs(omega)) ** (alpha / (1.0 - alpha))
    assert theta_fn(omega, omega_star, alpha) <= bound * (1 + 1e-12)


def test_slice_engine_matches_quadrature_kernel(gauss, gauss_tab):
    """The FFT x-slices must reproduce the adaptive-quadrature kernel."""
    engine = _SliceEngine(gauss, 0.5, gauss_tab, 1, omega_max=4.0,
                          u_max=6.0)
    eta = 0.5
    omegas = np.array([-1.0, 0.0, 2.0])
    P = engine.slices(omegas, eta)
    for i, om in enumerate(omegas):
        for x in (-2.0, 0.0, 1.5):
            idx = engine.u_index(x)
            ref = kernel_K(gauss, gauss, 0.5, gauss_tab, 1,
                           (float(engine.u[idx]), float(om)), (0.0, eta))
            assert P[i, idx] == pytest.approx(ref, abs=1e-8)


def test_slice_engine_kappa_zero(gauss, gauss_tab):
    engine = _SliceEngine(gauss, 0.5, gauss_tab, 0, omega_max=4.0,
                          u_max=6.0)
    P = engine.slices(np.array([1.0]), 1.0)
    idx = engine.u_index(0.0)
    # K^0(p, p) = ||a_p||^2 = 1 for the unit-norm Gaussian
    assert P[0, idx] == pytest.approx(1.0, abs=1e-8)


def test_oscillation_vanishes_at_base_point(gauss, gauss_tab):
    cov = build_covering(0.5, 0.5, 1.0, (-6, 6), (-4, 4))
    p1, p2 = (0.5, 1.0), (0.0, 0.0)
    osc = oscillation_kernel(gauss, 0.5, gauss_tab, cov, p1, p2,
                             z_density=2)
    direct = abs(kernel_K(gauss, gauss, 0.5, gauss_tab, 1, p1, p2))
    # the sup includes z = p2 itself where the difference is zero, and
    # nearby z keep it below the kernel magnitude scale
    assert 0.0 <= osc <= 2.0 * max(direct, 1.0)


def test_fft_oscillation_matches_quadrature_oracle(gauss, gauss_tab):
    """The FFT path snaps x_t - z_t to its u grid (du = 0.044 here); the
    quadrature oracle evaluates at the exact z, so they agree to about
    the snapping step."""
    cov = build_covering(0.5, 0.5, 1.0, (-6, 6), (-4, 4))
    engine = _SliceEngine(gauss, 0.5, gauss_tab, 1, omega_max=4.0,
                          u_max=6.0)
    on_grid = lambda t: float(engine.u[engine.u_index(t)])  # noqa: E731
    for p1, p2 in [((on_grid(0.5), 1.0), (0.0, 0.0)),
                   ((0.0, 0.5), (on_grid(0.3), -0.7)),
                   ((on_grid(-0.4), -1.5), (on_grid(0.2), -1.0))]:
        ref = oscillation_kernel(gauss, 0.5, gauss_tab, cov, p1, p2,
                                 z_density=2)
        fast = _osc(engine, cov, 2, p1[0], p1[1], p2[0], p2[1])
        assert fast.shape == (1, 1)
        assert fast[0, 0] == pytest.approx(ref, rel=1e-2)


def _osc_dense(engine, cov, density, x_t, x_w, y_t, y_w):
    """The sampled sup as _osc first computed it, without its chunking:
    one (a, b, z) phase array at the snapped z and a mask multiply for
    the samples whose box does not contain y_t."""
    x_t, x_w, y_t, y_w = (np.atleast_1d(np.asarray(v, dtype=float))
                          for v in (x_t, x_w, y_t, y_w))
    x_hat = engine._atoms_hat(x_w)
    base = engine.slices(x_w, y_w, x_hat)[:, engine.u_index(x_t - y_t)]
    osc = np.zeros(base.shape)
    for band, z_t, inside, z_w in q_samples(cov, y_t, y_w, density):
        rows = np.broadcast_to(band, osc.shape[:1])
        xw, yw, xw_hat = (v[rows] if len(v) > 1 else v
                          for v in (x_w, y_w, x_hat))
        at = engine.u_index(x_t[:, None] - z_t)
        z_t = x_t[:, None] - engine.u[at]
        phase = np.exp(-2j * np.pi * yw[:, None, None]
                       * (y_t[:, None] - z_t))
        R_y = base[rows][:, :, None]
        for zw in z_w:
            P = engine.slices(xw, zw, xw_hat)
            diff = np.abs(R_y - phase * P[:, at])
            osc[rows] = np.maximum(osc[rows], (diff * inside).max(axis=2))
    return osc


@pytest.fixture(scope="module", params=["gaussian", "bspline:2"])
def osc_engine(request):
    w = parse_window_spec(request.param)
    tab = admissibility_scan(w, 0.5, ScanConfig(xi_max=80, n_nodes=801))
    return _SliceEngine(w, 0.5, tab, 1, omega_max=4.0, u_max=6.0)


@pytest.mark.parametrize("time_range", [(-6.0, 6.0), (-1.5, 1.0)])
def test_osc_matches_dense_oracle(osc_engine, time_range):
    """The factored, z-major _osc against the dense reference, in both
    call shapes of estimate_gamma.  The (-1.5, 1) covering stops inside
    the probed times, so some times have no inside sample in a row."""
    cov = build_covering(0.5, 0.5, 1.0, time_range, (-4, 4), validate=False)
    u_in = osc_engine.u[np.abs(osc_engine.u) <= 2.0]
    omegas = np.linspace(-3.0, 3.0, 13)
    for args in [(0.0, -2.0, u_in, omegas), (u_in, omegas, 0.0, 0.5)]:
        ref = _osc_dense(osc_engine, cov, 3, *args)
        fast = _osc(osc_engine, cov, 3, *args)
        assert fast.shape == ref.shape == (omegas.size, u_in.size)
        np.testing.assert_array_equal(fast == 0, ref == 0)
        assert np.abs(fast - ref).max() <= 1e-13 * ref.max()


def test_estimate_rho_converged(gauss, gauss_tab):
    est = estimate_rho(gauss, 0.5, 0.0, gauss_tab, LIGHT)
    assert est.kappa == 1
    assert est.value > 0
    assert est.truncation["converged"]
    assert len(est.truncation["history"]) >= 2
    assert est.value == pytest.approx(2.090531430020757, rel=1e-12)


def test_estimate_rho_weight_monotone(gauss, gauss_tab):
    r0 = estimate_rho(gauss, 0.5, 0.0, gauss_tab, LIGHT).value
    r1 = estimate_rho(gauss, 0.5, 1.0, gauss_tab, LIGHT).value
    assert r1 > r0  # w_s >= 1 strictly off the diagonal


def test_estimate_rho_needs_admissibility(gauss, gauss_tab):
    from dataclasses import replace
    with pytest.raises(NotAdmissibleError):
        estimate_rho(gauss, 0.5, 0.0, replace(gauss_tab, A=0.0), LIGHT)


def test_estimate_gamma_structure(gauss, gauss_tab):
    cov = build_covering(0.5, 0.25, 1.0, (-8, 8), (-16, 16))
    g1, g2, g = estimate_gamma(gauss, 0.5, 0.0, gauss_tab, cov, LIGHT)
    assert g == max(g1, g2)
    assert g1 > 0 and g2 > 0
    # pinned: any change in how Q_y is sampled or z is snapped shows here
    assert g1 == pytest.approx(6.58263273846213, rel=1e-12)
    assert g2 == pytest.approx(5.272478523983099, rel=1e-12)
