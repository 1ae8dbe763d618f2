import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamod import admissibility_scan, parse_window_spec
from alphamod.covering import build_covering, q_samples
from alphamod.diagnostics import (KernelEstimate, TruncationConfig,
                                  _omega_grid, _osc, _probe_omegas,
                                  _reflections, _rho_once, _SliceEngine,
                                  _swept_probes, _weighted_mass,
                                  discretization_condition, estimate_gamma,
                                  estimate_rho, lambda_fn,
                                  oscillation_kernel, theta_fn)
from alphamod import diagnostics
from alphamod.grids import Weight
from alphamod.symbol import NotAdmissibleError, beta
from alphamod.transform import kernel_K
from alphamod.windows import Window


LIGHT = TruncationConfig(x_max=4.0, omega_max=8.0, n_probes=3,
                         probe_omega_max=2.0, z_density=3)


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
        KernelEstimate(s=0.0, value=-1.0, truncation={})


@pytest.mark.parametrize("field, value", [
    ("n_probes", 0), ("n_probes", 2.5), ("z_density", 0),
    ("z_density", 3.0), ("x_max", 0.0), ("omega_max", -1.0),
    ("omega_max", float("inf")), ("probe_omega_max", float("nan")),
] + [(field, bad) for field in vars(TruncationConfig())
     for bad in ("4", True)])
def test_truncation_config_names_a_bad_field(field, value):
    """n_probes = 0 would make rho read 0.0 and gamma fail in a reshape;
    every out-of-range field, non-number and bool is refused up front,
    by name, before it is compared."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TruncationConfig(**{field: value})


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
    engine = _SliceEngine(gauss, 0.5, gauss_tab, omega_max=4.0,
                          u_max=6.0)
    eta = 0.5
    omegas = np.array([-1.0, 0.0, 2.0])
    P = engine.slices(engine._atoms_hat(omegas), engine.right_hat(eta),
                      0, engine.n)
    for i, om in enumerate(omegas):
        for x in (-2.0, 0.0, 1.5):
            idx = engine.u_index(x)
            ref = kernel_K(gauss, 0.5, gauss_tab, 1,
                           (float(engine.u[idx]), float(om)), (0.0, eta))
            assert P[i, 0, idx] == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("kappa", [1])
def test_half_spectrum_slices_match_the_full_fft(gauss, gauss_tab, kappa):
    """The half-length real transform, with u < 0 read by conjugation,
    against the full complex FFT between the DFT phases of the centered
    xi grid and its dual, at every u of a small engine and every pair of
    an omega and an eta.  Those phases are the signs (-1)^k and
    (-1)^(m - n/2).  The right side carries m^-kappa, kappa = 1."""
    engine = _SliceEngine(gauss, 0.5, gauss_tab, omega_max=2.0, u_max=2.0)
    n = engine.n
    assert n == 512
    k = np.arange(n)
    sign = np.where(k % 2, -1.0, 1.0)
    left = engine._atoms_hat([-1.5, 0.0, 2.0])
    right = engine.right_hat([0.5, -1.0])
    np.testing.assert_array_equal(
        right, engine._atoms_hat([0.5, -1.0]) * gauss_tab(engine.xi) ** -kappa)
    G = left[:, None, :] * right
    ref = engine.dxi * sign[k - n // 2] * np.fft.fft(G * sign, axis=-1)
    P = engine.slices(left, right, 0, n)
    assert P.shape == (3, 2, n)
    assert np.abs(P - ref).max() <= 1e-14 * np.abs(ref).max()
    for lo, hi in [(0, 7), (250, 262), (256, 300), (505, 512)]:
        window = engine.slices(left, right, lo, hi)
        np.testing.assert_array_equal(window, P[..., lo:hi])
        # C order: rho's sums over u depend on the layout, by an ulp
        assert window.flags.c_contiguous
        # each window is signed on its own, so it meets the oracle too
        assert (np.abs(window - ref[..., lo:hi]).max()
                <= 1e-14 * np.abs(ref).max())


@pytest.fixture(scope="module")
def gauss_tab_alpha0(gauss):
    return admissibility_scan(gauss, 0.0, xi_max=40, n_nodes=401)


def test_slices_at_alpha_zero_match_the_closed_form(gauss, gauss_tab_alpha0):
    """At alpha = 0 every beta is 1 and the Gaussian's symbol is 1, so
    R is its short-time Fourier kernel: with a = u and b = omega - eta,
    P(a) = exp(-pi (a^2 + b^2) / 2 - pi i a b - 2 pi i eta a), for every
    pair of an omega and an eta.  The scan's symbol is within 6.3e-9 of
    1, which sets the floor: 6.8e-10 measured on |u| <= 4."""
    engine = _SliceEngine(gauss, 0.0, gauss_tab_alpha0, omega_max=4.0,
                          u_max=4.0)
    omegas, etas = np.linspace(-4.0, 4.0, 9), np.array([-4.0, -0.5, 0.0, 3.0])
    near = np.abs(engine.u) <= 4.0
    P = engine.slices(engine._atoms_hat(omegas), engine.right_hat(etas),
                      0, engine.n)[..., near]
    a = engine.u[near]
    b = (omegas[:, None] - etas)[..., None]
    R = np.exp(-np.pi * (a**2 + b**2) / 2 - 1j * np.pi * a * b
               - 2j * np.pi * etas[:, None] * a)
    assert np.abs(P - R).max() <= 2e-9


def test_rho_at_alpha_zero_is_two(gauss, gauss_tab_alpha0):
    """At alpha = 0 and s = 0, |R| = exp(-pi (a^2 + b^2) / 2) integrates
    to 2 over the phase space; measured 2 + 1.4e-9, the floor the
    scan's symbol sets."""
    est = estimate_rho(gauss, 0.0, 0.0, gauss_tab_alpha0, LIGHT)
    assert abs(est.value - 2.0) <= 5e-9


def test_complex_spectrum_is_refused(gauss, gauss_tab):
    """Kernel slices assume a real profile; a hand-built window whose
    spectrum is complex (the Gaussian shifted by 0.1) is named."""
    shifted = Window("shifted-gaussian", lambda t: gauss.time(t - 0.1),
                     lambda xi, l: (gauss._fourier(xi, l)
                                    * np.exp(-2j * np.pi * xi * 0.1)), 1.0)
    with pytest.raises(ValueError, match="shifted-gaussian"):
        estimate_rho(shifted, 0.5, 0.0, gauss_tab, LIGHT)


def test_oscillation_vanishes_at_base_point(gauss, gauss_tab):
    cov = build_covering(0.5, 0.5, 1.0, (-6, 6), (-4, 4))
    p1, p2 = (0.5, 1.0), (0.0, 0.0)
    osc = oscillation_kernel(gauss, 0.5, gauss_tab, cov, p1, p2,
                             z_density=2)
    direct = abs(kernel_K(gauss, 0.5, gauss_tab, 1, p1, p2))
    # the sup includes z = p2 itself where the difference is zero, and
    # nearby z keep it below the kernel magnitude scale
    assert 0.0 <= osc <= 2.0 * max(direct, 1.0)


def test_fft_oscillation_matches_quadrature_oracle(gauss, gauss_tab):
    """The FFT path snaps x_t - z_t to its u grid; the quadrature oracle
    evaluates at the exact z, so they differ by up to |dF/dz_t| * du / 2.
    omega_max = 64 gives du = 0.0057, fine enough that this snapping
    error stays well inside 1e-2 wherever the sup falls."""
    cov = build_covering(0.5, 0.5, 1.0, (-6, 6), (-4, 4))
    engine = _SliceEngine(gauss, 0.5, gauss_tab, omega_max=64.0,
                          u_max=6.0)
    on_grid = lambda t: float(engine.u[engine.u_index(t)])  # noqa: E731
    for p1, p2 in [((on_grid(0.5), 1.0), (0.0, 0.0)),
                   ((0.0, 0.5), (on_grid(0.3), -0.7)),
                   ((on_grid(-0.4), -1.5), (on_grid(0.2), -1.0))]:
        ref = oscillation_kernel(gauss, 0.5, gauss_tab, cov, p1, p2,
                                 z_density=2)
        fast = _osc(engine, cov, 2, p1[0], p1[1], p2[0], p2[1])
        assert fast.shape == (1, 1, 1)
        assert fast.item() == pytest.approx(ref, rel=1e-2)


def _osc_dense(engine, cov, density, x_t, x_w, y_t, y_w):
    """The sampled sup as _osc first computed it, without its chunking:
    one (i, a, b, z) phase array at the snapped z and a mask multiply
    for the samples whose box does not contain y_t."""
    x_t, x_w, y_t, y_w = (np.atleast_1d(np.asarray(v, dtype=float))
                          for v in (x_t, x_w, y_t, y_w))
    x_hat = engine._atoms_hat(x_w)
    base = engine.slices(x_hat, engine.right_hat(y_w), 0, engine.n)[
        ..., engine.u_index(x_t - y_t)]
    osc = np.zeros(base.shape)
    for band, z_t, inside, z_w in q_samples(cov, y_t, y_w, density):
        at = engine.u_index(x_t[:, None] - z_t)
        z_t = x_t[:, None] - engine.u[at]
        phase = np.exp(-2j * np.pi * y_w[band][:, None, None]
                       * (y_t[:, None] - z_t))
        R_y = base[:, band][..., None]
        for zw in z_w:
            P = engine.slices(x_hat, engine.right_hat(zw), 0, engine.n)[:, 0]
            diff = np.abs(R_y - phase * P[:, None, at])
            osc[:, band] = np.maximum(osc[:, band],
                                      (diff * inside).max(axis=-1))
    return osc


@pytest.fixture(scope="module", params=["gaussian", "bspline:2"])
def osc_engine(request):
    w = parse_window_spec(request.param)
    tab = admissibility_scan(w, 0.5, xi_max=80, n_nodes=801)
    return _SliceEngine(w, 0.5, tab, omega_max=4.0, u_max=6.0)


def _snap_repeats(engine, cov, density, u_in, omegas):
    """How many inside samples of a time snap to a u index that another
    inside sample of that time took, over the rows gamma1's call reads
    (x_t = 0, y_t = u_in)."""
    return sum(int(ins.sum()) - np.unique(row[ins]).size
               for _, z_t, inside, _ in q_samples(cov, u_in, omegas, density)
               for row, ins in zip(engine.u_index(-z_t), inside))


def _check_osc(engine, cov, densities, u_in, omegas, probes):
    """_osc against _osc_dense in both call shapes of estimate_gamma:
    gamma1's, with the probes as x frequencies, and gamma2's, with them
    as y frequencies."""
    for density in densities:
        for args in [(0.0, probes, u_in, omegas),
                     (u_in, omegas, 0.0, probes)]:
            fast = _osc(engine, cov, density, *args)
            ref = _osc_dense(engine, cov, density, *args)
            assert fast.shape == (args[1].size, args[3].size, u_in.size)
            np.testing.assert_array_equal(fast == 0, ref == 0)
            assert np.abs(fast - ref).max() <= 1e-13 * ref.max()


@pytest.mark.parametrize("time_range", [(-6.0, 6.0), (-1.5, 1.0)])
def test_osc_matches_dense_oracle(osc_engine, time_range):
    """The factored, z-major _osc against the dense reference at an even
    and an odd density.  The (-1.5, 1) covering stops inside the probed
    times, so some times have no inside sample in a row."""
    cov = build_covering(0.5, 0.5, 1.0, time_range, (-4, 4))
    u_in = osc_engine.u[np.abs(osc_engine.u) <= 2.0]
    _check_osc(osc_engine, cov, (2, 3), u_in, np.linspace(-3.0, 3.0, 13),
               np.array([-2.0, 0.5, 1.75]))


@pytest.mark.parametrize("omega_max, eps, time_range, density", [
    (4.0, 0.5, (-6.0, 6.0), 7), (1.0, 0.125, (-3.0, 3.0), 2)],
    ids=["density7", "coarse_du"])
def test_osc_matches_dense_oracle_where_indices_repeat(
        gauss, gauss_tab, omega_max, eps, time_range, density):
    """_osc gathers each time's distinct snapped indices once; the cases
    where they repeat.  At density 7 a time's two boxes share 3 sample
    times.  The second engine's du (0.084) is coarser than the sample
    spacing 2 eps beta(w) / (density + 1) of its rows at |w| >= 1
    (0.059 at |w| = 1), so samples snap together; at an even density
    the two boxes share no sample time, so every repeat is a snap."""
    engine = _SliceEngine(gauss, 0.5, gauss_tab, omega_max=omega_max,
                          u_max=6.0)
    cov = build_covering(0.5, eps, 1.0, time_range, (-omega_max, omega_max))
    u_in = engine.u[np.abs(engine.u) <= 2.0]
    omegas = np.linspace(-omega_max, omega_max, 13)
    assert _snap_repeats(engine, cov, density, u_in, omegas) > 0
    _check_osc(engine, cov, (density,), u_in, omegas,
               np.array([-0.5, 0.25, 0.75]) * omega_max)


def test_osc_rejects_times_the_engine_does_not_reach(osc_engine):
    """u_index used to clip a u off the grid onto its end sample, so a
    gather past u_max read edge values as kernel values."""
    cov = build_covering(0.5, 0.5, 1.0, (-40.0, 40.0), (-4, 4))
    omegas = np.linspace(-1.0, 1.0, 3)
    end = osc_engine.u[-1]
    for x_t, y_t in [(end + osc_engine.du, 0.0),   # x beyond the grid
                     (0.0, [0.0, -3.0 * end]),     # y beyond the grid
                     (0.0, -end)]:                 # y on it, its box not
        with pytest.raises(ValueError, match="off the slice grid"):
            _osc(osc_engine, cov, 2, x_t, 0.0, y_t, omegas)
    assert osc_engine.u_index(end) == osc_engine.n - 1


def test_estimate_rho_converged(gauss, gauss_tab):
    est = estimate_rho(gauss, 0.5, 0.0, gauss_tab, LIGHT)
    assert est.value > 0
    assert est.truncation["converged"]
    assert len(est.truncation["history"]) >= 2
    assert est.value == pytest.approx(2.090531430020757, rel=1e-12)


def test_rho_blocks_do_not_change_rho(gauss, gauss_tab, monkeypatch):
    """_rho_once keeps each omega row's u sum and weights them once at
    the end, so one row per block gives rho bit for bit."""
    args = (gauss, 0.5, 1.0, gauss_tab, 4.0, 8.0, _probe_omegas(LIGHT))
    whole = _rho_once(*args)
    monkeypatch.setattr(diagnostics, "_BLOCK", 1)
    assert _rho_once(*args) == whole


def test_osc_z_chunks_do_not_change_osc(gauss, gauss_tab, monkeypatch):
    """_osc folds every z frequency into a running max, so one z
    frequency per slices call (three by default here) gives osc bit for
    bit, in both call shapes of estimate_gamma.  The (-1.5, 1) covering
    leaves some times without an inside sample in a row."""
    engine = _SliceEngine(gauss, 0.5, gauss_tab, omega_max=4.0, u_max=6.0)
    cov = build_covering(0.5, 0.5, 1.0, (-1.5, 1.0), (-4, 4))
    u_in = engine.u[np.abs(engine.u) <= 2.0]
    omegas, probes = np.linspace(-3.0, 3.0, 13), np.array([-2.0, 0.5, 1.75])
    for args in [(0.0, probes, u_in, omegas), (u_in, omegas, 0.0, probes)]:
        whole = _osc(engine, cov, 3, *args)
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "_BLOCK", 1)
            assert np.array_equal(_osc(engine, cov, 3, *args), whole)


def test_estimate_rho_weight_monotone(gauss, gauss_tab):
    r0 = estimate_rho(gauss, 0.5, 0.0, gauss_tab, LIGHT).value
    r1 = estimate_rho(gauss, 0.5, 1.0, gauss_tab, LIGHT).value
    assert r1 > r0  # w_s >= 1 strictly off the diagonal


def test_estimate_rho_needs_admissibility(gauss, gauss_tab):
    from dataclasses import replace
    with pytest.raises(NotAdmissibleError):
        estimate_rho(gauss, 0.5, 0.0, replace(gauss_tab, A=0.0), LIGHT)


def test_estimate_gamma_needs_admissibility(gauss, gauss_tab):
    from dataclasses import replace
    cov = build_covering(0.5, 0.5, 1.0, (-6, 6), (-4, 4))
    with pytest.raises(NotAdmissibleError, match="gamma"):
        estimate_gamma(gauss, 0.5, 0.0, replace(gauss_tab, A=0.0), cov,
                       LIGHT)


def test_freq_radius_of_a_compact_spectrum_is_its_support():
    """A bandlimited window's slices reach exactly its cutoff; other
    windows get a radius searched on their spectrum."""
    assert diagnostics._freq_radius(parse_window_spec("bandlimited:2.0")) \
        == 2.0


def test_estimate_gamma_structure(gauss, gauss_tab):
    cov = build_covering(0.5, 0.25, 1.0, (-8, 8), (-16, 16))
    g1, g2, g = estimate_gamma(gauss, 0.5, 0.0, gauss_tab, cov, LIGHT)
    assert g == max(g1, g2)
    assert g1 > 0 and g2 > 0
    # pinned: any change in how Q_y is sampled or z is snapped shows here.
    # z_t = +-25/12 lies an exact half-integer number of du = 1/34.8 from
    # u grid points.  u_index rounds u / du, which is sign-symmetric, so
    # the two signs snap to mirror points and the half time sweep counts
    # what the full one does.  Rounding (u - u[0]) / du snapped them to
    # different sides and gave 6.582632563985738.
    assert g1 == pytest.approx(6.582632743227604, rel=1e-12)
    assert g2 == pytest.approx(5.27247853103112, rel=1e-12)


def test_estimate_gamma_holds_at_twice_the_fft_length(gauss, gauss_tab):
    """estimate_gamma sizes its engine to the u its gathers read,
    x_max + 2 eps.  Its loop replayed probe by probe on an engine of
    twice the FFT length (the former x_max + 4 sizing) and the same du
    gives the same gamma up to the snapping of exact grid ties."""
    cov = build_covering(0.5, 0.25, 1.0, (-8, 8), (-16, 16))
    g1, g2, _ = estimate_gamma(gauss, 0.5, 0.0, gauss_tab, cov, LIGHT)
    sized = _SliceEngine(gauss, 0.5, gauss_tab, LIGHT.omega_max,
                         LIGHT.x_max + 2.0 * cov.eps)
    engine = _SliceEngine(gauss, 0.5, gauss_tab, LIGHT.omega_max,
                          LIGHT.x_max + 4.0)
    assert engine.n == 2 * sized.n
    assert engine.du == pytest.approx(sized.du, rel=1e-15)
    omegas = _omega_grid(LIGHT.omega_max)
    u_in = engine.u[np.abs(engine.u) <= LIGHT.x_max]
    d = LIGHT.z_density

    def mass(osc, probe):
        return _weighted_mass(osc.sum(axis=1), omegas, probe, Weight(0.0),
                              engine.du)
    probes = _probe_omegas(LIGHT)
    r1 = max(mass(_osc(engine, cov, d, 0.0, p, u_in, omegas)[0], p)
             for p in probes)
    r2 = max(mass(_osc(engine, cov, d, u_in, omegas, 0.0, p)[:, 0], p)
             for p in probes)
    assert g1 == pytest.approx(r1, rel=1e-7)
    assert g2 == pytest.approx(r2, rel=1e-7)


def _probe_masses(w, tab, cov, trunc, probes, s=0.0):
    """The rho (first truncation), gamma1 and gamma2 masses of the given
    probes, computed as estimate_rho and estimate_gamma do before taking
    their max over the probes."""
    rho = [_rho_once(w, 0.5, s, tab, trunc.x_max, trunc.omega_max, [p])
           for p in probes]
    engine = _SliceEngine(w, 0.5, tab, trunc.omega_max,
                          trunc.x_max + 2.0 * cov.eps)
    omegas = _omega_grid(trunc.omega_max)
    u_in = engine.u[np.abs(engine.u) <= trunc.x_max]
    d = trunc.z_density

    def mass(osc, probe):
        return _weighted_mass(osc.sum(axis=1), omegas, probe, Weight(s),
                              engine.du)
    g1 = list(map(mass, _osc(engine, cov, d, 0.0, probes, u_in, omegas),
                  probes))
    g2 = [mass(_osc(engine, cov, d, u_in, omegas, 0.0, p)[:, 0], p)
          for p in probes]
    return np.array(rho), np.array(g1), np.array(g2)


@pytest.mark.parametrize("spec", ["gaussian", "bump:1.0", "bspline:2",
                                  "bspline:4"])
def test_mirror_probes_carry_the_same_mass(spec):
    """An even window on a mirrored covering: probes p and -p carry the
    same rho, gamma1 and gamma2 mass, so sweeping the upper half of the
    probes loses nothing.  LIGHT's outer probes, -2 and 2, are compared
    (its middle one is 0); s = 1 makes the weight part of the check."""
    w = parse_window_spec(spec)
    tab = admissibility_scan(w, 0.5, xi_max=80, n_nodes=801)
    cov = build_covering(0.5, 0.25, 1.0, (-8, 8), (-16, 16))
    np.testing.assert_array_equal(_swept_probes(LIGHT, w, cov), [0.0, 2.0])
    for lo, hi in _probe_masses(w, tab, cov, LIGHT, np.array([-2.0, 2.0]),
                                s=1.0):
        assert hi == pytest.approx(lo, rel=1e-12)


def test_unmirrored_covering_sweeps_every_probe(gauss, gauss_tab):
    """A covering on (-8, 6) is not mirrored, so estimate_gamma sweeps
    every probe: it equals the max over all probe masses, which here
    differs from the max over the upper half."""
    cov = build_covering(0.5, 0.25, 1.0, (-8, 6), (-16, 16))
    np.testing.assert_array_equal(_swept_probes(LIGHT, gauss, cov),
                                  _probe_omegas(LIGHT))
    _, m1, m2 = _probe_masses(gauss, gauss_tab, cov, LIGHT,
                              _probe_omegas(LIGHT))
    g1, g2, _ = estimate_gamma(gauss, 0.5, 0.0, gauss_tab, cov, LIGHT)
    assert (g1, g2) == (m1.max(), m2.max())
    assert (m1.max(), m2.max()) != (m1[1:].max(), m2[1:].max())


def test_uneven_window_sweeps_every_probe(gauss):
    """Evenness is read from the time profile alone."""
    shifted = Window("shifted", lambda t: gauss.time(t - 0.1),
                     gauss._fourier, 1.0)
    np.testing.assert_array_equal(_swept_probes(LIGHT, shifted),
                                  _probe_omegas(LIGHT))
    assert _swept_probes(LIGHT, gauss).size == 2


def test_middle_probe_below_zero_is_swept(gauss, gauss_tab):
    """linspace(-0.9, 0.9, 7) puts its middle probe at -1.1e-16; the half
    is taken by index, so that probe, which holds rho's largest mass
    here, is still evaluated."""
    trunc = TruncationConfig(x_max=4.0, omega_max=8.0, n_probes=7,
                             probe_omega_max=0.9)
    middle = _probe_omegas(trunc)[3]
    assert -1e-15 < middle < 0
    assert _swept_probes(trunc, gauss)[0] == middle
    masses = [_rho_once(gauss, 0.5, 0.0, gauss_tab, 4.0, 8.0, [p])
              for p in _probe_omegas(trunc)]
    assert max(masses) == masses[3] > max(masses[:3] + masses[4:])
    est = estimate_rho(gauss, 0.5, 0.0, gauss_tab, trunc)
    assert est.truncation["history"][0] == masses[3]


def test_time_reflection_matches_the_full_sweep(gauss, gauss_tab):
    """At the benchmark's gate (eps 0.25, x_max 4, omega_max 8, 9
    probes, density 7), gamma sweeping only u >= 0 and counting u > 0
    twice equals the max over the swept probes' full-u masses."""
    trunc = TruncationConfig(x_max=4.0, omega_max=8.0)
    cov = build_covering(0.5, 0.25, 1.0, (-8, 8), (-16, 16))
    assert _reflections(gauss, cov) == (True, True)
    _, m1, m2 = _probe_masses(gauss, gauss_tab, cov, trunc,
                              _swept_probes(trunc, gauss, cov))
    g1, g2, _ = estimate_gamma(gauss, 0.5, 0.0, gauss_tab, cov, trunc)
    assert g1 == pytest.approx(m1.max(), rel=1e-12)
    assert g2 == pytest.approx(m2.max(), rel=1e-12)


def test_time_reflection_matches_the_full_sweep_on_grid_ties():
    """bump:1.0 at LIGHT (du = 1/405) puts many x_t - z_t on exact
    half-integer multiples of du.  u_index snaps u and -u to mirror
    points, so gamma sweeping u >= 0 still equals the full u sweep; when
    it rounded from the grid's first point the two differed by 1.7e-5."""
    w = parse_window_spec("bump:1.0")
    tab = admissibility_scan(w, 0.5, xi_max=80, n_nodes=801)
    cov = build_covering(0.5, 0.25, 1.0, (-8, 8), (-16, 16))
    assert _reflections(w, cov) == (True, True)
    _, m1, m2 = _probe_masses(w, tab, cov, LIGHT,
                              _swept_probes(LIGHT, w, cov))
    g1, g2, _ = estimate_gamma(w, 0.5, 0.0, tab, cov, LIGHT)
    assert g1 == pytest.approx(m1.max(), rel=1e-12)
    assert g2 == pytest.approx(m2.max(), rel=1e-12)


@pytest.mark.parametrize("shifted, time_range", [(True, (-8, 8)),
                                                  (False, (-6, 8))],
                         ids=["uneven-window", "asymmetric-rows"])
def test_no_time_reflection_sweeps_every_time(gauss, gauss_tab, shifted,
                                               time_range):
    """An uneven window, or a covering whose rows are not time-symmetric
    (k_lo != -k_hi), turns the time reflection off: gamma is the full u
    sweep's, bit for bit."""
    w = Window("shifted", lambda t: gauss.time(t - 0.1), gauss._fourier,
               1.0) if shifted else gauss
    cov = build_covering(0.5, 0.25, 1.0, time_range, (-16, 16))
    assert not _reflections(w, cov)[1]
    _, m1, m2 = _probe_masses(w, gauss_tab, cov, LIGHT,
                              _swept_probes(LIGHT, w, cov))
    g1, g2, _ = estimate_gamma(w, 0.5, 0.0, gauss_tab, cov, LIGHT)
    assert (g1, g2) == (m1.max(), m2.max())
