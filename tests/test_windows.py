import math

import numpy as np
import pytest
from scipy.interpolate import BSpline

from alphamod.quadrature import integrate
from alphamod.windows import (_TAYLOR_CUT, HypothesisVerdict, Purpose,
                              Window, _sinc_power_derivs, bandlimited_window,
                              bspline_window, bump_window, check_hypotheses,
                              gaussian_window, parse_window_spec,
                              required_decay)


def quad1(f, a, b, tol):
    """One integral of f(t) over [a, b]."""
    vals, _ = integrate(lambda t, _: f(t), [[a, b]], tol)
    return vals[0]


def numeric_ft(w, xi):
    """Reference transform by direct quadrature of the time samples."""
    lo, hi = w.support if w.support else (-30.0, 30.0)
    re = quad1(lambda t: w.time(t) * np.cos(2 * np.pi * xi * t), lo, hi,
               tol=1e-12)
    im = quad1(lambda t: -w.time(t) * np.sin(2 * np.pi * xi * t), lo, hi,
               tol=1e-12)
    return re + 1j * im


@pytest.mark.parametrize("make,label", [
    (lambda: gaussian_window(), "gaussian"),
    (lambda: bspline_window(2), "bspline2"),
    (lambda: bspline_window(4), "bspline4"),
    (lambda: bump_window(1.0), "bump"),
    (lambda: bandlimited_window(1.0), "bandlimited"),
])
def test_fourier_matches_reference(make, label):
    w = make()
    for xi in (0.0, 0.3, 1.1, 2.7):
        ref = numeric_ft(w, xi)
        assert w.fourier(xi) == pytest.approx(ref, abs=5e-7), (label, xi)


@pytest.mark.parametrize("make", [
    gaussian_window,
    lambda: bspline_window(3),
    lambda: bump_window(1.0),
    lambda: bandlimited_window(1.0),
])
def test_l2_norm_consistent(make):
    w = make()
    lo, hi = w.support if w.support else (-30.0, 30.0)
    mass = quad1(lambda t: np.abs(w.time(t)) ** 2, lo, hi, tol=1e-12)
    assert mass == pytest.approx(w.l2_norm**2, rel=1e-6)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_bspline_spectrum_matches_sinc_power_series(m):
    # the l = 0 spectrum is np.sinc(xi)**m; the derivative code switches
    # to a Taylor series below |xi| = _TAYLOR_CUT
    cut = _TAYLOR_CUT
    xi = np.concatenate([
        [0.0, 1e-4, -1e-4, cut, -cut],
        [np.nextafter(cut, 0.0), np.nextafter(cut, 1.0)],
        np.arange(-6.0, 7.0), np.linspace(-7.3, 7.3, 201),
    ])
    got = bspline_window(m).fourier(xi)
    ref = _sinc_power_derivs(xi, m)[0]
    assert np.max(np.abs(got - ref)) <= 1e-15


def test_gaussian_unit_norm():
    assert gaussian_window().l2_norm == pytest.approx(1.0)


def test_fourier_derivatives_by_finite_differences():
    h = 1e-4
    for w in (gaussian_window(), bspline_window(4), bump_window(1.0)):
        for xi in (0.2, 1.3):
            fd1 = (w.fourier(xi + h) - w.fourier(xi - h)) / (2 * h)
            assert w.fourier(xi, 1) == pytest.approx(fd1, abs=1e-5)
            fd2 = (w.fourier(xi + h) - 2 * w.fourier(xi)
                   + w.fourier(xi - h)) / h**2
            assert w.fourier(xi, 2) == pytest.approx(fd2, abs=1e-4)
            fd3 = (w.fourier(xi + h, 2) - w.fourier(xi - h, 2)) / (2 * h)
            assert w.fourier(xi, 3) == pytest.approx(fd3, abs=1e-4)


def test_bspline_compact_support():
    w = bspline_window(3)
    half = w.support[1]
    assert w.time(np.array([half + 1e-9, -half - 1e-9, half + 5.0])) \
        == pytest.approx(0.0)
    assert w.time(0.0) > 0


@pytest.mark.parametrize("m", [*range(1, 9), 30])
def test_bspline_time_matches_scipy_and_is_even(m):
    """The profile against scipy's de Boor evaluation on the open
    support; bit-for-bit even, which _reflections relies on."""
    w = bspline_window(m)
    t = np.linspace(-m / 2.0 - 0.5, m / 2.0 + 0.5, 20_001)
    basis = BSpline.basis_element(np.arange(m + 1) - m / 2.0,
                                  extrapolate=False)
    ref = np.where(np.abs(t) < m / 2.0, np.nan_to_num(basis(t)), 0.0)
    assert np.max(np.abs(w.time(t) - ref)) <= 2e-15 * np.max(ref)
    assert np.array_equal(w.time(t), w.time(-t))


@pytest.mark.parametrize("m, norm2", [(1, 1.0), (2, 2.0 / 3.0),
                                      (3, 11.0 / 20.0), (4, 151.0 / 315.0)])
def test_bspline_norm_is_exact(m, norm2):
    assert bspline_window(m).l2_norm ** 2 == pytest.approx(norm2, rel=1e-15)


def test_bump_normalization_integral():
    """int exp(-2 / (1 - u^2)) du over (-1, 1), to 30 digits by mpmath,
    is what the unit-radius bump's peak exp(-1) / sqrt(I) implies."""
    unit = math.exp(-2.0) / float(bump_window(1.0).time(0.0)) ** 2
    assert unit == pytest.approx(0.1330861208449942716, rel=1e-14)


def test_bump_compact_support():
    w = bump_window(1.0)
    assert w.time(np.array([1.0, -1.0, 1.5])) == pytest.approx(0.0)
    assert w.time(0.0) > 0


def test_bandlimited_spectrum_compact():
    w = bandlimited_window(1.0)
    assert w.freq_support == (-1.0, 1.0)
    assert w.fourier(np.array([1.0001, -1.2, 3.0])) == pytest.approx(0.0)
    assert w.l2_norm**2 == pytest.approx(35.0 / 64.0)


@pytest.mark.parametrize("radius", [4.0, 8.0, 16.0])
def test_wide_bump_certifies_decay(radius):
    """A wide bump's spectral table reaches its rounding noise within
    xi < 100.  The certificate rests on the bump being smooth with
    compact support, not on the table, so the noise cannot lower it."""
    assert bump_window(radius).decay_certificate > 1.0


@pytest.mark.parametrize("spec, certificate", [
    ("bspline:1", 1.0), ("bspline:4", 4.0), ("gaussian", math.inf),
    ("bump:1.0", math.inf), ("bandlimited:2.0", math.inf)])
def test_decay_certificate_is_the_family_theorem(spec, certificate):
    # |sinc|^m for B-splines, Schwartz spectra for the Gaussian and the
    # bump, a compact spectrum for the bandlimited window
    assert parse_window_spec(spec).decay_certificate == certificate


@pytest.mark.parametrize("purpose", list(Purpose))
@pytest.mark.parametrize("radius", [0.5, 1.0, 4.0])
def test_bump_meets_every_coorbit_threshold(radius, purpose):
    """A smooth window of compact support meets every decay threshold
    of the coorbit theory, at alpha = 0.5 as at any other alpha."""
    assert check_hypotheses(bump_window(radius), 0.5, 0.0, purpose).passed


def test_required_decay_closed_forms():
    assert required_decay(Purpose.ADMISSIBILITY, 0.5) == 1.0
    assert required_decay(Purpose.KERNEL_INTEGRABILITY, 0.5) == 9.0
    assert required_decay(Purpose.DISCRETIZATION, 0.0) == 2.0


@pytest.mark.parametrize("s1,s2", [(0.0, 1.0), (1.0, 2.5)])
@pytest.mark.parametrize("a1,a2", [(0.1, 0.3), (0.3, 0.6)])
def test_required_decay_monotone(a1, a2, s1, s2):
    p = Purpose.KERNEL_INTEGRABILITY
    assert required_decay(p, a1, s1) <= required_decay(p, a2, s1)
    assert required_decay(p, a1, s1) <= required_decay(p, a1, s2)


def test_check_hypotheses_verdicts():
    good = check_hypotheses(gaussian_window(), 0.5, 0.0,
                            Purpose.DISCRETIZATION)
    assert good.passed
    bad = check_hypotheses(bspline_window(1), 0.9, 0.0,
                           Purpose.ADMISSIBILITY)
    assert not bad.passed
    assert bad.required_r == pytest.approx(
        max(1.0, 0.9 / (2 * 0.1)))
    g = gaussian_window()
    bare = Window("uncertified", g.time, g.fourier, 1.0)
    with pytest.raises(ValueError, match="no decay certificate"):
        check_hypotheses(bare, 0.5, 0.0, Purpose.ADMISSIBILITY)


def test_time_radius_rule():
    # half the support, the Gaussian's 1e-17 radius, else infinite
    assert bspline_window(4).time_radius == 2.0
    assert bump_window(1.5).time_radius == 1.5
    assert math.isinf(bandlimited_window(1.0).time_radius)
    g = gaussian_window()
    assert g.time(g.time_radius) / g.time(0.0) == pytest.approx(1e-17)
    assert math.isinf(Window("bare", g.time, g.fourier, 1.0).time_radius)


def test_parse_window_spec():
    assert parse_window_spec("gaussian").label == gaussian_window().label
    assert parse_window_spec("bspline:4").support == bspline_window(4).support
    with pytest.raises(ValueError):
        parse_window_spec("unknown:1")
    with pytest.raises(ValueError):
        parse_window_spec("gaussian:2")


def test_alpha_domain_validated():
    with pytest.raises(ValueError):
        required_decay(Purpose.ADMISSIBILITY, 1.0)


@pytest.mark.parametrize("make, value", [
    (bump_window, 1e-300), (bump_window, 0.06), (bump_window, 16.5),
    (bump_window, math.inf), (bump_window, math.nan),
    (bandlimited_window, 1e-300), (bandlimited_window, 1e101),
    (bandlimited_window, math.inf), (bandlimited_window, math.nan),
])
def test_window_parameter_outside_its_range(make, value):
    with pytest.raises(ValueError, match=r"must be in \[.*\], .* got"):
        make(value)


def test_window_parameter_range_ends_are_representable():
    for w in (bump_window(1.0 / 16.0), bump_window(16.0),
              bandlimited_window(1e-100), bandlimited_window(1e100)):
        xi = np.linspace(-2.0, 2.0, 9)
        assert all(np.all(np.isfinite(w.fourier(xi, l))) for l in range(4))
        assert np.all(np.isfinite(w.time(xi))), w
