import math

import numpy as np
import pytest

from alphamod import quadrature
from alphamod.quadrature import QuadratureError, integrate


def quad1(f, a, b, tol, points=()):
    """One integral of f(x) over [a, b] with interior break points."""
    edges = [a, *sorted(p for p in points if a < p < b), b]
    vals, errs = integrate(lambda x, _: f(x), [edges], tol)
    return vals[0], errs[0]


def test_polynomial_exact():
    val, err = quad1(lambda x: x**2, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert err < 1e-12


def test_gaussian_mass():
    val, _ = quad1(lambda x: np.exp(-np.pi * x**2), -20.0, 20.0, tol=1e-12)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_oscillatory():
    # int_0^1 cos(40 pi x) dx = 0
    val, _ = quad1(lambda x: np.cos(40 * np.pi * x), 0.0, 1.0, tol=1e-12)
    assert abs(val) < 1e-12


def test_kink_with_breakpoint_hint():
    val, _ = quad1(np.abs, -1.0, 1.0, tol=1e-13, points=(0.0,))
    assert val == pytest.approx(1.0, abs=1e-13)


def test_error_estimate_is_honest():
    exact = 4.0 / 3.0
    val, err = quad1(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0, tol=1e-10,
                     points=(0.0,))
    assert abs(val - exact) <= max(1e-10, 10 * err)


def test_bump_mass_to_the_last_bits():
    """int_{-1}^{1} exp(-2 / (1 - u^2)) du at tol 1e-17 against its
    19-digit value: Kronrod constants to 15 digits left it 3.6e-16 off
    (13 ulps) while reporting an error of 7e-20; QUADPACK's 33-digit
    constants leave 1 ulp."""
    exact = 0.1330861208449942716
    val, _ = quad1(lambda u: np.exp(-2.0 / (1.0 - u * u)), -1.0, 1.0,
                   tol=1e-17)
    assert abs(val - exact) <= 2 * np.spacing(exact)


def test_panel_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(QuadratureError):
        quad1(lambda x: np.sin(1.0 / (x**2 + 1e-12)), 0.0, 1.0, tol=1e-14)


def test_reversed_endpoints_rejected():
    with pytest.raises(ValueError):
        quad1(lambda x: x, 2.0, 0.0, tol=1e-12)


def test_vectorized_integrand_contract():
    # integrands receive flat arrays of abscissae and of their rows
    seen = {}

    def f(x, i):
        seen["shapes"] = np.shape(x), np.shape(i)
        return np.ones_like(x)

    vals, _ = integrate(f, [[0.0, 3.0]], 1e-12)
    assert vals[0] == pytest.approx(3.0)
    x_shape, i_shape = seen["shapes"]
    assert len(x_shape) == 1 and x_shape[0] > 1 and i_shape == x_shape


# a polynomial, a kink on a break point, and a complex oscillation
MIXED = [
    (lambda x: x**3 - 2 * x, [-1.0, 2.0, 2.0], 0.75),
    (np.abs, [-1.0, 0.0, 1.0], 1.0),
    (lambda x: np.exp(2j * np.pi * 7.5 * x), [0.0, 0.0, 1.0],
     1j / (np.pi * 7.5)),
]


def test_mixed_batch_matches_each_integral_alone():
    points = np.zeros(len(MIXED), dtype=int)

    def f(x, i):
        points[:] += np.bincount(i, minlength=len(MIXED))
        out = np.empty(x.shape, dtype=complex)
        for k, (g, _, _) in enumerate(MIXED):
            out[i == k] = g(x[i == k])
        return out

    vals, errs = integrate(f, [edges for _, edges, _ in MIXED], 1e-12)
    for k, (g, edges, exact) in enumerate(MIXED):
        alone_points = [0]

        def g_alone(x, _):
            alone_points[0] += x.size
            return g(x)

        alone, alone_err = integrate(g_alone, [edges], 1e-12)
        assert points[k] == alone_points[0]  # the same panels
        assert vals[k] == pytest.approx(alone[0], rel=1e-15, abs=1e-17)
        # estimates at rounding level move with the integrand's rounding
        assert errs[k] == pytest.approx(alone_err[0], rel=1e-12, abs=1e-15)
        assert vals[k] == pytest.approx(exact, abs=1e-12)


def test_failing_row_is_named(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x, i: np.where(i == 1, np.sin(1.0 / (x**2 + 1e-12)),
                                        x),
                  [[0.0, 1.0], [0.0, 1.0]], 1e-14)
    assert info.value.index == 1
    assert math.isfinite(info.value.error)
