"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so that a plain pytest run
doubles as a machine-readable acceptance report.
"""

import sys
import time

import numpy as np
import pytest
from conftest import _box_table
from scipy.optimize import brentq, minimize_scalar

from alphamod import (Purpose, Signal, TruncationConfig,
                      admissibility_scan, beta, bspline_window, build_covering,
                      bump_window, check_hypotheses, covering_diagnostics,
                      diagnostics_report, discretization_condition,
                      gaussian_window, lambda_fn, r_xi, rxi_profile, symbol_m)
from alphamod.frames import (AlphaFrame, analysis, estimate_frame_bounds,
                             reconstruct, synthesis)
from alphamod.grids import SampledGrid


_capman = None


@pytest.fixture(autouse=True)
def _find_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    line = f"{status} criterion {num}: {desc}{tail}"
    # bypass pytest's fd capture so the line lands in the run output
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, file=sys.__stdout__, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {desc}{tail}"


def test_criterion_01_gabor_limit_symbol_constant():
    t0 = time.monotonic()
    tab = admissibility_scan(gaussian_window(), 0.0)
    elapsed = time.monotonic() - t0
    dev = float(np.max(np.abs(tab.values - 1.0)))
    ok = dev <= 1e-6 and elapsed < 10.0
    _report(1, "alpha=0 Gaussian symbol is constant 1",
            ok, f"max dev {dev:.2e}, {elapsed:.1f}s")


def test_criterion_02_symbol_high_frequency_limit():
    # the gap |m(xi) - ||psi||^2| for bspline(4) at alpha=0.5 falls below
    # quadrature resolution (~1e-12) before xi = 50, so the decrease is
    # asserted where it is measurable and the stated checkpoints get a
    # bound far tighter than the 5% requirement
    t0 = time.monotonic()
    w = bspline_window(4)
    target = w.l2_norm**2

    def gap(xi):
        return abs(symbol_m(w, 0.5, xi, tol=1e-13) - target)

    resolvable = [gap(xi) for xi in (3.0, 8.0, 20.0)]
    stated = [gap(xi) for xi in (50.0, 100.0, 200.0)]
    elapsed = time.monotonic() - t0
    ok = (resolvable[0] > resolvable[1] > resolvable[2]
          and max(stated) <= 1e-9 * target
          and stated[-1] <= 0.05 * target
          and elapsed < 60.0)
    _report(2, "bspline(4) symbol approaches the window energy",
            ok, f"gaps {resolvable[0]:.2e} > {resolvable[1]:.2e} > "
                f"{resolvable[2]:.2e}; at 50/100/200 all "
                f"<= {max(stated):.1e}, {elapsed:.1f}s")


def test_criterion_03_compact_windows_admissible():
    t0 = time.monotonic()
    tab_bump = admissibility_scan(bump_window(1.0), 0.5)
    tab_bs = admissibility_scan(bspline_window(2), 0.5)
    elapsed = time.monotonic() - t0
    ok = (tab_bump.admissible and tab_bump.A > 0
          and tab_bs.admissible and tab_bs.A > 0 and elapsed < 120.0)
    _report(3, "bump(1.0) and bspline(2) admissible at alpha=0.5",
            ok, f"A = {tab_bump.A:.4f} / {tab_bs.A:.4f}, {elapsed:.1f}s")


def test_criterion_04_bandwidth_profile_extrema():
    alpha = 0.5
    rng = np.random.default_rng(42)
    xis = 4.0 + rng.uniform(0.1, 200.0, size=50)
    worst_w, worst_m = 0.0, 0.0
    for xi in xis:
        prof = rxi_profile(float(xi), alpha)
        res = minimize_scalar(lambda w: r_xi(xi, w, alpha), method="bounded",
                              bounds=(-5.0 * xi, 0.0),
                              options={"xatol": 1e-10})
        # polish past Brent's relative floor: root of the centered
        # difference derivative near the located minimum
        h = 1e-5 * (1.0 + abs(res.x))

        def dr(w):
            return (r_xi(xi, w + h, alpha) - r_xi(xi, w - h, alpha)) / (2 * h)

        lo, hi = res.x - 1e-2 * (1 + abs(res.x)), min(res.x + 1e-2
                                                      * (1 + abs(res.x)), -h)
        w_min = brentq(dr, lo, hi, xtol=1e-12)
        worst_w = max(worst_w, abs(w_min - prof.omega_star))
        worst_m = max(worst_m, abs(r_xi(xi, w_min, alpha) - prof.min_value)
                      / prof.min_value)
    ok = worst_w <= 1e-6 and worst_m <= 1e-8
    _report(4, "closed-form minimizer of the bandwidth profile",
            ok, f"max |dw*| {worst_w:.2e}, max rel dmin {worst_m:.2e}")


def test_criterion_05_lambda_bound_sampled():
    rng = np.random.default_rng(42)
    ok = True
    detail = []
    for alpha in (0.25, 0.5, 0.75):
        bound = 2.0 ** (1.0 / (1.0 - alpha))
        xi = rng.standard_cauchy(1_000_000) * 10.0
        om = rng.standard_cauchy(1_000_000) * 10.0
        worst = float(np.max(lambda_fn(xi, om, alpha)))
        # candidate extremizers from the maximization over xi at fixed w
        om_neg = -np.abs(rng.standard_cauchy(100_000) * 10.0)
        b = beta(om_neg, alpha)
        xi_star = (b * (1.0 - om_neg) - 1.0 + alpha) / (2.0 - alpha)
        for cand in (np.zeros_like(om_neg), -b * om_neg, xi_star):
            worst = max(worst, float(np.max(lambda_fn(cand, om_neg, alpha))))
        ok = ok and worst <= bound * (1.0 + 1e-12)
        detail.append(f"a={alpha}: sup {worst:.4f} <= {bound:.4f}")
    _report(5, "two-variable comparison weight never exceeds its bound",
            ok, "; ".join(detail))


def test_criterion_06_covering_exact_and_gapless():
    t0 = time.monotonic()
    ok = True
    for alpha in (0.0, 0.5, 0.9):
        for eps in (0.5, 0.25):
            cov = build_covering(alpha, eps, 1.0, (-4.0, 4.0), (-6.0, 6.0))
            target = 8.0 * eps**2
            _, _, x_lo, x_hi, w_lo, w_hi = _box_table(cov).T
            areas = (x_hi - x_lo) * (w_hi - w_lo)
            ok = ok and bool(np.max(np.abs(areas - target)) <= 1e-14 * target)
            diag = covering_diagnostics(cov)
            ok = ok and diag.covers_region
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(6, "box areas exact and the exact gap check finds no gaps",
            ok, f"{elapsed:.1f}s")


def test_criterion_07_roundtrip_and_gabor_reference():
    t0 = time.monotonic()
    grid = SampledGrid.centered(1024, 1.0 / 16.0)
    t = grid.coords
    f = Signal(grid, np.exp(-np.pi * (t / 2.5) ** 2)
               * np.exp(2j * np.pi * (0.5 * t + 0.35 * t**2)))
    w = gaussian_window()
    cov = build_covering(0.5, 0.25, 1.0, (-8.0, 8.0), (-8.0, 8.0))
    fr = AlphaFrame(cov, w, grid)
    res = reconstruct(f, fr)
    elapsed = time.monotonic() - t0
    ok = res.error <= 1e-6 and res.iters <= 300 and elapsed < 120.0

    # alpha = 0 coefficients against a directly computed Gabor reference
    grid0 = SampledGrid.centered(256, 1.0 / 16.0)
    t = grid0.coords
    f0 = Signal(grid0, np.exp(-np.pi * (t / 2.5) ** 2)
                * np.exp(2j * np.pi * 0.5 * t))
    cov0 = build_covering(0.0, 0.5, 1.0, (-4.0, 4.0), (-2.0, 2.0))
    fr0 = AlphaFrame(cov0, w, grid0)
    coeffs = analysis(f0, fr0)
    ref = np.empty_like(coeffs.values)
    for i, (_, _, x, om) in enumerate(fr0.nodes()):
        atom = np.exp(2j * np.pi * om * (t - x)) * w.time(t - x)
        ref[i] = grid0.spacing * np.vdot(atom, f0.values)
    gabor_dev = float(np.max(np.abs(coeffs.values - ref)))
    ok = ok and gabor_dev <= 1e-8
    _report(7, "chirp reconstruction and Gabor reference coefficients",
            ok, f"err {res.error:.2e} in {res.iters} it, {elapsed:.1f}s; "
                f"Gabor dev {gabor_dev:.2e}")


def test_criterion_08_frame_bound_dense_oracle():
    grid = SampledGrid.centered(64, 0.25)
    cov = build_covering(0.5, 0.25, 1.0, (-8.0, 8.0), (-2.0, 2.0))
    fr = AlphaFrame(cov, gaussian_window(), grid)
    B_est = estimate_frame_bounds(fr)[1]
    S = np.empty((grid.n, grid.n), dtype=complex)
    for k in range(grid.n):
        e = np.zeros(grid.n, dtype=complex)
        e[k] = 1.0
        S[:, k] = synthesis(analysis(Signal(grid, e), fr), fr).values
    top = float(np.linalg.eigvalsh(0.5 * (S + S.conj().T))[-1])
    rel = abs(B_est - top) / top
    _report(8, "Lanczos upper bound matches dense spectrum",
            rel <= 1e-6, f"rel err {rel:.2e}")


def test_criterion_09_gamma_decay_and_rho_stability(gauss, gauss_tab):
    t0 = time.monotonic()
    trunc = TruncationConfig(x_max=6.0, omega_max=16.0, n_probes=5,
                             probe_omega_max=4.0, z_density=5)
    report = diagnostics_report(gauss, 0.5, 0.0, gauss_tab,
                                [0.5, 0.25, 0.125], trunc=trunc)
    elapsed = time.monotonic() - t0
    g = report["gamma"]
    ok = (g[0] > g[1] > g[2]
          and report["truncation"]["converged"]
          and elapsed < 600.0)
    _report(9, "oscillation estimate decays in eps; rho stable",
            ok, f"gamma {g[0]:.3f} > {g[1]:.3f} > {g[2]:.3f}, "
                f"rho {report['rho']:.4f}, {elapsed:.0f}s")


def test_criterion_10_verdict_arithmetic():
    v1 = discretization_condition(3.0, 0.0, 2.0)
    v2 = discretization_condition(1.0, 0.2, 1.0)
    v3 = discretization_condition(2.0, 0.5, 3.0)
    ok = (v1.lhs == 0.0 and v1.passed
          and abs(v2.lhs - 0.44) < 1e-15 and v2.passed
          and v3.lhs == 4.0 and not v3.passed)
    _report(10, "hand-computed gate substitutions",
            ok, f"lhs = {v1.lhs}, {v2.lhs}, {v3.lhs}")


def test_criterion_11_decay_thresholds():
    w = gaussian_window()
    r1 = check_hypotheses(w, 0.5, 0.0, Purpose.ADMISSIBILITY).required_r
    r2 = check_hypotheses(w, 0.5, 0.0, Purpose.KERNEL_INTEGRABILITY).required_r
    r3 = check_hypotheses(w, 0.0, 0.0, Purpose.DISCRETIZATION).required_r
    ok = (r1, r2, r3) == (1.0, 9.0, 2.0)
    _report(11, "closed-form decay thresholds", ok, f"r = {r1}, {r2}, {r3}")
