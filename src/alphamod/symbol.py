"""The admissibility symbol m_psi, its derivatives, and the multiplier.

The analysis operator of the alpha-modulation system acts as a Fourier
multiplier with real symbol

    m_psi(xi) = int |psi_hat(beta(w)(xi - w))|^2 beta(w) dw,
    beta(w) = (1 + |w|)^(-alpha),

and the window is admissible exactly when 0 < A <= m_psi <= B < inf.
The integrand is sharply localized near w = xi and (for alpha*|xi| > 1)
has a secondary structure at the critical point of r_xi(w) =
beta(w)(xi - w); panels are anchored there.  A scan's table is read by
grids.cubic_spline: the symbol path runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import (Signal, SampledGrid, _write_csv, cubic_spline,
                    forward_fourier, inverse_fourier)
from .quadrature import QuadratureError, integrate
from .windows import Window, _check_alpha


class CriticalPointNotApplicable(ValueError):
    """r_xi has no interior critical point for this (xi, alpha)."""


class NotAdmissibleError(ValueError):
    """Operation needs an invertible multiplier (A > 0)."""


def beta(omega, alpha: float):
    """beta(w) = (1 + |w|)^(-alpha); even, values in (0, 1]."""
    _check_alpha(alpha)
    return (1.0 + np.abs(omega)) ** (-alpha)


def r_xi(xi, omega, alpha: float):
    """r_xi(w) = beta(w) (xi - w)."""
    return beta(omega, alpha) * (xi - omega)


def p_alpha(omega, alpha: float):
    """Odd increasing bijection warping a uniform grid to the adaptive
    frequency nodes; p_alpha'(w) = 1/beta(p_alpha(w))."""
    _check_alpha(alpha)
    omega = np.asarray(omega, dtype=float)
    out = np.sign(omega) * ((1.0 + (1.0 - alpha) * np.abs(omega))
                            ** (1.0 / (1.0 - alpha)) - 1.0)
    return out if out.ndim else float(out)


def p_alpha_inv(y, alpha: float):
    _check_alpha(alpha)
    y = np.asarray(y, dtype=float)
    out = np.sign(y) * ((1.0 + np.abs(y)) ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
    return out if out.ndim else float(out)


def _critical_point(xi, alpha: float):
    """Zero of d/dw r_xi(w), sign(xi) (1 - alpha |xi|) / (1 - alpha); an
    interior extremum of r_xi where alpha |xi| > 1."""
    return np.sign(xi) * (1.0 - alpha * np.abs(xi)) / (1.0 - alpha)


@dataclass(frozen=True)
class RxiProfile:
    """Critical structure of w -> r_xi(w) for xi > 2/alpha."""

    xi: float
    omega_star: float  # interior local minimum, < 0
    min_value: float   # r_xi(omega_star)
    max_value: float   # r_xi(0) = xi


def rxi_profile(xi: float, alpha: float) -> RxiProfile:
    _check_alpha(alpha)
    if alpha == 0 or xi <= 2.0 / alpha:
        raise CriticalPointNotApplicable(
            f"closed-form extrema require xi > 2/alpha, got xi={xi}, "
            f"alpha={alpha}"
        )
    omega_star = float(_critical_point(xi, alpha))
    min_value = alpha ** (-alpha) * ((xi - 1.0) / (1.0 - alpha)) ** (1.0 - alpha)
    return RxiProfile(xi, omega_star, min_value, float(xi))


def symbol_m(w: Window, alpha: float, xi, deriv: int = 0,
             tol: float = 1e-8):
    """The deriv-th derivative of m_psi (deriv = 0, 1, 2) at xi, a
    number (returns a float) or an array (returns an array), to absolute
    tolerance tol; derivatives are taken under the integral.

    Integrates in the warped variable y with omega = p_alpha(y), whose
    Jacobian 1/beta(omega) cancels the weight: m_psi(xi) = int
    |psi_hat(r_xi(p_alpha(y)))|^2 dy.  The window argument grows
    linearly in y, so the tails decay at window speed for every alpha.
    Each xi is one row of a batched quadrature on [-R, R], R =
    |p_alpha_inv(xi)| + 50, with panels anchored at p_alpha_inv of 0, xi
    and the critical point of r_xi.  The domain then doubles, at most 12
    times, as one batch over the xi whose discarded tails are not yet
    below tol / 10.
    """
    _check_alpha(alpha)
    if deriv not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {deriv}")
    shape = np.shape(xi)
    xis = np.asarray(xi, dtype=float).ravel()

    def g(y, xi):
        omega = p_alpha(y, alpha)
        b = beta(omega, alpha)
        r = b * (xi - omega)
        f0 = w.fourier(r)
        if deriv == 0:
            return np.abs(f0) ** 2
        f1 = w.fourier(r, 1)
        if deriv == 1:
            return 2.0 * np.real(f1 * np.conj(f0)) * b
        f2 = w.fourier(r, 2)
        return (2.0 * np.real(f2 * np.conj(f0)) + 2.0 * np.abs(f1) ** 2) * b**2

    def integrals(rows, edges):
        # row j of edges belongs to xis[rows[j]]
        try:
            return integrate(lambda y, j: g(y, xis[rows[j]]), edges, tol)
        except QuadratureError as exc:
            raise QuadratureError(
                f"symbol quadrature failed at xi={xis[rows[exc.index]]}: "
                f"{exc}", value=exc.value, error=exc.error,
            ) from exc

    w_star = np.where(alpha * np.abs(xis) > 1.0,
                      _critical_point(xis, alpha), 0.0)
    anchors = p_alpha_inv(np.column_stack([np.zeros_like(xis), xis, w_star]),
                          alpha)
    radius = np.abs(anchors[:, 1]) + 50.0
    edges = np.sort(np.column_stack([-radius, anchors, radius]), axis=1)
    active = np.arange(xis.size)
    value, err = integrals(active, edges)
    # enlarge the domain until the discarded tails are provably negligible
    for _ in range(12):
        outer = np.column_stack([radius[active], 2.0 * radius[active]])
        tails, tail_errs = integrals(np.tile(active, 2),
                                     np.concatenate([-outer[:, ::-1], outer]))
        left, right = np.split(tails, 2)
        value[active] += left + right
        err[active] += np.add(*np.split(tail_errs, 2))
        radius[active] *= 2.0
        active = active[~(np.abs(left) + np.abs(right) < tol / 10.0)]
        if not active.size:
            return value.reshape(shape) if shape else float(value[0])
    i = active[0]
    raise QuadratureError(
        f"tails of the symbol integral at xi={xis[i]} did not decay within "
        f"warped radius {radius[i]}", value=value[i], error=err[i],
    )


@dataclass
class SymbolTable:
    """m_psi sampled on a symmetric xi grid, with tail metadata."""

    xi_grid: SampledGrid
    values: np.ndarray
    tail_value: float  # ||psi||^2, the xi -> inf limit of the symbol
    A: float
    B: float
    alpha: float
    window_label: str = ""
    tol: float = 1e-8
    _spline: Callable = field(init=False, repr=False)

    def __post_init__(self):
        self._spline = cubic_spline(self.xi_grid.coords, self.values)

    @property
    def admissible(self) -> bool:
        return self.A > 0

    def __call__(self, xi):
        """Cubic interpolation inside the table; tail value beyond it."""
        xi = np.asarray(xi, dtype=float)
        lo, hi = self.xi_grid.coords[[0, -1]]
        inside = (xi >= lo) & (xi <= hi)
        out = np.full(xi.shape, self.tail_value)
        out[inside] = self._spline(xi[inside])
        return out

    def report(self) -> dict:
        return {
            "alpha": self.alpha,
            "window": self.window_label,
            "A": self.A,
            "B": self.B,
            "admissible": self.admissible,
            "xi_max": float(self.xi_grid.coords[-1]),
            "tol": self.tol,
        }

    def save_csv(self, path):
        _write_csv(path, np.column_stack([self.xi_grid.coords, self.values]),
                   "xi,m")


def admissibility_scan(w: Window, alpha: float, xi_max: float = 200.0,
                       n_nodes: int = 2001, tol: float = 1e-8) -> SymbolTable:
    """Samples m_psi on n_nodes points of [-xi_max, xi_max], each to
    absolute tolerance tol, and extracts frame-type bounds.

    The symbol is even when |psi_hat| is, as for every real window:
    only xi >= 0 is computed and mirrored.  A window whose |psi_hat(r)|
    and |psi_hat(-r)|, r = 2^-4, ..., 2^4, differ by more than 1e-12 of
    their largest value is refused with a ValueError.  A and B are the
    extremes of the table and of its limit ||psi||^2 for large |xi|,
    with no margin.
    """
    if n_nodes % 2 == 0:
        raise ValueError("n_nodes must be odd so that xi = 0 is a node")
    grid = SampledGrid(n_nodes, 2.0 * xi_max / (n_nodes - 1), -xi_max)
    xis = grid.coords[n_nodes // 2:]
    # xi = 0 on its own first: a window that fails fails there, after
    # one node's work and before the mirror's 18-point premise check
    first = symbol_m(w, alpha, xis[:1], tol=tol)
    radii = 2.0 ** np.arange(-4, 5)
    pos, neg = np.split(np.abs(w.fourier(np.concatenate([radii, -radii]))), 2)
    gap = float(np.max(np.abs(pos - neg)))
    if gap > 1e-12 * max(pos.max(), neg.max()):
        raise ValueError(
            f"window {w.label}: |psi_hat(r)| and |psi_hat(-r)| differ by "
            f"{gap:.3g} at r in 2^-4, ..., 2^4, more than 1e-12 of their "
            f"largest value, so the scan's mirror m(-xi) = m(xi) fails")
    vals = np.concatenate([first, symbol_m(w, alpha, xis[1:], tol=tol)])
    values = np.concatenate([vals[:0:-1], vals])  # m(-xi) = m(xi)
    tail = w.l2_norm**2
    A = min(float(values.min()), tail)
    B = max(float(values.max()), tail)
    return SymbolTable(grid, values, tail, A, B, alpha,
                       window_label=w.label, tol=tol)


def apply_multiplier(f: Signal, tab: SymbolTable, kappa: int) -> Signal:
    """inverse_fourier(m^kappa * f_hat); kappa < 0 needs A > 0."""
    if kappa < 0 and not tab.admissible:
        raise NotAdmissibleError(
            "multiplier with negative power needs a positive lower bound A"
        )
    if kappa == 0:
        return Signal(f.grid, f.values.copy())
    F = forward_fourier(f)
    m = tab(F.grid.coords)
    return inverse_fourier(Signal(F.grid, F.values * m**kappa), f.grid)
