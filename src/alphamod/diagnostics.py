"""Desk-scale estimators for the quantities gating frame discretization.

The theory needs three numbers: the weighted integrability rho of the
reproducing kernel R, the weighted integral gamma of its local
oscillation over covering boxes, and the in-box weight spread C_w.  The
discretization condition is

    gamma * (rho + max(rho * C_w, rho + gamma)) < 1.

Essential suprema over the non-compact phase space are replaced by
maxima over probe grids on truncated domains, with the truncation
doubled until the estimate stabilizes.  The kernel's x-dependence is a
Fourier transform of a smooth spectral profile, so every x-slice comes
from one FFT; all integrals below are organized around that.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .covering import AlphaCovering, UncoveredPointError, q_samples
from .grids import Weight
from .symbol import NotAdmissibleError, SymbolTable, beta
from .transform import _kernel_pairs, kernel_K
from .windows import Window

# re-export: kernel_K is the pointwise kernel evaluator shared with the
# transform layer
__all__ = [
    "TruncationConfig", "KernelEstimate", "DiscretizationVerdict",
    "kernel_K", "estimate_rho", "oscillation_kernel", "estimate_gamma",
    "discretization_condition", "lambda_fn", "theta_fn",
    "diagnostics_report",
]


@dataclass(frozen=True)
class TruncationConfig:
    """Truncated integration domain |x| <= x_max, |omega| <= omega_max,
    doubled until the estimate moves less than rel_change."""

    x_max: float = 8.0
    omega_max: float = 32.0
    rel_change: float = 0.05
    max_doublings: int = 3
    n_probes: int = 9
    probe_omega_max: float = 8.0
    z_density: int = 7


@dataclass(frozen=True)
class KernelEstimate:
    kappa: int
    s: float
    value: float
    truncation: dict
    quad_error: float

    def __post_init__(self):
        if self.kappa not in (0, 1, 2):
            raise ValueError(f"kappa must be 0, 1 or 2, got {self.kappa}")
        if self.value < 0:
            raise ValueError("estimate must be nonnegative")


@dataclass(frozen=True)
class DiscretizationVerdict:
    rho: float
    gamma: float
    C_w: float
    lhs: float
    passed: bool


def discretization_condition(rho: float, gamma: float,
                             C_w: float) -> DiscretizationVerdict:
    """gamma * (rho + max(rho*C_w, rho + gamma)) < 1, evaluated exactly."""
    if rho < 0 or gamma < 0 or C_w < 0:
        raise ValueError("inputs must be nonnegative")
    lhs = float(gamma * (rho + max(rho * C_w, rho + gamma)))
    return DiscretizationVerdict(float(rho), float(gamma), float(C_w),
                                 lhs, bool(lhs < 1.0))


def lambda_fn(xi, omega, alpha: float):
    """(1+|w|) / ((1+|xi|)^{1/(1-a)} (1+|xi/beta(w)+w|)); bounded by
    2^{1/(1-a)}."""
    xi = np.asarray(xi, dtype=float)
    omega = np.asarray(omega, dtype=float)
    inv_beta = (1.0 + np.abs(omega)) ** alpha
    out = (1.0 + np.abs(omega)) / (
        (1.0 + np.abs(xi)) ** (1.0 / (1.0 - alpha))
        * (1.0 + np.abs(inv_beta * xi + omega))
    )
    return out if out.ndim else float(out)


def theta_fn(omega, omega_star, alpha: float):
    """beta(w* + w/beta(w*)) / beta(w*); bounded by (1+|w|)^{a/(1-a)}."""
    omega = np.asarray(omega, dtype=float)
    omega_star = np.asarray(omega_star, dtype=float)
    inv_beta = (1.0 + np.abs(omega_star)) ** alpha
    out = beta(omega_star + inv_beta * omega, alpha) / beta(omega_star, alpha)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# FFT kernel slices: R((x,w),(t,eta)) = P_{w,eta}(x - t) with
# P = F(G), G(xi) = m^{-kappa}(xi) sqrt(b_w b_eta)
#                   psi_hat(b_w (xi-w)) conj(psi_hat(b_eta (xi-eta))).


def _freq_radius(w: Window, tol: float = 1e-10) -> float:
    """Radius beyond which |psi_hat| is negligible."""
    if w.freq_support is not None:
        return max(abs(w.freq_support[0]), abs(w.freq_support[1]))
    xi = np.linspace(0.0, 200.0, 4001)
    mag = np.abs(w.fourier(xi))
    keep = np.nonzero(mag > tol * mag.max())[0]
    return float(xi[keep[-1]]) + 0.1


class _SliceEngine:
    """Shared FFT grid for kernel x-slices on a truncated domain."""

    def __init__(self, w: Window, alpha: float, tab: SymbolTable,
                 kappa: int, omega_max: float, u_max: float):
        self.w = w
        self.alpha = alpha
        self.tab = tab
        self.kappa = kappa
        rad = _freq_radius(w)
        b_min = float(beta(omega_max, alpha))
        xi_max = omega_max + rad / b_min + 1.0
        # dual spacing 1/(n*dxi) must resolve u in [-u_max, u_max] with
        # margin, i.e. n*dxi*... span 1/dxi >= 4*u_max
        dxi = min(0.05, 1.0 / (4.0 * u_max))
        n = 1 << int(math.ceil(math.log2(2.0 * xi_max / dxi)))
        self.n = n
        self.dxi = 2.0 * xi_max / n
        self.xi = -xi_max + self.dxi * np.arange(n)
        self.du = 1.0 / (n * self.dxi)
        self.u = (np.arange(n) - n // 2) * self.du
        self._m_pow = self.tab(self.xi) ** (-kappa) if kappa else None
        self._pre = np.exp(-2j * np.pi * self.u[0] * self.dxi
                           * np.arange(n))
        self._post = self.dxi * np.exp(-2j * np.pi * self.u * self.xi[0])

    def _atoms_hat(self, ws) -> np.ndarray:
        """sqrt(b_w) psi_hat(b_w (xi - w)), one row per frequency w."""
        ws = np.atleast_1d(np.asarray(ws, dtype=float))
        b = beta(ws, self.alpha)
        F = self.w.fourier((b[:, None] * (self.xi[None, :]
                                          - ws[:, None])).ravel())
        return F.reshape(ws.size, self.n) * np.sqrt(b)[:, None]

    def spectral_profiles(self, omegas, etas, left=None) -> np.ndarray:
        """G matrix, one row per (omega, eta) pair; a single frequency on
        either side pairs with every frequency on the other.  left, if
        given, is _atoms_hat(omegas), computed once by the caller."""
        right = np.conj(self._atoms_hat(etas))
        if self._m_pow is not None:
            right = right * self._m_pow
        if left is None:
            left = self._atoms_hat(omegas)
        return left * right

    def slices(self, omegas, etas, left=None) -> np.ndarray:
        """P[i, m] = R(((u_m + t), omegas[i]), (t, etas[i])) for any t."""
        G = self.spectral_profiles(omegas, etas, left)
        return self._post[None, :] * np.fft.fft(G * self._pre[None, :],
                                                axis=1)

    def u_index(self, u_values) -> np.ndarray:
        """Nearest grid index of u values (snapping error <= du/2)."""
        idx = np.rint((np.asarray(u_values) - self.u[0]) / self.du)
        return np.clip(idx, 0, self.n - 1).astype(int)


def _omega_grid(omega_max: float, spacing: float = 0.125) -> np.ndarray:
    n = int(math.ceil(2.0 * omega_max / spacing)) + 1
    return np.linspace(-omega_max, omega_max, n)


def _probe_omegas(trunc: TruncationConfig) -> np.ndarray:
    return np.linspace(-trunc.probe_omega_max, trunc.probe_omega_max,
                       trunc.n_probes)


def _weighted_mass(values: np.ndarray, omegas: np.ndarray,
                   omega_star: float, weight: Weight, du: float) -> float:
    """d_omega sum_i w_s(omegas[i], omega_star) du sum_u values[i, u]:
    the weighted integral of nonnegative values on an (omega, u) grid."""
    d_omega = omegas[1] - omegas[0]
    x_int = du * values.sum(axis=1)
    return d_omega * float(np.sum(weight.mutual(omegas, omega_star) * x_int))


def _rho_once(w: Window, alpha: float, s: float, tab: SymbolTable,
              x_max: float, omega_max: float,
              probes: np.ndarray) -> float:
    engine = _SliceEngine(w, alpha, tab, 1, omega_max, x_max)
    omegas = _omega_grid(omega_max)
    in_x = np.abs(engine.u) <= x_max
    weight = Weight(s)
    return max((_weighted_mass(np.abs(engine.slices(omegas, eta)[:, in_x]),
                               omegas, eta, weight, engine.du)
                for eta in probes), default=0.0)


def estimate_rho(w: Window, alpha: float, s: float, tab: SymbolTable,
                 trunc: TruncationConfig = TruncationConfig()
                 ) -> KernelEstimate:
    """rho ~ max over probe frequencies w* of
    int int |R(x, w; 0, w*)| w_s(w, w*) dx dw on the truncated domain.

    The probe time coordinate is irrelevant: R depends on time only
    through the difference x - x*.
    """
    if not tab.admissible:
        raise NotAdmissibleError("rho needs an admissible window")
    probes = _probe_omegas(trunc)
    x_max, omega_max = trunc.x_max, trunc.omega_max
    value = _rho_once(w, alpha, s, tab, x_max, omega_max, probes)
    history = [value]
    converged = False
    for _ in range(trunc.max_doublings):
        x_max *= 2.0
        omega_max *= 2.0
        new = _rho_once(w, alpha, s, tab, x_max, omega_max, probes)
        history.append(new)
        moved = abs(new - value) / max(new, 1e-300)
        value = new
        if moved < trunc.rel_change:
            converged = True
            break
    return KernelEstimate(
        kappa=1, s=s, value=value,
        truncation={"x_max": x_max, "omega_max": omega_max,
                    "history": history, "converged": converged},
        quad_error=abs(history[-1] - history[-2]) if len(history) > 1
        else 0.0,
    )


def oscillation_kernel(w: Window, alpha: float, tab: SymbolTable,
                       cov: AlphaCovering, p1, p2,
                       z_density: int = 7) -> float:
    """osc(p1, p2) = sup over the sampled z in Q_{p2} of
    |R(p1, p2) - Gamma(p2, z) R(p1, z)| with the explicit phase
    Gamma(p2, z) = exp(-2*pi*i*w2*(x2 - z_t)), by quadrature at the
    unsnapped z: the pointwise reference for the FFT path of
    estimate_gamma."""
    x2, w2 = float(p2[0]), float(p2[1])
    zs = [(float(zt), float(zw))
          for _, z_t, inside, z_w in q_samples(cov, [x2], [w2], z_density)
          for zt in z_t[inside] for zw in z_w]
    if not zs:
        raise UncoveredPointError(f"point ({x2}, {w2}) is not covered")
    R = _kernel_pairs(w, w, alpha, tab, 1, [(p1, z) for z in [p2] + zs])
    phase = np.exp(-2j * np.pi * w2 * (x2 - np.array(zs)[:, 0]))
    return float(np.abs(R[0] - phase * R[1:]).max())


# bytes of the two gather buffers in _osc, complex block and modulus: 4 MiB
_GATHER = 1 << 22


def _osc(engine: _SliceEngine, cov: AlphaCovering, density: int,
         x_t, x_w, y_t, y_w) -> np.ndarray:
    """osc(x, y) = max over the sampled z in Q_y of
    |R(x, y) - Gamma(y, z) R(x, z)| with
    Gamma(y, z) = exp(-2 pi i y_w (y_t - z_t)), on the pairs
    x = (x_t[b], x_w[a]), y = (y_t[b], y_w[a]).

    Frequencies run along a and times along b; a side with one frequency
    or one time pairs it with every entry of the other.  The times lie on
    the engine's u grid, and x_t - z_t is snapped onto it: z_t = x_t -
    u[at], so Gamma = exp(-2 pi i y_w (y_t - x_t)) exp(-2 pi i y_w u[at]).
    The first factor goes into R(x, y); the second, with the FFT's
    post-twiddle, into each z frequency's slices R(x, z) = P[at] on the u
    window a covering row gathers; the pre-twiddle into the x spectra.  A
    row's gather is laid out (z, b, a), so the sup over z is a maximum of
    contiguous planes, taken in chunks of z.  A sample outside its time's
    box reuses an inside one of the same time (same max); a time with none
    gets 0 from the row.  The chunk and its modulus (24 bytes an element)
    fill at most max(_GATHER, 24 * a * b) bytes.  Returns the (a, b) array.
    """
    x_t, x_w, y_t, y_w = (np.atleast_1d(np.asarray(v, dtype=float))
                          for v in (x_t, x_w, y_t, y_w))
    x_hat = engine._atoms_hat(x_w)
    base = engine.slices(x_w, y_w, x_hat)[:, engine.u_index(x_t - y_t)]
    base *= np.exp(2j * np.pi * y_w[:, None] * (y_t - x_t))
    x_hat = x_hat * engine._pre
    osc = np.zeros(base.shape)
    cap = max(_GATHER // 24, osc.size)
    block, mod = np.empty(cap, complex), np.empty(cap)
    for band, z_t, inside, z_w in q_samples(cov, y_t, y_w, density):
        rows = np.broadcast_to(band, osc.shape[:1])
        xw, yw, xw_hat = (v[rows] if len(v) > 1 else v
                          for v in (x_w, y_w, x_hat))
        keep = inside.any(axis=0)
        if not keep.any():
            continue
        inside = inside[:, keep]
        at = engine.u_index(x_t[:, None] - z_t[:, keep])
        at = np.where(inside, at, at[np.arange(len(at)),
                                     inside.argmax(axis=1)][:, None])
        lo, hi = at.min(), at.max() + 1
        at = (at - lo).T
        post = (engine._post[lo:hi, None]
                * np.exp(-2j * np.pi * engine.u[lo:hi, None] * yw))
        R_y = np.ascontiguousarray(base[rows].T)
        row, plane = np.zeros(R_y.shape), np.empty(R_y.shape)
        Q = np.empty((hi - lo, R_y.shape[1]), complex)
        for zw in z_w:
            F = np.fft.fft(engine.spectral_profiles(xw, zw, xw_hat), axis=1)
            np.multiply(F[:, lo:hi].T, post, out=Q)
            for c in range(0, len(at), cap // R_y.size):
                ks = at[c:c + cap // R_y.size]
                g = block[:ks.size * R_y.shape[1]].reshape(*ks.shape, -1)
                m = mod[:g.size].reshape(g.shape)
                np.take(Q, ks, axis=0, out=g, mode="clip")
                np.abs(np.subtract(g, R_y, out=g), out=m)
                np.maximum(row, np.maximum.reduce(m, out=plane), out=row)
        row *= inside.any(axis=1)[:, None]
        osc[rows] = np.maximum(osc[rows], row.T)
    return osc


def estimate_gamma(w: Window, alpha: float, s: float, tab: SymbolTable,
                   cov: AlphaCovering,
                   trunc: TruncationConfig = TruncationConfig()):
    """(gamma1, gamma2, gamma) over the truncated domain.

    gamma1 takes the sup over analysis points x and integrates
    osc(x, y) w_s over the oscillation base point y; gamma2 takes the
    sup over y and integrates over x.  Both use probe grids in
    frequency; the time coordinate of the probe is fixed at 0 (the
    kernel is covariant under joint time shifts and the box quantization
    only perturbs this periodically at sub-probe scale).
    """
    if not tab.admissible:
        raise NotAdmissibleError("gamma needs an admissible window")
    engine = _SliceEngine(w, alpha, tab, 1, trunc.omega_max,
                          trunc.x_max + 4.0)
    omegas = _omega_grid(trunc.omega_max)
    u_in = engine.u[np.abs(engine.u) <= trunc.x_max]
    weight = Weight(s)
    g1 = g2 = 0.0
    for probe in _probe_omegas(trunc):
        osc = _osc(engine, cov, trunc.z_density, 0.0, probe, u_in, omegas)
        g1 = max(g1, _weighted_mass(osc, omegas, probe, weight, engine.du))
        osc = _osc(engine, cov, trunc.z_density, u_in, omegas, 0.0, probe)
        g2 = max(g2, _weighted_mass(osc, omegas, probe, weight, engine.du))
    return g1, g2, max(g1, g2)


def diagnostics_report(w: Window, window_spec: str, alpha: float, s: float,
                       tab: SymbolTable, eps_list, c: float = 1.0,
                       trunc: TruncationConfig = TruncationConfig()
                       ) -> dict:
    """Full sweep: rho once, (gamma, C_w, verdict) per epsilon."""
    from .covering import build_covering, mutual_weight_bound

    t0 = time.perf_counter()
    rho_est = estimate_rho(w, alpha, s, tab, trunc)
    entries = []
    for eps in eps_list:
        span = trunc.x_max + 4.0
        cov = build_covering(alpha, eps, c, (-span, span),
                             (-2.0 * trunc.omega_max, 2.0 * trunc.omega_max))
        g1, g2, g = estimate_gamma(w, alpha, s, tab, cov, trunc)
        C_w = mutual_weight_bound(cov, s)
        verdict = discretization_condition(rho_est.value, g, C_w)
        entries.append({
            "eps": eps, "gamma1": g1, "gamma2": g2, "gamma": g,
            "C_w": C_w, "lhs": verdict.lhs, "pass": verdict.passed,
        })
    return {
        "alpha": alpha, "window": window_spec, "s": s,
        "eps_list": list(eps_list), "rho": rho_est.value,
        "gamma1": [e["gamma1"] for e in entries],
        "gamma2": [e["gamma2"] for e in entries],
        "gamma": [e["gamma"] for e in entries],
        "C_w": [e["C_w"] for e in entries],
        "lhs": [e["lhs"] for e in entries],
        "pass": [e["pass"] for e in entries],
        "truncation": rho_est.truncation,
        "runtime": time.perf_counter() - t0,
    }
