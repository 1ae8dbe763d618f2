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

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .covering import AlphaCovering, UncoveredPointError, q_samples
from .grids import SampledGrid, Weight
from .symbol import NotAdmissibleError, SymbolTable, beta
from .transform import _kernel_pairs
from .windows import Window

__all__ = [
    "TruncationConfig", "KernelEstimate", "DiscretizationVerdict",
    "estimate_rho", "oscillation_kernel", "estimate_gamma",
    "discretization_condition", "lambda_fn", "theta_fn",
    "diagnostics_report",
]


@dataclass(frozen=True)
class TruncationConfig:
    """Truncated domain |x| <= x_max, |omega| <= omega_max.  rho doubles
    it until its estimate moves by less than 5 %, at most 3 times.

    n_probes frequencies spread evenly on [-probe_omega_max,
    probe_omega_max] are the probes rho and gamma maximize over.  For an
    even window (and, for gamma, a mirrored covering) p and -p carry the
    same mass, so only the upper half of them, the middle one included,
    is swept; otherwise all of them.  gamma likewise sweeps only times
    u >= 0 on a covering with time-symmetric rows (_reflections).  The
    counts must be integers >= 1, the lengths finite positive numbers;
    a bool is neither."""

    x_max: float = 8.0
    omega_max: float = 32.0
    n_probes: int = 9
    probe_omega_max: float = 8.0
    z_density: int = 7

    def __post_init__(self):
        for name, value in vars(self).items():
            count = name in ("n_probes", "z_density")
            kind = numbers.Integral if count else numbers.Real
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not (value >= 1 if count else 0 < value < math.inf)):
                rule = ("an integer >= 1" if count
                        else "a finite positive number")
                raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class KernelEstimate:
    s: float
    value: float
    truncation: dict

    def __post_init__(self):
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
    out = (1.0 + np.abs(omega)) / (
        (1.0 + np.abs(xi)) ** (1.0 / (1.0 - alpha))
        * (1.0 + np.abs(xi / beta(omega, alpha) + omega))
    )
    return out if out.ndim else float(out)


def theta_fn(omega, omega_star, alpha: float):
    """beta(w* + w/beta(w*)) / beta(w*); bounded by (1+|w|)^{a/(1-a)}."""
    omega = np.asarray(omega, dtype=float)
    b = beta(np.asarray(omega_star, dtype=float), alpha)
    out = beta(omega_star + omega / b, alpha) / b
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# FFT kernel slices: R((x,w),(t,eta)) = P_{w,eta}(x - t) with
# P = F(G), G(xi) = m^{-1}(xi) sqrt(b_w b_eta)
#                   psi_hat(b_w (xi-w)) conj(psi_hat(b_eta (xi-eta))).


def _freq_radius(w: Window) -> float:
    """Radius beyond which |psi_hat| is below 1e-10 of its peak."""
    if w.freq_support is not None:
        return max(abs(w.freq_support[0]), abs(w.freq_support[1]))
    xi = np.linspace(0.0, 200.0, 4001)
    mag = np.abs(w.fourier(xi))
    keep = np.nonzero(mag > 1e-10 * mag.max())[0]
    return float(xi[keep[-1]]) + 0.1


class _SliceEngine:
    """Shared FFT grid for kernel x-slices on a truncated domain.

    u_max is the furthest |u| a caller reads.  The slices are periodic
    in u with period 1/dxi >= 4 * u_max, so their aliases stay 3 * u_max
    away; the u grid, of spacing du = 1/(2 * xi_max) whatever n is, spans
    about [-2 * u_max, 2 * u_max], and u_index rejects u off it.

    Rounding n up to a power of two widens the period past 4 * u_max,
    and that margin carries part of the accuracy budget against periodic
    ghosts of the symbol spline: on the engine of
    test_slice_engine_matches_quadrature_kernel (n = 1024, period 45.5)
    the slices meet the quadrature kernel to 1e-8, at the 2*3*5-smooth
    n = 576 (period 25.6) they miss it by 2.4e-8.  Do not shrink n.

    Both grids are centered and du * dxi * n = 1, so the DFT twiddles are
    signs: P(j du) = dxi (-1)^j fft(G)[j mod n].  G is real (_atoms_hat),
    so slices reads H[j] = dxi (-1)^j rfft(G)[j], j = 0..n/2, and
    P(-j du) = conj(H[j]), signing only the u window it returns.  slices
    pairs every omega of its left side with every eta of its right side;
    callers build each side once.
    """

    def __init__(self, w: Window, alpha: float, tab: SymbolTable,
                 omega_max: float, u_max: float):
        self.w = w
        self.alpha = alpha
        rad = _freq_radius(w)
        b_min = float(beta(omega_max, alpha))
        xi_max = omega_max + rad / b_min + 1.0
        # dual spacing 1/(n*dxi) must resolve u in [-u_max, u_max] with
        # margin, i.e. n*dxi*... span 1/dxi >= 4*u_max
        dxi = min(0.05, 1.0 / (4.0 * u_max))
        n = 1 << int(math.ceil(math.log2(2.0 * xi_max / dxi)))
        xi_grid = SampledGrid.centered(n, 2.0 * xi_max / n)
        self.n = n
        self.dxi = xi_grid.spacing
        self.xi = xi_grid.coords
        self.du = 1.0 / (n * self.dxi)
        self.u = (np.arange(n) - n // 2) * self.du
        self._m_inv = tab(self.xi) ** -1
        self._sign = np.resize([self.dxi, -self.dxi], n // 2 + 1)

    def _atoms_hat(self, ws) -> np.ndarray:
        """sqrt(b_w) psi_hat(b_w (xi - w)), one row per frequency w; a
        ValueError names a window whose spectrum is complex."""
        ws = np.atleast_1d(np.asarray(ws, dtype=float))
        b = beta(ws, self.alpha)
        F = self.w.fourier((b[:, None] * (self.xi[None, :]
                                          - ws[:, None])).ravel())
        if np.iscomplexobj(F):
            raise ValueError(f"window {self.w.label!r} has a complex "
                             f"spectrum; kernel slices need a real one")
        return F.reshape(ws.size, self.n) * np.sqrt(b)[:, None]

    def right_hat(self, etas) -> np.ndarray:
        """G's right side, m^-1 conj(_atoms_hat(etas)); atoms are real."""
        return self._atoms_hat(etas) * self._m_inv

    def slices(self, left, right, lo, hi) -> np.ndarray:
        """P[i, a, m] = R((u_m + t, omegas[i]), (t, etas[a])) for any t
        and u grid indices m in [lo, hi), from left = _atoms_hat(omegas)
        and right = right_hat(etas).  Only the window's values of the
        half spectra of left[i] * right[a], read at |j| for m = n/2 + j,
        take their sign dxi (-1)^j, and for u < 0 (j < 0) the conjugate."""
        h = self.n // 2
        j = np.abs(np.arange(lo, hi) - h)
        out = np.fft.rfft(left[:, None, :] * right, axis=-1).take(j, -1)
        out *= self._sign[j]
        neg = out[..., :max(min(h, hi) - lo, 0)]
        np.conjugate(neg, out=neg)
        return out

    def u_index(self, u_values) -> np.ndarray:
        """Nearest grid index of u values (snapping error <= du/2); a
        ValueError names the first u that would snap off the grid.  rint
        is sign-symmetric, so u and -u snap to mirror indices."""
        u = np.asarray(u_values, dtype=float)
        idx = np.rint(u / self.du) + self.n // 2
        off = ~((idx >= 0) & (idx <= self.n - 1))
        if off.any():
            raise ValueError(f"u = {u[off].flat[0]!r} lies off the slice "
                             f"grid [{self.u[0]!r}, {self.u[-1]!r}]")
        return idx.astype(int)


def _omega_grid(omega_max: float) -> np.ndarray:
    """Frequencies of spacing 0.125 (or just under) on [-omega_max,
    omega_max]."""
    n = int(math.ceil(2.0 * omega_max / 0.125)) + 1
    return np.linspace(-omega_max, omega_max, n)


def _probe_omegas(trunc: TruncationConfig) -> np.ndarray:
    return np.linspace(-trunc.probe_omega_max, trunc.probe_omega_max,
                       trunc.n_probes)


def _reflections(w: Window, cov: AlphaCovering | None = None
                 ) -> tuple[bool, bool]:
    """(mirror, time): whether the probe mirror (t, w) -> (-t, -w) keeps
    the masses of rho (cov None) and gamma, and the time flip t -> -t
    gamma's osc.  A real psi that is even (bit for bit on sample times)
    has a real, even psi_hat; beta is even.  So R(-x, -y) = R(x, y) and
    Gamma(-y, -z) = Gamma(y, z), and flipping only the times conjugates
    both.  The omega and u grids and w_s are mirror-symmetric;
    Q_{-y} = -Q_y on a mirrored row table, and Q_y flips with y_t when
    every row's k range is symmetric (boxes sit at eps * beta * k).
    Then osc is even in y_t at x_t = 0 (gamma1) and in x_t at y_t = 0
    (gamma2)."""
    t = np.geomspace(1.0 / 64.0, 64.0, 193)
    even = bool(np.array_equal(w.time(t), w.time(-t)))
    if cov is None:
        return even, False
    return (even and np.array_equal(cov.omegas, -cov.omegas[::-1])
            and np.array_equal(cov.k_lo, -cov.k_hi[::-1]),
            even and np.array_equal(cov.k_lo, -cov.k_hi))


def _swept_probes(trunc: TruncationConfig, w: Window,
                  cov: AlphaCovering | None = None) -> np.ndarray:
    """The probes rho (cov None) and gamma sweep: the upper half when
    probes p and -p carry the same mass (_reflections), else every
    probe.  The half is taken by index: linspace's middle probe can be
    -1e-16 rather than 0."""
    probes = _probe_omegas(trunc)
    return probes[len(probes) // 2:] if _reflections(w, cov)[0] else probes


def _weighted_mass(row_sums: np.ndarray, omegas: np.ndarray,
                   omega_star: float, weight: Weight, du: float) -> float:
    """d_omega sum_i w_s(omegas[i], omega_star) du row_sums[i]: the
    weighted integral of nonnegative values on an (omega, u) grid, from
    their sums over u."""
    d_omega = omegas[1] - omegas[0]
    x_int = du * row_sums
    return d_omega * float(np.sum(weight.mutual(omegas, omega_star) * x_int))


# bytes of a working block: omega rows in _rho_once; in _osc the gather
# buffers, and z spectra with their half transforms: 4 MiB
_BLOCK = 1 << 22


def _rho_once(w: Window, alpha: float, s: float, tab: SymbolTable,
              x_max: float, omega_max: float,
              probes: np.ndarray) -> float:
    """Max over the probes of the weighted mass of |P| on |u| <= x_max,
    read at u >= 0 (|P(-u)| = |P(u)|, so u > 0 counts twice).  Each
    block of omega rows takes one slices call against every probe:
    max(1, _BLOCK // (32 n len(probes))) rows, 32 bytes a (row, probe)
    xi sample covering profiles, half spectra and the u window with its
    moduli.  Row sums are weighted once at the end, so blocks leave rho
    as is."""
    engine = _SliceEngine(w, alpha, tab, omega_max, x_max)
    omegas = _omega_grid(omega_max)
    h = engine.n // 2
    n_u = int(np.count_nonzero(engine.u[h:] <= x_max))
    fold = np.where(np.arange(n_u) > 0, 2.0, 1.0)
    right = engine.right_hat(probes)
    sums = np.empty((len(omegas), len(right)))
    rows = max(1, _BLOCK // (32 * engine.n * max(len(right), 1)))
    for i in range(0, len(omegas), rows):
        P = engine.slices(engine._atoms_hat(omegas[i:i + rows]), right,
                          h, h + n_u)
        sums[i:i + rows] = (np.abs(P) * fold).sum(axis=-1)
    weight = Weight(s)
    return max((_weighted_mass(row_sums, omegas, eta, weight, engine.du)
                for row_sums, eta in zip(sums.T, probes)), default=0.0)


def estimate_rho(w: Window, alpha: float, s: float, tab: SymbolTable,
                 trunc: TruncationConfig = TruncationConfig()
                 ) -> KernelEstimate:
    """rho ~ max over probe frequencies w* of
    int int |R(x, w; 0, w*)| w_s(w, w*) dx dw on the truncated domain.

    The probe time coordinate is irrelevant: R depends on time only
    through the difference x - x*.  For an even window probes w* and
    -w* carry the same mass, so only the upper half of the probes is
    swept; any other window sweeps them all (_swept_probes).
    """
    if not tab.admissible:
        raise NotAdmissibleError("rho needs an admissible window")
    probes = _swept_probes(trunc, w)
    x_max, omega_max = trunc.x_max, trunc.omega_max
    value = _rho_once(w, alpha, s, tab, x_max, omega_max, probes)
    history = [value]
    converged = False
    for _ in range(3):
        x_max *= 2.0
        omega_max *= 2.0
        new = _rho_once(w, alpha, s, tab, x_max, omega_max, probes)
        history.append(new)
        moved = abs(new - value) / max(new, 1e-300)
        value = new
        if moved < 0.05:
            converged = True
            break
    return KernelEstimate(
        s=s, value=value,
        truncation={"x_max": x_max, "omega_max": omega_max,
                    "history": history, "converged": converged},
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
    R = _kernel_pairs(w, alpha, tab, 1, [(p1, z) for z in [p2] + zs])
    phase = np.exp(-2j * np.pi * w2 * (x2 - np.array(zs)[:, 0]))
    return float(np.abs(R[0] - phase * R[1:]).max())


def _osc(engine: _SliceEngine, cov: AlphaCovering, density: int,
         x_t, x_w, y_t, y_w) -> np.ndarray:
    """osc(x, y) = max over the sampled z in Q_y of
    |R(x, y) - Gamma(y, z) R(x, z)| with
    Gamma(y, z) = exp(-2 pi i y_w (y_t - z_t)), on the pairs
    x = (x_t[b], x_w[i]), y = (y_t[b], y_w[a]): every x frequency with
    every y frequency, and times along b, where a side with one time
    pairs it with every time of the other.

    The times lie on the engine's u grid, and x_t - z_t is snapped onto
    it (u_index raises if the engine does not reach it):
    z_t = x_t - u[at], so Gamma =
    exp(-2 pi i y_w (y_t - x_t)) exp(-2 pi i y_w u[at]).  The first
    factor goes into R(x, y); the second into each z frequency's slices
    R(x, z) = P[at], read on the u window [lo, hi) a covering row
    gathers.  A row's gather is laid out (z, b, i * a) over the y_w in
    its band, so the sup over z is a maximum of contiguous planes, taken
    in chunks of z on squared moduli (the sum of squares of the
    difference's float view), with one sqrt per covering row.  A sample
    outside its time's box reuses an inside one of the same time; a time
    with none gets 0 from the row.  Samples that snap to one u index
    read the same R(x, z), so a time gathers its distinct indices once
    (a row gathers its widest count, a time with fewer repeats its own):
    the max is over the same set, so osc is the same bit for bit.  At an
    odd density a time's two boxes share (density - 1) / 2 sample times,
    and narrow boxes snap several samples to one index.  The chunk
    buffer and its squared modulus (24 bytes an element) hold
    max(_BLOCK / 24, osc.size) elements, at least one z-plane.  A row's
    real z spectra and their half transforms (16 bytes a spectrum
    sample) with the window read from them (16 bytes a u sample) fill at
    most max(_BLOCK, one z frequency).
    Returns an array of shape (len(x_w), len(y_w), b).
    """
    x_t, x_w, y_t, y_w = (np.atleast_1d(np.asarray(v, dtype=float))
                          for v in (x_t, x_w, y_t, y_w))
    x_hat = engine._atoms_hat(x_w)
    at = engine.u_index(x_t - y_t)
    lo = at.min()
    base = engine.slices(x_hat, engine.right_hat(y_w),
                         lo, at.max() + 1)[..., at - lo]
    base *= np.exp(2j * np.pi * y_w[:, None] * (y_t - x_t))
    osc = np.zeros(base.shape)
    cap = max(_BLOCK // 24, osc.size)
    block, mod = np.empty(cap, complex), np.empty(cap)
    for band, z_t, inside, z_w in q_samples(cov, y_t, y_w, density):
        keep = inside.any(axis=0)
        if not keep.any():
            continue
        inside = inside[:, keep]
        at = engine.u_index(x_t[:, None] - z_t[:, keep])
        at = np.where(inside, at, at[np.arange(len(at)),
                                     inside.argmax(axis=1)][:, None])
        at.sort(axis=1)
        new = np.diff(at, axis=1, prepend=-1) != 0
        at = np.take_along_axis(at, np.argsort(~new, axis=1, kind="stable"),
                                axis=1)[:, :new.sum(axis=1).max()]
        lo, hi = at.min(), at.max() + 1
        at = (at - lo).T
        post = np.exp(-2j * np.pi * engine.u[lo:hi, None] * y_w[band])
        R_y = base[:, band].transpose(2, 0, 1).reshape(base.shape[2], -1)
        row, plane = np.zeros(R_y.shape), np.empty(R_y.shape)
        Q = np.empty((hi - lo, R_y.shape[1]), complex)
        n_z = max(1, _BLOCK // (16 * (engine.n + hi - lo) * len(x_w)))
        for c in range(0, len(z_w), n_z):
            F = engine.slices(x_hat, engine.right_hat(z_w[c:c + n_z]),
                              lo, hi)
            for Fz in F.transpose(1, 2, 0):
                np.multiply(Fz[:, :, None], post[:, None, :],
                            out=Q.reshape(hi - lo, len(x_w), -1))
                for k in range(0, len(at), cap // R_y.size):
                    ks = at[k:k + cap // R_y.size]
                    g = block[:ks.size * R_y.shape[1]].reshape(*ks.shape, -1)
                    m = mod[:g.size].reshape(g.shape)
                    np.take(Q, ks, axis=0, out=g, mode="clip")
                    d = np.subtract(g, R_y, out=g).view(float)
                    np.square(d, out=d)
                    np.add(d[..., ::2], d[..., 1::2], out=m)
                    np.maximum(row, np.maximum.reduce(m, out=plane), out=row)
        np.sqrt(row, out=row)
        row *= inside.any(axis=1)[:, None]
        osc[:, band] = np.maximum(osc[:, band],
                                  row.reshape(len(row), len(x_w), -1)
                                  .transpose(1, 2, 0))
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
    only perturbs this periodically at sub-probe scale).  Each of
    gamma1 and gamma2 is one _osc call over all probes: the probes are
    the x frequencies of gamma1 and the y frequencies of gamma2.  For
    an even window on a covering mirrored by (t, w) -> (-t, -w), probes
    p and -p carry the same gamma1 and gamma2 masses, so only the upper
    half of the probes is swept; otherwise every probe.  If every row's
    k range is symmetric too, only times u >= 0 are swept, each u > 0
    counting twice (_reflections).  The gathers read
    |x_t - z_t| <= x_max + 2 * eps (a box is at most 2 * eps wide in
    time), so that is the engine's u_max.
    """
    if not tab.admissible:
        raise NotAdmissibleError("gamma needs an admissible window")
    engine = _SliceEngine(w, alpha, tab, trunc.omega_max,
                          trunc.x_max + 2.0 * cov.eps)
    omegas = _omega_grid(trunc.omega_max)
    u_in = engine.u[np.abs(engine.u) <= trunc.x_max]
    probes, d = _swept_probes(trunc, w, cov), trunc.z_density
    reflect = _reflections(w, cov)[1]
    u_in = u_in[u_in >= 0] if reflect else u_in
    fold = np.where(u_in > 0, 1.0 + reflect, 1.0)  # u > 0 stands for -u

    def mass(osc, probe):
        return _weighted_mass((osc * fold).sum(axis=1), omegas, probe,
                              Weight(s), engine.du)
    g1 = max(map(mass, _osc(engine, cov, d, 0.0, probes, u_in, omegas),
                 probes), default=0.0)
    g2 = max(map(mass, _osc(engine, cov, d, u_in, omegas, 0.0, probes)
                 .swapaxes(0, 1), probes), default=0.0)
    return g1, g2, max(g1, g2)


def diagnostics_report(w: Window, alpha: float, s: float,
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
        "alpha": alpha, "window": w.label, "s": s,
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
