"""Window families with analytic time/frequency evaluators.

Each window exposes its time profile, its Fourier transform and the first
three frequency-side derivatives, plus a polynomial decay certificate: an
exponent r such that |psi_hat^(l)(xi)| <= C (1 + |xi|)^(-r) for l = 0..3
and some constant C.  The certificate is what the admissibility and
discretization threshold checks consume.  Each family states it from a
theorem, not from a fit: m for the B-spline of order m, whose spectrum
sinc^m decays like |xi|^(-m) with its derivatives; infinite for the
Gaussian and the C-infinity bump, whose spectra are Schwartz functions
(every derivative decays faster than any power); infinite for the
bandlimited window, whose spectrum has compact support.  A window also
states its time radius, beyond which psi is zero to double precision:
half its support when compact, 3.53 for the Gaussian, infinite for the
bandlimited window.  Every evaluator runs on numpy alone: B-splines by
their pieces, the bump's spectrum by grids.cubic_spline on an FFT table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .grids import SampledGrid, Signal, cubic_spline, forward_fourier
from .quadrature import integrate

_TAYLOR_CUT = 1e-3  # |xi| below which sinc derivatives switch to series


class Purpose(Enum):
    ADMISSIBILITY = "admissibility"
    KERNEL_INTEGRABILITY = "kernel_integrability"
    DISCRETIZATION = "discretization"


@dataclass(frozen=True)
class HypothesisVerdict:
    purpose: Purpose
    alpha: float
    s: float
    required_r: float
    certified_r: float

    @property
    def passed(self) -> bool:
        return self.certified_r > self.required_r


class Window:
    """Immutable window with analytic evaluators.

    Parameters
    ----------
    label : str
        Exact spec of the window, which parse_window_spec reads back.
    time_fn : callable
        Vectorized psi(t).
    fourier_fn : callable
        Vectorized (xi, l) -> psi_hat^(l)(xi), l = 0..max_deriv.
    l2_norm : float
    decay_certificate : float or None
        The decay exponent r of the module docstring, from the family's
        theorem: m for the B-spline of order m (|sinc|^m), inf for the
        Gaussian and the bump (Schwartz spectra) and for the bandlimited
        window (compact spectrum).
    support : (a, b) or None
        Exact time support, when compact.
    freq_support : (a, b) or None
        Exact frequency support, when compact.
    time_radius : float
        Radius beyond which psi is zero to double precision: that of the
        support when compact, else as stated, else infinite.
    """

    max_deriv = 3  # every window provides psi_hat and three derivatives

    def __init__(self, label, time_fn, fourier_fn, l2_norm,
                 decay_certificate=None, support=None, freq_support=None,
                 time_radius=math.inf):
        if not l2_norm > 0:
            raise ValueError("window must have positive L2 norm")
        self.label = label
        self._time = time_fn
        self._fourier = fourier_fn
        self.l2_norm = float(l2_norm)
        self.decay_certificate = decay_certificate
        self.support = support
        self.freq_support = freq_support
        self.time_radius = float(time_radius if support is None
                                 else max(-support[0], support[1]))

    def __repr__(self):
        return f"Window({self.label!r})"

    def time(self, t):
        return self._time(np.asarray(t, dtype=float))

    def fourier(self, xi, deriv: int = 0):
        if not 0 <= deriv <= self.max_deriv:
            raise ValueError(
                f"derivative order {deriv} not available (max {self.max_deriv})"
            )
        return self._fourier(np.asarray(xi, dtype=float), deriv)


# ---------------------------------------------------------------------------
# sinc and its first three derivatives (for B-spline spectra)


def _sinc_derivs(xi: np.ndarray):
    """Returns [s, s', s'', s'''] of sinc(xi) = sin(pi xi)/(pi xi)."""
    xi = np.asarray(xi, dtype=float)
    u = np.pi * xi
    small = np.abs(xi) < _TAYLOR_CUT
    us = np.where(small, 1.0, u)  # dummy to avoid divide warnings

    sin_u, cos_u = np.sin(us), np.cos(us)
    inv = 1.0 / us
    inv2, inv3, inv4 = inv**2, inv**3, inv**4
    g0 = sin_u * inv
    g1 = cos_u * inv - sin_u * inv2
    g2 = -sin_u * inv - 2 * cos_u * inv2 + 2 * sin_u * inv3
    g3 = -cos_u * inv + 3 * sin_u * inv2 + 6 * cos_u * inv3 - 6 * sin_u * inv4

    # series sum_j (-1)^j u^{2j} / (2j+1)!  differentiated k times
    u_small = np.where(small, u, 0.0)
    series = [np.zeros_like(u), np.zeros_like(u),
              np.zeros_like(u), np.zeros_like(u)]
    for j in range(8):
        term = (-1.0) ** j / math.factorial(2 * j + 1)
        for k in range(4):
            if 2 * j - k < 0:
                continue
            coeff = term * math.prod(range(2 * j - k + 1, 2 * j + 1))
            series[k] = series[k] + coeff * u_small ** (2 * j - k)

    pi_pow = [np.pi**k for k in range(4)]
    out = []
    for k, (g, ser) in enumerate(zip([g0, g1, g2, g3], series)):
        out.append(np.where(small, ser, g) * pi_pow[k])
    return out


def _sinc_power_derivs(xi: np.ndarray, m: int):
    """[f, f', f'', f'''] for f = sinc^m by Leibniz/chain expansion."""
    s0, s1, s2, s3 = _sinc_derivs(xi)

    def pw(p):
        # s0**p with the convention 0**0 = 1; p is always >= 0 here
        return s0**p if p > 0 else np.ones_like(s0)

    f0 = pw(m)
    f1 = m * pw(m - 1) * s1
    f2 = m * pw(m - 1) * s2
    if m >= 2:
        f2 = f2 + m * (m - 1) * pw(m - 2) * s1**2
    f3 = m * pw(m - 1) * s3
    if m >= 2:
        f3 = f3 + 3 * m * (m - 1) * pw(m - 2) * s1 * s2
    if m >= 3:
        f3 = f3 + m * (m - 1) * (m - 2) * pw(m - 3) * s1**3
    return [f0, f1, f2, f3]


# ---------------------------------------------------------------------------
# window constructors


@functools.cache
def _bspline_pieces(m: int) -> np.ndarray:
    """Row j: the order-m B-spline on [0, m], its piece on [j, j + 1) in
    powers of x - j, highest first, by the Cox-de Boor recursion over
    every order, in O(m^3); a factor x - j shifts a row up a power."""
    pieces = np.ones((1, 1))
    for k in range(2, m + 1):
        j = np.arange(k)[:, None]
        same = np.pad(pieces, ((0, 1), (0, 1)))
        left = np.roll(same, 1, axis=0)  # the piece one interval left
        pieces = (j * same + (k - j) * left
                  + np.roll(same - left, 1, axis=1)) / (k - 1)
    return pieces[:, ::-1]


def bspline_window(m: int) -> Window:
    """Centered cardinal B-spline of order m; spectrum sinc(xi)^m.  Its
    time profile is Horner's rule on its pieces (built once per order, at
    the first call), evaluated at |t|, so it is even bit for bit."""
    if m < 1:
        raise ValueError(f"B-spline order must be >= 1, got {m}")
    m = int(m)
    half = m / 2.0

    def time_fn(t):
        u = np.abs(np.asarray(t, dtype=float))
        inside = u < half
        x = u[inside] + half
        j = np.minimum(x.astype(np.intp), m - 1)
        x -= j
        pieces = _bspline_pieces(m)
        val = pieces[j, 0]
        for p in range(1, m):
            val = val * x + pieces[j, p]
        out = np.zeros_like(u)
        out[inside] = val
        return out

    def fourier_fn(xi, l):
        return np.sinc(xi) ** m if l == 0 else _sinc_power_derivs(xi, m)[l]

    # ||B_m||^2 = (B_m * B_m)(0) = B_{2m}(0), the centered order-2m
    # spline: its truncated-power sum, exact in rationals
    norm2 = sum((-1) ** i * math.comb(2 * m, i) * (m - i) ** (2 * m - 1)
                for i in range(m + 1))
    l2 = math.sqrt(Fraction(norm2, math.factorial(2 * m - 1)))
    return Window(f"bspline:{m}", time_fn, fourier_fn, l2,
                  decay_certificate=float(m), support=(-half, half))


def gaussian_window() -> Window:
    """Unit-norm Gaussian 2^(1/4) exp(-pi t^2); its own Fourier transform."""
    c = 2.0**0.25

    def time_fn(t):
        return c * np.exp(-np.pi * np.asarray(t, dtype=float) ** 2)

    def fourier_fn(xi, l):
        xi = np.asarray(xi, dtype=float)
        base = c * np.exp(-np.pi * xi**2)
        if l == 0:
            poly = 1.0
        elif l == 1:
            poly = -2.0 * np.pi * xi
        elif l == 2:
            poly = 4.0 * np.pi**2 * xi**2 - 2.0 * np.pi
        else:
            poly = -8.0 * np.pi**3 * xi**3 + 12.0 * np.pi**2 * xi
        return poly * base

    # |psi| falls below 1e-17 of its peak beyond this radius
    radius = math.sqrt(17.0 * math.log(10.0) / math.pi)
    return Window("gaussian", time_fn, fourier_fn, 1.0,
                  decay_certificate=math.inf, time_radius=radius)


def bump_window(radius: float) -> Window:
    """Compactly supported C-infinity bump, L2-normalized.

    The spectrum has no closed form; psi_hat^(l) is tabulated on 2^16
    points over [-128, 128] via the transform of (-2*pi*i*t)^l psi(t) and
    interpolated cubically.  Beyond that band the (super-polynomially
    tiny) tail is treated as zero.  The table resolves radii that span
    16 or more of its time steps (1/256) while 1/radius spans 16 or more
    of its frequency steps (1/256): radius in [1/16, 16].  The decay
    certificate is infinite, as psi_hat is a Schwartz function: a fact
    of the exact spectrum, not of the table and its rounding noise.
    """
    band, table_size = 128.0, 2**16
    step = 1.0 / (2.0 * band)
    r_min, r_max = 16 * step, table_size * step / 16
    if not r_min <= radius <= r_max:
        raise ValueError(
            f"bump radius must be in [{r_min:g}, {r_max:g}], where its "
            f"spectral table resolves it, got {radius}")
    R = float(radius)
    unit = integrate(lambda u, _: np.exp(-2.0 / (1.0 - u * u)), [-1.0, 1.0],
                     tol=1e-15)[0][0]
    scale = 1.0 / math.sqrt(R * unit)

    def time_fn(t):
        u = np.asarray(t, dtype=float) / R
        inside = np.abs(u) < 1.0
        out = np.zeros_like(u)
        out[inside] = scale * np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    # dense spectral table: psi_hat^(l) = F[(-2 pi i t)^l psi]
    tgrid = SampledGrid.centered(table_size, step)
    t = tgrid.coords
    base = time_fn(t)
    # psi real and even, so every psi_hat^(l) is real-valued
    spline = cubic_spline(tgrid.dual().coords, np.column_stack(
        [forward_fourier(Signal(tgrid, (-2j * np.pi * t) ** l * base))
         .values.real for l in range(4)]))

    def fourier_fn(xi, l):
        xi = np.asarray(xi, dtype=float)
        inside = np.abs(xi) < band - 1.0
        out = np.zeros(xi.shape, dtype=float)
        out[inside] = spline(xi[inside], l)
        return out

    return Window(f"bump:{R!r}", time_fn, fourier_fn, 1.0,
                  decay_certificate=math.inf, support=(-R, R))


def bandlimited_window(cutoff: float) -> Window:
    """Squared raised-cosine spectrum on [-cutoff, cutoff]; C^3 in frequency.

    psi_hat(xi) = ((1 + cos(pi xi / cutoff)) / 2)^2 inside the band and
    exactly zero outside; the time profile is the closed-form inverse
    transform (a combination of sinc terms).  The cutoff lies in
    [1e-100, 1e100], where the third spectral derivative, of order
    (pi/cutoff)^3, and |psi|^2, of order cutoff^2, are finite doubles.
    """
    if not 1e-100 <= cutoff <= 1e100:
        raise ValueError(f"bandlimited cutoff must be in [1e-100, 1e100], "
                         f"where its spectral derivatives and its energy "
                         f"are finite doubles, got {cutoff}")
    c = float(cutoff)
    a = np.pi / c

    def fourier_fn(xi, l):
        xi = np.asarray(xi, dtype=float)
        inside = np.abs(xi) < c
        out = np.zeros_like(xi)
        x = xi[inside]
        q = 0.5 * (1.0 + np.cos(a * x))
        q1 = -0.5 * a * np.sin(a * x)
        q2 = -0.5 * a**2 * np.cos(a * x)
        q3 = 0.5 * a**3 * np.sin(a * x)
        if l == 0:
            out[inside] = q**2
        elif l == 1:
            out[inside] = 2 * q * q1
        elif l == 2:
            out[inside] = 2 * q1**2 + 2 * q * q2
        else:
            out[inside] = 6 * q1 * q2 + 2 * q * q3
        return out

    def _pair(freq, b):
        # int_{-c}^{c} cos(freq*xi) cos(b*xi) dxi, stable near freq = b
        return c * (np.sinc((freq - b) * c / np.pi)
                    + np.sinc((freq + b) * c / np.pi))

    def time_fn(t):
        t = np.asarray(t, dtype=float)
        b = 2.0 * np.pi * t
        # (1+cos u)^2/4 = 3/8 + cos(u)/2 + cos(2u)/8 with u = pi xi / c
        return (0.375 * _pair(0.0, b) + 0.5 * _pair(a, b)
                + 0.125 * _pair(2 * a, b))

    l2 = math.sqrt(35.0 * c / 64.0)  # closed form of int |psi_hat|^2
    return Window(f"bandlimited:{c!r}", time_fn, fourier_fn, l2,
                  decay_certificate=math.inf, freq_support=(-c, c))


# ---------------------------------------------------------------------------
# theorem thresholds and hypothesis checks


def _check_alpha(alpha: float):
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")


def required_decay(purpose: Purpose, alpha: float, s: float = 0.0) -> float:
    """Decay exponent threshold of the corresponding theorem."""
    _check_alpha(alpha)
    if purpose is Purpose.ADMISSIBILITY:
        return max(1.0, alpha / (2.0 * (1.0 - alpha)))
    base = (2.0 + 2.0 * s + 7.0 * alpha - 4.0 * alpha**2) / (
        2.0 * (1.0 - alpha) ** 2
    )
    if purpose is Purpose.KERNEL_INTEGRABILITY:
        return base
    if purpose is Purpose.DISCRETIZATION:
        return base + 1.0
    raise ValueError(f"unknown purpose {purpose}")


def check_hypotheses(w: Window, alpha: float, s: float,
                     purpose: Purpose) -> HypothesisVerdict:
    """Compares the window's decay certificate to the theorem threshold;
    ValueError for a window without one."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if w.decay_certificate is None:
        raise ValueError(f"window {w.label} has no decay certificate")
    return HypothesisVerdict(purpose, alpha, s,
                             required_decay(purpose, alpha, s),
                             w.decay_certificate)


def parse_window_spec(spec: str) -> Window:
    """Window from a CLI spec string, e.g. "bspline:4" or "gaussian"."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "gaussian":
        if arg:
            raise ValueError("gaussian takes no parameter")
        return gaussian_window()
    if name == "bspline":
        return bspline_window(int(arg))
    if name == "bump":
        return bump_window(float(arg))
    if name == "bandlimited":
        return bandlimited_window(float(arg))
    raise ValueError(f"unknown window spec {spec!r}")
