"""Time-frequency atoms, voice and dual transforms, reproducing kernel.

Atoms are the unit-norm waveforms

    a_{x,w}(t) = exp(2*pi*i*w*(t-x)) * beta(w)^(-1/2) * psi((t-x)/beta(w)),

i.e. a translation, modulation and frequency-dependent dilation of the
window.  The voice transform collects <f, a_{x,w}> on a rectangular
(x, w) grid; the dual transform first inverts the analysis multiplier.
Atoms are always evaluated analytically on the signal grid, never by
resampling a stored discrete window: the dilation rate beta(w) is not an
integer ratio and resampling would leak interpolation error into every
identity checked downstream.

Rows of atoms, for the voice transform and for the discrete frames
alike, are held as one sparse matrix with a band per atom: the samples
where psi is not zero to double precision.  That is the support of a
compact window and |t| <= 3.53 for the Gaussian; the bandlimited window
has no such radius, so its rows fill the whole grid.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .grids import (Signal, SampledGrid, Weight, inner_product,
                    weighted_lp_norm)
from .quadrature import QuadratureConfig, integrate
from .symbol import NotAdmissibleError, SymbolTable, apply_multiplier, beta
from .windows import Window


class SupportSpillWarning(UserWarning):
    """Atom mass leaking past the signal grid exceeds the tolerance."""


class MassCaptureError(ValueError):
    """The (x, w) grid captures too little of the transform's energy."""

    def __init__(self, captured: float, required: float):
        super().__init__(
            f"grid captures {captured:.5f} of the signal energy, "
            f"need >= {required}"
        )
        self.captured = captured


@dataclass(frozen=True)
class VoiceMap:
    """values[j, k] = transform at (x_grid[k], omega_grid[j])."""

    x_grid: SampledGrid
    omega_grid: SampledGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.omega_grid.n, self.x_grid.n):
            raise ValueError(
                f"values shape {values.shape}, expected "
                f"({self.omega_grid.n}, {self.x_grid.n})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("voice map contains non-finite values")
        object.__setattr__(self, "values", values)

    def norm(self, p: float = 2.0, s: float = 0.0) -> float:
        return weighted_lp_norm(self.values, self.x_grid, self.omega_grid,
                                p, Weight(s))

    def save(self, path):
        """Raw complex128 matrix plus a JSON sidecar with both grids."""
        np.asarray(self.values, dtype="<c16").tofile(path)
        meta = {
            "x_grid": {"n": self.x_grid.n, "spacing": self.x_grid.spacing,
                       "origin": self.x_grid.origin},
            "omega_grid": {"n": self.omega_grid.n,
                           "spacing": self.omega_grid.spacing,
                           "origin": self.omega_grid.origin},
        }
        Path(str(path) + ".json").write_text(json.dumps(meta))

    @staticmethod
    def load(path) -> "VoiceMap":
        meta = json.loads(Path(str(path) + ".json").read_text())
        gx = SampledGrid(**meta["x_grid"])
        gw = SampledGrid(**meta["omega_grid"])
        values = np.fromfile(path, dtype="<c16").reshape(gw.n, gx.n)
        return VoiceMap(gx, gw, values)

    def save_magnitude_csv(self, path):
        np.savetxt(path, np.abs(self.values), delimiter=",", fmt="%.8e")


def make_atom(w: Window, alpha: float, x: float, omega: float,
              grid: SampledGrid, spill_tol: float = 1e-6) -> Signal:
    """T_x M_w D_beta psi sampled on the grid; warns when more than
    spill_tol of the atom's mass lies outside the grid."""
    values = _atom_rows(w, alpha, omega, [x], grid)[0]
    mass = grid.spacing * float(np.sum(np.abs(values) ** 2))
    spill = 1.0 - mass / w.l2_norm**2
    if spill > spill_tol:
        warnings.warn(
            f"atom at (x={x}, w={omega}) spills {spill:.2e} of its mass "
            f"past the grid", SupportSpillWarning, stacklevel=2,
        )
    return Signal(grid, values)


def _atom_rows(w: Window, alpha: float, omega: float, xs: np.ndarray,
               grid: SampledGrid) -> np.ndarray:
    """Matrix A[m, k] = a_{x_m, omega}(t_k) for one frequency row."""
    b = beta(omega, alpha)
    u = grid.coords[None, :] - np.asarray(xs)[:, None]
    prof = w.time((u / b).ravel()).reshape(u.shape)
    return np.exp(2j * np.pi * omega * u) * prof / math.sqrt(b)


# |psi| of the Gaussian window falls below 1e-17 of its peak beyond this
_GAUSS_RADIUS = math.sqrt(17.0 * math.log(10.0) / math.pi)

# matrix entries evaluated per pass of _band_matrix's fill loop
_FILL = 1 << 20


def _time_radius(w: Window) -> float:
    """Radius outside which psi is zero to double precision (inf if
    there is none)."""
    if w.support is not None:
        return max(-w.support[0], w.support[1])
    return _GAUSS_RADIUS if w.kind == "gaussian" else math.inf


def _band_matrix(w: Window, alpha: float, omegas: np.ndarray,
                 xs: np.ndarray, grid: SampledGrid) -> sparse.csr_array:
    """CSR matrix of atoms on the grid, one matrix row per atom (x, omega)
    = (xs[m], omegas[m]).

    Each matrix row holds the entries of _atom_rows on the samples
    within beta(omega) * _time_radius(w) of x, with one sample of slack
    per side so that rounding never drops a nonzero sample.
    """
    b = beta(omegas, alpha)
    n, t = grid.n, grid.coords
    reach = _time_radius(w) * b
    lo = np.floor((xs - reach - grid.origin) / grid.spacing)
    hi = np.ceil((xs + reach - grid.origin) / grid.spacing) + 1
    lo = np.clip(lo, 0, n).astype(np.int64)
    hi = np.clip(hi, lo, n).astype(np.int64)
    counts = hi - lo
    indptr = np.concatenate([[0], np.cumsum(counts)])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz, dtype=complex)
    # whole atoms per pass, about _FILL entries each
    cuts = np.searchsorted(indptr, np.arange(_FILL, nnz, _FILL))
    for a0, a1 in zip([0, *cuts], [*cuts, xs.size]):
        s0, s1 = indptr[a0], indptr[a1]
        m = np.repeat(np.arange(a0, a1), counts[a0:a1])
        cols = lo[m] + np.arange(s0, s1) - indptr[m]
        u = t[cols] - xs[m]
        data[s0:s1] = (np.exp(2j * np.pi * omegas[m] * u)
                       * w.time(u / b[m]) / np.sqrt(b[m]))
        indices[s0:s1] = cols
    return sparse.csr_array((data, indices, indptr), shape=(xs.size, n))


def _voice_matrix(w: Window, alpha: float, x_grid: SampledGrid,
                  omega_grid: SampledGrid, grid: SampledGrid):
    """Atoms of the product grid in VoiceMap order (omega-major)."""
    return _band_matrix(w, alpha, np.repeat(omega_grid.coords, x_grid.n),
                        np.tile(x_grid.coords, omega_grid.n), grid)


def voice_transform(f: Signal, w: Window, alpha: float,
                    x_grid: SampledGrid, omega_grid: SampledGrid) -> VoiceMap:
    """V f(x, w) = <f, a_{x,w}> on the product grid; the x nodes need not
    lie on the signal lattice."""
    A = _voice_matrix(w, alpha, x_grid, omega_grid, f.grid)
    values = f.grid.spacing * np.conj(A @ np.conj(f.values))
    return VoiceMap(x_grid, omega_grid,
                    values.reshape(omega_grid.n, x_grid.n))


def synthesize_voice(vm: VoiceMap, w: Window, alpha: float,
                     grid: SampledGrid) -> Signal:
    """Riemann sum of the inverse pairing:
    g = sum V(x, w) a_{x,w} dx dw over the voice grid."""
    cell = vm.x_grid.spacing * vm.omega_grid.spacing
    A = _voice_matrix(w, alpha, vm.x_grid, vm.omega_grid, grid)
    return Signal(grid, cell * (A.T @ vm.values.ravel()))


def dual_transform(f: Signal, w: Window, alpha: float, tab: SymbolTable,
                   x_grid: SampledGrid, omega_grid: SampledGrid) -> VoiceMap:
    """W f = V(A^{-1} f): the voice transform after inverting the
    analysis multiplier."""
    if not tab.admissible:
        raise NotAdmissibleError("dual transform needs an admissible window")
    g = apply_multiplier(f, tab, -1)
    return voice_transform(g, w, alpha, x_grid, omega_grid)


def kernel_K(w1: Window, w2: Window, alpha: float, tab: SymbolTable,
             kappa: int, p1, p2,
             quad: QuadratureConfig = QuadratureConfig()) -> complex:
    """K(p1, p2) = <m^{-kappa} hat(a1), hat(a2)> for atoms of the two
    windows at p1 = (x, w), p2 = (x*, w*); frequency-domain quadrature."""
    return complex(_kernel_pairs(w1, w2, alpha, tab, kappa, [(p1, p2)],
                                 quad)[0])


def _kernel_pairs(w1: Window, w2: Window, alpha: float, tab: SymbolTable,
                  kappa: int, pairs,
                  quad: QuadratureConfig = QuadratureConfig()) -> np.ndarray:
    """kernel_K at each (p1, p2) of pairs, as one integrate batch."""
    if kappa > 0 and not tab.admissible:
        raise NotAdmissibleError("m^{-kappa} needs a positive lower bound A")
    (x1, w_1), (x2, w_2) = np.asarray(pairs, dtype=float).transpose(1, 2, 0)
    b1, b2 = beta(w_1, alpha), beta(w_2, alpha)
    dx = x1 - x2

    def integrand(xi, i):
        g = np.sqrt(b1[i] * b2[i]) * w1.fourier(b1[i] * (xi - w_1[i])) \
            * np.conj(w2.fourier(b2[i] * (xi - w_2[i])))
        if kappa:
            g = g * tab(xi) ** (-kappa)
        return g * np.exp(-2j * np.pi * xi * dx[i])

    # integrand support is a neighborhood of the two atom frequencies
    lo, hi = np.minimum(w_1, w_2), np.maximum(w_1, w_2)
    half = 60.0 / np.minimum(b1, b2) + (hi - lo)
    edges = np.column_stack([lo - half, lo, hi, hi + half])
    return integrate(integrand, edges, quad.tol, quad.max_panels)[0]


def reproducing_kernel(w: Window, alpha: float, tab: SymbolTable,
                       p1, p2,
                       quad: QuadratureConfig = QuadratureConfig()) -> complex:
    """R(p1, p2) = <A^{-1} a_{p1}, a_{p2}>."""
    return kernel_K(w, w, alpha, tab, 1, p1, p2, quad)


def check_reproducing(f: Signal, w: Window, alpha: float, tab: SymbolTable,
                      x_grid: SampledGrid, omega_grid: SampledGrid,
                      mass_threshold: float = 0.999) -> float:
    """Relative L2 residual of the discretized reproducing identity
    V f = integral of V f(y) R(y, .) dmu(y).

    The kernel integral is evaluated as V(A^{-1} synthesize(V f)), which
    is the same operator applied with the atom matrix and its adjoint
    instead of a dense kernel matrix; one atom matrix of the (x, w) grid
    serves V f, W f, the synthesis and V of the result.  Rejects grids
    capturing less than mass_threshold of ||f||^2 in the pairing
    <V f, W f> dmu.
    """
    fnorm = f.norm()
    if fnorm == 0.0:
        return 0.0
    A = _voice_matrix(w, alpha, x_grid, omega_grid, f.grid)
    cell = x_grid.spacing * omega_grid.spacing

    def voice(g: Signal) -> np.ndarray:
        return g.grid.spacing * np.conj(A @ np.conj(g.values))

    vf = voice(f)
    wf = voice(apply_multiplier(f, tab, -1))
    captured = float(np.real(cell * np.vdot(wf, vf))) / fnorm**2
    if captured < mass_threshold:
        raise MassCaptureError(captured, mass_threshold)
    g = apply_multiplier(Signal(f.grid, cell * (A.T @ vf)), tab, -1)
    num = float(np.linalg.norm(voice(g) - vf))
    return num / float(np.linalg.norm(vf))


def coorbit_norm(f: Signal, w: Window, alpha: float, tab: SymbolTable,
                 p: float, s: float,
                 x_grid: SampledGrid, omega_grid: SampledGrid) -> float:
    """Discretized ||V f||_{L^p} with frequency weight (1+|w|)^s."""
    if not tab.admissible:
        raise NotAdmissibleError("coorbit norm needs an admissible window")
    vm = voice_transform(f, w, alpha, x_grid, omega_grid)
    return weighted_lp_norm(vm.values, x_grid, omega_grid, p, Weight(s))
