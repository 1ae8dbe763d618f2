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
within beta(w) * Window.time_radius of x, where psi is not zero to
double precision.  The window states that radius: half its support
when compact, 3.53 for the Gaussian, and infinite otherwise, so the
bandlimited window's rows fill the whole grid.  A band's entries
depend only on w, on the offset t_c - x of the band's sample t_c
nearest x, and on the sample offset from t_c.  Atoms that share
(w, t_c - x), such as every x of the signal lattice at one frequency,
share their band, and _band_matrix computes each distinct band once,
in a table keyed by (w, t_c - x), and copies it to its atoms.  The
entries agree with the atom formula evaluated sample by sample to
about 7e-16 of the largest entry on a 2048-sample grid with
|t| <= 64 and |w| <= 8.

The voice transform and its synthesis build that matrix for blocks of
consecutive atoms of about 2^18 entries each (_VOICE_BLOCK), one at a
time, so their peak memory is one block, about 10 MiB, on any grid and
for any window.  A block's rows are those of the whole grid's matrix,
so the voice transform is bit-identical to its one-matrix product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Signal, SampledGrid, Weight, _write_csv, weighted_lp_norm
from .quadrature import integrate
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

    def save_magnitude_csv(self, path):
        _write_csv(path, np.abs(self.values), "")


def make_atom(w: Window, alpha: float, x: float, omega: float,
              grid: SampledGrid) -> Signal:
    """T_x M_w D_beta psi sampled on the grid; warns when more than
    1e-6 of the atom's mass lies outside the grid."""
    values = _atom_rows(w, alpha, omega, [x], grid)[0]
    mass = grid.spacing * float(np.sum(np.abs(values) ** 2))
    spill = 1.0 - mass / w.l2_norm**2
    if spill > 1e-6:
        warnings.warn(
            f"atom at (x={x}, w={omega}) spills {spill:.2e} of its mass "
            f"past the grid", SupportSpillWarning, stacklevel=2,
        )
    return Signal(grid, values)


def _atom_rows(w: Window, alpha: float, omega: float, xs: np.ndarray,
               grid: SampledGrid) -> np.ndarray:
    """Dense matrix A[m, k] = a_{x_m, omega}(t_k) for one frequency row:
    _band_matrix's rows, zero beyond the window's time radius."""
    xs = np.asarray(xs, dtype=float)
    return _band_matrix(w, alpha, np.full(xs.size, float(omega)), xs,
                        grid).toarray()


# table and matrix entries filled per pass of _band_matrix's loops:
# passes of 2^14 to 2^17 entries built the benchmark's frame and voice
# matrices equally fast, 2^13 1.2x and 2^20 1.3x slower in total
_FILL = 1 << 16


def _band_matrix(w: Window, alpha: float, omegas: np.ndarray,
                 xs: np.ndarray, grid: SampledGrid) -> sparse.csr_array:
    """CSR matrix of atoms on the grid, one matrix row per atom (x, omega)
    = (xs[m], omegas[m]).

    Each matrix row holds the atom a_{x,omega}(t_k) of the module
    docstring on the samples t_k within beta(omega) * w.time_radius of
    x, with one sample of slack per side so that rounding never drops a
    nonzero sample.  With t_c the band's sample nearest x,
    delta = t_c - x and t_k = t_c + j*dt, the entry at offset j is

        exp(2 pi i omega delta) beta^(-1/2)     (the band's head)
        * exp(2 pi i omega j dt)                (a phase table entry)
        * psi((delta + j*dt) / beta),

    a function of (omega, delta, j) alone.  So the atoms are grouped by
    exact (omega, delta), with no tolerance, and each group gets one row
    of a table: the offsets its atoms store, at most as many entries as
    they store together, filled once from the formula.  The matrix is
    then gathered from the table, so a row is, bit for bit, the row its
    atom gets alone.  Where t_k and delta are exact, as on dyadic grids,
    delta + j*dt rounds to t_k - x to the last bit.  The phase table
    holds twice the widest band per distinct omega.  Both phases are
    small where the atom is large, so they round no worse than the phase
    of each sample; a phase taken from the band's first sample instead
    is off by 7e-13 on full-width bandlimited rows with |t - x| up to
    64, omega 8.
    """
    from scipy import sparse
    b = beta(omegas, alpha)
    n, dt = grid.n, grid.spacing
    reach = w.time_radius * b
    lo = np.floor((xs - reach - grid.origin) / dt)
    hi = np.ceil((xs + reach - grid.origin) / dt) + 1
    lo = np.clip(lo, 0, n).astype(np.int64)
    hi = np.clip(hi, lo, n).astype(np.int64)
    counts = hi - lo
    indptr = np.concatenate([[0], np.cumsum(counts)])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz, dtype=complex)
    mid = np.clip(np.rint((xs - grid.origin) / dt), lo, hi - 1)
    delta = grid.origin + dt * mid - xs
    mid = mid.astype(np.int64)
    # group the atoms by exact (omega, delta), in order of (omega, delta)
    key = np.empty(xs.size, dtype=complex)
    key.real, key.imag = omegas, delta
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(xs.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    group = np.empty(xs.size, dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    first = order[starts]
    # row g of the table holds group g's offsets j0[g] <= j <= j1[g] from
    # row_at[g] on; an atom that stores nothing spans 1 <= j <= 0
    j0 = np.minimum.reduceat((lo - mid)[order], starts)
    j1 = np.maximum.reduceat((hi - 1 - mid)[order], starts)
    widths = j1 - j0 + 1
    row_at = np.concatenate([[0], np.cumsum(widths)])
    table = np.empty(int(row_at[-1]), dtype=complex)
    om, dl, bg = omegas[first], delta[first], b[first]
    head = np.exp(2j * np.pi * om * dl) / np.sqrt(bg)
    # row f of the phase table holds the offsets -J <= j <= J of freqs[f]
    fnew = np.ones(om.size, dtype=bool)
    fnew[1:] = om[1:] != om[:-1]
    freqs, frow = om[fnew], np.cumsum(fnew) - 1
    J = int(max(np.max(-j0, initial=0), np.max(j1, initial=0)))
    phase = np.exp(2j * np.pi * np.outer(freqs, dt * np.arange(-J, J + 1)))
    # positions in int32 where they fit (all below nnz, phase.size and
    # 2n in size): the loops move half the bytes
    itype = np.int32 if max(nnz, phase.size) + 2 * n < 2**31 else np.int64
    # table entry p of group g is offset p + to_j[g]
    to_j = (j0 - row_at[:-1]).astype(itype)
    to_phase = (frow * (2 * J + 1) + J + to_j).astype(itype)
    # whole groups per pass, about _FILL entries each
    cuts = np.searchsorted(row_at, np.arange(_FILL, row_at[-1], _FILL))
    for g0, g1 in zip([0, *cuts], [*cuts, first.size]):
        p0, p1 = row_at[g0], row_at[g1]
        c = widths[g0:g1]
        p = np.arange(p0, p1, dtype=itype)
        out = table[p0:p1]
        q = np.repeat(to_phase[g0:g1], c)
        q += p
        # positions are in range; "clip" spares take a buffered copy
        np.take(phase, q, out=out, mode="clip")
        out *= np.repeat(head[g0:g1], c)
        q = np.repeat(to_j[g0:g1], c)
        q += p
        u = dt * q
        u += np.repeat(dl[g0:g1], c)
        u /= np.repeat(bg[g0:g1], c)
        out *= w.time(u)
    # entry s of atom m sits at table[s + to_table[m]] and in grid
    # column s + to_col[m]
    to_col = lo - indptr[:-1]
    to_table = (to_col - mid - to_j[group]).astype(itype)
    to_col = to_col.astype(itype)
    # whole atoms per pass, about _FILL entries each
    cuts = np.searchsorted(indptr, np.arange(_FILL, nnz, _FILL))
    for a0, a1 in zip([0, *cuts], [*cuts, xs.size]):
        s0, s1 = indptr[a0], indptr[a1]
        c = counts[a0:a1]
        s = np.arange(s0, s1, dtype=itype)
        q = np.repeat(to_table[a0:a1], c)
        q += s
        np.take(table, q, out=data[s0:s1], mode="clip")
        np.add(s, np.repeat(to_col[a0:a1], c), out=indices[s0:s1],
               casting="unsafe")
    # scipy stores the indices in indptr's dtype: int32 halves them, and
    # int64 stays past 2^31 entries, where int32 would wrap
    indptr = indptr.astype(np.int32) if nnz < 2**31 else indptr
    return sparse.csr_array((data, indices, indptr), shape=(xs.size, n))


def _voice_matrix(w: Window, alpha: float, x_grid: SampledGrid,
                  omega_grid: SampledGrid, grid: SampledGrid):
    """Atoms of the product grid in VoiceMap order (omega-major)."""
    return _band_matrix(w, alpha, np.repeat(omega_grid.coords, x_grid.n),
                        np.tile(x_grid.coords, omega_grid.n), grid)


# stored entries per block of _voice_blocks: of 2^16 to 2^22, 2^18 ran
# the benchmark's 256 x 256 voice grid fastest
_VOICE_BLOCK = 1 << 18


def _voice_blocks(w: Window, alpha: float, x_grid: SampledGrid,
                  omega_grid: SampledGrid, grid: SampledGrid):
    """(atoms, omegas, xs) for consecutive blocks of _voice_matrix's rows:
    atoms slices VoiceMap's flattened order, and _band_matrix on the
    block holds at most _VOICE_BLOCK entries, or one atom."""
    omegas = np.repeat(omega_grid.coords, x_grid.n)
    xs = np.tile(x_grid.coords, omega_grid.n)
    # _band_matrix stores fewer than 2 * reach / dt + 3 samples per atom
    reach = np.max(beta(omega_grid.coords, alpha)) * w.time_radius
    widest = min(grid.n, 2.0 * reach / grid.spacing + 3.0)
    step = max(1, _VOICE_BLOCK // int(widest))
    for a0 in range(0, xs.size, step):
        atoms = slice(a0, a0 + step)
        yield atoms, omegas[atoms], xs[atoms]


def voice_transform(f: Signal, w: Window, alpha: float,
                    x_grid: SampledGrid, omega_grid: SampledGrid) -> VoiceMap:
    """V f(x, w) = <f, a_{x,w}> on the product grid; the x nodes need not
    lie on the signal lattice.  Built in blocks of about 2^18 stored
    entries, so the peak memory is one block (about 10 MiB) plus the
    map; bit-identical to the product with _voice_matrix."""
    conj_f = np.conj(f.values)
    values = np.empty(omega_grid.n * x_grid.n, dtype=complex)
    for atoms, omegas, xs in _voice_blocks(w, alpha, x_grid, omega_grid,
                                           f.grid):
        values[atoms] = _band_matrix(w, alpha, omegas, xs, f.grid) @ conj_f
    values = f.grid.spacing * np.conj(values)
    return VoiceMap(x_grid, omega_grid,
                    values.reshape(omega_grid.n, x_grid.n))


def synthesize_voice(vm: VoiceMap, w: Window, alpha: float,
                     grid: SampledGrid) -> Signal:
    """Riemann sum of the inverse pairing:
    g = sum V(x, w) a_{x,w} dx dw over the voice grid.  Summed over the
    voice transform's blocks, with its peak memory; the order of the sum
    moves g from the product with _voice_matrix by about 1e-15 relative."""
    cell = vm.x_grid.spacing * vm.omega_grid.spacing
    v = vm.values.ravel()
    g = np.zeros(grid.n, dtype=complex)
    for atoms, omegas, xs in _voice_blocks(w, alpha, vm.x_grid,
                                           vm.omega_grid, grid):
        g += _band_matrix(w, alpha, omegas, xs, grid).T @ v[atoms]
    return Signal(grid, cell * g)


def dual_transform(f: Signal, w: Window, alpha: float, tab: SymbolTable,
                   x_grid: SampledGrid, omega_grid: SampledGrid) -> VoiceMap:
    """W f = V(A^{-1} f): the voice transform after inverting the
    analysis multiplier."""
    if not tab.admissible:
        raise NotAdmissibleError("dual transform needs an admissible window")
    g = apply_multiplier(f, tab, -1)
    return voice_transform(g, w, alpha, x_grid, omega_grid)


def kernel_K(w: Window, alpha: float, tab: SymbolTable, kappa: int, p1,
             p2) -> complex:
    """K(p1, p2) = <m^{-kappa} hat(a1), hat(a2)> for the window's atoms at
    p1 = (x, w), p2 = (x*, w*); frequency-domain quadrature to absolute
    tolerance 1e-8."""
    return complex(_kernel_pairs(w, alpha, tab, kappa, [(p1, p2)])[0])


def _kernel_pairs(w: Window, alpha: float, tab: SymbolTable, kappa: int,
                  pairs) -> np.ndarray:
    """kernel_K at each (p1, p2) of pairs, as one integrate batch."""
    if kappa > 0 and not tab.admissible:
        raise NotAdmissibleError("m^{-kappa} needs a positive lower bound A")
    (x1, w_1), (x2, w_2) = np.asarray(pairs, dtype=float).transpose(1, 2, 0)
    b1, b2 = beta(w_1, alpha), beta(w_2, alpha)
    dx = x1 - x2

    def integrand(xi, i):
        g = np.sqrt(b1[i] * b2[i]) * w.fourier(b1[i] * (xi - w_1[i])) \
            * np.conj(w.fourier(b2[i] * (xi - w_2[i])))
        if kappa:
            g = g * tab(xi) ** (-kappa)
        return g * np.exp(-2j * np.pi * xi * dx[i])

    # integrand support is a neighborhood of the two atom frequencies
    lo, hi = np.minimum(w_1, w_2), np.maximum(w_1, w_2)
    half = 60.0 / np.minimum(b1, b2) + (hi - lo)
    edges = np.column_stack([lo - half, lo, hi, hi + half])
    return integrate(integrand, edges, 1e-8)[0]


def reproducing_kernel(w: Window, alpha: float, tab: SymbolTable,
                       p1, p2) -> complex:
    """R(p1, p2) = <A^{-1} a_{p1}, a_{p2}>."""
    return kernel_K(w, alpha, tab, 1, p1, p2)


def check_reproducing(f: Signal, w: Window, alpha: float, tab: SymbolTable,
                      x_grid: SampledGrid, omega_grid: SampledGrid) -> float:
    """Relative L2 residual of the discretized reproducing identity
    V f = integral of V f(y) R(y, .) dmu(y).

    The kernel integral is evaluated as V(A^{-1} synthesize(V f)), which
    is the same operator applied with the atom matrix and its adjoint
    instead of a dense kernel matrix; one atom matrix of the (x, w) grid,
    built whole and once rather than in the voice transform's blocks,
    serves V f, W f, the synthesis and V of the result.  Rejects grids
    capturing less than 0.999 of ||f||^2 in the pairing
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
    if captured < 0.999:
        raise MassCaptureError(captured, 0.999)
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
