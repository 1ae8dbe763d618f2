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

The discrete frames hold their rows of atoms as one sparse matrix with
a band per atom: the samples within beta(w) * Window.time_radius of x,
where psi is not zero to double precision.  The window states that
radius: half its support when compact, 3.53 for the Gaussian, and
infinite otherwise, so the bandlimited window's rows fill the whole
grid.  A band's entries depend only on w, on the offset t_c - x of the
band's sample t_c nearest x, and on the sample offset from t_c.  Atoms
that share (w, t_c - x), such as every x of the signal lattice at one
frequency, share their band, and _band_matrix computes each distinct
band once, in a table keyed by (w, t_c - x), and copies it to its
atoms.  The entries agree with the atom formula evaluated sample by
sample to about 7e-16 of the largest entry on a 2048-sample grid with
|t| <= 64 and |w| <= 8.

The voice transform and its synthesis build no matrix.  The x nodes of
the product grid serve every w, so the nodes that share an offset
delta = t_c - x share one dense table of band entries per chunk of
frequencies, with _band_matrix's formula and reach, and the transform
on those nodes is one product of the table with the nodes' signal
windows f(t_c + j*dt), which read 0 off the grid as the clipped bands
do (_voice_bands).  Nodes on the signal lattice share one offset, and
nodes a + k*s samples from the grid's origin, with a and s fractions
of a small common denominator q, take at most q + 1 (q, and either
side of a half-sample tie), computed as equal floats where they are
equal in exact arithmetic (_node_samples).  The tables are built a
block of at most _FILL entries at a time, so the peak memory is one
block plus the nodes' windows and the map, and no scipy module is
loaded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


# table and matrix entries filled per pass of _band_matrix's loops, and
# per block of _voice_bands' tables: passes of 2^14 to 2^17 entries
# built the benchmark's frame matrices equally fast, 2^13 1.2x and 2^20
# 1.3x slower in total; blocks of 2^15 and 2^16 its off-lattice voice
# tables equally fast, 2^17 1.15x slower
_FILL = 1 << 16

# multiply-adds per product of a voice table and its nodes' windows:
# OpenBLAS runs a product of at most 2^18 on one thread.  A threaded one
# first wakes another core, and on a 2-core VM that stalled for about
# 16 ms a product in spells: there the benchmark's on-lattice voice
# transform took 63 ms in whole products and 3 ms in products of 2^18
_PRODUCT = 1 << 18


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


# largest denominator of the node positions, in samples, that
# _node_samples takes as exact: nodes q apart share an offset, so a
# larger q leaves few nodes to a table on grids of practical size
_DENOM = 1 << 10


def _exact_ratio(num: Fraction, dt: Fraction, tol: float):
    """The rational r of denominator <= _DENOM with |num - r*dt| <= tol,
    or None when there is none."""
    r = (num / dt).limit_denominator(_DENOM)
    return r if abs(num - r * dt) <= tol else None


def _node_samples(x_grid: SampledGrid, grid: SampledGrid):
    """(mid, delta) of the nodes x_k: mid_k the index of the sample
    nearest x_k, on the grid or off it, and delta_k = t_mid - x_k.

    Node k lies a + k*s samples from the grid's origin.  When a and s are
    rationals of denominator at most _DENOM, up to the rounding of the
    grids' floats, mid and delta come from the exact residue, so that
    offsets equal in exact arithmetic are equal floats; a node halfway
    between two samples takes the even one, as rint does.  Otherwise
    mid = rint((x - t_0)/dt) and delta = t_mid - x in floats, as
    _band_matrix takes them.
    """
    dt = Fraction(grid.spacing)
    a = _exact_ratio(Fraction(x_grid.origin) - Fraction(grid.origin), dt,
                     math.ulp(x_grid.origin) + math.ulp(grid.origin))
    s = _exact_ratio(Fraction(x_grid.spacing), dt, math.ulp(x_grid.spacing))
    if a is not None and s is not None:
        q = math.lcm(a.denominator, s.denominator)
        aq, sq = int(a * q), int(s * q)
        if abs(aq) + x_grid.n * abs(sq) < 2**60:  # positions in int64
            p = aq + sq * np.arange(x_grid.n, dtype=np.int64)
            mid, r = np.divmod(p, q)
            mid += (2 * r > q) | ((2 * r == q) & (mid % 2 == 1))
            return mid, grid.spacing * ((mid * q - p) / q)
    mid = np.rint((x_grid.coords - grid.origin) / grid.spacing)
    return mid.astype(np.int64), \
        grid.origin + grid.spacing * mid - x_grid.coords


def _voice_bands(w: Window, alpha: float, x_grid: SampledGrid,
                 omega_grid: SampledGrid, grid: SampledGrid):
    """(starts, width, bands) of the product grid's atoms.

    Row k of the window matrix F[k, i] = f(t_{mid_k - J + i}), i < width
    = 2J + 1, starts at starts[k] of f padded with width zeros on either
    side, so samples off the grid read 0.  bands yields (rows, nodes, cols,
    head, T) for a chunk of frequency rows and nodes that share an
    offset delta (_node_samples): with omega = omega_grid.coords[rows],
    head[m] * T[m, i] is the atom a_{x, omega[m]} at the sample
    t_{mid - J + cols.start + i} of each such node x.  That is
    _band_matrix's formula head(omega, delta) * phase(omega, j) *
    psi((delta + j*dt) / beta(omega)) at the offset j from mid, within
    the row's reach |j| <= J_omega, and 0 beyond.  J_omega is the least
    reach that holds _band_matrix's band at every delta in [-dt/2, dt/2],
    capped where no node's window meets the grid, and J the largest.
    A chunk holds rows whose reach is at least 3/4 of its widest row's,
    which sets its columns: of shares from 1/2 to 1 (one padded table),
    3/4 built the benchmark's off-lattice tables fastest.  Tables are
    built in blocks of at most _FILL entries (or one row, if wider), one
    at a time; a yield covers at most _PRODUCT multiply-adds.
    """
    n, dt = grid.n, grid.spacing
    mid, delta = _node_samples(x_grid, grid)
    deltas, group = np.unique(delta, return_inverse=True)
    nodes = np.argsort(group, kind="stable")
    cuts = np.concatenate([[0], np.cumsum(np.bincount(group))])
    om = omega_grid.coords
    b = beta(om, alpha)
    half = np.minimum(np.ceil(w.time_radius * b / dt + 0.5),
                      max(mid.max(), n - 1 - mid.min())).astype(np.int64)
    J = int(half.max())
    width = 2 * J + 1
    starts = np.clip(mid - J, -width, n) + width
    # rows by reach, widest first, in chunks of at most _FILL entries
    order = np.argsort(-half, kind="stable")
    chunks, c0 = [], 0
    for c in range(1, om.size + 1):
        if (c == om.size or 4 * half[order[c]] < 3 * half[order[c0]]
                or (c + 1 - c0) * (2 * half[order[c0]] + 1) > _FILL):
            chunks.append(order[c0:c])
            c0 = c

    def bands():
        for rows in chunks:
            Jc = int(half[rows[0]])
            j = np.arange(-Jc, Jc + 1)
            phase = np.exp(2j * np.pi * np.outer(om[rows], dt * j))
            phase[np.abs(j) > half[rows, None]] = 0.0
            cols = slice(J - Jc, J + Jc + 1)
            br = b[rows, None]
            step = max(1, _FILL // phase.size)
            per = max(1, _PRODUCT // phase.size)
            for g0 in range(0, deltas.size, step):
                dl = deltas[g0:g0 + step, None]
                heads = np.exp(2j * np.pi * om[rows] * dl) / np.sqrt(b[rows])
                tables = phase * w.time((dt * j + dl[..., None]) / br)
                for g, head, T in zip(range(g0, deltas.size), heads, tables):
                    ks = nodes[cuts[g]:cuts[g + 1]]
                    for k in range(0, ks.size, per):
                        yield rows, ks[k:k + per], cols, head, T

    return starts, width, bands()


def voice_transform(f: Signal, w: Window, alpha: float,
                    x_grid: SampledGrid, omega_grid: SampledGrid) -> VoiceMap:
    """V f(x, w) = <f, a_{x,w}> on the product grid; the x nodes need not
    lie on the signal lattice, nor on the signal grid.

    The nodes' signal windows F, one row per node, are gathered once;
    then each band table T of _voice_bands gives V on its frequencies
    and nodes as head * (T @ F.T).  The peak memory is one block of
    tables plus F and the map; no sparse matrix is built."""
    starts, width, bands = _voice_bands(w, alpha, x_grid, omega_grid, f.grid)
    padded = np.zeros(f.grid.n + 2 * width, dtype=complex)
    padded[width:width + f.grid.n] = np.conj(f.values)
    F = sliding_window_view(padded, width)[starts]
    values = np.empty((omega_grid.n, x_grid.n), dtype=complex)
    for rows, nodes, cols, head, T in bands:
        values[rows[:, None], nodes] = head[:, None] * (T @ F[nodes, cols].T)
    return VoiceMap(x_grid, omega_grid, f.grid.spacing * np.conj(values))


def synthesize_voice(vm: VoiceMap, w: Window, alpha: float,
                     grid: SampledGrid) -> Signal:
    """Riemann sum of the inverse pairing:
    g = sum V(x, w) a_{x,w} dx dw over the voice grid.

    The adjoint of voice_transform's products: each band table T gives
    its nodes' windows (head * V).T @ T, and the windows are added into
    g at their samples, those off the grid dropped."""
    starts, width, bands = _voice_bands(w, alpha, vm.x_grid, vm.omega_grid,
                                        grid)
    C = np.zeros((vm.x_grid.n, width), dtype=complex)
    for rows, nodes, cols, head, T in bands:
        v = head[:, None] * vm.values[rows[:, None], nodes]
        C[nodes, cols] += v.T @ T
    at = (starts[:, None] + np.arange(width)).ravel()
    size = grid.n + 2 * width
    g = np.bincount(at, C.real.ravel(), size) \
        + 1j * np.bincount(at, C.imag.ravel(), size)
    cell = vm.x_grid.spacing * vm.omega_grid.spacing
    return Signal(grid, cell * g[width:width + grid.n])


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
    is the same operator applied with voice_transform and
    synthesize_voice instead of a dense kernel matrix.  Rejects grids
    capturing less than 0.999 of ||f||^2 in the pairing
    <V f, W f> dmu.
    """
    fnorm = f.norm()
    if fnorm == 0.0:
        return 0.0
    cell = x_grid.spacing * omega_grid.spacing
    vf = voice_transform(f, w, alpha, x_grid, omega_grid)
    wf = dual_transform(f, w, alpha, tab, x_grid, omega_grid).values
    captured = float(np.real(cell * np.vdot(wf, vf.values))) / fnorm**2
    if captured < 0.999:
        raise MassCaptureError(captured, 0.999)
    g = apply_multiplier(synthesize_voice(vf, w, alpha, f.grid), tab, -1)
    vg = voice_transform(g, w, alpha, x_grid, omega_grid).values
    num = float(np.linalg.norm(vg - vf.values))
    return num / float(np.linalg.norm(vf.values))


def coorbit_norm(f: Signal, w: Window, alpha: float, tab: SymbolTable,
                 p: float, s: float,
                 x_grid: SampledGrid, omega_grid: SampledGrid) -> float:
    """Discretized ||V f||_{L^p} with frequency weight (1+|w|)^s."""
    if not tab.admissible:
        raise NotAdmissibleError("coorbit norm needs an admissible window")
    vm = voice_transform(f, w, alpha, x_grid, omega_grid)
    return weighted_lp_norm(vm.values, x_grid, omega_grid, p, Weight(s))
