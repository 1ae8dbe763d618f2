"""Discrete frames on covering nodes: analysis, synthesis, frame bounds,
and conjugate-gradient reconstruction.

The frame atoms sit at the covering nodes (x_{j,k}, w_j); all atoms in a
frequency row share w_j, so the row's atom matrix is built in one
vectorized pass and cached under a byte budget.
"""

from __future__ import annotations

import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covering import AlphaCovering
from .grids import GridMismatchError, Signal, SampledGrid, forward_fourier
from .transform import _atom_rows
from .windows import Window


class IterationError(RuntimeError):
    """Eigenvalue or CG iteration failed to converge."""

    def __init__(self, message, rayleigh=None):
        super().__init__(message)
        self.rayleigh = rayleigh


class _RowCache:
    """Byte-budgeted LRU of per-row atom matrices; safe for concurrent
    reads with single-writer insertion."""

    def __init__(self, budget_bytes: int):
        self.budget = budget_bytes
        self._data: OrderedDict[int, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, j: int):
        with self._lock:
            mat = self._data.get(j)
            if mat is not None:
                self._data.move_to_end(j)
            return mat

    def put(self, j: int, mat: np.ndarray):
        with self._lock:
            if j in self._data:
                return
            self._data[j] = mat
            self._bytes += mat.nbytes
            while self._bytes > self.budget and len(self._data) > 1:
                _, old = self._data.popitem(last=False)
                self._bytes -= old.nbytes


class AlphaFrame:
    """Covering nodes + window + signal grid = a finite frame."""

    def __init__(self, covering: AlphaCovering, window: Window,
                 signal_grid: SampledGrid,
                 cache_bytes: int = 512 * 1024**2):
        self.covering = covering
        self.window = window
        self.signal_grid = signal_grid
        self.alpha = covering.alpha
        self._cache = _RowCache(cache_bytes)
        # row layout: slices of the flat coefficient vector per j
        self._js = list(range(covering.j_range[0], covering.j_range[1] + 1))
        self._row_slices: dict[int, slice] = {}
        self._row_xs: dict[int, np.ndarray] = {}
        pos = 0
        for j in self._js:
            k0, k1 = covering.k_ranges[j]
            ks = np.arange(k0, k1 + 1)
            b = (1.0 + abs(covering.omega_nodes[j])) ** (-covering.alpha)
            self._row_xs[j] = covering.eps * b * ks
            self._row_slices[j] = slice(pos, pos + ks.size)
            pos += ks.size
        self.n_atoms = pos

    def nodes(self) -> np.ndarray:
        return self.covering.nodes()

    def row_matrix(self, j: int) -> np.ndarray:
        """Atom matrix of frequency row j, shape (n_k, grid.n)."""
        mat = self._cache.get(j)
        if mat is None:
            mat = _atom_rows(self.window, self.alpha,
                             self.covering.omega_nodes[j],
                             self._row_xs[j], self.signal_grid)
            self._cache.put(j, mat)
        return mat

    def atom(self, j: int, k: int) -> Signal:
        k0 = self.covering.k_ranges[j][0]
        return Signal(self.signal_grid, self.row_matrix(j)[k - k0].copy())


@dataclass(frozen=True)
class Coefficients:
    """Flat coefficient vector aligned with the frame's node order."""

    frame: AlphaFrame
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.frame.n_atoms,):
            raise ValueError(
                f"expected {self.frame.n_atoms} coefficients, got "
                f"{values.shape}"
            )
        object.__setattr__(self, "values", values)

    def value_at(self, j: int, k: int) -> complex:
        k0 = self.frame.covering.k_ranges[j][0]
        return complex(self.values[self.frame._row_slices[j]][k - k0])

    def save(self, path, window_spec: str = ""):
        """Binary node table + interleaved complex values, JSON header."""
        cov = self.frame.covering
        grid = self.frame.signal_grid
        nodes = self.frame.nodes()
        blob = np.concatenate([
            nodes[:, :2].astype("<f8").ravel(),
            np.column_stack([self.values.real, self.values.imag])
            .astype("<f8").ravel(),
        ])
        blob.tofile(path)
        header = {
            "alpha": cov.alpha, "eps": cov.eps, "c": cov.c,
            "window": window_spec or self.frame.window.label,
            "grid": {"n": grid.n, "spacing": grid.spacing,
                     "origin": grid.origin},
            "n_atoms": self.frame.n_atoms,
        }
        Path(str(path) + ".json").write_text(json.dumps(header))

    def save_csv(self, path):
        nodes = self.frame.nodes()
        data = np.column_stack([nodes, self.values.real, self.values.imag])
        np.savetxt(path, data, delimiter=",", fmt="%.17g",
                   header="j,k,x,omega,re,im", comments="")


def load_coefficients(path, frame: AlphaFrame) -> Coefficients:
    header = json.loads(Path(str(path) + ".json").read_text())
    n = int(header["n_atoms"])
    if n != frame.n_atoms:
        raise ValueError(f"file holds {n} atoms, frame has {frame.n_atoms}")
    blob = np.fromfile(path, dtype="<f8")
    vals = blob[2 * n:]
    return Coefficients(frame, vals[0::2] + 1j * vals[1::2])


def analysis(f: Signal, fr: AlphaFrame) -> Coefficients:
    """c_{j,k} = <f, atom_{j,k}>."""
    if not f.grid.isclose(fr.signal_grid):
        raise GridMismatchError("signal grid differs from the frame grid")
    dt = fr.signal_grid.spacing
    out = np.empty(fr.n_atoms, dtype=complex)
    for j in fr._js:
        out[fr._row_slices[j]] = dt * (fr.row_matrix(j).conj() @ f.values)
    return Coefficients(fr, out)


def synthesis(c: Coefficients, fr: AlphaFrame) -> Signal:
    """sum of c_{j,k} atom_{j,k}."""
    if c.frame is not fr and c.frame.n_atoms != fr.n_atoms:
        raise ValueError("coefficients indexed by a different frame")
    out = np.zeros(fr.signal_grid.n, dtype=complex)
    for j in fr._js:
        out += c.values[fr._row_slices[j]] @ fr.row_matrix(j)
    return Signal(fr.signal_grid, out)


def frame_operator_apply(f: Signal, fr: AlphaFrame) -> Signal:
    """S f = synthesis(analysis(f)); Hermitian PSD by construction."""
    return synthesis(analysis(f, fr), fr)


def _S_block(V: np.ndarray, fr: AlphaFrame) -> np.ndarray:
    """Frame operator applied to every column of V, shape (n, q)."""
    dt = fr.signal_grid.spacing
    out = np.zeros_like(V)
    for j in fr._js:
        M = fr.row_matrix(j)
        out += M.T @ (dt * (M.conj() @ V))
    return out


def _cg(apply_op, b: np.ndarray, tol: float, max_iter: int,
        stagnation_window: int = 50):
    """Conjugate gradient for a Hermitian PSD operator; returns
    (x, iters, relative residual)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0, 0.0
    rs = float(np.real(np.vdot(r, r)))
    best = math.inf
    since_best = 0
    it = 0
    while it < max_iter:
        rel = math.sqrt(rs) / b_norm
        if rel <= tol:
            break
        if rel < best * (1.0 - 1e-12):
            best = rel
            since_best = 0
        else:
            since_best += 1
            if since_best >= stagnation_window:
                raise IterationError(
                    f"CG stagnated at relative residual {rel:.3e} after "
                    f"{it} iterations", rayleigh=rel,
                )
        Ap = apply_op(p)
        denom = float(np.real(np.vdot(p, Ap)))
        if denom <= 0.0:
            raise IterationError(
                f"operator lost positive definiteness (p'Ap = {denom:.3e})"
            )
        a = rs / denom
        x += a * p
        r -= a * Ap
        rs_new = float(np.real(np.vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    return x, it, math.sqrt(rs) / b_norm


def estimate_frame_bounds(fr: AlphaFrame, tol: float = 1e-8,
                          max_iter: int = 10_000, seed: int = 42):
    """(A_est, B_est): extreme Rayleigh quotients of the frame operator.

    B by block power iteration.  A by Lanczos on the frame operator
    compressed to signals whose spectrum lies inside the covering's
    frequency range: out-of-band content is invisible to a truncated
    frame and would drive the raw minimum to zero.
    """
    rng = np.random.default_rng(seed)
    n = fr.signal_grid.n

    # block power iteration for the top of the spectrum: single-vector
    # iteration stalls when the leading eigenvalues cluster (snug frames)
    q = min(8, n)
    V = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    V, _ = np.linalg.qr(V)
    lam = -math.inf
    for it in range(max_iter):
        SV = _S_block(V, fr)
        H = V.conj().T @ SV
        ritz = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
        lam_new = float(ritz[-1])
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)) and it >= 4:
            lam = lam_new
            break
        lam = lam_new
        V, _ = np.linalg.qr(SV)
    else:
        raise IterationError(
            f"power iteration did not converge in {max_iter} steps",
            rayleigh=lam,
        )
    B_est = lam

    # bottom of the spectrum: restrict to the band subspace (out-of-band
    # signals are invisible to a truncated frame, so the raw minimum is
    # zero) and run Lanczos there.  Power-type iterations stall on the
    # dense eigenvalue cluster snug frames produce at the lower bound.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    dual = fr.signal_grid.dual()
    f0, f1 = fr.covering.freq_range
    mask = (dual.coords >= f0) & (dual.coords <= f1)
    idx = np.nonzero(mask)[0]
    m = idx.size
    k_arr = np.arange(n)
    pre = np.exp(-2j * np.pi * dual.origin * fr.signal_grid.spacing * k_arr)
    root_n = math.sqrt(n)

    def embed(z: np.ndarray) -> np.ndarray:
        Z = np.zeros(n, dtype=complex)
        Z[idx] = z
        return np.conj(pre) * np.fft.ifft(Z) * root_n

    def compress(w: np.ndarray) -> np.ndarray:
        return np.fft.fft(pre * w)[idx] / root_n

    def T(z: np.ndarray) -> np.ndarray:
        v = embed(np.asarray(z, dtype=complex))
        return compress(_S_block(v[:, None], fr)[:, 0])

    op = LinearOperator((m, m), matvec=T, dtype=complex)
    v0 = compress(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    v0 = embed(v0)
    try:
        # wide Krylov space: the bottom of a loose frame's spectrum can
        # sit near zero, where ARPACK's relative tolerance needs room
        vals = eigsh(op, k=1, which="SA", tol=tol, ncv=min(m, 80),
                     v0=compress(v0), maxiter=max_iter,
                     return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        partial = exc.eigenvalues
        raise IterationError(
            "lower-bound eigensolve did not converge",
            rayleigh=float(partial[0]) if len(partial) else None,
        ) from exc
    A_est = float(vals[0])
    return A_est, B_est


@dataclass(frozen=True)
class ReconstructionResult:
    f_rec: Signal
    iters: int
    residual: float   # final CG relative residual
    error: float      # ||f_rec - f|| / ||f||


def reconstruct(f: Signal, fr: AlphaFrame, tol: float = 1e-8,
                max_iter: int = 1000) -> ReconstructionResult:
    """f_rec = S^{-1} S f by conjugate gradient on the frame operator."""
    if not f.grid.isclose(fr.signal_grid):
        raise GridMismatchError("signal grid differs from the frame grid")

    def S(v: np.ndarray) -> np.ndarray:
        return frame_operator_apply(Signal(fr.signal_grid, v), fr).values

    b = S(f.values)
    x, iters, residual = _cg(S, b, tol=tol, max_iter=max_iter)
    f_rec = Signal(fr.signal_grid, x)
    fn = f.norm()
    error = (f_rec - f).norm() / fn if fn > 0 else 0.0
    return ReconstructionResult(f_rec, iters, residual, error)
