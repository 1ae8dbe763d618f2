"""Discrete frames on covering nodes: analysis, synthesis, frame bounds,
and conjugate-gradient reconstruction.

The frame atoms sit at the covering nodes (x_{j,k}, w_j).  They are held
as one sparse matrix with a band of samples per atom (see transform):
analysis, synthesis and the frame operator are products with it and
its adjoint.  Both frame bounds are Lanczos eigenvalues of the frame
operator, and reconstruction is CG on the same operator.  A frame of a
window without compact support in time other than the Gaussian (the
bandlimited window) has dense rows, n_atoms * n entries, with no memory
budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covering import AlphaCovering
from .grids import GridMismatchError, Signal, SampledGrid
from .transform import _atom_rows, _band_matrix
from .windows import Window


class IterationError(RuntimeError):
    """Eigenvalue or CG iteration failed to converge."""

    def __init__(self, message, rayleigh=None):
        super().__init__(message)
        self.rayleigh = rayleigh


class AlphaFrame:
    """Covering nodes + window + signal grid = a finite frame."""

    def __init__(self, covering: AlphaCovering, window: Window,
                 signal_grid: SampledGrid):
        self.covering = covering
        self.window = window
        self.signal_grid = signal_grid
        self.alpha = covering.alpha
        # row layout: slices of the flat coefficient vector per j
        self._js = list(range(covering.j_range[0], covering.j_range[1] + 1))
        self._row_slices: dict[int, slice] = {}
        rows = []
        pos = 0
        for j in self._js:
            k0, k1 = covering.k_ranges[j]
            ks = np.arange(k0, k1 + 1)
            w = covering.omega_nodes[j]
            b = (1.0 + abs(w)) ** (-covering.alpha)
            rows.append((w, covering.eps * b * ks))
            self._row_slices[j] = slice(pos, pos + ks.size)
            pos += ks.size
        self.n_atoms = pos
        self._matrix = _band_matrix(window, self.alpha, rows, signal_grid)

    def nodes(self) -> np.ndarray:
        return self.covering.nodes()

    def atom(self, j: int, k: int) -> Signal:
        x = self.covering.x_node(j, k)
        return Signal(self.signal_grid,
                      _atom_rows(self.window, self.alpha,
                                 self.covering.omega_nodes[j], [x],
                                 self.signal_grid)[0])


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
            "time_range": list(cov.time_range),
            "freq_range": list(cov.freq_range),
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
    """Reads a coefficient file; raises ValueError unless its (j, k) node
    table is the frame's."""
    header = json.loads(Path(str(path) + ".json").read_text())
    n = int(header["n_atoms"])
    if n != frame.n_atoms:
        raise ValueError(f"file holds {n} atoms, frame has {frame.n_atoms}")
    blob = np.fromfile(path, dtype="<f8")
    if blob.size != 4 * n:
        raise ValueError(f"file holds {blob.size} values, expected {4 * n}")
    if not np.array_equal(blob[:2 * n].reshape(n, 2), frame.nodes()[:, :2]):
        raise ValueError("coefficient node table differs from the frame's "
                         "covering")
    vals = blob[2 * n:]
    return Coefficients(frame, vals[0::2] + 1j * vals[1::2])


def analysis(f: Signal, fr: AlphaFrame) -> Coefficients:
    """c_{j,k} = <f, atom_{j,k}>."""
    if not f.grid.isclose(fr.signal_grid):
        raise GridMismatchError("signal grid differs from the frame grid")
    dt = fr.signal_grid.spacing
    return Coefficients(fr, dt * np.conj(fr._matrix @ np.conj(f.values)))


def synthesis(c: Coefficients, fr: AlphaFrame) -> Signal:
    """sum of c_{j,k} atom_{j,k}."""
    if c.frame is not fr and c.frame.n_atoms != fr.n_atoms:
        raise ValueError("coefficients indexed by a different frame")
    return Signal(fr.signal_grid, fr._matrix.T @ c.values)


def frame_operator_apply(f: Signal, fr: AlphaFrame) -> Signal:
    """S f = synthesis(analysis(f)); Hermitian PSD by construction."""
    return synthesis(analysis(f, fr), fr)


def _S_block(V: np.ndarray, fr: AlphaFrame) -> np.ndarray:
    """Frame operator applied to every column of V, shape (n, q); the
    benchmark's tracer (perfbench/spans.py) wraps it by this name."""
    A = fr._matrix
    return fr.signal_grid.spacing * (A.T @ np.conj(A @ np.conj(V)))


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


def _lanczos_extreme(apply, dim: int, which: str, v0: np.ndarray,
                     tol: float, max_iter: int) -> float:
    """Largest (which="LA") or smallest (which="SA") eigenvalue of the
    Hermitian operator apply on C^dim, by ARPACK's restarted Lanczos."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    op = LinearOperator((dim, dim), matvec=apply, dtype=complex)
    try:
        # wide Krylov space: the bottom of a loose frame's spectrum can
        # sit near zero, where ARPACK's relative tolerance needs room,
        # and the top of a snug frame's spectrum is a tight cluster
        vals = eigsh(op, k=1, which=which, tol=tol, ncv=min(dim, 80),
                     v0=v0, maxiter=max_iter, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        partial = exc.eigenvalues
        raise IterationError(
            f"Lanczos ({which}) eigensolve did not converge",
            rayleigh=float(partial[0]) if len(partial) else None,
        ) from exc
    return float(vals[0])


def estimate_frame_bounds(fr: AlphaFrame, tol: float = 1e-8,
                          max_iter: int = 10_000, seed: int = 42):
    """(A_est, B_est): extreme Rayleigh quotients of the frame operator.

    Both by Lanczos from one seeded start vector.  B is the top of the
    frame operator's spectrum.  A is the bottom of the frame operator
    compressed to signals whose spectrum lies inside the covering's
    frequency range: out-of-band content is invisible to a truncated
    frame and would drive the raw minimum to zero.
    """
    rng = np.random.default_rng(seed)
    n = fr.signal_grid.n
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def S(v: np.ndarray) -> np.ndarray:
        return _S_block(v[:, None], fr)[:, 0]

    B_est = _lanczos_extreme(S, n, "LA", v0, tol, max_iter)

    # orthonormal basis of the in-band signals: the DFT bins inside the
    # covering's frequency range
    dual = fr.signal_grid.dual()
    f0, f1 = fr.covering.freq_range
    idx = np.nonzero((dual.coords >= f0) & (dual.coords <= f1))[0]
    pre = np.exp(-2j * np.pi * dual.origin * fr.signal_grid.spacing
                 * np.arange(n))
    root_n = math.sqrt(n)

    def embed(z: np.ndarray) -> np.ndarray:
        Z = np.zeros(n, dtype=complex)
        Z[idx] = z
        return np.conj(pre) * np.fft.ifft(Z) * root_n

    def compress(w: np.ndarray) -> np.ndarray:
        return np.fft.fft(pre * w)[idx] / root_n

    A_est = _lanczos_extreme(lambda z: compress(S(embed(z))), idx.size,
                             "SA", compress(v0), tol, max_iter)
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
        return _S_block(v[:, None], fr)[:, 0]

    b = S(f.values)
    x, iters, residual = _cg(S, b, tol=tol, max_iter=max_iter)
    f_rec = Signal(fr.signal_grid, x)
    fn = f.norm()
    error = (f_rec - f).norm() / fn if fn > 0 else 0.0
    return ReconstructionResult(f_rec, iters, residual, error)
