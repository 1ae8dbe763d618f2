"""Discrete frames on covering nodes: analysis, synthesis, frame bounds,
and conjugate-gradient reconstruction.

The frame atoms sit at the covering nodes (x_{j,k}, w_j).  They are held
as one sparse matrix with a band of samples per atom (see transform):
analysis, synthesis and the frame operator are products with it and
its adjoint.  The frame operator S is a scipy LinearOperator: both
frame bounds are Lanczos eigenvalues of it, and reconstruction is
scipy's CG on it, each imported where it is called.  The bounds take S
assembled as a sparse matrix when the atom bands are narrow (_S_bounds).
A window of infinite time radius (the bandlimited one) gives dense rows,
n_atoms * n entries, with no memory budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import AlphaCovering, build_covering
from .grids import (GridMismatchError, Signal, SampledGrid, Weight,
                    _read_floats, _read_meta, _write_csv, _write_data)
# _atom_rows is bound here for the benchmark's tracer (perfbench/spans.py)
from .transform import _atom_rows, _band_matrix  # noqa: F401
from .windows import Window, parse_window_spec


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
        nodes = covering.nodes()
        self.n_atoms = len(nodes)
        self._matrix = _band_matrix(window, self.alpha, nodes[:, 3],
                                    nodes[:, 2], signal_grid)

    def nodes(self) -> np.ndarray:
        return self.covering.nodes()


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

    def norm(self, p: float, s: float) -> float:
        """Discrete coorbit norm, for finite p >= 1,
        (eps^2 * sum |c_{j,k}|^p (1 + |w_j|)^{sp})^{1/p}.  The nodes step
        by eps*beta in time and about eps/beta in frequency, cells of
        area eps^2, so for analysis coefficients this is a Riemann sum
        of transform.coorbit_norm's integral."""
        if not 1 <= p < math.inf:
            raise ValueError(f"p must be finite and >= 1, got {p}")
        weighted = np.abs(self.values) * Weight(s)(self.frame.nodes()[:, 3])
        eps = self.frame.covering.eps
        return float((eps**2 * np.sum(weighted**p)) ** (1.0 / p))

    def save(self, path):
        """Binary node table + interleaved complex values, JSON header.
        The window's label must be the spec that load_coefficients
        rebuilds it from; otherwise nothing is written."""
        label = self.frame.window.label
        try:
            spec = parse_window_spec(label).label == label
        except ValueError:
            spec = False
        if not spec:
            raise ValueError(f"window label {label!r} is not a window spec "
                             f"that rebuilds the window, so "
                             f"load_coefficients could not read the file")
        cov = self.frame.covering
        header = {
            "alpha": cov.alpha, "eps": cov.eps, "c": cov.c,
            "time_range": list(cov.time_range),
            "freq_range": list(cov.freq_range),
            "window": label,
            "grid": self.frame.signal_grid.to_json(),
            "n_atoms": self.frame.n_atoms,
        }
        _write_data(path, np.concatenate([
            self.frame.nodes()[:, :2],
            np.column_stack([self.values.real, self.values.imag])]), header)

    def save_csv(self, path):
        _write_csv(path, np.column_stack([self.frame.nodes(), self.values.real,
                                          self.values.imag]),
                   "j,k,x,omega,re,im")


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


_RANGE = ("[lo, hi] with finite hi > lo",
          lambda v: type(v) is list and len(v) == 2
          and all(map(_is_number, v)) and v[0] < v[1])
# the keys of Coefficients.save's header besides window and grid, each
# with (rule, test) for its JSON value
_HEADER = {
    "alpha": ("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1),
    "eps": ("a positive number", lambda v: _is_number(v) and v > 0),
    "c": ("a positive number", lambda v: _is_number(v) and v > 0),
    "time_range": _RANGE,
    "freq_range": _RANGE,
    "n_atoms": ("a whole number", lambda v: type(v) is int and v >= 0),
}


def load_coefficients(path) -> Coefficients:
    """Reads a coefficient file on the frame that its JSON header
    describes.  Raises ValueError naming the header file and the key for
    a header value that is missing or malformed, and ValueError unless
    the file's (j, k) node table is that frame's."""
    side, header = _read_meta(path)
    missing = [k for k in (*_HEADER, "window", "grid")
               if not isinstance(header, dict) or k not in header]
    if missing:
        raise ValueError(f"{side} lacks {', '.join(missing)}")
    for key, (rule, test) in _HEADER.items():
        if not test(header[key]):
            raise ValueError(
                f"{side}: {key} must be {rule}, got {header[key]!r}")
    try:
        if type(header["window"]) is not str:
            raise ValueError
        window = parse_window_spec(header["window"])
    except ValueError as exc:
        reason = f" ({exc})" if str(exc) else ""
        raise ValueError(f"{side}: window must be a window spec, got "
                         f"{header['window']!r}{reason}") from None
    grid = SampledGrid.from_json(header["grid"], side)
    cov = build_covering(header["alpha"], header["eps"], header["c"],
                         header["time_range"], header["freq_range"])
    frame = AlphaFrame(cov, window, grid)
    n = header["n_atoms"]
    if n != frame.n_atoms:
        raise ValueError(f"{side}: n_atoms is {n}, but the covering it "
                         f"describes has {frame.n_atoms} boxes")
    blob = _read_floats(path, 4 * n)
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
    if c.frame is not fr and not np.array_equal(c.frame.nodes(), fr.nodes()):
        raise ValueError("coefficients indexed by a different frame")
    return Signal(fr.signal_grid, fr._matrix.T @ c.values)


def _S_block(V: np.ndarray, fr: AlphaFrame) -> np.ndarray:
    """Frame operator applied to every column of V, shape (n, q); the
    benchmark's tracer (perfbench/spans.py) wraps it by this name."""
    A = fr._matrix
    return fr.signal_grid.spacing * (A.T @ np.conj(A @ np.conj(V)))


def _S_operator(fr: AlphaFrame) -> LinearOperator:
    """The frame operator S on C^n as a scipy LinearOperator, for the
    Lanczos bounds and for CG."""
    from scipy.sparse.linalg import LinearOperator
    n = fr.signal_grid.n
    return LinearOperator(
        (n, n), dtype=complex,
        matvec=lambda v: _S_block(v.reshape(-1, 1), fr)[:, 0])


_LANCZOS_TOL = 1e-8  # relative accuracy of the frame bounds
_LANCZOS_MAX_ITER = 10_000  # restarts before IterationError
_LANCZOS_NCV = 20  # Lanczos vectors per basis, scipy's default
_LANCZOS_SEED = 42  # start vector; bounds agree to 1e-14 across seeds
_CG_MAX_ITER = 1000  # CG iterations before IterationError


def _S_bounds(fr: AlphaFrame):
    """S for the Lanczos bounds: the sparse n x n matrix dt A^T conj(A)
    of the atom matrix A when that product, the sum of the squared band
    widths of A's rows in multiply-adds, costs no more than the two
    Lanczos bases that the bounds always build in the product form
    (2 * _LANCZOS_NCV applies of 2 nnz(A) each); else _S_operator."""
    A = fr._matrix
    w = np.diff(A.indptr)
    if w @ w > 2 * _LANCZOS_NCV * 2 * A.nnz:
        return _S_operator(fr)
    return fr.signal_grid.spacing * (A.T @ A.conj()).tocsr()


def _lanczos_extreme(op: LinearOperator, which: str,
                     v0: np.ndarray) -> float:
    """Largest (which="LA") or smallest (which="SA") eigenvalue of the
    Hermitian operator op, by ARPACK's restarted Lanczos with
    _LANCZOS_NCV Lanczos vectors (all of them when op is smaller), to
    _LANCZOS_TOL."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh
    try:
        vals = eigsh(op, k=1, which=which, tol=_LANCZOS_TOL, v0=v0,
                     ncv=min(_LANCZOS_NCV, op.shape[0]),
                     maxiter=_LANCZOS_MAX_ITER, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        partial = exc.eigenvalues
        raise IterationError(
            f"Lanczos ({which}) eigensolve did not converge",
            rayleigh=float(partial[0]) if len(partial) else None,
        ) from exc
    return float(vals[0])


def estimate_frame_bounds(fr: AlphaFrame):
    """(A_est, B_est): extreme Rayleigh quotients of the frame operator.

    Both by Lanczos from one seeded start vector, on the S of
    _S_bounds: assembled when the atom bands are narrow, else the
    product form.  B is the top of the frame operator's spectrum.  A is
    the bottom of the frame operator compressed to signals whose
    spectrum lies inside the covering's frequency range: out-of-band
    content is invisible to a truncated frame and would drive the raw
    minimum to zero.  So A is the in-band bound of the truncated system,
    which signals at the edges of the covering's rectangle set.  Raises
    ValueError when fewer than 3 DFT bins lie in that range.
    """
    n = fr.signal_grid.n
    # orthonormal basis of the in-band signals: the DFT bins inside the
    # covering's frequency range
    dual = fr.signal_grid.dual()
    f0, f1 = fr.covering.freq_range
    idx = np.nonzero((dual.coords >= f0) & (dual.coords <= f1))[0]
    if idx.size < 3:  # ARPACK needs dimension 3 or more
        raise ValueError(
            f"frame bounds need at least 3 in-band DFT bins; the grid has "
            f"n={n} samples and {idx.size} in-band bins")
    rng = np.random.default_rng(_LANCZOS_SEED)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    from scipy.sparse.linalg import LinearOperator, aslinearoperator
    S = aslinearoperator(_S_bounds(fr))
    B_est = _lanczos_extreme(S, "LA", v0)

    root_n = math.sqrt(n)

    def embed(z: np.ndarray) -> np.ndarray:
        Z = np.zeros(n, dtype=complex)
        Z[idx] = z
        return np.fft.ifft(np.fft.ifftshift(Z)) * root_n

    def compress(w: np.ndarray) -> np.ndarray:
        return np.fft.fftshift(np.fft.fft(w))[idx] / root_n

    # E^H S E: S compressed to the in-band signals
    E = LinearOperator((n, idx.size), dtype=complex, matvec=embed,
                       rmatvec=compress)
    A_est = _lanczos_extreme(E.H @ S @ E, "SA", E.H @ v0)
    return A_est, B_est


@dataclass(frozen=True)
class ReconstructionResult:
    f_rec: Signal
    iters: int
    residual: float   # ||b - S f_rec|| / ||b|| with b = S f
    error: float      # ||f_rec - f|| / ||f||


def reconstruct(f: Signal, fr: AlphaFrame,
                tol: float = 1e-8) -> ReconstructionResult:
    """f_rec = S^{-1} S f by scipy's conjugate gradient on the frame
    operator, stopped at relative residual tol; IterationError when it
    takes _CG_MAX_ITER iterations without getting there, at the first
    iterate that is not finite, or when the true residual of the result
    is above tol (both from a tol below the attainable accuracy).

    The residual checks S f_rec = S f only.  f_rec lies in the atoms'
    span, and a part of f outside it, which every atom misses, passes
    that check and is missing from f_rec: the result's error, not its
    residual, tells whether f_rec is f."""
    if not f.grid.isclose(fr.signal_grid):
        raise GridMismatchError("signal grid differs from the frame grid")
    from scipy.sparse.linalg import cg
    S = _S_operator(fr)
    b = S @ f.values
    iters = 0

    def count(xk):
        nonlocal iters
        iters += 1
        if not np.all(np.isfinite(xk)):
            raise IterationError(
                f"CG iterate {iters} is not finite (cap of {_CG_MAX_ITER} "
                f"iterations): relative residual nan, not <= {tol:g}")

    # a recursive residual that reaches 0 overflows cg's step ratios;
    # the iterate check above reports that step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, info = cg(S, b, rtol=tol, atol=0.0, maxiter=_CG_MAX_ITER,
                     callback=count)
    b_norm = np.linalg.norm(b)
    residual = (float(np.linalg.norm(b - S @ x) / b_norm) if b_norm > 0
                else 0.0)
    if info > 0 or not residual <= tol:
        # cg stops on its recursively updated residual, which can fall
        # below tol while the true one stays at rounding level
        raise IterationError(
            f"CG stopped after {iters} iterations (cap of {_CG_MAX_ITER} "
            f"iterations) with relative residual {residual:.3e}, not <= "
            f"{tol:g}")
    f_rec = Signal(fr.signal_grid, x)
    fn = f.norm()
    error = (f_rec - f).norm() / fn if fn > 0 else 0.0
    return ReconstructionResult(f_rec, iters, residual, error)
