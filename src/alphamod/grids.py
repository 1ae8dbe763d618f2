"""Uniform sampled grids, signals, and the continuous-Fourier convention.

The Fourier transform used everywhere in this package is

    F(f)(xi) = int f(x) exp(-2*pi*i*xi*x) dx,

approximated by a Riemann sum on the signal grid.  Grids always carry
physical coordinates (spacing and origin); there is no implicit
unit-spacing assumption anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class GridMismatchError(ValueError):
    """Two signals (or a signal and an expected dual grid) disagree."""


@dataclass(frozen=True)
class SampledGrid:
    """Uniform 1-D grid: coordinates origin + k*spacing, k = 0..n-1."""

    n: int
    spacing: float
    origin: float
    _RTOL = 1e-9  # relative tolerance of isclose; not a field

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 samples, got n={self.n}")
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise ValueError(f"grid spacing must be finite and > 0, got {self.spacing}")
        if not math.isfinite(self.origin):
            raise ValueError("grid origin must be finite")

    @property
    def coords(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.n)

    def dual(self) -> "SampledGrid":
        """Frequency grid of the DFT on this grid, centered around 0."""
        dxi = 1.0 / (self.n * self.spacing)
        return SampledGrid(self.n, dxi, -(self.n // 2) * dxi)

    def isclose(self, other: "SampledGrid") -> bool:
        r = self._RTOL
        return (self.n == other.n
                and math.isclose(self.spacing, other.spacing, rel_tol=r)
                and abs(self.origin - other.origin)
                <= r * max(1.0, abs(self.origin)))

    @staticmethod
    def centered(n: int, spacing: float) -> "SampledGrid":
        return SampledGrid(n, spacing, -(n // 2) * spacing)

    def to_json(self) -> dict:
        """The JSON object {"n", "spacing", "origin"} that every file of
        the package stores a grid as."""
        return {"n": self.n, "spacing": self.spacing, "origin": self.origin}

    @staticmethod
    def from_json(meta, source) -> "SampledGrid":
        """Inverse of to_json; ValueError naming source (the file) and
        the key when meta is not such an object."""
        if not isinstance(meta, dict):
            raise ValueError(f"{source}: grid is not an object with keys "
                             f"n, spacing and origin")
        missing = [k for k in ("n", "spacing", "origin") if k not in meta]
        if missing:
            raise ValueError(f"{source}: grid lacks {', '.join(missing)}")
        if type(meta["n"]) is not int:  # int() would drop a fraction
            raise ValueError(f"{source}: grid n must be an integer, got "
                             f"{meta['n']!r}")
        try:
            return SampledGrid(meta["n"], float(meta["spacing"]),
                               float(meta["origin"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{source}: bad grid: {exc}") from None


@dataclass(frozen=True)
class Signal:
    """Complex samples on a :class:`SampledGrid`."""

    grid: SampledGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 or values.shape[0] != self.grid.n:
            raise ValueError(
                f"values must be 1-D of length {self.grid.n}, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("signal contains non-finite values")
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """L2 norm with the grid measure, sqrt(dt * sum |f|^2)."""
        return math.sqrt(self.grid.spacing) * float(np.linalg.norm(self.values))

    def __add__(self, other: "Signal") -> "Signal":
        _check_same_grid(self, other)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        _check_same_grid(self, other)
        return Signal(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Signal":
        return Signal(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Weight:
    """Polynomial frequency weight v_s(w) = (1 + |w|)^s."""

    s: float

    def __call__(self, omega) -> np.ndarray:
        return (1.0 + np.abs(omega)) ** self.s

    def mutual(self, omega, omega_star) -> np.ndarray:
        """w_s(w, w*) = max-ratio of v_s, equal to (ratio of 1+|.|)^{|s|}."""
        a = 1.0 + np.abs(omega)
        b = 1.0 + np.abs(omega_star)
        return np.maximum(a / b, b / a) ** abs(self.s)


def _check_same_grid(f: Signal, g: Signal):
    if not f.grid.isclose(g.grid):
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def forward_fourier(f: Signal) -> Signal:
    """Continuous Fourier transform by phase-corrected, scaled DFT.

    Output lives on ``f.grid.dual()``; values approximate
    dt * sum f(x_k) exp(-2*pi*i*xi*x_k).  The dual grid starts at
    -(n // 2) bins, so its origin's phase is the exact index shift
    fftshift; the time grid's origin gives the phase post.
    """
    dual = f.grid.dual()
    post = np.exp(-2j * np.pi * dual.coords * f.grid.origin)
    return Signal(dual, f.grid.spacing * post
                  * np.fft.fftshift(np.fft.fft(f.values)))


def inverse_fourier(F: Signal, time_grid: SampledGrid | None = None) -> Signal:
    """Exact inverse of :func:`forward_fourier` (convention exp(+2*pi*i*xi*x)).

    ``time_grid`` defaults to the centered grid dual to ``F.grid``; if given,
    it must be a grid whose dual matches ``F.grid``.
    """
    fgrid = F.grid
    n = fgrid.n
    dt = 1.0 / (n * fgrid.spacing)
    if time_grid is None:
        time_grid = SampledGrid.centered(n, dt)
    if not time_grid.dual().isclose(fgrid):
        raise GridMismatchError(
            f"frequency grid {fgrid} is not the dual of time grid {time_grid}"
        )
    unpost = np.exp(2j * np.pi * fgrid.coords * time_grid.origin)
    return Signal(time_grid,
                  np.fft.ifft(np.fft.ifftshift(F.values * unpost)) / dt)


def inner_product(f: Signal, g: Signal) -> complex:
    """<f, g> = dt * sum f(x_k) * conj(g(x_k)); conjugate-linear in g."""
    _check_same_grid(f, g)
    return complex(f.grid.spacing * np.vdot(g.values, f.values))


def _cyclic_reduction(a, b, c, r):
    """x, in place of r, with a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = r[..., i]
    (a[0] = c[-1] = 0, diagonally dominant): the odd rows, freed of their
    even neighbours, are a system of half the size, solved first."""
    n = b.size
    if n == 1:
        return r / b
    if n % 2 == 0:  # a last row x[n] = 0 gives every odd row two neighbours
        a, b, c = (np.append(v, e) for v, e in ((a, 0.0), (b, 1.0), (c, 0.0)))
        r = np.concatenate([r, np.zeros_like(r[..., :1])], axis=-1)
    lo, hi = a[1::2] / b[:-1:2], c[1::2] / b[2::2]
    r[..., 1::2] = _cyclic_reduction(
        -lo * a[:-1:2], b[1::2] - lo * c[:-1:2] - hi * a[2::2], -hi * c[2::2],
        r[..., 1::2] - lo * r[..., :-1:2] - hi * r[..., 2::2])
    r[..., 2::2] -= a[2::2] * r[..., 1::2]
    r[..., :-1:2] -= c[:-1:2] * r[..., 1::2]
    r[..., ::2] /= b[::2]
    return r[..., :n]


def cubic_spline(x, y):
    """The not-a-knot cubic spline through (x[i], y[i]) on n >= 3 uniform
    nodes, that scipy's CubicSpline builds (de Boor 1978): spline(xi,
    col=0) is column col of y (a 1-D y is one column) at points of
    [x[0], x[-1]], on the piece that floor finds.  Its slope system, less
    its two not-a-knot rows, is diagonally dominant and solved for all
    columns at once; only y and the slopes are kept."""
    x = np.asarray(x, dtype=float)
    n, h = x.size, np.diff(x)
    y = np.ascontiguousarray(np.reshape(y, (n, -1)).T, dtype=float)
    k = np.diff(y) / h  # chord slopes
    d0, d1 = h[0] + h[1], h[-1] + h[-2]
    # not-a-knot rows: h[1] s[0] + d0 s[1] = r0, d1 s[-2] + h[-2] s[-1] = r1
    r0 = ((h[0] + 2 * d0) * h[1] * k[:, 0] + h[0] ** 2 * k[:, 1]) / d0
    r1 = (h[-1] ** 2 * k[:, -2] + (2 * d1 + h[-1]) * h[-2] * k[:, -1]) / d1
    # rows 1..n-2: h[i] s[i-1] + 2 (h[i-1] + h[i]) s[i] + h[i-1] s[i+1]
    a, c = np.append(0.0, h[2:]), np.append(h[:-2], 0.0)
    b = 2.0 * (h[:-1] + h[1:])
    r = 3.0 * (h[1:] * k[:, :-1] + h[:-1] * k[:, 1:])
    b[0], r[:, 0] = b[0] - d0, r[:, 0] - r0
    b[-1], r[:, -1] = b[-1] - d1, r[:, -1] - r1
    if n == 3:  # both not-a-knot rows hold the parabola: its middle slope
        b[0], r[:, 0] = d0, h[1] * k[:, 0] + h[0] * k[:, 1]
    s = _cyclic_reduction(a, b, c, r)
    s = np.column_stack([(r0 - d0 * s[:, 0]) / h[1], s,
                         (r1 - d1 * s[:, -1]) / h[-2]])
    step = (x[-1] - x[0]) / (n - 1)

    def spline(xi, col=0):
        xi = np.asarray(xi, dtype=float)
        i = np.clip((xi - x[0]) / step, 0, n - 2).astype(np.intp)
        # the cubic on piece i, by the arithmetic of scipy's PPoly
        d, dx, y0 = xi - x[i], h[i], y[col, i]
        s0, s1 = s[col, i], s[col, i + 1]
        k = (y[col, i + 1] - y0) / dx
        t = (s0 + s1 - 2.0 * k) / dx
        return (y0 + s0 * d + ((k - s0) / dx - t) * (d * d)
                + t / dx * (d * d * d))

    return spline


def weighted_lp_norm(
    values: np.ndarray,
    x_grid: SampledGrid,
    omega_grid: SampledGrid,
    p: float,
    weight: Weight,
) -> float:
    """Quadrature approximation of the weighted L^p norm on an (x, w) grid.

    ``values[j, k]`` is F(x_k, w_j); the weight acts on the frequency
    coordinate only.  ``p = inf`` gives the weighted sup norm.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("empty grid")
    if values.shape != (omega_grid.n, x_grid.n):
        raise ValueError(
            f"values shape {values.shape} does not match grids "
            f"({omega_grid.n}, {x_grid.n})"
        )
    if not (p >= 1):
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    weighted = np.abs(values) * weight(omega_grid.coords)[:, None]
    if math.isinf(p):
        return float(weighted.max())
    cell = x_grid.spacing * omega_grid.spacing
    return float((cell * np.sum(weighted**p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Data files: little-endian float64 (complex values as (re, im) pairs)
# with a JSON sidecar; signals also as CSV with the same sidecar.


def _sidecar(path) -> Path:
    """The JSON file beside a data file: its name + ".json"."""
    return Path(str(path) + ".json")


def _write_sidecar(path, meta: dict):
    _sidecar(path).write_text(json.dumps(meta, allow_nan=False))


def _write_data(path, floats, meta: dict):
    """The package's binary data file: the array floats, in C order, as
    little-endian float64, and meta in its JSON sidecar."""
    np.asarray(floats, dtype="<f8").tofile(path)
    _write_sidecar(path, meta)


def _read_meta(path):
    """(sidecar path, its JSON); ValueError naming the sidecar when it
    is not JSON."""
    side = _sidecar(path)
    try:
        return side, json.loads(side.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{side} is not JSON: {exc}") from None


def _read_floats(path, count: int) -> np.ndarray:
    """The count float64 of a data file; ValueError naming the file
    unless it holds exactly 8 * count bytes."""
    size = Path(path).stat().st_size
    if size != 8 * count:
        raise ValueError(f"{path} holds {size} bytes, expected "
                         f"{8 * count} ({count} floats)")
    return np.fromfile(path, dtype="<f8")


def _read_grid(path) -> SampledGrid:
    side, meta = _read_meta(path)
    return SampledGrid.from_json(meta, side)


# Values per % in _write_csv, in whole rows.  A chunk's values are Python
# floats while its text is built, so the writer holds about 0.4 MiB at
# any file size.  Chunks of 256 to 1 024 six-column rows wrote analyze's
# 20 293-row coefficients.csv equally fast (55.5 ms); 4 096 rows and the
# whole file in one % were slower (57 and 60 ms).
_CSV_CHUNK_VALUES = 6144


def _write_csv(path, rows, header: str):
    """The package's CSV dialect: comma-separated %.17g, which reads back
    bit-exact, under a header line unless header is empty; a 1-D array
    is one column.  The bytes are np.savetxt's with that format, written
    by one % per chunk of whole rows (_CSV_CHUNK_VALUES values, or one
    row when a row is wider) rather than one per row."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    cols = rows.shape[1]
    step = max(1, _CSV_CHUNK_VALUES // max(cols, 1))
    line = ",".join(["%.17g"] * cols) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for lo in range(0, rows.shape[0], step):
            chunk = rows[lo:lo + step]
            fh.write(line * chunk.shape[0] % tuple(chunk.ravel().tolist()))


def save_signal_csv(f: Signal, path):
    """Two-column CSV (re, im) plus a JSON grid sidecar."""
    _write_csv(path, np.column_stack([f.values.real, f.values.imag]), "")
    _write_sidecar(path, f.grid.to_json())


def load_signal_csv(path) -> Signal:
    """Reads one-column (real) or two-column (re, im) CSV."""
    grid = _read_grid(path)
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] == 1:
        values = data[:, 0].astype(complex)
    elif data.shape[1] == 2:
        values = data[:, 0] + 1j * data[:, 1]
    else:
        raise ValueError(f"expected 1 or 2 CSV columns, got {data.shape[1]}")
    return Signal(grid, values)


def save_signal_raw(f: Signal, path):
    """Interleaved (re, im) pairs, JSON grid sidecar."""
    _write_data(path, np.column_stack([f.values.real, f.values.imag]),
                f.grid.to_json())


def load_signal_raw(path) -> Signal:
    grid = _read_grid(path)
    pairs = _read_floats(path, 2 * grid.n)
    return Signal(grid, pairs[0::2] + 1j * pairs[1::2])
