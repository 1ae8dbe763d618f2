"""Frequency-adaptive box covering of the time-frequency plane.

Frequency nodes w_j = p_alpha(eps*j) follow the warp of symbol (which
integrates m_psi over it), whose local spacing matches the bandwidth
rule beta(w) = (1+|w|)^(-alpha); time nodes are spaced eps*beta(w_j)
inside each frequency row.  Every box

    U_{j,k} = eps*beta(w_j)*(k-1, k+1) x (w_j - 2*eps*c/beta(w_j),
                                           w_j + 2*eps*c/beta(w_j))

has area exactly 8*eps^2*c.  A covering is the table of the rows that
meet a rectangle, one row (j, w_j, k range) per frequency node, held as
arrays sorted by j; every routine here reads that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Weight, _write_csv
from .symbol import beta, p_alpha, p_alpha_inv, _check_alpha


class CoveringGapError(ValueError):
    """The requested (eps, c) leaves uncovered points in the region."""


class UncoveredPointError(ValueError):
    """Point lies outside every box of the covering."""


@dataclass(frozen=True)
class Box:
    j: int
    k: int
    x_lo: float
    x_hi: float
    w_lo: float
    w_hi: float

    @property
    def area(self) -> float:
        return (self.x_hi - self.x_lo) * (self.w_hi - self.w_lo)

    def contains(self, x: float, omega: float) -> bool:
        return (self.x_lo < x < self.x_hi) and (self.w_lo < omega < self.w_hi)


@dataclass(eq=False)
class AlphaCovering:
    """The boxes U_{j,k} meeting a rectangle, as a table of rows.

    Row r holds the frequency index js[r], the node omegas[r] =
    p_alpha(eps * js[r]) and the k-range [k_lo[r], k_hi[r]] of its
    boxes.  Rows are sorted by j, and j need not be consecutive: a
    middle row can miss the rectangle when the bands are wide.  betas,
    halves (half the frequency width 2*eps*c/beta) and n_boxes are
    derived from the table.
    """

    alpha: float
    eps: float
    c: float
    time_range: tuple[float, float]
    freq_range: tuple[float, float]
    js: np.ndarray
    omegas: np.ndarray
    k_lo: np.ndarray
    k_hi: np.ndarray
    betas: np.ndarray = field(init=False)
    halves: np.ndarray = field(init=False)
    n_boxes: int = field(init=False)

    def __post_init__(self):
        self.betas = beta(self.omegas, self.alpha)
        self.halves = 2.0 * self.eps * self.c / self.betas
        self.n_boxes = int(np.sum(self.k_hi - self.k_lo + 1))

    def row(self, j: int) -> int:
        """Index of row j in the table; KeyError when j is not a row."""
        r = int(np.searchsorted(self.js, j))
        if r == self.js.size or self.js[r] != j:
            raise KeyError(j)
        return r

    def x_node(self, j: int, k: int) -> float:
        return float(self.eps * self.betas[self.row(j)] * k)

    def box(self, j: int, k: int) -> Box:
        r = self.row(j)
        w, h, step = self.omegas[r], self.halves[r], self.eps * self.betas[r]
        return Box(j, k, step * (k - 1), step * (k + 1), w - h, w + h)

    def boxes(self):
        for j, k0, k1 in zip(self.js, self.k_lo, self.k_hi):
            for k in range(k0, k1 + 1):
                yield self.box(int(j), k)

    def _box_index(self):
        """Row index r and k (as floats) of every box, in row-major (j, k)
        order."""
        counts = self.k_hi - self.k_lo + 1
        r = np.repeat(np.arange(self.js.size), counts)
        first = np.cumsum(counts) - counts
        ks = np.arange(self.n_boxes) - first[r] + self.k_lo[r]
        return r, ks.astype(float)

    def nodes(self):
        """Array of (j, k, x_{j,k}, w_j) rows in row-major (j, k) order."""
        r, ks = self._box_index()
        return np.column_stack([self.js[r], ks, self.eps * self.betas[r] * ks,
                                self.omegas[r]])

    def save_csv(self, path):
        r, ks = self._box_index()
        step, w, h = self.eps * self.betas[r], self.omegas[r], self.halves[r]
        rows = np.column_stack([self.js[r], ks, step * ks, w, step * (ks - 1),
                                step * (ks + 1), w - h, w + h])
        _write_csv(path, rows, "j,k,x,omega,x_lo,x_hi,w_lo,w_hi")


@dataclass(frozen=True)
class CoveringDiagnostics:
    max_overlap: int
    covers_region: bool
    moderate: bool
    C_w: float


def build_covering(alpha: float, eps: float, c: float,
                   time_range: tuple[float, float],
                   freq_range: tuple[float, float],
                   validate: bool = True) -> AlphaCovering:
    """All boxes meeting the rectangle; boxes straddling an edge are kept
    whole.  With validate=True a probe scan rejects (eps, c) pairs whose
    boxes leave gaps in the rectangle."""
    _check_alpha(alpha)
    if eps <= 0 or c <= 0:
        raise ValueError(f"eps and c must be positive, got eps={eps}, c={c}")
    t0, t1 = map(float, time_range)
    f0, f1 = map(float, freq_range)
    if not (t1 > t0 and f1 > f0):
        raise ValueError("time_range and freq_range must be increasing pairs")

    # a box at node w_j reaches 2*eps*c/beta(w_j) in frequency; invert the
    # node map with that slack to bracket the contributing j values
    slack = 2.0 * eps * c
    j_lo = math.floor(p_alpha_inv(f0 - slack / beta(f0, alpha), alpha) / eps) - 1
    j_hi = math.ceil(p_alpha_inv(f1 + slack / beta(f1, alpha), alpha) / eps) + 1

    js = np.arange(j_lo, j_hi + 1)
    omegas = p_alpha(eps * js, alpha)
    betas = beta(omegas, alpha)
    keep = (omegas + slack / betas > f0) & (omegas - slack / betas < f1)
    if not keep.any():
        raise ValueError("no boxes intersect the requested rectangle")
    js, omegas = js[keep], omegas[keep]
    # x-interval of box k is eps*b*(k-1, k+1): one box of slack per side.
    # An end within 4 ulp of a box edge is put on it, so that exact ties
    # (rational beta) do not hinge on the last bit of beta
    q = np.array([t0, t1])[:, None] / (eps * betas[keep])
    edge = np.rint(q)
    q = np.where(abs(q - edge) <= 4 * np.spacing(abs(edge)), edge, q)
    k_lo = np.floor(q[0]).astype(np.int64) - 1
    k_hi = np.ceil(q[1]).astype(np.int64) + 1
    cov = AlphaCovering(alpha, eps, c, (t0, t1), (f0, f1), js, omegas,
                        k_lo, k_hi)
    if validate and not _probe_covers(cov):
        raise CoveringGapError(
            f"eps={eps}, c={c} leaves gaps in the covering; increase c or "
            f"decrease eps"
        )
    return cov


def _probe_covers(cov: AlphaCovering, density: int = 20) -> bool:
    """Dense probe of the rectangle; True when every point lies in a box.

    Row r covers the probe times x with rint(x / (eps * b_r)) in its
    k-range; that index is nondecreasing in x, so the covered times form
    one run [a_r, e_r) of the sorted probes.  Likewise the probe
    frequencies inside row r's band form one run [start_r, stop_r).  The
    set of rows over a frequency changes only at the ends of these runs,
    so each piece between consecutive ends is checked once: the runs of
    its rows, sorted by a_r, must chain from 0 to nx without a gap.
    """
    t0, t1 = cov.time_range
    f0, f1 = cov.freq_range
    ws, bs, halves = cov.omegas, cov.betas, cov.halves
    # probe spacing follows the finest box dimensions present
    nw = max(64, int(density * (f1 - f0) / (2.0 * halves.min())))
    nx = max(64, int(density * (t1 - t0) / (2.0 * cov.eps * bs.min())))
    nx = min(nx, 20000)
    nw = min(nw, 20000)
    xs = np.linspace(t0, t1, nx)
    fs = np.linspace(f0, f1, nw)
    k = np.rint(xs[None, :] / (cov.eps * bs[:, None]))
    a = np.sum(k < cov.k_lo[:, None], axis=1)
    e = np.sum(k <= cov.k_hi[:, None], axis=1)
    start = np.searchsorted(fs, ws - halves, side="right")
    stop = np.searchsorted(fs, ws + halves, side="left")
    pieces = np.unique(np.concatenate([[0], start, stop]))
    pieces = pieces[pieces < nw]
    order = np.argsort(a, kind="stable")
    a, e, start, stop = a[order], e[order], start[order], stop[order]
    on = (start <= pieces[:, None]) & (pieces[:, None] < stop)
    reach = np.maximum.accumulate(np.where(on, e, 0), axis=1)
    before = np.concatenate([np.zeros((pieces.size, 1), dtype=reach.dtype),
                             reach[:, :-1]], axis=1)
    return bool(np.all(~on | (a <= before)) and np.all(reach[:, -1] == nx))


def _max_overlap(cov: AlphaCovering) -> int:
    """sup over boxes of the number of boxes meeting it, by interval
    arithmetic on rows.

    The count is uniform in k away from the row ends, so each row i is
    probed at its interior and end boxes.  Box k' of row r meets the
    x-interval (x_lo, x_hi) of a probe when eps*b_r*(k'-1) < x_hi and
    eps*b_r*(k'+1) > x_lo; its candidates lie between floor(x_lo/step)
    and ceil(x_hi/step), and the strict comparisons are checked on them.
    """
    lo = cov.omegas - cov.halves
    hi = cov.omegas + cov.halves
    steps = cov.eps * cov.betas
    worst = 0
    for i in range(cov.js.size):
        rows = np.nonzero((lo < hi[i]) & (hi > lo[i]))[0]
        k0, k1 = cov.k_lo[i], cov.k_hi[i]
        probes = np.array([k0, k0 + 1, (k0 + k1) // 2, k1 - 1, k1])
        x_lo = (steps[i] * (probes - 1))[:, None, None]
        x_hi = (steps[i] * (probes + 1))[:, None, None]
        step = steps[rows][:, None]
        k_min = np.maximum(cov.k_lo[rows][:, None], np.floor(x_lo / step))
        k_max = np.minimum(cov.k_hi[rows][:, None], np.ceil(x_hi / step))
        width = max(int(np.max(k_max - k_min)) + 1, 0)
        kp = k_min + np.arange(width)
        meets = ((kp <= k_max) & (step * (kp - 1) < x_hi)
                 & (step * (kp + 1) > x_lo))
        worst = max(worst, int(meets.sum(axis=(1, 2)).max()))
    return worst


def mutual_weight_bound(cov: AlphaCovering, s: float) -> float:
    """C_w = max over boxes of the extreme ratio of (1+|w|)^s inside."""
    lo, hi = cov.omegas - cov.halves, cov.omegas + cov.halves
    # |w| extremes over each row's frequency interval
    near = np.where((lo < 0) & (hi > 0), 0.0, np.minimum(abs(lo), abs(hi)))
    far = np.maximum(abs(lo), abs(hi))
    # the weight ratio grows with (1+far)/(1+near): the widest row wins
    i = np.argmax((1.0 + far) / (1.0 + near))
    return max(1.0, float(Weight(s).mutual(near[i], far[i])))


def covering_diagnostics(cov: AlphaCovering,
                         s: float = 0.0) -> CoveringDiagnostics:
    if cov.n_boxes == 0:
        raise ValueError("empty covering")
    # every box of a row has the row's width 2*eps*b and height 2*half
    areas = (2.0 * cov.eps * cov.betas) * (2.0 * cov.halves)
    moderate = bool(np.allclose(areas, 8.0 * cov.eps**2 * cov.c,
                                rtol=1e-12) and areas.min() > 0)
    return CoveringDiagnostics(
        max_overlap=_max_overlap(cov),
        covers_region=_probe_covers(cov),
        moderate=moderate,
        C_w=mutual_weight_bound(cov, s),
    )


def _row_boxes(cov: AlphaCovering, t, omegas):
    """Boxes containing the points (t[m], omegas[i]), one covering row at
    a time.

    Yields (r, band, k, inside) for every row r (an index into the row
    table) whose frequency band meets omegas.  band marks the omegas
    inside the band; k has shape (len(t), 2) and holds the only
    two boxes of the row that can contain t[m], and inside marks those
    that do and lie in the row's k-range.
    """
    t = np.asarray(t, dtype=float)
    bands = np.abs(np.asarray(omegas, dtype=float)[None, :]
                   - cov.omegas[:, None]) < cov.halves[:, None]
    for r in np.nonzero(bands.any(axis=1))[0]:
        u = t / (cov.eps * cov.betas[r])
        k = np.floor(u)[:, None] + np.array([0.0, 1.0])
        inside = ((np.abs(u[:, None] - k) < 1.0)
                  & (k >= cov.k_lo[r]) & (k <= cov.k_hi[r]))
        yield r, bands[r], k, inside


def q_neighborhood(cov: AlphaCovering, point: tuple[float, float]):
    """Boxes containing the point and their union's bounding box.

    Returns (boxes, (x_lo, x_hi, w_lo, w_hi)).
    """
    x, omega = float(point[0]), float(point[1])
    hits = [cov.box(int(cov.js[r]), int(kk))
            for r, _, k, inside in _row_boxes(cov, [x], [omega])
            for kk in k[inside]]
    if not hits:
        raise UncoveredPointError(f"point ({x}, {omega}) is not covered")
    bbox = (min(b.x_lo for b in hits), max(b.x_hi for b in hits),
            min(b.w_lo for b in hits), max(b.w_hi for b in hits))
    return hits, bbox


def q_samples(cov: AlphaCovering, t, omegas, density: int):
    """Interior density x density samples of every box containing a
    point (t[m], omegas[i]), one covering row at a time.

    Yields (band, z_t, inside, z_w) for every row whose frequency band
    meets omegas: band marks the omegas inside the band, z_w holds the
    row's density sample frequencies, and z_t, of shape
    (len(t), 2 * density), the sample times of the two boxes of the row
    that can contain t[m]; inside marks the samples whose box contains
    t[m] and lies in the row's k-range.  Each box side is sampled at
    linspace(lo, hi, density + 2)[1:-1].
    """
    frac = np.arange(1, density + 1) / (density + 1)
    for r, band, k, inside in _row_boxes(cov, t, omegas):
        w, h = cov.omegas[r], cov.halves[r]
        # equal to linspace up to rounding; the rounding of this form is
        # kept because snapped sample times can sit on exact grid ties
        z_t = cov.eps * cov.betas[r] * (k[..., None] - 1.0 + 2.0 * frac)
        z_w = w - h + 2.0 * h * frac
        yield (band, z_t.reshape(len(k), -1),
               np.repeat(inside, density, axis=1), z_w)
