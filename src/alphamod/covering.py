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
from .symbol import beta, p_alpha, p_alpha_inv
from .windows import _check_alpha


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
                   freq_range: tuple[float, float]) -> AlphaCovering:
    """All boxes meeting the rectangle; boxes straddling an edge are kept
    whole.  Raises CoveringGapError, naming a point, when the boxes leave
    part of the rectangle uncovered."""
    _check_alpha(alpha)
    if not (0 < eps < math.inf and 0 < c < math.inf):
        raise ValueError(f"eps and c must be positive and finite, got "
                         f"eps={eps}, c={c}")
    t0, t1 = map(float, time_range)
    f0, f1 = map(float, freq_range)
    if not (-math.inf < t0 < t1 < math.inf and -math.inf < f0 < f1 < math.inf):
        raise ValueError(f"time_range and freq_range must be increasing "
                         f"pairs of finite numbers, got time_range="
                         f"{(t0, t1)}, freq_range={(f0, f1)}")

    # node w's band reaches slack*v^alpha from w, v = 1 + |w|.  Once
    # v^(1-alpha) >= 2*slack, i.e. |p_alpha_inv(w)| >= (2*slack - 1) /
    # (1 - alpha), its end nearer 0 moves away from 0 as |w| grows and is
    # at least |w|/2 - 1/2 from 0, so no row past |w| = 2|f| + 1 reaches f.
    # Inside this bracket band ends need not be monotone in j; keep is exact
    slack = 2.0 * eps * c

    def reach(f):
        y = max((2.0 * slack - 1.0) / (1.0 - alpha),
                p_alpha_inv(2.0 * abs(f) + 1.0, alpha))
        return math.ceil(y / eps)

    js = np.arange(-reach(f0), reach(f1) + 1)
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
    point = _uncovered_point(cov)
    if point is not None:
        raise CoveringGapError(f"eps={eps}, c={c} leaves the point {point} "
                               f"uncovered; increase c or decrease eps")
    return cov


def _uncovered_point(cov: AlphaCovering):
    """A point (t, omega) of the closed rectangle that no box contains, or
    None when the boxes cover it.

    Consecutive boxes of a row overlap, so row r covers the open time
    interval eps*b_r*(k_lo - 1, k_hi + 1) over its open band; a row with
    k_lo > k_hi covers nothing.  The rows over a frequency change only at
    band ends, so it is enough to check f0, f1, every band end between
    them and one frequency inside each piece between these.  There the
    intervals of the rows over it, sorted by start, must chain over
    [t0, t1]: with p the end of the chain so far (t0 at first), the next
    interval must start below p, or [p, its start] is uncovered.  A last
    interval starting at +inf asks the chain to pass t1.
    """
    t0, t1 = cov.time_range
    f0, f1 = cov.freq_range
    ends = np.concatenate([[f0, f1], cov.omegas - cov.halves,
                           cov.omegas + cov.halves])
    ends = np.unique(ends[(ends >= f0) & (ends <= f1)])
    fs = np.concatenate([ends, (ends[:-1] + ends[1:]) / 2])
    steps = cov.eps * cov.betas
    a, b = steps * (cov.k_lo - 1), steps * (cov.k_hi + 1)
    order = np.argsort(a, kind="stable")
    a, b = np.append(a[order], np.inf), b[order]
    on = ((np.abs(fs[:, None] - cov.omegas[order]) < cov.halves[order])
          & (cov.k_lo <= cov.k_hi)[order])
    chain = np.maximum.accumulate(
        np.column_stack([np.full(fs.size, t0), np.where(on, b, t0)]), axis=1)
    gap = (np.column_stack([on, np.ones(fs.size, dtype=bool)])
           & (a >= chain) & (chain <= t1))
    if not gap.any():
        return None
    m, i = np.argwhere(gap)[0]
    return float((chain[m, i] + min(a[i], t1)) / 2), float(fs[m])


def _max_overlap(cov: AlphaCovering) -> int:
    """sup over boxes of the number of boxes meeting it, itself included.

    Box k' of row r meets a box (x_lo, x_hi) of row i when the two rows'
    bands meet, eps*b_r*(k'-1) < x_hi and eps*b_r*(k'+1) > x_lo.  Both
    ends increase with k', so for every box of row i the count is the
    number of starts below x_hi less the number of ends at or below x_lo:
    two searchsorted calls per pair of rows whose bands meet.
    """
    lo, hi = cov.omegas - cov.halves, cov.omegas + cov.halves
    steps = cov.eps * cov.betas
    starts = [s * np.arange(k0 - 1, k1)
              for s, k0, k1 in zip(steps, cov.k_lo, cov.k_hi)]
    stops = [s * np.arange(k0 + 1, k1 + 2)
             for s, k0, k1 in zip(steps, cov.k_lo, cov.k_hi)]
    worst = 0
    for i in range(cov.js.size):
        count = np.zeros(starts[i].size, dtype=np.int64)
        for r in np.nonzero((lo < hi[i]) & (hi > lo[i]))[0]:
            count += (np.searchsorted(starts[r], stops[i])
                      - np.searchsorted(stops[r], starts[i], side="right"))
        worst = max(worst, int(count.max(initial=0)))
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
        covers_region=_uncovered_point(cov) is None,
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
