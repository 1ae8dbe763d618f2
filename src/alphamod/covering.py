"""Frequency-adaptive box covering of the time-frequency plane.

Frequency nodes w_j = p_alpha(eps*j) follow the warped progression whose
local spacing matches the bandwidth rule beta(w) = (1+|w|)^(-alpha);
time nodes are spaced eps*beta(w_j) inside each frequency row.  Every box

    U_{j,k} = eps*beta(w_j)*(k-1, k+1) x (w_j - 2*eps*c/beta(w_j),
                                           w_j + 2*eps*c/beta(w_j))

has area exactly 8*eps^2*c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Weight
from .symbol import beta, _check_alpha


class CoveringGapError(ValueError):
    """The requested (eps, c) leaves uncovered points in the region."""


class UncoveredPointError(ValueError):
    """Point lies outside every box of the covering."""


def p_alpha(omega, alpha: float):
    """Odd increasing bijection warping a uniform grid to the adaptive
    frequency nodes; p_alpha'(w) = 1/beta(p_alpha(w))."""
    _check_alpha(alpha)
    omega = np.asarray(omega, dtype=float)
    out = np.sign(omega) * ((1.0 + (1.0 - alpha) * np.abs(omega))
                            ** (1.0 / (1.0 - alpha)) - 1.0)
    return out if out.ndim else float(out)


def p_alpha_inv(y, alpha: float):
    _check_alpha(alpha)
    y = np.asarray(y, dtype=float)
    out = np.sign(y) * ((1.0 + np.abs(y)) ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
    return out if out.ndim else float(out)


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


@dataclass
class AlphaCovering:
    alpha: float
    eps: float
    c: float
    j_range: tuple[int, int]          # inclusive
    k_ranges: dict[int, tuple[int, int]]
    omega_nodes: dict[int, float]     # w_j = p_alpha(eps*j)
    time_range: tuple[float, float]
    freq_range: tuple[float, float]

    @property
    def n_boxes(self) -> int:
        return sum(k1 - k0 + 1 for k0, k1 in self.k_ranges.values())

    def x_node(self, j: int, k: int) -> float:
        return self.eps * beta(self.omega_nodes[j], self.alpha) * k

    def box(self, j: int, k: int) -> Box:
        w = self.omega_nodes[j]
        b = beta(w, self.alpha)
        half_w = 2.0 * self.eps * self.c / b
        return Box(j, k, self.eps * b * (k - 1), self.eps * b * (k + 1),
                   w - half_w, w + half_w)

    def boxes(self):
        for j in range(self.j_range[0], self.j_range[1] + 1):
            k0, k1 = self.k_ranges[j]
            for k in range(k0, k1 + 1):
                yield self.box(j, k)

    def nodes(self):
        """Array of (j, k, x_{j,k}, w_j) rows in row-major (j, k) order."""
        rows = []
        for j in range(self.j_range[0], self.j_range[1] + 1):
            w = self.omega_nodes[j]
            b = beta(w, self.alpha)
            k0, k1 = self.k_ranges[j]
            ks = np.arange(k0, k1 + 1)
            rows.append(np.column_stack([
                np.full(ks.size, j, dtype=float), ks.astype(float),
                self.eps * b * ks, np.full(ks.size, w),
            ]))
        return np.vstack(rows)

    def save_csv(self, path):
        rows = []
        for box in self.boxes():
            rows.append([box.j, box.k, self.x_node(box.j, box.k),
                         self.omega_nodes[box.j],
                         box.x_lo, box.x_hi, box.w_lo, box.w_hi])
        np.savetxt(path, np.asarray(rows), delimiter=",", fmt="%.17g",
                   header="j,k,x,omega,x_lo,x_hi,w_lo,w_hi", comments="")


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

    omega_nodes: dict[int, float] = {}
    k_ranges: dict[int, tuple[int, int]] = {}
    js: list[int] = []
    for j in range(j_lo, j_hi + 1):
        w = p_alpha(eps * j, alpha)
        b = beta(w, alpha)
        half_w = 2.0 * eps * c / b
        if w + half_w <= f0 or w - half_w >= f1:
            continue
        # x-interval of box k is eps*b*(k-1, k+1): one box of slack per side
        k0 = math.floor(t0 / (eps * b)) - 1
        k1 = math.ceil(t1 / (eps * b)) + 1
        js.append(j)
        omega_nodes[j] = w
        k_ranges[j] = (k0, k1)
    if not js:
        raise ValueError("no boxes intersect the requested rectangle")

    cov = AlphaCovering(alpha, eps, c, (min(js), max(js)), k_ranges,
                        omega_nodes, (t0, t1), (f0, f1))
    if validate and not _probe_covers(cov, density=20):
        raise CoveringGapError(
            f"eps={eps}, c={c} leaves gaps in the covering; increase c or "
            f"decrease eps"
        )
    return cov


def _row_arrays(cov: AlphaCovering):
    """Per-row (j, w_j, beta, half frequency width, k_lo, k_hi), sorted
    by w_j."""
    js = np.arange(cov.j_range[0], cov.j_range[1] + 1)
    ws = np.array([cov.omega_nodes[j] for j in js])
    bs = beta(ws, cov.alpha)
    halves = 2.0 * cov.eps * cov.c / bs
    klo = np.array([cov.k_ranges[j][0] for j in js])
    khi = np.array([cov.k_ranges[j][1] for j in js])
    return js, ws, bs, halves, klo, khi


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
    js, ws, bs, halves, klo, khi = _row_arrays(cov)
    # probe spacing follows the finest box dimensions present
    nw = max(64, int(density * (f1 - f0) / (2.0 * halves.min())))
    nx = max(64, int(density * (t1 - t0) / (2.0 * cov.eps * bs.min())))
    nx = min(nx, 20000)
    nw = min(nw, 20000)
    xs = np.linspace(t0, t1, nx)
    fs = np.linspace(f0, f1, nw)
    k = np.rint(xs[None, :] / (cov.eps * bs[:, None]))
    a = np.sum(k < klo[:, None], axis=1)
    e = np.sum(k <= khi[:, None], axis=1)
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
    arithmetic on rows."""
    js, ws, bs, halves, klo, khi = _row_arrays(cov)
    lo = ws - halves
    hi = ws + halves
    worst = 0
    for i in range(js.size):
        rows = np.nonzero((lo < hi[i]) & (hi > lo[i]))[0]
        # count, over k in row i, boxes of each overlapping row that meet
        # the x-interval eps*bs[i]*(k-1, k+1); uniform in k away from the
        # row ends, so probing interior + end boxes suffices
        k0, k1 = klo[i], khi[i]
        probes = {k0, k0 + 1, (k0 + k1) // 2, k1 - 1, k1}
        for k in probes:
            x_lo = cov.eps * bs[i] * (k - 1)
            x_hi = cov.eps * bs[i] * (k + 1)
            count = 0
            for r in rows:
                # k' with eps*b_r*(k'-1) < x_hi and eps*b_r*(k'+1) > x_lo
                k_min = max(klo[r], math.floor(x_lo / (cov.eps * bs[r])))
                k_max = min(khi[r], math.ceil(x_hi / (cov.eps * bs[r])))
                for kp in range(k_min, k_max + 1):
                    if (cov.eps * bs[r] * (kp - 1) < x_hi
                            and cov.eps * bs[r] * (kp + 1) > x_lo):
                        count += 1
            worst = max(worst, count)
    return worst


def mutual_weight_bound(cov: AlphaCovering, s: float) -> float:
    """C_w = max over boxes of the extreme ratio of (1+|w|)^s inside."""
    weight = Weight(s)
    js, ws, bs, halves, klo, khi = _row_arrays(cov)
    worst = 1.0
    for w, h in zip(ws, halves):
        w_lo, w_hi = w - h, w + h
        # |w| extremes over the box frequency interval
        cands = [abs(w_lo), abs(w_hi)]
        if w_lo < 0 < w_hi:
            cands.append(0.0)
        worst = max(worst, float(weight.mutual(min(cands), max(cands))))
    return worst


def covering_diagnostics(cov: AlphaCovering, s: float = 0.0,
                         probe_density: int = 20) -> CoveringDiagnostics:
    if probe_density < 10:
        raise ValueError("probe_density must be at least 10 per box side")
    if cov.n_boxes == 0:
        raise ValueError("empty covering")
    areas = np.array([b.area for b in cov.boxes()])
    moderate = bool(np.allclose(areas, 8.0 * cov.eps**2 * cov.c,
                                rtol=1e-12) and areas.min() > 0)
    return CoveringDiagnostics(
        max_overlap=_max_overlap(cov),
        covers_region=_probe_covers(cov, probe_density),
        moderate=moderate,
        C_w=mutual_weight_bound(cov, s),
    )


def _row_boxes(cov: AlphaCovering, t, omegas):
    """Boxes containing the points (t[m], omegas[i]), one covering row at
    a time.

    Yields (r, band, k, inside) for every row r (an index into
    _row_arrays) whose frequency band meets omegas.  band marks the
    omegas inside the band; k has shape (len(t), 2) and holds the only
    two boxes of the row that can contain t[m], and inside marks those
    that do and lie in the row's k-range.
    """
    js, ws, bs, halves, klo, khi = _row_arrays(cov)
    t = np.asarray(t, dtype=float)
    bands = np.abs(np.asarray(omegas, dtype=float)[None, :]
                   - ws[:, None]) < halves[:, None]
    for r in np.nonzero(bands.any(axis=1))[0]:
        u = t / (cov.eps * bs[r])
        k = np.floor(u)[:, None] + np.array([0.0, 1.0])
        inside = ((np.abs(u[:, None] - k) < 1.0)
                  & (k >= klo[r]) & (k <= khi[r]))
        yield r, bands[r], k, inside


def q_neighborhood(cov: AlphaCovering, point: tuple[float, float]):
    """Boxes containing the point and their union's bounding box.

    Returns (boxes, (x_lo, x_hi, w_lo, w_hi)).
    """
    x, omega = float(point[0]), float(point[1])
    js = _row_arrays(cov)[0]
    hits = [cov.box(int(js[r]), int(kk))
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
    js, ws, bs, halves, klo, khi = _row_arrays(cov)
    frac = np.arange(1, density + 1) / (density + 1)
    for r, band, k, inside in _row_boxes(cov, t, omegas):
        # equal to linspace up to rounding; the rounding of this form is
        # kept because snapped sample times can sit on exact grid ties
        z_t = cov.eps * bs[r] * (k[..., None] - 1.0 + 2.0 * frac)
        z_w = ws[r] - halves[r] + 2.0 * halves[r] * frac
        yield (band, z_t.reshape(len(k), -1),
               np.repeat(inside, density, axis=1), z_w)
