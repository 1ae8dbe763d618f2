"""Batched adaptive Gauss-Kronrod panel quadrature.

One call integrates a batch of integrals held as flat panel arrays; the
integrand gets flat arrays of abscissae and of the integral each belongs
to and returns an array of the same shape (real or complex).  Panels get
the 15-point Kronrod rule with its embedded 7-point Gauss rule (QUADPACK,
Piessens et al. 1983).  In every integral the panels with the largest
error estimates are bisected until its summed estimate drops below the
tolerance or it holds _MAX_PANELS panels.
"""

from __future__ import annotations

import numpy as np

# 15-point Kronrod rule with its embedded 7-point Gauss rule, to
# QUADPACK's 33 digits and in its layout (dqk15: halves from the outside
# in, the centre last): with 15 digits the rule is up to about 3e-15
# (relative) off, and the error estimate stops bounding the error.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_KRONROD_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS_WEIGHTS = np.zeros(15)
_GAUSS_WEIGHTS[1::2] = np.concatenate([_WG, _WG[-2::-1]])
_MAX_PANELS = 4000  # panels of one integral before QuadratureError


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message, value=None, error=None, index=None):
        super().__init__(message)
        self.value = value
        self.error = error
        self.index = index  # row of the batch that failed


def _eval_panels(f, ends: np.ndarray, owner: np.ndarray):
    """Kronrod estimates and error indicators for a batch of panels."""
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    mid = 0.5 * (ends[:, 1] + ends[:, 0])
    # abscissae: shape (n_panels, 15), flattened for one integrand call
    xs = mid[:, None] + half[:, None] * _KRONROD_NODES[None, :]
    fx = np.asarray(f(xs.ravel(), np.repeat(owner, 15))).reshape(xs.shape)
    # a panel's sums by row, so an integral's value is the same in any
    # batch (a BLAS product's rounding depends on the row)
    k15 = half * (fx * _KRONROD_WEIGHTS).sum(axis=1)
    g7 = half * (fx * _GAUSS_WEIGHTS).sum(axis=1)
    err = (200.0 * np.abs(k15 - g7)) ** 1.5
    return k15, err


def _sum_by(owner: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Per-integral sums of panel quantities."""
    out = np.zeros(n, dtype=x.dtype)
    np.add.at(out, owner, x)
    return out


def integrate(f, edges, tol: float):
    """Integrals of ``f`` over the rows of ``edges``, as one batch.

    ``edges`` holds one row of nondecreasing break points per integral:
    its limits and the critical points between them; panels of zero
    width are dropped.  ``f(x, i)`` gets flat arrays of abscissae and of
    their rows.  Each sweep bisects, in every integral whose summed
    error estimate is above ``tol``, its worst min(count // 2, 32,
    _MAX_PANELS - count) panels above tol / (4 count), and at least its
    worst one, so an integral gets the same panels in any batch.
    Returns arrays of values and error estimates; raises
    :class:`QuadratureError`, with ``index`` naming the row, when an
    integral is above ``tol`` with ``_MAX_PANELS`` panels.
    """
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    if np.any(np.diff(edges, axis=1) < 0):
        raise ValueError("break points of each integral must be nondecreasing")
    n = edges.shape[0]
    ends = np.stack([edges[:, :-1], edges[:, 1:]], axis=-1).reshape(-1, 2)
    owner = np.repeat(np.arange(n), edges.shape[1] - 1)
    keep = ends[:, 1] > ends[:, 0]
    ends, owner = ends[keep], owner[keep]
    vals, errs = _eval_panels(f, ends, owner)
    while True:
        count = np.bincount(owner, minlength=n)
        total = np.bincount(owner, errs, n)
        busy = total > tol
        if not busy.any():
            return _sum_by(owner, vals, n), total
        stuck = np.flatnonzero(busy & (count >= _MAX_PANELS))
        if stuck.size:
            i = stuck[0]
            raise QuadratureError(
                f"no convergence with {count[i]} panels: "
                f"error {total[i]:.3e} > tol {tol:.3e}",
                value=_sum_by(owner, vals, n)[i], error=total[i], index=i,
            )
        # the panels of each busy integral, worst first
        order = np.flatnonzero(busy[owner])
        order = order[np.lexsort((-errs[order], owner[order]))]
        own = owner[order]
        rank = np.arange(order.size) - np.searchsorted(own, own)
        n_split = np.maximum(1, np.minimum(np.minimum(count // 2, 32),
                                           _MAX_PANELS - count))
        split = order[(rank == 0) | ((rank < n_split[own])
                                     & (errs[order] > tol / (4 * count[own])))]
        mids = 0.5 * (ends[split, 0] + ends[split, 1])
        new_ends = np.column_stack([ends[split, 0], mids,
                                    mids, ends[split, 1]]).reshape(-1, 2)
        new_owner = np.repeat(owner[split], 2)
        new_vals, new_errs = _eval_panels(f, new_ends, new_owner)
        rest = np.bincount(split, minlength=owner.size) == 0
        ends = np.concatenate([ends[rest], new_ends])
        owner = np.concatenate([owner[rest], new_owner])
        vals = np.concatenate([vals[rest], new_vals])
        errs = np.concatenate([errs[rest], new_errs])
