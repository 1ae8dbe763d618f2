"""Adaptive Gauss-Kronrod panel quadrature with vectorized integrands.

The integrand is called with a flat numpy array of abscissae and must
return an array of the same shape (real or complex).  Panels carrying the
largest error estimates are bisected until the summed estimate drops
below the tolerance or the panel budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 15-point Kronrod nodes with the embedded 7-point Gauss weights.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the symbol / kernel integrals."""

    tol: float = 1e-8
    max_panels: int = 4000


def _eval_panels(f, lefts: np.ndarray, rights: np.ndarray):
    """Kronrod estimates and error indicators for a batch of panels."""
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    # abscissae: shape (n_panels, 15), flattened for one integrand call
    xs = mid[:, None] + half[:, None] * _KRONROD_NODES[None, :]
    fx = np.asarray(f(xs.ravel())).reshape(xs.shape)
    k15 = half * (fx @ _KRONROD_WEIGHTS)
    g7 = half * (fx @ _GAUSS_WEIGHTS)
    err = (200.0 * np.abs(k15 - g7)) ** 1.5
    return k15, err


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10,
                  points=(), max_panels: int = 4000):
    """Integrate ``f`` over [a, b], splitting panels where the error is worst.

    ``points`` lists interior break locations (critical points of the
    integrand); they become initial panel boundaries.  Returns
    ``(value, error_estimate)`` and raises :class:`QuadratureError` when the
    estimate stays above ``tol`` after ``max_panels`` panels.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    edges = sorted({a, b, *(p for p in points if a < p < b)})
    lefts = np.array(edges[:-1], dtype=float)
    rights = np.array(edges[1:], dtype=float)
    vals, errs = _eval_panels(f, lefts, rights)
    panels_l = list(lefts)
    panels_r = list(rights)
    panels_v = list(vals)
    panels_e = list(errs)

    while True:
        total_err = float(np.sum(panels_e))
        if total_err <= tol:
            break
        if len(panels_l) >= max_panels:
            value = complex(np.sum(panels_v))
            if abs(value.imag) == 0.0:
                value = value.real
            raise QuadratureError(
                f"no convergence with {len(panels_l)} panels: "
                f"error {total_err:.3e} > tol {tol:.3e}",
                value=value, error=total_err,
            )
        # split the worst panels in one vectorized batch
        n_split = max(1, min(len(panels_e) // 2, 32,
                             max_panels - len(panels_l)))
        order = np.argsort(panels_e)[::-1][:n_split]
        order = [int(i) for i in order if panels_e[i] > tol / (4 * len(panels_e))]
        if not order:
            order = [int(np.argmax(panels_e))]
        new_l, new_r = [], []
        for i in order:
            m = 0.5 * (panels_l[i] + panels_r[i])
            new_l.extend([panels_l[i], m])
            new_r.extend([m, panels_r[i]])
        vals, errs = _eval_panels(f, np.array(new_l), np.array(new_r))
        for j, i in enumerate(sorted(order, reverse=True)):
            del panels_l[i], panels_r[i], panels_v[i], panels_e[i]
        panels_l.extend(new_l)
        panels_r.extend(new_r)
        panels_v.extend(vals)
        panels_e.extend(errs)

    value = complex(np.sum(panels_v))
    if value.imag == 0.0:
        value = value.real
    return value, float(np.sum(panels_e))
