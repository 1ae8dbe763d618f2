"""Discrete frame analysis and conjugate-gradient reconstruction.

Sampling the voice transform on the adaptive covering's nodes gives a
frame; the frame operator S is inverted iteratively to reconstruct the
signal from its coefficients.  Denser coverings (smaller eps) give
snugger bounds and faster CG convergence.
"""

import time

import numpy as np

from alphamod import (admissibility_scan, build_covering,
                      covering_diagnostics, gaussian_window)
from alphamod.frames import (AlphaFrame, analysis, estimate_frame_bounds,
                             reconstruct)
from alphamod.grids import SampledGrid, Signal

# grid spans the covered times (-8, 8): anything the covering cannot see
# would otherwise show up as a zero lower bound.  Its Nyquist frequency,
# 32, lies past every row's band |w_j| + 2 eps c / beta_j (23 at eps 1),
# so no row aliases onto another, and eps^2 B nears max m_psi as eps
# shrinks.
grid = SampledGrid.centered(1024, 1.0 / 64.0)
t = grid.coords
f = Signal(grid, np.exp(-np.pi * (t / 2.5) ** 2)
           * np.exp(2j * np.pi * (0.5 * t + 0.35 * t**2)))
w = gaussian_window()
alpha = 0.5
m_max = admissibility_scan(w, alpha).B
print(f"max m_psi = {m_max:.4f}")

for eps in (1.0, 0.5, 0.25):
    cov = build_covering(alpha, eps, 1.0, (-8.0, 8.0), (-8.0, 8.0))
    assert np.max(np.abs(cov.omegas) + cov.halves) < 0.5 / grid.spacing
    fr = AlphaFrame(cov, w, grid)
    t0 = time.time()
    A, B = estimate_frame_bounds(fr)
    diag = covering_diagnostics(cov)
    if A < 1e-8 * B:
        # covering too sparse: the lower bound collapses and no stable
        # reconstruction exists
        print(f"eps={eps:5.2f}  atoms={fr.n_atoms:6d}  "
              f"A={A:8.1e}  B={B:8.4f}  not a frame, skipping "
              f"reconstruction  ({time.time() - t0:.1f}s)")
        continue
    res = reconstruct(f, fr)
    # CG's residual test, S f_rec = S f, holds once f_rec is the part of
    # f inside the atoms' span.  The analysis of an error has at most
    # sqrt(B) times its norm; an error whose analysis has under 1e-3 of
    # that is nearly orthogonal to every atom: f leaves the span
    miss = f - res.f_rec
    seen = (np.linalg.norm(analysis(miss, fr).values)
            / (np.sqrt(B) * miss.norm()))
    note = "  frame does not span f on this grid" if seen < 1e-3 else ""
    print(f"eps={eps:5.2f}  atoms={fr.n_atoms:6d}  "
          f"A={A:8.4f}  B={B:8.4f}  eps^2 B={eps**2 * B:6.4f}  "
          f"B/A={B / A:6.3f}  "
          f"CG iters={res.iters:3d}  rel err={res.error:.2e}{note}  "
          f"overlap={diag.max_overlap}  ({time.time() - t0:.1f}s)")

# coefficient magnitudes concentrate along the chirp ridge
cov = build_covering(alpha, 0.25, 1.0, (-8.0, 8.0), (-8.0, 8.0))
fr = AlphaFrame(cov, w, grid)
coeffs = analysis(f, fr)
nodes = fr.nodes()
top = np.argsort(np.abs(coeffs.values))[-5:][::-1]
print("\nlargest coefficients (x, w, |c|):")
for i in top:
    print(f"  x={nodes[i, 2]:+6.2f}  w={nodes[i, 3]:+6.2f}  "
          f"|c|={np.abs(coeffs.values[i]):.4f}")
# instantaneous frequency of the chirp at time x is 0.5 + 0.7 x
