"""Scan several windows for admissibility at a few values of alpha.

The analysis operator is a Fourier multiplier with symbol m(xi); a
window is usable when m stays pinched between positive constants A and
B.  At alpha = 0 the symbol is exactly the window energy, and it always
returns to that value at high frequency.
"""

import time

import numpy as np

from alphamod import (Purpose, admissibility_scan, bspline_window,
                      bump_window, check_hypotheses, gaussian_window,
                      symbol_m)

windows = [
    ("gaussian", gaussian_window()),
    ("bspline(2)", bspline_window(2)),
    ("bspline(4)", bspline_window(4)),
    ("bump(1.0)", bump_window(1.0)),
]

for name, w in windows:
    print(f"\n{name}  (||psi||^2 = {w.l2_norm**2:.6f})")
    for alpha in (0.0, 0.5, 0.9):
        verdict = check_hypotheses(w, alpha, 0.0, Purpose.ADMISSIBILITY)
        if not verdict.passed:
            # too little decay makes the symbol integral diverge
            print(f"  alpha={alpha:3.1f}  decay hypothesis fails "
                  f"(needs r > {verdict.required_r:.2f}, window certifies "
                  f"{verdict.certified_r:.2f}), scan skipped")
            continue
        t0 = time.time()
        tab = admissibility_scan(w, alpha, xi_max=60.0, n_nodes=601)
        print(f"  alpha={alpha:3.1f}  A={tab.A:.6f}  B={tab.B:.6f}  "
              f"ratio={tab.B / tab.A:6.3f}  admissible={tab.admissible}  "
              f"({time.time() - t0:.1f}s)")

# the symbol flattens onto the window energy as xi grows
w = bspline_window(4)
print("\nbspline(4), alpha=0.5: m(xi) vs the limit")
for xi in (0.0, 1.0, 3.0, 8.0, 20.0):
    m = symbol_m(w, 0.5, xi)
    print(f"  xi={xi:5.1f}  m={m:.8f}  gap={m - w.l2_norm**2:+.2e}")
