"""Voice transform of a chirp at several alpha values.

alpha interpolates the analysis geometry: 0 gives uniform (Gabor) boxes,
values near 1 squeeze the bandwidth at high frequency like a wavelet
transform.  The script writes magnitude CSVs you can plot with anything
that reads a matrix.
"""

import numpy as np

from alphamod import (admissibility_scan, check_reproducing, coorbit_norm,
                      gaussian_window, voice_transform)
from alphamod.grids import SampledGrid, Signal

grid = SampledGrid.centered(512, 1.0 / 32.0)
t = grid.coords
# quadratic chirp sweeping from about 1 Hz to 9 Hz
f = Signal(grid, np.exp(-np.pi * (t / 3.0) ** 2)
           * np.exp(2j * np.pi * (5.0 * t + 0.25 * t**3 / 3.0)))

w = gaussian_window()
x_grid = SampledGrid.centered(129, 0.125)
w_grid = SampledGrid.centered(97, 0.25)

for alpha in (0.0, 0.5, 0.8):
    vm = voice_transform(f, w, alpha, x_grid, w_grid)
    vm.save_magnitude_csv(f"voice_alpha_{alpha:.1f}.csv")
    peak = np.unravel_index(np.argmax(np.abs(vm.values)), vm.values.shape)
    print(f"alpha={alpha:3.1f}  ||V f|| = {vm.norm():.4f}  peak at "
          f"(x={x_grid.coords[peak[1]]:+.2f}, "
          f"w={w_grid.coords[peak[0]]:+.2f})")

# reproducing identity: V f is reproduced by its own kernel integral
tab = admissibility_scan(w, 0.5, xi_max=60, n_nodes=601)
res = check_reproducing(f, w, 0.5, tab, x_grid, w_grid)
print(f"\nreproducing identity residual (alpha=0.5): {res:.2e}")

for s in (0.0, 1.0, 2.0):
    val = coorbit_norm(f, w, 0.5, tab, 2.0, s, x_grid, w_grid)
    print(f"coorbit norm p=2, s={s:3.1f}: {val:.4f}")
