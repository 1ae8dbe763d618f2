import numpy as np
import pytest

from alphamod import admissibility_scan, gaussian_window
from alphamod.grids import SampledGrid, Signal
from alphamod.symbol import beta


def dense_atom_rows(w, alpha, omega, xs, grid):
    """A[m, k] = a_{x_m, omega}(t_k) for one frequency row, from the atom
    formula on every sample of the grid: the dense oracle of the banded
    atom matrix (transform._band_matrix)."""
    b = beta(omega, alpha)
    u = grid.coords[None, :] - np.asarray(xs)[:, None]
    prof = w.time((u / b).ravel()).reshape(u.shape)
    return np.exp(2j * np.pi * omega * u) * prof / np.sqrt(b)


def _box_table(cov):
    """(j, k, x_lo, x_hi, w_lo, w_hi) of every box U_{j,k} =
    eps*b*(k-1, k+1) x (w_j -+ 2*eps*c/b), b = beta(w_j), one row per box
    in row-major (j, k) order: the box oracle, from the covering's row
    table (j, w_j, k range) alone.  A row with k_lo > k_hi has no box."""
    ks = [np.arange(k0, k1 + 1) for k0, k1 in zip(cov.k_lo, cov.k_hi)]
    r = np.repeat(np.arange(cov.js.size), [k.size for k in ks])
    k = np.concatenate(ks).astype(float)
    b = beta(cov.omegas, cov.alpha)[r]
    step, w, h = cov.eps * b, cov.omegas[r], 2.0 * cov.eps * cov.c / b
    return np.column_stack([cov.js[r], k, step * (k - 1), step * (k + 1),
                            w - h, w + h])


@pytest.fixture(scope="session")
def gauss():
    return gaussian_window()


@pytest.fixture(scope="session")
def gauss_tab(gauss):
    """Shared symbol table for the Gaussian at alpha = 0.5.

    xi_max 80 is plenty: the Gaussian symbol settles onto its tail value
    well before that, and the table extends past xi_max by the constant
    tail anyway.
    """
    return admissibility_scan(gauss, 0.5, xi_max=80, n_nodes=801)


@pytest.fixture()
def chirp_grid():
    return SampledGrid.centered(256, 1.0 / 16.0)


@pytest.fixture()
def chirp(chirp_grid):
    t = chirp_grid.coords
    v = np.exp(-np.pi * (t / 2.5) ** 2) * np.exp(
        2j * np.pi * (0.5 * t + 0.35 * t**2))
    return Signal(chirp_grid, v)
