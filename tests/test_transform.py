import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_atom_rows

import alphamod.transform as transform
from alphamod.covering import build_covering
from alphamod.grids import SampledGrid, Signal, inner_product
from alphamod.symbol import NotAdmissibleError, beta
from alphamod.transform import (MassCaptureError, SupportSpillWarning,
                                VoiceMap, check_reproducing,
                                coorbit_norm, dual_transform, kernel_K,
                                make_atom, reproducing_kernel,
                                _band_matrix, _FILL, _node_samples,
                                _voice_bands, synthesize_voice,
                                voice_transform)
from alphamod.windows import parse_window_spec

# one window per time-support rule of the banded atom matrix: the
# Gaussian's radius, compact supports, and dense bandlimited rows
ORACLE_SPECS = ("gaussian", "bspline:2", "bump:1.0", "bandlimited:1.0")
ORACLE_WINDOWS = [parse_window_spec(s) for s in ORACLE_SPECS]


@pytest.fixture()
def voice_grids():
    return (SampledGrid.centered(128, 0.125),
            SampledGrid.centered(97, 1.0 / 6.0))


def test_atom_unit_norm(gauss):
    grid = SampledGrid.centered(512, 1.0 / 32.0)
    a = make_atom(gauss, 0.5, 1.0, 2.0, grid)
    assert a.norm() == pytest.approx(1.0, abs=1e-8)


def test_atom_spill_warning(gauss):
    grid = SampledGrid.centered(64, 0.25)
    with pytest.warns(SupportSpillWarning):
        make_atom(gauss, 0.5, 7.5, 0.0, grid)  # sits at the grid edge


def test_atom_frequency_location(gauss):
    from alphamod.grids import forward_fourier
    grid = SampledGrid.centered(512, 1.0 / 16.0)
    omega = 3.0
    a = make_atom(gauss, 0.5, 0.0, omega, grid)
    A = forward_fourier(a)
    peak = A.grid.coords[np.argmax(np.abs(A.values))]
    assert abs(peak - omega) <= 2 * A.grid.spacing
    b = beta(omega, 0.5)
    expected = np.sqrt(b) * gauss.fourier(b * (A.grid.coords - omega))
    assert np.max(np.abs(A.values - expected)) < 1e-8


def _voice_oracle(f, w, x_grid, omega_grid):
    """Voice map from dense atom stacks, one frequency at a time."""
    return np.vstack([
        f.grid.spacing * (dense_atom_rows(w, 0.5, float(om), x_grid.coords,
                                          f.grid).conj() @ f.values)
        for om in omega_grid.coords])


def _check_voice_against_oracle(x_grid):
    # random signal, nonzero at both grid edges; the x nodes reach past
    # both edges, so the grid cuts atoms off on either side
    grid = SampledGrid.centered(128, 0.125)
    rng = np.random.default_rng(11)
    f = Signal(grid, rng.standard_normal(grid.n)
               + 1j * rng.standard_normal(grid.n))
    gw = SampledGrid.centered(13, 0.5)
    vm_rand = rng.standard_normal((gw.n, x_grid.n)) \
        + 1j * rng.standard_normal((gw.n, x_grid.n))
    for w in ORACLE_WINDOWS:
        V = voice_transform(f, w, 0.5, x_grid, gw).values
        Vd = _voice_oracle(f, w, x_grid, gw)
        assert np.linalg.norm(V - Vd) <= 1e-12 * np.linalg.norm(Vd), w
        g = synthesize_voice(VoiceMap(x_grid, gw, vm_rand), w, 0.5, grid)
        cell = x_grid.spacing * gw.spacing
        gd = cell * sum(vm_rand[jj] @ dense_atom_rows(w, 0.5, float(om),
                                                      x_grid.coords, grid)
                        for jj, om in enumerate(gw.coords))
        assert np.linalg.norm(g.values - gd) <= 1e-12 * np.linalg.norm(gd), w


def test_voice_on_lattice_matches_dense_oracle():
    # nodes every 3 samples, from one node before the grid to one after
    _check_voice_against_oracle(SampledGrid(45, 0.375, -8.375))


def test_voice_off_lattice_matches_dense_oracle():
    # spacing 0.3 is no multiple of the sample spacing 1/8
    _check_voice_against_oracle(SampledGrid(57, 0.3, -8.45))


def test_voice_float_offsets_match_dense_oracle():
    """A node spacing with no small denominator in samples, sqrt(2)/4 on
    dt = 1/8, keeps the float offsets t_mid - x, every node its own."""
    gx = SampledGrid(50, np.sqrt(2.0) / 4.0, -8.6)
    grid = SampledGrid.centered(128, 0.125)
    mid, delta = _node_samples(gx, grid)
    assert np.array_equal(mid, np.rint((gx.coords + 8.0) * 8.0))
    assert np.array_equal(delta, grid.origin + grid.spacing * mid
                          - gx.coords)
    assert np.unique(delta).size == gx.n
    _check_voice_against_oracle(gx)


@pytest.mark.parametrize("w", ORACLE_WINDOWS, ids=ORACLE_SPECS)
def test_voice_nodes_past_the_grid_read_the_clipped_atom(w):
    """Nodes from -13.9 to 13.9 on a grid of [-8, 8): atoms cut by either
    edge match the dense oracle, and a node whose band misses the grid
    reads 0 and adds nothing to a synthesis, exactly."""
    gx = SampledGrid(57, 0.49, -13.9)
    _check_voice_against_oracle(gx)
    grid = SampledGrid.centered(128, 0.125)
    gw = SampledGrid.centered(13, 0.5)
    f = Signal(grid, np.ones(grid.n, dtype=complex))
    V = voice_transform(f, w, 0.5, gx, gw).values
    reach = w.time_radius * np.max(beta(gw.coords, 0.5))
    away = np.abs(gx.coords) > 8.0 + reach + 2 * grid.spacing
    # some on either side, but none for the bandlimited window
    assert away[[0, -1]].all() if np.isfinite(reach) else not away.any()
    assert np.all(V[:, away] == 0)
    vm = VoiceMap(gx, gw, np.where(away, 1.0 + 1j, 0.0)
                  * np.ones((gw.n, 1)))
    assert np.all(synthesize_voice(vm, w, 0.5, grid).values == 0)


def test_node_offsets_are_exact_rationals():
    """On the benchmark's voice grids (n = 1024, dt = 1/16) the nodes sit
    a + k*s samples from the origin: a = 0, s = 4 on the lattice, one
    offset; a = 8/5, s = 319/80 off it, 80 exact offsets, of which the
    half-sample tie goes to the even sample, so +-dt/2 make 81.  mid and
    delta are those of the exact node positions."""
    grid = SampledGrid.centered(1024, 1.0 / 16.0)
    mid, delta = _node_samples(SampledGrid(256, 0.25, -32.0), grid)
    assert np.array_equal(mid, 4 * np.arange(256)) and not delta.any()
    mid, delta = _node_samples(SampledGrid(256, 63.8 / 256, -31.9), grid)
    pos = [Fraction(8, 5) + k * Fraction(319, 80) for k in range(256)]
    assert mid.tolist() == [round(p) for p in pos]  # ties to even
    assert delta.tolist() == [float((m - p) / 16) for m, p in zip(mid, pos)]
    assert np.unique(delta).size == 81
    tie = [p.denominator == 2 for p in pos]
    assert sorted(set(delta[tie])) == [-1 / 32, 1 / 32]


def test_bandlimited_reach_is_capped_at_the_grid():
    """The bandlimited window's rows reach the whole grid from every
    node, and no further: J is the largest distance from a node's
    sample to a grid edge, and every table spans all its columns."""
    w = parse_window_spec("bandlimited:1.0")
    grid = SampledGrid.centered(128, 0.125)
    gw = SampledGrid.centered(13, 0.5)
    for gx, J in ((SampledGrid(16, 1.0, -7.5), 124),
                  (SampledGrid(16, 1.0, -12.0), 159)):
        starts, width, bands = _voice_bands(w, 0.5, gx, gw, grid)
        assert width == 2 * J + 1
        for rows, nodes, cols, head, T in bands:
            assert cols == slice(0, width) and T.shape[1] == width


def _band_voice(w, gx, gw, grid):
    """The product grid's atoms as one _band_matrix, in VoiceMap order
    (omega-major): the oracle of the voice transform's band tables."""
    return _band_matrix(w, 0.5, np.repeat(gw.coords, gx.n),
                        np.tile(gx.coords, gw.n), grid)


# (x nodes, frequencies) per window: 3 or more table blocks on and off
# the lattice, whose widest bands are 115 samples for the Gaussian, 35
# for the compact windows and 1009 for bandlimited rows
BLOCK_GRIDS = {"gaussian": (240, SampledGrid.centered(33, 0.5)),
               "bspline:2": (480, SampledGrid.centered(33, 0.5)),
               "bump:1.0": (480, SampledGrid.centered(33, 0.5)),
               "bandlimited:1.0": (24, SampledGrid.centered(133, 0.125))}


@pytest.mark.parametrize("on_lattice", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_voice_matches_whole_grid_band_matrix(spec, on_lattice, monkeypatch):
    """voice_transform and synthesize_voice against the product with the
    whole grid's _band_matrix.  On the lattice both take the same
    offsets, and only rounding differs (at most 2.0e-15 measured).  Off
    it the nodes' offsets here are exact rationals, which moves them
    from the float offsets of _band_matrix by up to an ulp of x and the
    values by up to 4.9e-14 (measured; pinned at 9e-14).  The tables
    come in 3 or more blocks of at most _FILL entries."""
    w = parse_window_spec(spec)
    grid = SampledGrid.centered(512, 1.0 / 16.0)
    rng = np.random.default_rng(5)
    f = Signal(grid, rng.standard_normal(grid.n)
               + 1j * rng.standard_normal(grid.n))
    nx, gw = BLOCK_GRIDS[spec]
    # nodes across about [-15.5, 15.5]: a multiple of the sample spacing
    # 1/16 from a sample, or a spacing that is none, from off a sample
    dx = 31.0 / nx
    gx = (SampledGrid(nx, np.floor(16 * dx) / 16, -15.5) if on_lattice
          else SampledGrid(nx, dx, -15.47))
    blocks = []
    time = w.time

    def counted(u):
        blocks.append(np.size(u))
        return time(u)

    monkeypatch.setattr(w, "time", counted)
    V = voice_transform(f, w, 0.5, gx, gw).values
    monkeypatch.undo()
    assert len(blocks) >= 3 and max(blocks) <= _FILL
    A = _band_voice(w, gx, gw, grid)
    ref = grid.spacing * np.conj(A @ np.conj(f.values))
    vm = VoiceMap(gx, gw, rng.standard_normal((gw.n, gx.n))
                  + 1j * rng.standard_normal((gw.n, gx.n)))
    g = synthesize_voice(vm, w, 0.5, grid).values
    gref = gx.spacing * gw.spacing * (A.T @ vm.values.ravel())
    tol = 4e-15 if on_lattice else 9e-14
    assert np.linalg.norm(V.ravel() - ref) <= tol * np.linalg.norm(ref)
    assert np.linalg.norm(g - gref) <= tol * np.linalg.norm(gref)


def test_voice_peak_memory_is_bounded_by_one_block():
    """Bandlimited rows fill the grid: the whole atom matrix of this voice
    grid would hold 8 x 2^18 entries (48 MiB), yet the transform and its
    synthesis hold no more than 18 MiB (3 x 2^18 entries at 24 bytes);
    both measured 4.6 MB, the nodes' windows and one block of tables."""
    w = parse_window_spec("bandlimited:1.0")
    grid = SampledGrid.centered(256, 1.0 / 8.0)
    gx = SampledGrid.centered(128, 0.25)
    gw = SampledGrid.centered(64, 0.25)
    assert gx.n * gw.n * grid.n >= 8 * 2**18
    f = Signal(grid, np.exp(-grid.coords**2).astype(complex))
    tracemalloc.start()
    try:
        vm = voice_transform(f, w, 0.5, gx, gw)
        voice_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        synthesize_voice(vm, w, 0.5, grid)
        synth_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert voice_peak <= 18874368
    assert synth_peak <= 18874368


@pytest.mark.parametrize("w", ORACLE_WINDOWS, ids=ORACLE_SPECS)
def test_band_matrix_matches_dense_formula_entry_by_entry(w):
    """Every entry of the banded atom matrix against the atom formula on
    every sample, on a benchmark-scale grid (n = 2048, dt = 1/16, t in
    [-64, 64)) with frequencies up to |omega| = 8: the per-atom phase
    times the (omega, offset) table is the per-sample exponential."""
    grid = SampledGrid.centered(2048, 1.0 / 16.0)
    # on the lattice (-64, -20, 0, 63.9375), off it, cut by the left or
    # the right edge, and wholly past either edge
    xs = np.array([-64.0, -63.3, -20.0, 0.0, 17.71, 41.03, 63.9375, 64.4,
                   -80.0, 200.0])
    oms = np.array([-8.0, -2.75, 0.0, 1.0 / 3.0, 5.1, 8.0])
    A = _band_matrix(w, 0.5, np.repeat(oms, xs.size), np.tile(xs, oms.size),
                     grid)
    D = np.vstack([dense_atom_rows(w, 0.5, om, xs, grid) for om in oms])
    # each row stores one run of columns holding every sample within the
    # time radius, with at most two samples of slack per side
    for m, (x, om) in enumerate(zip(np.tile(xs, oms.size),
                                    np.repeat(oms, xs.size))):
        cols = A.indices[A.indptr[m]:A.indptr[m + 1]]
        dist = np.abs(grid.coords - x)
        reach = w.time_radius * beta(om, 0.5)
        near = np.nonzero(dist <= reach)[0]
        assert np.array_equal(cols, np.arange(cols[0], cols[-1] + 1)
                              if cols.size else cols)
        assert np.isin(near, cols).all()
        assert np.all(dist[cols] <= reach + 2 * grid.spacing)
    if np.isfinite(w.time_radius):
        # the atoms past either edge store no entry
        counts = np.diff(A.indptr).reshape(oms.size, xs.size)
        assert counts[:, -2:].sum() == 0
    err = np.abs(A.toarray() - D).max()
    assert err <= 1e-13 * np.abs(D).max()
    empty = _band_matrix(w, 0.5, np.zeros(0), np.zeros(0), grid)
    assert empty.shape == (0, grid.n) and empty.nnz == 0


@pytest.mark.parametrize("spec", ["gaussian", "bandlimited:1.0"])
def test_band_matrix_stores_int32_indices(spec):
    """Below 2^31 stored entries the index arrays are int32: 4 bytes per
    entry, not the 8 of an int64 copy."""
    grid = SampledGrid.centered(256, 1.0 / 16.0)
    oms = np.linspace(-8.0, 8.0, 9)
    xs = np.linspace(-8.0, 8.0, 17)
    A = _band_matrix(parse_window_spec(spec), 0.5, np.repeat(oms, xs.size),
                     np.tile(xs, oms.size), grid)
    assert A.nnz > 0
    assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32


def _batches(grid):
    """(omegas, xs) batches of atoms on the grid (dt = 1/16, t in [-4, 4))
    whose bands repeat in several ways."""
    cov = build_covering(0.5, 0.5, 1.0, (-4.0, 4.0), (-4.0, 4.0))
    nodes = cov.nodes()
    oms = np.linspace(-4.0, 4.0, 5)
    on = np.arange(-4.5, 4.5, 0.25)     # on the lattice, past both edges
    off = -4.45 + 0.3 * np.arange(31)   # 0.3 is no multiple of 1/16
    # one (omega, offset) whose first atom the left edge cuts
    edge = grid.origin + grid.spacing * np.array([3.0, 50.0, 80.0])
    return {"frame": (nodes[:, 3], nodes[:, 2]),
            "on-lattice": (np.repeat(oms, on.size), np.tile(on, oms.size)),
            "off-lattice": (np.repeat(oms, off.size),
                            np.tile(off, oms.size)),
            "left-edge": (np.full(3, 4.0), edge)}


@pytest.mark.parametrize("batch", ["frame", "on-lattice", "off-lattice",
                                   "left-edge"])
@pytest.mark.parametrize("w", ORACLE_WINDOWS, ids=ORACLE_SPECS)
def test_band_matrix_batch_equals_atoms_one_at_a_time(w, batch):
    """An atom's row does not depend on the atoms built with it: the band
    its batch shares with other atoms of the same (omega, offset) is,
    bit for bit, the band it gets alone, also where the first atom of
    the group is cut by the grid edge and where rows fill the grid."""
    grid = SampledGrid.centered(128, 1.0 / 16.0)
    oms, xs = _batches(grid)[batch]
    A = _band_matrix(w, 0.5, oms, xs, grid)
    counts = np.diff(A.indptr)
    if batch == "left-edge" and np.isfinite(w.time_radius):
        assert counts[0] < counts[1] == counts[2]
    for m in range(xs.size):
        one = _band_matrix(w, 0.5, oms[m:m + 1], xs[m:m + 1], grid)
        row = slice(A.indptr[m], A.indptr[m + 1])
        assert A.data[row].tobytes() == one.data.tobytes(), m
        assert np.array_equal(A.indices[row], one.indices), m


def test_band_matrix_memory_when_no_band_repeats():
    """Worst case for the table of distinct bands: every atom has its own
    (omega, offset), so the table is as large as the matrix's data.  The
    build's peak stays within 2.5 times the bytes of the matrix's data
    and indices: those two and the table make 1.8 times, and the
    measured peak, with the per-atom arrays and one pass's temporaries,
    is 2.04 times."""
    w = parse_window_spec("gaussian")
    grid = SampledGrid.centered(4096, 1.0 / 16.0)
    # x steps of sqrt(2)/7: no two atoms share an offset from the lattice
    xs = -120.0 + np.sqrt(2.0) / 7.0 * np.arange(1000)
    oms = np.linspace(-4.0, 4.0, 16)
    oms, xs = np.repeat(oms, xs.size), np.tile(xs, oms.size)
    _band_matrix(w, 0.5, oms[:1], xs[:1], grid)  # imports scipy.sparse
    tracemalloc.start()
    try:
        A = _band_matrix(w, 0.5, oms, xs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.nnz > 10**6
    assert peak <= 2.5 * (A.data.nbytes + A.indices.nbytes)


def test_voice_values_are_inner_products(chirp, gauss):
    gx = SampledGrid(3, 1.0, -1.0)
    gw = SampledGrid(3, 2.0, -2.0)
    vm = voice_transform(chirp, gauss, 0.5, gx, gw)
    for jj, om in enumerate(gw.coords):
        for kk, x in enumerate(gx.coords):
            atom = make_atom(gauss, 0.5, float(x), float(om), chirp.grid)
            assert vm.values[jj, kk] == pytest.approx(
                inner_product(chirp, atom), abs=1e-12)


def test_voicemap_magnitude_csv_reads_back_bit_exact(tmp_path, chirp, gauss,
                                                     voice_grids):
    gx, gw = voice_grids
    vm = voice_transform(chirp, gauss, 0.5, gx, gw)
    path = tmp_path / "voice.csv"
    vm.save_magnitude_csv(path)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, np.abs(vm.values))


def test_dual_transform_inverts_multiplier(chirp, gauss, gauss_tab,
                                           voice_grids):
    gx, gw = voice_grids
    wm = dual_transform(chirp, gauss, 0.5, gauss_tab, gx, gw)
    vm = voice_transform(chirp, gauss, 0.5, gx, gw)
    # for the Gaussian at alpha=0.5 the symbol is within 3% of 1, so the
    # dual map must stay close to the voice map but not equal it
    ratio = np.abs(wm.values).max() / np.abs(vm.values).max()
    assert 0.9 < ratio < 1.1
    assert np.max(np.abs(wm.values - vm.values)) > 1e-6


def test_dual_transform_needs_admissibility(chirp, gauss, gauss_tab,
                                            voice_grids):
    from dataclasses import replace
    bad = replace(gauss_tab, A=0.0)
    gx, gw = voice_grids
    with pytest.raises(NotAdmissibleError):
        dual_transform(chirp, gauss, 0.5, bad, gx, gw)
    with pytest.raises(NotAdmissibleError):
        check_reproducing(chirp, gauss, 0.5, bad, gx, gw)


def test_kernel_and_coorbit_norm_need_admissibility(chirp, gauss, gauss_tab,
                                                   voice_grids):
    """m^-kappa with kappa > 0, and the coorbit norm, need A > 0; the
    atom pairing, kappa = 0, does not."""
    from dataclasses import replace
    bad = replace(gauss_tab, A=0.0)
    p1, p2 = (0.3, 1.0), (-0.4, 2.5)
    with pytest.raises(NotAdmissibleError):
        kernel_K(gauss, 0.5, bad, 1, p1, p2)
    assert kernel_K(gauss, 0.5, bad, 0, p1, p2) \
        == kernel_K(gauss, 0.5, gauss_tab, 0, p1, p2)
    with pytest.raises(NotAdmissibleError, match="coorbit"):
        coorbit_norm(chirp, gauss, 0.5, bad, 2.0, 0.0, *voice_grids)


def test_kernel_hermitian_symmetry(gauss, gauss_tab):
    p1, p2 = (0.3, 1.0), (-0.4, 2.5)
    k12 = kernel_K(gauss, 0.5, gauss_tab, 1, p1, p2)
    k21 = kernel_K(gauss, 0.5, gauss_tab, 1, p2, p1)
    assert k12 == pytest.approx(np.conj(k21), abs=1e-10)


def test_kernel_diagonal_positive(gauss, gauss_tab):
    val = reproducing_kernel(gauss, 0.5, gauss_tab, (0.5, 1.5), (0.5, 1.5))
    assert abs(val.imag) < 1e-10
    assert val.real > 0


def test_kernel_time_shift_covariance(gauss, gauss_tab):
    a = kernel_K(gauss, 0.5, gauss_tab, 1, (0.7, 1.0), (0.2, 2.0))
    b = kernel_K(gauss, 0.5, gauss_tab, 1, (1.7, 1.0), (1.2, 2.0))
    assert a == pytest.approx(b, abs=1e-10)


def test_kernel_kappa_zero_is_atom_pairing(gauss, gauss_tab):
    # K^0(p, p) = ||a_p||^2 = 1 for the unit-norm Gaussian
    val = kernel_K(gauss, 0.5, gauss_tab, 0, (0.0, 1.0), (0.0, 1.0))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_reproducing_identity_residual(chirp, gauss, gauss_tab, voice_grids):
    gx, gw = voice_grids
    res = check_reproducing(chirp, gauss, 0.5, gauss_tab, gx, gw)
    assert res < 1e-2
    # pinned: a change in how the four voice products are formed shows
    assert res == pytest.approx(0.0014160075828093537, rel=1e-12)
    # Riemann discretization: refining the grid shrinks the residual
    fine = check_reproducing(chirp, gauss, 0.5, gauss_tab,
                             SampledGrid.centered(257, 1.0 / 16.0),
                             SampledGrid.centered(129, 0.125))
    assert fine < res


def test_reproducing_zero_signal(gauss, gauss_tab, voice_grids):
    gx, gw = voice_grids
    grid = SampledGrid.centered(256, 1.0 / 16.0)
    z = Signal(grid, np.zeros(256, dtype=complex))
    assert check_reproducing(z, gauss, 0.5, gauss_tab, gx, gw) == 0.0


def test_reproducing_rejects_starved_grid(chirp, gauss, gauss_tab):
    gx = SampledGrid(3, 0.5, -0.5)
    gw = SampledGrid(3, 0.5, -0.5)  # far too small a window in frequency
    with pytest.raises(MassCaptureError):
        check_reproducing(chirp, gauss, 0.5, gauss_tab, gx, gw)


def test_synthesis_adjoint_to_analysis(chirp, gauss, voice_grids):
    gx, gw = voice_grids
    rng = np.random.default_rng(7)
    vm = VoiceMap(gx, gw, rng.standard_normal((gw.n, gx.n))
                  + 1j * rng.standard_normal((gw.n, gx.n)))
    g = synthesize_voice(vm, gauss, 0.5, chirp.grid)
    lhs = inner_product(g, chirp)
    V = voice_transform(chirp, gauss, 0.5, gx, gw)
    cell = gx.spacing * gw.spacing
    rhs = cell * np.sum(vm.values * np.conj(V.values))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_coorbit_norm_matches_voice_norm(chirp, gauss, gauss_tab,
                                         voice_grids):
    gx, gw = voice_grids
    val = coorbit_norm(chirp, gauss, 0.5, gauss_tab, 2.0, 0.0, gx, gw)
    vm = voice_transform(chirp, gauss, 0.5, gx, gw)
    assert val == pytest.approx(vm.norm(2.0, 0.0))
    assert coorbit_norm(chirp, gauss, 0.5, gauss_tab, 2.0, 1.0, gx, gw) > val
