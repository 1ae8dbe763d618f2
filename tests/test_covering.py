import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamod.covering import (CoveringGapError, _max_overlap, _probe_covers,
                               build_covering, covering_diagnostics,
                               mutual_weight_bound, p_alpha, p_alpha_inv,
                               q_neighborhood, q_samples)
from alphamod.symbol import beta


@given(st.floats(-100, 100),
       st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]))
@settings(max_examples=300, deadline=None)
def test_p_alpha_inverse_roundtrip(omega, alpha):
    y = p_alpha_inv(omega, alpha)
    assert p_alpha(y, alpha) == pytest.approx(omega, rel=1e-10, abs=1e-10)


def test_p_alpha_identity_at_alpha_zero():
    x = np.linspace(-10, 10, 21)
    assert np.array_equal(p_alpha(x, 0.0), x)


def test_p_alpha_odd_and_increasing():
    x = np.linspace(-20, 20, 101)
    y = p_alpha(x, 0.5)
    assert np.allclose(y, -p_alpha(-x, 0.5))
    assert np.all(np.diff(y) > 0)


def test_frequency_nodes_follow_parametrization():
    cov = build_covering(0.5, 0.25, 1.0, (-4, 4), (-4, 4))
    assert np.array_equal(cov.js, np.arange(cov.js[0], cov.js[-1] + 1))
    for j, w in zip(cov.js, cov.omegas):
        assert w == pytest.approx(p_alpha(0.25 * j, 0.5))


def test_box_geometry():
    eps, c, alpha = 0.25, 1.0, 0.5
    cov = build_covering(alpha, eps, c, (-4, 4), (-4, 4))
    for box in cov.boxes():
        b = beta(cov.omegas[cov.row(box.j)], alpha)
        assert box.x_hi - box.x_lo == pytest.approx(2 * eps * b)
        assert box.w_hi - box.w_lo == pytest.approx(4 * eps * c / b)
        assert box.area == pytest.approx(8 * eps**2 * c, rel=1e-14)


def test_boxes_contain_their_nodes():
    cov = build_covering(0.5, 0.25, 1.0, (-4, 4), (-4, 4))
    for j, k, x, om in cov.nodes():
        assert cov.box(int(j), int(k)).contains(x, om)


def _max_overlap_loop(cov):
    """The overlap count one k' at a time: oracle for _max_overlap."""
    bs, klo, khi = cov.betas, cov.k_lo, cov.k_hi
    lo = cov.omegas - cov.halves
    hi = cov.omegas + cov.halves
    worst = 0
    for i in range(cov.js.size):
        rows = np.nonzero((lo < hi[i]) & (hi > lo[i]))[0]
        k0, k1 = klo[i], khi[i]
        for k in {k0, k0 + 1, (k0 + k1) // 2, k1 - 1, k1}:
            x_lo = cov.eps * bs[i] * (k - 1)
            x_hi = cov.eps * bs[i] * (k + 1)
            count = 0
            for r in rows:
                k_min = max(klo[r], math.floor(x_lo / (cov.eps * bs[r])))
                k_max = min(khi[r], math.ceil(x_hi / (cov.eps * bs[r])))
                for kp in range(k_min, k_max + 1):
                    if (cov.eps * bs[r] * (kp - 1) < x_hi
                            and cov.eps * bs[r] * (kp + 1) > x_lo):
                        count += 1
            worst = max(worst, count)
    return worst


def test_gabor_overlap_oracle():
    # alpha = 0, eps = c = 1: squares 2x4 on the unit lattice; interval
    # arithmetic gives 3 time neighbors x 7 frequency rows per point
    cov = build_covering(0.0, 1.0, 1.0, (-6, 6), (-4, 4))
    diag = covering_diagnostics(cov)
    assert diag.max_overlap == 21 == _max_overlap_loop(cov)
    assert diag.covers_region
    assert diag.moderate


def test_covering_gap_detected():
    with pytest.raises(CoveringGapError):
        build_covering(0.5, 0.25, 0.2, (-4, 4), (-4, 4))


def _probe_covers_loop(cov, density=20):
    """The probe one frequency at a time: oracle for _probe_covers."""
    t0, t1 = cov.time_range
    f0, f1 = cov.freq_range
    ws, bs, halves = cov.omegas, cov.betas, cov.halves
    klo, khi = cov.k_lo, cov.k_hi
    nw = max(64, int(density * (f1 - f0) / (2.0 * halves.min())))
    nx = max(64, int(density * (t1 - t0) / (2.0 * cov.eps * bs.min())))
    nx = min(nx, 20000)
    nw = min(nw, 20000)
    xs = np.linspace(t0, t1, nx)
    fs = np.linspace(f0, f1, nw)
    for omega in fs:
        rows = np.nonzero((ws - halves < omega) & (omega < ws + halves))[0]
        if rows.size == 0:
            return False
        covered = np.zeros(xs.size, dtype=bool)
        for i in rows:
            u = xs / (cov.eps * bs[i])
            k = np.rint(u)
            ok = (np.abs(u - k) < 1.0) & (k >= klo[i]) & (k <= khi[i])
            edge = np.isclose(np.abs(u - k), 1.0)
            covered |= ok | (edge & (k + np.sign(u - k) >= klo[i])
                             & (k + np.sign(u - k) <= khi[i]))
        if not covered.all():
            return False
    return True


def test_probe_covers_matches_loop_oracle():
    rng = np.random.default_rng(5)
    verdicts = []
    for _ in range(40):
        alpha = rng.choice([0.0, 0.25, 0.5, 0.75])
        eps = rng.uniform(0.2, 1.0)
        c = rng.uniform(0.1, 0.7)
        t0, f0 = rng.uniform(-6.0, 0.0, size=2)
        tr = (t0, t0 + rng.uniform(1.0, 8.0))
        fr = (f0, f0 + rng.uniform(1.0, 8.0))
        cov = build_covering(alpha, eps, c, tr, fr, validate=False)
        if rng.random() < 0.5:
            # trimmed k-ranges put the row ends inside the rectangle; one
            # (k_lo, k_hi) pair of draws per row, in row order
            d = rng.integers(3, size=(cov.js.size, 2))
            cov = dataclasses.replace(cov, k_lo=cov.k_lo + d[:, 0],
                                      k_hi=cov.k_hi - d[:, 1])
        for density in (10, 20):
            verdicts.append(_probe_covers(cov, density))
            assert verdicts[-1] == _probe_covers_loop(cov, density)
        assert _max_overlap(cov) == _max_overlap_loop(cov)
    assert any(verdicts) and not all(verdicts)
    # a covering with gaps (see test_covering_gap_detected), a gapless
    # one at the same geometry, and open bands that only touch: the first
    # or the last probe frequency, 0.25, sits exactly on a band edge
    for args, want in (((0.5, 0.25, 0.2, (-4, 4), (-4, 4)), False),
                       ((0.5, 0.25, 1.0, (-4, 4), (-4, 4)), True),
                       ((0.0, 0.5, 0.25, (-4, 4), (0.25, 2.0)), False),
                       ((0.0, 0.5, 0.25, (-4, 4), (-2.0, 0.25)), False)):
        cov = build_covering(*args, validate=False)
        assert _probe_covers(cov) == _probe_covers_loop(cov) == want


def test_covering_with_a_missing_row():
    # at alpha = 0.9 the bands are wide enough that row 0 (band (-2, 2))
    # misses the rectangle while rows -1 and 1 on both sides of it meet it
    cov = build_covering(0.9, 1.0, 1.0, (-4, 4), (3, 4))
    assert cov.js.tolist() == [-3, -2, -1, 1, 2, 3, 4]
    with pytest.raises(KeyError):
        cov.row(0)
    boxes = list(cov.boxes())
    nodes = cov.nodes()
    assert cov.n_boxes == len(boxes) == len(nodes)
    assert np.array_equal(nodes[:, :2], [(b.j, b.k) for b in boxes])
    assert all(b.contains(x, om) for b, (_, _, x, om) in zip(boxes, nodes))
    diag = covering_diagnostics(cov)
    assert diag.covers_region and diag.moderate
    assert diag.max_overlap == _max_overlap_loop(cov)


def test_validate_false_skips_probe():
    cov = build_covering(0.5, 0.25, 0.2, (-4, 4), (-4, 4), validate=False)
    assert not covering_diagnostics(cov).covers_region


def test_row_ends_at_exact_ties():
    # at alpha = 0.5, beta(w_j) = 1 / (1 + eps |j| / 2) is rational, and
    # with eps = 1/20 both ends of every row fall exactly on a box edge,
    # where floor and ceil must not depend on the last bit of beta
    eps = Fraction(1, 20)
    cov = build_covering(0.5, float(eps), 1.0, (-64, 64), (-16, 16),
                         validate=False)
    steps = [eps / (1 + eps * abs(int(j)) / 2) for j in cov.js]
    assert cov.k_lo.tolist() == [math.floor(-64 / s) - 1 for s in steps]
    assert cov.k_hi.tolist() == [math.ceil(64 / s) + 1 for s in steps]
    assert cov.n_boxes == 1_672_567


def test_mutual_weight_bound():
    cov = build_covering(0.5, 0.25, 1.0, (-4, 4), (-8, 8))
    assert mutual_weight_bound(cov, 0.0) == 1.0
    w2 = mutual_weight_bound(cov, 2.0)
    w4 = mutual_weight_bound(cov, 4.0)
    assert 1.0 < w2 < w4
    assert mutual_weight_bound(cov, -2.0) == pytest.approx(w2)


def test_weight_variation_shrinks_with_eps():
    vals = [mutual_weight_bound(
        build_covering(0.5, eps, 1.0, (-4, 4), (-8, 8)), 2.0)
        for eps in (0.5, 0.25, 0.125)]
    assert vals[0] > vals[1] > vals[2] > 1.0


def test_q_neighborhood_contains_point():
    cov = build_covering(0.5, 0.25, 1.0, (-4, 4), (-4, 4))
    pt = (0.7, 1.3)
    boxes, bbox = q_neighborhood(cov, pt)
    assert boxes
    x0, x1, w0, w1 = bbox
    assert x0 <= pt[0] <= x1 and w0 <= pt[1] <= w1
    assert any(b.contains(*pt) for b in boxes)


def test_q_samples_match_q_neighborhood_boxes():
    cov = build_covering(0.5, 0.25, 1.0, (-4, 4), (-4, 4))
    density = 3
    rng = np.random.default_rng(11)
    points = list(zip(rng.uniform(-4, 4, 25), rng.uniform(-4, 4, 25)))
    # points in the first and last box of a row, where the k-range cuts
    # one of the two candidate boxes away
    for j in (cov.js[0] + 3, 0, cov.js[-1] - 3):
        r = cov.row(j)
        k0, k1, w = cov.k_lo[r], cov.k_hi[r], cov.omegas[r]
        half = 0.5 * cov.eps * beta(w, cov.alpha)
        points += [(cov.x_node(j, k0) - half, w),
                   (cov.x_node(j, k1) + half, w)]
    def key(z):  # an order that ulp differences cannot change
        return round(z[0], 9), round(z[1], 9)

    for t, omega in points:
        boxes = [b for b in cov.boxes() if b.contains(t, omega)]
        assert ({(b.j, b.k) for b in q_neighborhood(cov, (t, omega))[0]}
                == {(b.j, b.k) for b in boxes})
        want = sorted(
            ((zt, zw)
             for b in boxes
             for zt in np.linspace(b.x_lo, b.x_hi, density + 2)[1:-1]
             for zw in np.linspace(b.w_lo, b.w_hi, density + 2)[1:-1]),
            key=key)
        got = sorted(
            ((zt, zw)
             for _, z_t, inside, z_w in q_samples(cov, [t], [omega], density)
             for zt in z_t[inside] for zw in z_w),
            key=key)
        assert len(got) == len(want) == density**2 * len(boxes)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_nodes_csv_roundtrip(tmp_path):
    cov = build_covering(0.5, 0.5, 1.0, (-2, 2), (-2, 2))
    path = tmp_path / "cover.csv"
    cov.save_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (cov.n_boxes, 8)
    assert np.max(np.abs(data[:, :4] - cov.nodes())) == 0.0


def test_domain_validation():
    with pytest.raises(ValueError):
        build_covering(1.0, 0.25, 1.0, (-4, 4), (-4, 4))
    with pytest.raises(ValueError):
        build_covering(0.5, -0.25, 1.0, (-4, 4), (-4, 4))
    with pytest.raises(ValueError):
        build_covering(0.5, 0.25, 1.0, (4, -4), (-4, 4))
