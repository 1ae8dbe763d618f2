import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamod.covering import (CoveringGapError, _probe_covers, _row_arrays,
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
    j0, j1 = cov.j_range
    for j in range(j0, j1 + 1):
        assert cov.omega_nodes[j] == pytest.approx(p_alpha(0.25 * j, 0.5))


def test_box_geometry():
    eps, c, alpha = 0.25, 1.0, 0.5
    cov = build_covering(alpha, eps, c, (-4, 4), (-4, 4))
    for box in cov.boxes():
        b = beta(cov.omega_nodes[box.j], alpha)
        assert box.x_hi - box.x_lo == pytest.approx(2 * eps * b)
        assert box.w_hi - box.w_lo == pytest.approx(4 * eps * c / b)
        assert box.area == pytest.approx(8 * eps**2 * c, rel=1e-14)


def test_boxes_contain_their_nodes():
    cov = build_covering(0.5, 0.25, 1.0, (-4, 4), (-4, 4))
    for j, k, x, om in cov.nodes():
        assert cov.box(int(j), int(k)).contains(x, om)


def test_gabor_overlap_oracle():
    # alpha = 0, eps = c = 1: squares 2x4 on the unit lattice; interval
    # arithmetic gives 3 time neighbors x 7 frequency rows per point
    cov = build_covering(0.0, 1.0, 1.0, (-6, 6), (-4, 4))
    diag = covering_diagnostics(cov)
    assert diag.max_overlap == 21
    assert diag.covers_region
    assert diag.moderate


def test_covering_gap_detected():
    with pytest.raises(CoveringGapError):
        build_covering(0.5, 0.25, 0.2, (-4, 4), (-4, 4))


def _probe_covers_loop(cov, density=20):
    """The probe one frequency at a time: oracle for _probe_covers."""
    t0, t1 = cov.time_range
    f0, f1 = cov.freq_range
    js, ws, bs, halves, klo, khi = _row_arrays(cov)
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
            # trimmed k-ranges put the row ends inside the rectangle
            cov.k_ranges = {j: (k0 + rng.integers(3), k1 - rng.integers(3))
                            for j, (k0, k1) in cov.k_ranges.items()}
        for density in (10, 20):
            verdicts.append(_probe_covers(cov, density))
            assert verdicts[-1] == _probe_covers_loop(cov, density)
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


def test_validate_false_skips_probe():
    cov = build_covering(0.5, 0.25, 0.2, (-4, 4), (-4, 4), validate=False)
    assert not covering_diagnostics(cov).covers_region


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
    for j in (cov.j_range[0] + 3, 0, cov.j_range[1] - 3):
        k0, k1 = cov.k_ranges[j]
        half = 0.5 * cov.eps * beta(cov.omega_nodes[j], cov.alpha)
        points += [(cov.x_node(j, k0) - half, cov.omega_nodes[j]),
                   (cov.x_node(j, k1) + half, cov.omega_nodes[j])]
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
