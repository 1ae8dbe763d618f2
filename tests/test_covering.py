import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamod.covering import (CoveringGapError, build_covering,
                               covering_diagnostics, mutual_weight_bound,
                               p_alpha, p_alpha_inv, q_neighborhood,
                               q_samples)
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
