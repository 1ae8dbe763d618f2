import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamod.covering import (CoveringGapError, UncoveredPointError,
                               _max_overlap, _uncovered_point,
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


def _box_table(cov):
    """(x_lo, x_hi, w_lo, w_hi) of every box, one row per box."""
    return np.array([(b.x_lo, b.x_hi, b.w_lo, b.w_hi)
                     for b in cov.boxes()]).reshape(-1, 4)


def _max_overlap_brute(cov):
    """The most boxes meeting one box, itself included, over every pair of
    boxes: oracle for _max_overlap."""
    boxes = _box_table(cov)
    worst = 0
    for blk in np.array_split(boxes, max(1, len(boxes) // 256)):
        meets = ((boxes[:, 0] < blk[:, 1:2]) & (boxes[:, 1] > blk[:, :1])
                 & (boxes[:, 2] < blk[:, 3:]) & (boxes[:, 3] > blk[:, 2:3]))
        worst = max(worst, int(meets.sum(axis=1).max()))
    return worst


def _covers_brute(cov):
    """Whether every sample point of the closed rectangle lies in a box,
    over every box: oracle for _uncovered_point.  The samples are a
    64 x 64 grid plus every band end and every row end in the rectangle;
    an uncovered stretch of the open boxes starts at one of them."""
    t0, t1 = cov.time_range
    f0, f1 = cov.freq_range
    boxes = _box_table(cov)
    steps = cov.eps * cov.betas
    ts = np.concatenate([np.linspace(t0, t1, 64), steps * (cov.k_lo - 1),
                         steps * (cov.k_hi + 1)])
    fs = np.concatenate([np.linspace(f0, f1, 64), boxes[:, 2], boxes[:, 3]])
    ts = np.unique(ts[(ts >= t0) & (ts <= t1)])
    fs = np.unique(fs[(fs >= f0) & (fs <= f1)])
    for omega in fs:
        band = boxes[(boxes[:, 2] < omega) & (omega < boxes[:, 3])]
        if not ((band[:, :1] < ts) & (ts < band[:, 1:2])).any(axis=0).all():
            return False
    return True


def _unchecked(alpha, eps, c, time_range, freq_range):
    """The row table build_covering makes, without its gap check: the
    rows of the gapless covering at max(c, 1), narrowed to c, that still
    meet the rectangle."""
    cov = dataclasses.replace(
        build_covering(alpha, eps, max(c, 1.0), time_range, freq_range), c=c)
    f0, f1 = freq_range
    keep = (cov.omegas + cov.halves > f0) & (cov.omegas - cov.halves < f1)
    return dataclasses.replace(cov, js=cov.js[keep], omegas=cov.omegas[keep],
                               k_lo=cov.k_lo[keep], k_hi=cov.k_hi[keep])


def test_gabor_overlap_oracle():
    # alpha = 0, eps = c = 1: squares 2x4 on the unit lattice; interval
    # arithmetic gives 3 time neighbors x 7 frequency rows per point
    cov = build_covering(0.0, 1.0, 1.0, (-6, 6), (-4, 4))
    diag = covering_diagnostics(cov)
    assert diag.max_overlap == 21 == _max_overlap_brute(cov)
    assert diag.covers_region
    assert diag.moderate


@pytest.mark.parametrize("args, want", [
    # five probe boxes per row read 21 and 30 here
    ((0.75, 0.3, 0.6, (-5, 7), (-3, 9)), 23),
    ((0.5, 0.5, 1.0, (-1.5, 1.0), (-4, 4)), 34),
])
def test_max_overlap_counts_every_box(args, want):
    cov = build_covering(*args)
    assert covering_diagnostics(cov).max_overlap == want
    assert _max_overlap_brute(cov) == want


def test_covering_gap_detected():
    # bands too thin for the node spacing, and bands (0.5 j -+ 0.25) that
    # only touch, leaving the line omega = 0.75 uncovered
    for args in ((0.5, 0.25, 0.2, (-4, 4), (-4, 4)),
                 (0.0, 0.5, 0.25, (-4, 4), (0.3, 2.0))):
        cov = _unchecked(*args)
        point = _uncovered_point(cov)
        with pytest.raises(CoveringGapError, match=re.escape(str(point))):
            build_covering(*args)
        assert not covering_diagnostics(cov).covers_region
        assert not any(b.contains(*point) for b in cov.boxes())
        with pytest.raises(UncoveredPointError):
            q_neighborhood(cov, point)


def test_validate_false_skips_probe():
    # a table made without build_covering's gap check (there is no switch
    # for it any more) is still diagnosed, and its gap reported, not raised
    cov = _unchecked(0.5, 0.25, 0.2, (-4, 4), (-4, 4))
    assert not covering_diagnostics(cov).covers_region


def test_gap_and_overlap_match_brute_force_oracles():
    rng = np.random.default_rng(5)
    verdicts = []
    for _ in range(64):
        alpha = rng.choice([0.0, 0.25, 0.5, 0.75])
        eps = rng.uniform(0.2, 1.0)
        c = rng.uniform(0.1, 0.7)
        t0, f0 = rng.uniform(-6.0, 0.0, size=2)
        tr = (t0, t0 + rng.uniform(1.0, 8.0))
        fr = (f0, f0 + rng.uniform(1.0, 8.0))
        cov = _unchecked(alpha, eps, c, tr, fr)
        if rng.random() < 0.5:
            # trimmed k-ranges put the row ends inside the rectangle; one
            # (k_lo, k_hi) pair of draws per row, and one row left empty
            d = rng.integers(3, size=(cov.js.size, 2))
            k_lo, k_hi = cov.k_lo + d[:, 0], cov.k_hi - d[:, 1]
            empty = rng.integers(cov.js.size)
            k_hi[empty] = k_lo[empty] - 1 - rng.integers(2)
            cov = dataclasses.replace(cov, k_lo=k_lo, k_hi=k_hi)
        point = _uncovered_point(cov)
        verdicts.append(point is None)
        assert verdicts[-1] == _covers_brute(cov)
        if point is not None:
            assert not any(b.contains(*point) for b in cov.boxes())
        assert _max_overlap(cov) == _max_overlap_brute(cov)
    assert any(verdicts) and not all(verdicts)
    # a covering with gaps (see test_covering_gap_detected), a gapless
    # one at the same geometry, and open bands that only touch: the first
    # or the last frequency, 0.25, or the inner 0.75 sits on a band edge
    for args, want in (((0.5, 0.25, 0.2, (-4, 4), (-4, 4)), False),
                       ((0.5, 0.25, 1.0, (-4, 4), (-4, 4)), True),
                       ((0.0, 0.5, 0.25, (-4, 4), (0.25, 2.0)), False),
                       ((0.0, 0.5, 0.25, (-4, 4), (-2.0, 0.25)), False),
                       ((0.0, 0.5, 0.25, (-4, 4), (0.3, 2.0)), False)):
        cov = _unchecked(*args)
        assert (_uncovered_point(cov) is None) == _covers_brute(cov) == want
    # exact ties in time: at alpha = 0 every step is eps = 0.5, and rows
    # -1..2 lie over all of (0.1, 0.2).  The open row intervals (-5, 0)
    # and (0, 5) leave t = 0 uncovered, (-5, 4) leaves t1 = 4 uncovered,
    # and a row emptied to k_lo = k_hi + 1 covers nothing, not (0, 0.5)
    tie = _unchecked(0.0, 0.5, 1.0, (-4, 4), (0.1, 0.2))
    short = _unchecked(0.0, 0.5, 1.0, (0.1, 0.2), (0.1, 0.2))
    assert tie.js.tolist() == short.js.tolist() == [-1, 0, 1, 2]
    for cov, k_lo, k_hi in ((tie, [-9, -9, 1, 1], [-1, -1, 9, 9]),
                            (tie, [-9] * 4, [7] * 4),
                            (short, [1] * 4, [0] * 4)):
        cov = dataclasses.replace(cov, k_lo=np.array(k_lo),
                                  k_hi=np.array(k_hi))
        assert _uncovered_point(cov) is not None
        assert not _covers_brute(cov)


def test_covering_with_a_missing_row():
    # at alpha = 0.9 the bands are wide enough that row 0 (band (-2, 2))
    # misses the rectangle while rows -1 and 1 on both sides of it meet
    # it.  The band ends are not monotone in j here, so rows far out
    # (row 10 sits at omega = 1023, band (-1, 2047)) meet it too
    cov = build_covering(0.9, 1.0, 1.0, (-4, 4), (3, 4))
    assert cov.js.tolist() == [*range(-9, 0), *range(1, 11)]
    with pytest.raises(KeyError):
        cov.row(0)
    boxes = list(cov.boxes())
    nodes = cov.nodes()
    assert cov.n_boxes == len(boxes) == len(nodes)
    assert np.array_equal(nodes[:, :2], [(b.j, b.k) for b in boxes])
    assert all(b.contains(x, om) for b, (_, _, x, om) in zip(boxes, nodes))
    diag = covering_diagnostics(cov)
    assert diag.covers_region and diag.moderate
    assert diag.max_overlap == _max_overlap_brute(cov)


def test_rows_are_every_band_meeting_the_rectangle():
    # brute force over |j| <= 2000, where 2*eps*c*alpha > 1 makes the band
    # ends non-monotone in j and where it does not; bracketing j by the
    # band reach at the rectangle's edges missed row -6 of the second
    for args in ((0.9, 1.0, 1.0, (-4, 4), (3, 4)),
                 (0.75, 0.25, 2.0, (-1, 1), (0, 1)),
                 (0.5, 0.25, 1.0, (-4, 4), (-4, 4))):
        alpha, eps, c, _, (f0, f1) = args
        js = np.arange(-2000, 2001)
        w = p_alpha(eps * js, alpha)
        half = 2.0 * eps * c / beta(w, alpha)
        want = js[(w + half > f0) & (w - half < f1)]
        assert np.array_equal(build_covering(*args).js, want)


def test_row_ends_at_exact_ties():
    # at alpha = 0.5, beta(w_j) = 1 / (1 + eps |j| / 2) is rational, and
    # with eps = 1/20 both ends of every row fall exactly on a box edge,
    # where floor and ceil must not depend on the last bit of beta
    eps = Fraction(1, 20)
    cov = build_covering(0.5, float(eps), 1.0, (-64, 64), (-16, 16))
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


@pytest.mark.parametrize("eps, c, time_range, freq_range, name", [
    (math.nan, 1.0, (-4, 4), (-4, 4), "eps"),
    (math.inf, 1.0, (-4, 4), (-4, 4), "eps"),
    (0.25, math.nan, (-4, 4), (-4, 4), "c"),
    (0.25, math.inf, (-4, 4), (-4, 4), "c"),
    (0.25, 1.0, (-4, math.inf), (-4, 4), "time_range"),
    (0.25, 1.0, (math.nan, 4), (-4, 4), "time_range"),
    (0.25, 1.0, (-4, 4), (-math.inf, 4), "freq_range"),
], ids=["eps-nan", "eps-inf", "c-nan", "c-inf", "t1-inf", "t0-nan", "f0-inf"])
def test_non_finite_inputs_are_refused_by_name(eps, c, time_range,
                                               freq_range, name):
    """A nan or inf eps used to fail converting the row reach to an
    integer, and an infinite range end to raise a CoveringGapError at an
    infinite point."""
    with pytest.raises(ValueError, match=rf"must be .*finite.*\b{name}=") \
            as info:
        build_covering(0.5, eps, c, time_range, freq_range)
    assert not isinstance(info.value, CoveringGapError)
