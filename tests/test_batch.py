import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_gauss_box
from gbbkit import (
    AngleCov,
    GaussBox,
    Hbb,
    LossSchedule,
    OptimizerConfig,
    cov_from_angles,
    fit_gbb,
    gbb_to_ellipse,
    grad_general,
    hbb_to_gbb,
    iou_hbb,
    iou_raster,
    mask_bc,
    similarity,
)
from gbbkit.batch import (
    bd_pairs,
    gbb_from_hbb,
    hd_pairs,
    iou_ellipse_pairs,
    iou_hbb_pairs,
    iou_obb_pairs,
    mask_prob_iou_pairs,
    prob_iou_pairs,
    rect_mask_bc_pairs,
)
from gbbkit.gradients import _grad_terms, _l1_factor_at
from gbbkit.polygons import _box_corners, ellipse_intersection_area
from gbbkit.convert import obb_corners
from gbbkit.raster import default_cell_size, iou_between
from gbbkit.regress import VARIANCE_FLOOR, _loss_and_grad
from gbbkit.types import Obb, PolygonMask


def as_rows(gbbs):
    return np.array([(g.x0, g.y0, g.a, g.b, g.c) for g in gbbs])


def rect_mask(x, y, w, h):
    return PolygonMask(
        np.array(
            [
                [x - w / 2, y - h / 2],
                [x + w / 2, y - h / 2],
                [x + w / 2, y + h / 2],
                [x - w / 2, y + h / 2],
            ]
        )
    )


def test_gbb_from_hbb_matches_scalar():
    rng = np.random.default_rng(0)
    boxes = np.column_stack([rng.uniform(-2, 2, (50, 2)), rng.uniform(0.1, 3, (50, 2))])
    rows = gbb_from_hbb(boxes)
    for box, row in zip(boxes, rows):
        g = hbb_to_gbb(Hbb(*box))
        np.testing.assert_allclose(row, [g.x0, g.y0, g.a, g.b, g.c], rtol=1e-15)


def test_bd_and_hd_match_scalar_similarity():
    rng = np.random.default_rng(1)
    ps = [random_gauss_box(rng) for _ in range(200)]
    qs = [random_gauss_box(rng) for _ in range(200)]
    bd = bd_pairs(as_rows(ps), as_rows(qs))
    hd = hd_pairs(as_rows(ps), as_rows(qs))
    pi = prob_iou_pairs(as_rows(ps), as_rows(qs))
    for p, q, b, h, s in zip(ps, qs, bd, hd, pi):
        rep = similarity(p, q)
        assert b == pytest.approx(rep.b_d, rel=1e-12, abs=1e-12)
        assert h == pytest.approx(rep.h_d, rel=1e-12, abs=1e-12)
        assert s == pytest.approx(rep.prob_iou, rel=1e-12, abs=1e-12)


def test_iou_pairs_match_scalar():
    rng = np.random.default_rng(2)
    a = np.column_stack([rng.uniform(0, 1, (300, 2)), rng.uniform(0.05, 1, (300, 2))])
    b = np.column_stack([rng.uniform(0, 1, (300, 2)), rng.uniform(0.05, 1, (300, 2))])
    got = iou_hbb_pairs(a, b)
    for row_a, row_b, v in zip(a, b, got):
        assert v == pytest.approx(iou_hbb(Hbb(*row_a), Hbb(*row_b)), rel=1e-12, abs=1e-15)


def test_rect_mask_bc_matches_exact_polygon_route():
    rng = np.random.default_rng(3)
    a = np.column_stack([rng.uniform(0, 1, (200, 2)), rng.uniform(0.05, 1, (200, 2))])
    b = np.column_stack([rng.uniform(0, 1, (200, 2)), rng.uniform(0.05, 1, (200, 2))])
    got = rect_mask_bc_pairs(a, b)
    for row_a, row_b, v in zip(a, b, got):
        exact = mask_bc(rect_mask(*row_a), rect_mask(*row_b))
        assert v == pytest.approx(exact, rel=1e-10, abs=1e-12)


def test_mask_prob_iou_transform():
    bc = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(mask_prob_iou_pairs(bc), [0.0, 1 - np.sqrt(0.5), 1.0])


@pytest.mark.parametrize(
    "p, q",
    [
        ((0.0, 0.0, 1e150, 1e150, 0.0), (1.0, 0.0, 1e150, 1e150, 0.0)),
        ((0.0, 0.0, 1e300, 1.0, 0.0), (1.0, 0.0, 1e300, 1.0, 0.0)),
        ((0.0, 0.0, *cov_from_angles(AngleCov(1e153, 1e150, 0.3))),
         (2.0, -1.0, 4e151, 3e151, 1e150)),
    ],
)
def test_large_valid_gaussians_score_the_same_on_both_routes(p, q):
    # Each determinant is finite but their product overflows: both routes
    # take the two roots apart, warn about nothing and give the same b_d
    # (ProbIoU to numpy's expm1); an ordinary row in the batch is untouched.
    rep = similarity(GaussBox(*p), GaussBox(*q))
    unit = (0.0, 0.0, 1.0, 1.0, 0.0)
    rows_p, rows_q = np.array([p, unit, p]), np.array([q, (0.5, 0.0, 1.0, 1.0, 0.0), q])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd, pi = bd_pairs(rows_p, rows_q), prob_iou_pairs(rows_p, rows_q)
    assert bd.tolist() == [rep.b_d, bd_pairs(rows_p[1:2], rows_q[1:2])[0], rep.b_d]
    assert pi[[0, 2]].tolist() == pytest.approx([rep.prob_iou] * 2, rel=1e-12)
    assert math.isfinite(rep.b_d) and rep.b_d >= 0.0


def test_overflowing_distance_is_nan_on_both_routes():
    # Both Gaussians are valid, but the sum's determinant overflows and the
    # shape term is log(inf / inf): NaN on both routes, never ProbIoU 1.0.
    p, q = (0.0, 0.0, 1e154, 1e154, 0.0), (1.0, 0.0, 1e154, 1e154, 0.0)
    rep = similarity(GaussBox(*p), GaussBox(*q))
    with np.errstate(all="ignore"):
        pi = prob_iou_pairs(np.array([p]), np.array([q]))
    assert math.isnan(rep.b_d) and math.isnan(rep.h_d)
    assert math.isnan(rep.prob_iou) and math.isnan(pi[0])


def test_infinite_determinant_is_refused():
    # a*b overflows to inf while c*c is 0: not a Gaussian that can be compared.
    big = GaussBox(0.0, 0.0, 1e155, 1e155, 0.0)
    with pytest.raises(ValueError, match=r"a\*b - c\^2 overflows \(got inf\)"):
        similarity(big, GaussBox(1.0, 0.0, 1e155, 1e155, 0.0))


def test_identical_rows_give_unit_prob_iou():
    # No exact-equality short-circuit on the batch path: roundoff in the
    # log leaves b_d within a few ulp of zero, so assert to 1e-7.
    g = GaussBox(1, 2, 0.5, 0.7, 0.1)
    rows = as_rows([g, g])
    np.testing.assert_allclose(prob_iou_pairs(rows, rows), [1.0, 1.0], atol=1e-7)


# --- exact ellipse IoU --------------------------------------------------------

R2 = 12.0 / math.pi  # DEFAULT_LEVEL_SET_RADIUS ** 2


def circle(x, y, radius):
    """Gaussian row whose default level-set ellipse is the given circle."""
    v = radius * radius / R2
    return [x, y, v, v, 0.0]


def ellipse_iou(p, q):
    return float(iou_ellipse_pairs(np.array([p]), np.array([q]))[0])


def affine(row, m, shift):
    """Gaussian row moved by x -> m x + shift."""
    mu = m @ row[:2] + shift
    cov = m @ np.array([[row[2], row[4]], [row[4], row[3]]]) @ m.T
    return [mu[0], mu[1], cov[0, 0], cov[1, 1], cov[0, 1]]


def chord_iou(p, q, n=400_001):
    """Ellipse IoU by the midpoint rule over vertical chords (error ~1e-9)."""

    def chord(x, g):
        x0, y0, a, b, c = g
        dx = x - x0
        half = np.sqrt(np.maximum((a * b - c * c) * (R2 * a - dx * dx), 0.0))
        return y0 + (c * dx - half) / a, y0 + (c * dx + half) / a

    lo = max(g[0] - math.sqrt(R2 * g[2]) for g in (p, q))
    hi = min(g[0] + math.sqrt(R2 * g[2]) for g in (p, q))
    if hi <= lo:
        return 0.0
    x = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    (lp, hp), (lq, hq) = chord(x, p), chord(x, q)
    inter = np.sum(np.maximum(np.minimum(hp, hq) - np.maximum(lp, lq), 0.0)) * (hi - lo) / n
    areas = [math.pi * R2 * math.sqrt(g[2] * g[3] - g[4] ** 2) for g in (p, q)]
    return inter / (sum(areas) - inter)


def raster_iou(p, q, cells=3000):
    ep, eq = gbb_to_ellipse(GaussBox(*p)), gbb_to_ellipse(GaussBox(*q))
    return iou_raster(ep, eq, default_cell_size(ep, eq, cells))


class TestIouEllipsePairs:
    def test_concentric_circles(self):
        for r, big in ((0.5, 1.0), (1.0, 3.0), (0.01, 2.0)):
            assert ellipse_iou(circle(1, 2, r), circle(1, 2, big)) == pytest.approx(
                (r / big) ** 2, rel=1e-12
            )

    def test_unit_circles_at_unit_distance(self):
        lens = 2.0 * math.acos(0.5) - math.sqrt(3.0) / 2.0
        want = lens / (2.0 * math.pi - lens)
        assert ellipse_iou(circle(0, 0, 1), circle(1, 0, 1)) == pytest.approx(want, rel=1e-12)

    def test_identical_is_exactly_one(self):
        for row in ([1, 2, 0.5, 0.7, 0.1], [0, 0, 1, 1, 0], [-3, 4, 2.0, 0.01, 0.1]):
            assert ellipse_iou(row, row) == 1.0

    def test_external_tangency_is_exactly_zero(self):
        assert ellipse_iou(circle(0, 0, 1), circle(2, 0, 1)) == 0.0
        assert ellipse_iou(circle(0, 0, 1), circle(1.9, 0, 0.9)) == 0.0

    def test_far_sub_cell_pair_is_exactly_zero(self):
        tiny = [0.0, 0.0, 1e-5, 1e-5, 0.0]
        far = [1000.0, 0.0, 1e-5, 1e-5, 0.0]
        assert ellipse_iou(tiny, far) == 0.0

    def test_internal_tangency(self):
        # Semi-axes 2r x r around a circle of radius r, touching at (0, +-r).
        assert ellipse_iou([0, 0, 4, 1, 0], [0, 0, 1, 1, 0]) == pytest.approx(0.5, abs=1e-15)
        for rho in (0.9, 0.5, 0.1, 1 - 1e-9):
            assert ellipse_iou(circle(0, 0, 1), circle(1 - rho, 0, rho)) == pytest.approx(
                rho * rho, abs=1e-12
            )

    def test_readme_fit_states(self):
        # The Bhattacharyya stage holds the state's b and y at the target's
        # while a settles onto it: an ellipse touching the target circle at
        # two points, from inside or outside, whose IoU is the area ratio.
        target = hbb_to_gbb(Hbb(0, 0, 1, 1))
        traj = fit_gbb(target, hbb_to_gbb(Hbb(2, 0, 1, 1)), LossSchedule(), OptimizerConfig())
        tangent = 0
        for step in traj.steps:
            g = step.params
            if abs(g.x0) < 1e-12 and g.b == target.b and g.c == 0.0:
                ratio = min(g.a, target.a) / max(g.a, target.a)
                assert step.iou == pytest.approx(math.sqrt(ratio), abs=1e-12)
                tangent += 1
        assert tangent > 100
        for step in traj.steps[::20]:
            want = raster_iou(as_rows([step.params])[0], as_rows([target])[0])
            assert step.iou == pytest.approx(want, abs=1e-4)

    def test_tangent_where_a_fixed_expansion_point_would_sit(self):
        # Mapped to the disk, the inner ellipse touches it at t = 0 and pi,
        # where f vanishes exactly: expanding the quartic there would leave
        # it without a leading coefficient.
        assert ellipse_iou([0, 0, 4, 9, 0], [0, 0, 4, 1, 0]) == pytest.approx(1 / 3, abs=1e-15)

    def test_crossings_at_every_quadrant_angle(self):
        # In the unit disk's frame the other ellipse is U e(t) with
        # U = [[u11, 0], [u21, 1]], u11^2 + u21^2 = 1 in floating point, so
        # f(t) = u21 sin 2t is exactly zero at all four quadrant angles.
        # Its arcs inside the disk add u11 * pi / 2, the disk's arcs inside
        # it add asin(u11).
        disk = [0, 0, 1, 1, 0]
        other = [0, 0, 0.041259765625, 1.958740234375, 0.19889041546934852]
        u11 = 0.203125
        inter = 0.5 * math.pi * u11 + math.asin(u11)
        want = inter / (math.pi * (1 + u11) - inter)
        assert ellipse_iou(disk, other) == pytest.approx(want, abs=1e-14)

    def test_touching_sliver(self):
        # A late angle5 fit state against its target: the ellipses touch at
        # two points where each pokes a rounding-deep sliver through the
        # other.  Letting one side of a sliver decide alone cost 4e-7.
        state = [2.3147888929498595, -4.824464748101029, 0.2522604536984193,
                 0.09575420092047815, 0.08057344035434925]
        target = [2.314788892949861, -4.824464748101028, 0.25557054537283386,
                  0.11427135262319874, 0.07274442574934806]
        assert ellipse_iou(state, target) == pytest.approx(chord_iou(state, target), abs=1e-8)

    def test_tangency_under_affine_maps(self):
        # Touching circles and touching concentric ellipses, moved by random
        # orientation-preserving affine maps, which keep the IoU.
        rng = np.random.default_rng(6)
        cases = [(circle(0, 0, 1), circle(1 - rho, 0, rho), rho * rho) for rho in (0.5, 1 - 1e-9)]
        cases += [(circle(0, 0, 1), circle(1 + rho, 0, rho), 0.0) for rho in (0.5, 1 - 1e-6)]
        cases += [([0, 0, 1 + e, 1, 0], [0, 0, 1, 1, 0], 1 / math.sqrt(1 + e)) for e in (1e-6, 1e-11)]
        for p, q, want in cases:
            for _ in range(10):
                m = rng.normal(size=(2, 2)) * math.exp(rng.uniform(-2, 2))
                m[:, 0] *= np.sign(np.linalg.det(m))
                shift = rng.uniform(-5, 5, 2)
                got = ellipse_iou(affine(p, m, shift), affine(q, m, shift))
                assert got == pytest.approx(want, abs=1e-10)

    def test_containment(self):
        inner = [0.3, -0.2, 0.05, 0.02, 0.01]
        outer = [0.0, 0.0, 1.0, 0.8, 0.2]
        area = lambda g: math.sqrt(g[2] * g[3] - g[4] ** 2)
        assert ellipse_iou(inner, outer) == pytest.approx(area(inner) / area(outer), rel=1e-12)

    def test_variance_floor_against_unit(self):
        floor = [0.3, 0.0, VARIANCE_FLOOR, VARIANCE_FLOOR, 0.0]
        unit = [0.0, 0.0, 1.0, 1.0, 0.0]
        assert ellipse_iou(floor, unit) == pytest.approx(VARIANCE_FLOOR, rel=1e-9)
        assert ellipse_iou(unit, floor) == ellipse_iou(floor, unit)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(4)
        ps = [random_gauss_box(rng, 1.0) for _ in range(20)]
        qs = [random_gauss_box(rng, 1.0) for _ in range(20)]
        batch = iou_ellipse_pairs(as_rows(ps), as_rows(qs))
        single = [ellipse_iou(*as_rows([p, q])) for p, q in zip(ps, qs)]
        np.testing.assert_array_equal(batch, single)

    def test_row_not_positive_definite_gives_nan(self):
        rng = np.random.default_rng(8)
        ps = as_rows([random_gauss_box(rng, 1.0) for _ in range(8)])
        qs = as_rows([random_gauss_box(rng, 1.0) for _ in range(8)])
        bad_p, bad_q = ps.copy(), qs.copy()
        bad_p[1, 2] *= -1.0  # a < 0
        bad_q[3, 2] *= -1.0
        bad_p[6, 2:4] *= -1.0  # a, b < 0 with a positive determinant
        bad_p[4, 4] = 2.0 * math.sqrt(bad_p[4, 2] * bad_p[4, 3])  # c^2 > ab
        bad_q[5, 4] = -2.0 * math.sqrt(bad_q[5, 2] * bad_q[5, 3])
        with np.errstate(invalid="ignore"):
            got = iou_ellipse_pairs(bad_p, bad_q)
        bad = [1, 3, 4, 5, 6]
        assert np.isnan(got[bad]).all()
        good = [0, 2, 7]
        np.testing.assert_array_equal(got[good], iou_ellipse_pairs(ps, qs)[good])

    @pytest.mark.parametrize("swap", [False, True], ids=["bad-first", "bad-second"])
    def test_row_not_finite_or_overflowing_gives_nan(self, swap):
        unit = [0.5, 0.0, 1.0, 1.0, 0.0]
        bad_rows = [
            [math.nan, 0.0, 1.0, 1.0, 0.0],
            [0.5, math.inf, 1.0, 1.0, 0.0],
            [-math.inf, 0.0, 1.0, 1.0, 0.0],
            [0.5, 0.0, math.inf, 1.0, 0.0],
            [0.5, 0.0, 1.0, 1.0, math.nan],
            # The disk frame's c1^2 overflows this far apart.
            [1e155, 0.0, 1.0, 1.0, 0.0],
            [0.5, -1e155, 1.0, 1.0, 0.0],
            circle(1e155, 0.0, 1e-10),
        ]
        rng = np.random.default_rng(9)
        n = 2 * len(bad_rows)
        ps = as_rows([random_gauss_box(rng, 1.0) for _ in range(n)])
        qs = as_rows([random_gauss_box(rng, 1.0) for _ in range(n)])
        want = iou_ellipse_pairs(ps, qs)
        bad_p, bad_q = ps.copy(), qs.copy()
        bad = np.arange(1, n, 2)
        bad_p[bad], bad_q[bad] = bad_rows, unit
        if swap:
            bad_p, bad_q = bad_q, bad_p
        with np.errstate(all="ignore"):
            got = iou_ellipse_pairs(bad_p, bad_q)
        assert np.isnan(got[bad]).all()
        good = np.arange(0, n, 2)
        np.testing.assert_array_equal(got[good], want[good])

    def test_far_but_finite_pair_is_disjoint(self):
        # Short of the overflow above, the frame holds and the pair scores 0.
        unit = [0.5, 0.0, 1.0, 1.0, 0.0]
        far = [1e154, 0.0, 1.0, 1.0, 0.0]
        assert ellipse_iou(far, unit) == ellipse_iou(unit, far) == 0.0


_gauss_rows = st.builds(
    lambda x, y, ap, bp, th: [x, y, *cov_from_angles(AngleCov(ap, bp, th))],
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(0.02, 3.0),
    st.floats(0.02, 3.0),
    st.floats(-math.pi / 4, math.pi / 4),
)


def _area(row):
    return math.sqrt(row[2] * row[3] - row[4] ** 2)


# The scalar and batch Bhattacharyya paths stay separate (a batch of one
# is several times slower), so these properties pin them together.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(_gauss_rows, _gauss_rows)
def test_scalar_similarity_matches_batch_kernels(p, q):
    rep = similarity(GaussBox(*p), GaussBox(*q))
    rows_p, rows_q = np.array([p]), np.array([q])
    assert bd_pairs(rows_p, rows_q)[0] == pytest.approx(rep.b_d, rel=1e-12)
    assert hd_pairs(rows_p, rows_q)[0] == pytest.approx(rep.h_d, rel=1e-12)
    assert prob_iou_pairs(rows_p, rows_q)[0] == pytest.approx(rep.prob_iou, rel=1e-12)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_gauss_rows, _gauss_rows, st.sampled_from(["l1", "l2"]))
def test_grad_general_matches_the_fit_step_bits(p, q, which):
    # The fit step takes the two rows' floats and keeps the gradient as
    # floats, grad_general wraps the same floats in an array: both must
    # carry the same bits.
    gp, gq = GaussBox(*p), GaussBox(*q)
    b_d = similarity(gp, gq).b_d
    assume(which == "l2" or b_d > 0.0)
    want = np.array(_grad_terms(*p, *q))
    if which == "l1":
        want = want * _l1_factor_at(b_d)
    assert grad_general(gp, gq, which).tobytes() == want.tobytes()
    assert np.array(_loss_and_grad(p, q, which)[2]).tobytes() == want.tobytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_gauss_rows, _gauss_rows)
def test_ellipse_iou_symmetric_and_bounded(p, q):
    iou = ellipse_iou(p, q)
    assert iou == pytest.approx(ellipse_iou(q, p), abs=1e-12)
    small, big = sorted((_area(p), _area(q)))
    assert 0.0 <= iou <= small / big * (1 + 1e-12)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    _gauss_rows,
    _gauss_rows,
    st.floats(0.1, 10.0),
    st.floats(-math.pi, math.pi),
    st.floats(-5.0, 5.0),
    st.floats(-5.0, 5.0),
)
def test_ellipse_iou_similarity_invariant(p, q, scale, phi, tx, ty):
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])

    def moved(row):
        x, y, a, b, cc = row
        mu = scale * rot @ [x, y] + [tx, ty]
        cov = scale * scale * rot @ np.array([[a, cc], [cc, b]]) @ rot.T
        return [mu[0], mu[1], cov[0, 0], cov[1, 1], cov[0, 1]]

    assert ellipse_iou(moved(p), moved(q)) == pytest.approx(ellipse_iou(p, q), abs=1e-9)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_gauss_rows, _gauss_rows)
def test_ellipse_iou_matches_fine_raster(p, q):
    assert ellipse_iou(p, q) == pytest.approx(raster_iou(p, q), abs=1e-4)


_eccentric_rows = st.builds(
    lambda x, y, la, lb, th: [x, y, *cov_from_angles(AngleCov(math.exp(la), math.exp(lb), th))],
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-8.0, 2.0),
    st.floats(-8.0, 2.0),
    st.floats(-math.pi / 4, math.pi / 4),
)


def _ngon(e, n, scale=1.0):
    """Vertices, CCW, of the ellipse's points at parameters 2 pi k / n,
    pushed out from its center by scale."""
    t = 2.0 * np.pi * np.arange(n) / n
    cos_t, sin_t = math.cos(e.theta), math.sin(e.theta)
    u, w = scale * e.semi_major * np.cos(t), scale * e.semi_minor * np.sin(t)
    return np.column_stack([e.x0 + cos_t * u - sin_t * w, e.y0 + sin_t * u + cos_t * w])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_eccentric_rows, _eccentric_rows)
def test_ellipse_iou_within_polygon_bracket(p, q):
    # B's inscribed N-gon lies in B, and B in the N-gon with its vertices
    # pushed out by 1 / cos(pi / N), so the exact overlaps of the two
    # polygons with A bracket |A ∩ B|.  The bracket is at most
    # (pi / N)^2 |B| wide, so it also checks that the two fan sums agree.
    n = 2000
    ea, eb = (gbb_to_ellipse(GaussBox(*row)) for row in (p, q))
    areas = math.pi * (ea.semi_major * ea.semi_minor + eb.semi_major * eb.semi_minor)
    iou = ellipse_iou(p, q)
    inter = iou * areas / (1.0 + iou)
    a = (ea.x0, ea.y0, ea.semi_major, ea.semi_minor, ea.theta)
    lo = ellipse_intersection_area(_ngon(eb, n), *a)
    hi = ellipse_intersection_area(_ngon(eb, n, 1.0 / math.cos(math.pi / n)), *a)
    assert hi - lo <= 2.5e-6 * areas
    slack = 1e-12 * areas
    assert lo - slack <= inter <= hi + slack


# Angles of every kind, multiples of pi / 2 (where corners land on the axes) among them.
_thetas = st.one_of(st.integers(-4, 4).map(lambda k: k * math.pi / 2), st.floats(-4.0, 4.0))


@st.composite
def _box_pairs(draw):
    """(a, b) as (x, y, w, h, theta) rows: an hbb is theta 0, and not both are hbbs."""
    hbb_a, hbb_b = draw(st.sampled_from([(True, False), (False, True), (False, False)]))
    offset = draw(st.sampled_from([0.0, 10.0, 1e4, 1e7, 1e9]))
    x, y = (offset + draw(st.floats(-10.0, 10.0)) for _ in range(2))
    w, h = (draw(st.floats(0.01, 100.0)) for _ in range(2))
    theta = draw(_thetas)
    c, s = math.cos(theta), math.sin(theta)
    relation = draw(st.sampled_from(["identical", "flush", "nested", "disjoint", "overlapping"]))
    if relation == "identical":
        b = [x, y, w, h, theta]
    elif relation == "flush":  # sharing the edge at a's +w side
        w2 = draw(st.floats(0.01, 100.0))
        b = [x + (w + w2) / 2 * c, y + (w + w2) / 2 * s, w2, h, theta]
    elif relation == "nested":
        shrink = draw(st.floats(0.05, 0.9))
        b = [x, y, w * shrink, h * shrink, theta + draw(st.floats(-0.1, 0.1))]
    elif relation == "disjoint":
        gap = (w + h) * draw(st.floats(1.0, 10.0))
        b = [x + gap * c, y + gap * s, w, h, draw(_thetas)]
    else:
        b = [x + draw(st.floats(-1.0, 1.0)) * w, y + draw(st.floats(-1.0, 1.0)) * h,
             w * draw(st.floats(0.5, 2.0)), h * draw(st.floats(0.5, 2.0)), draw(_thetas)]
    a = [x, y, w, h, 0.0 if hbb_a else theta]
    b[4] = 0.0 if hbb_b else b[4]
    return (a, hbb_a), (b, hbb_b)


def _box(row, hbb):
    return Hbb(*row[:4]) if hbb else Obb(*row)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_box_pairs(), min_size=1, max_size=24))
def test_iou_obb_pairs_matches_the_scalar_route_to_the_bit(pairs):
    # score sends box pairs through the kernel and keeps the scalar route's
    # bytes, so each row must carry iou_between's bits, or NaN where it
    # raises (a corner area rounded to <= 0 far from the origin).
    got = iou_obb_pairs(*(np.array([row for row, _ in side]) for side in zip(*pairs)))
    for ((a, hbb_a), (b, hbb_b)), value in zip(pairs, got.tolist()):
        try:
            want = iou_between(_box(a, hbb_a), _box(b, hbb_b))
        except ValueError:
            want = math.nan
        assert value.hex() == want.hex() if math.isfinite(want) else math.isnan(value)


def test_iou_obb_pairs_nan_where_the_scalar_route_refuses():
    far = [1e9, 1e9, 1.0, 1.0]
    with pytest.raises(ValueError, match="positive area"):
        iou_between(Obb(*far, 0.3), Hbb(*far))
    got = iou_obb_pairs([[*far, 0.3], [0, 0, 2, 1, 0.3]], [[*far, 0.0], [0, 0, 2, 1, 0.0]])
    assert math.isnan(got[0])
    assert got[1] == iou_between(Obb(0, 0, 2, 1, 0.3), Hbb(0, 0, 2, 1))
    assert iou_obb_pairs(np.empty((0, 5)), np.empty((0, 5))).shape == (0,)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(
    st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9), st.floats(1e-3, 1e3),
              st.floats(1e-3, 1e3), _thetas),
    min_size=1, max_size=40,
))
def test_stacked_box_corners_match_obb_corners_to_the_bit(rows):
    got = _box_corners(*np.array(rows).T)
    for corners, row in zip(got, rows):
        assert corners.tobytes() == obb_corners(Obb(*row)).tobytes()
