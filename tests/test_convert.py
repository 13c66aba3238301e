import math

import numpy as np
import pytest

from conftest import random_gauss_box
from gbbkit import (
    DEFAULT_LEVEL_SET_RADIUS,
    AngleCov,
    Ellipse,
    GaussBox,
    Hbb,
    Obb,
    PolygonMask,
    constrained_to_cov,
    cov_from_angles,
    ellipse_to_gbb,
    gbb_to_angle_cov,
    gbb_to_ellipse,
    gbb_to_hbb,
    gbb_to_obb,
    hbb_to_gbb,
    mask_to_gbb,
    mask_to_hbb,
    mask_to_obb,
    obb_to_gbb,
    r_from_tau,
    shape_to_gbb,
    tau_from_r,
    to_crisp,
    to_hbb,
    to_obb,
    to_polygon,
    validate_gbb,
)
from gbbkit.convert import obb_corners


def rect_polygon(cx, cy, w, h, theta=0.0):
    c, s = math.cos(theta), math.sin(theta)
    local = np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]])
    rot = np.array([[c, -s], [s, c]])
    return PolygonMask(local @ rot.T + [cx, cy])


class TestHbbToGbb:
    def test_worked_example(self):
        g = hbb_to_gbb(Hbb(3, 4, 6, 12))
        assert (g.x0, g.y0, g.a, g.b, g.c) == (3, 4, 3.0, 12.0, 0.0)

    def test_unit_variance_box(self):
        g = hbb_to_gbb(Hbb(0, 0, math.sqrt(12), math.sqrt(12)))
        assert g.a == pytest.approx(1.0, rel=1e-15)
        assert g.b == pytest.approx(1.0, rel=1e-15)

    def test_direct_substitution(self):
        g = hbb_to_gbb(Hbb(1, 2, 2, 4))
        assert g.a == pytest.approx(1 / 3, rel=1e-15)
        assert g.b == pytest.approx(4 / 3, rel=1e-15)
        assert g.c == 0.0


class TestObbToGbb:
    def test_quarter_turn_example(self):
        g = obb_to_gbb(Obb(0, 0, math.sqrt(12), math.sqrt(48), math.pi / 4))
        assert g.a == pytest.approx(2.5, rel=1e-12)
        assert g.b == pytest.approx(2.5, rel=1e-12)
        assert g.c == pytest.approx(-1.5, rel=1e-12)

    def test_zero_angle_reduces_to_hbb(self):
        obb = Obb(1, -2, 3, 5, 0.0)
        g_obb = obb_to_gbb(obb)
        g_hbb = hbb_to_gbb(Hbb(1, -2, 3, 5))
        assert (g_obb.a, g_obb.b, g_obb.c) == (g_hbb.a, g_hbb.b, g_hbb.c)

    def test_isotropic_is_angle_independent(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-math.pi, math.pi, size=20):
            g = obb_to_gbb(Obb(0, 0, 2, 2, theta))
            assert g.a == pytest.approx(1 / 3, rel=1e-12)
            assert g.b == pytest.approx(1 / 3, rel=1e-12)
            assert g.c == pytest.approx(0.0, abs=1e-12)


class TestAngleCovRoundTrip:
    def test_expansion_example(self):
        assert cov_from_angles(AngleCov(1, 4, math.pi / 4)) == pytest.approx(
            (2.5, 2.5, -1.5), rel=1e-12
        )

    def test_identity_at_zero_angle(self):
        assert cov_from_angles(AngleCov(2.0, 0.7, 0.0)) == (2.0, 0.7, 0.0)

    def test_swap_ambiguity_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ap, bp = rng.uniform(0.1, 5.0, size=2)
            theta = rng.uniform(-math.pi, math.pi)
            first = cov_from_angles(AngleCov(ap, bp, theta))
            second = cov_from_angles(AngleCov(bp, ap, theta + math.pi / 2))
            assert first == pytest.approx(second, abs=1e-12)

    def test_canonical_factorization_example(self):
        ac = gbb_to_angle_cov(GaussBox(0, 0, 2.5, 2.5, -1.5))
        # Canonical equivalent of (1, 4, pi/4).
        assert ac.a_prime == pytest.approx(4.0, rel=1e-12)
        assert ac.b_prime == pytest.approx(1.0, rel=1e-12)
        assert ac.theta == pytest.approx(-math.pi / 4, rel=1e-12)
        assert cov_from_angles(ac) == pytest.approx((2.5, 2.5, -1.5), rel=1e-12)

    def test_isotropic_convention(self):
        ac = gbb_to_angle_cov(GaussBox(0, 0, 1, 1, 0))
        assert (ac.a_prime, ac.b_prime, ac.theta) == (1.0, 1.0, 0.0)

    def test_diagonal_stays_diagonal(self):
        ac = gbb_to_angle_cov(GaussBox(0, 0, 3, 12, 0))
        assert (ac.a_prime, ac.b_prime, ac.theta) == (3.0, 12.0, 0.0)

    def test_reconstruction_within_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            g = random_gauss_box(rng)
            ac = gbb_to_angle_cov(g)
            assert -math.pi / 4 <= ac.theta <= math.pi / 4
            a, b, c = cov_from_angles(ac)
            assert a == pytest.approx(g.a, rel=1e-12, abs=1e-12)
            assert b == pytest.approx(g.b, rel=1e-12, abs=1e-12)
            assert c == pytest.approx(g.c, rel=1e-12, abs=1e-12)


class TestGbbToObb:
    def test_diagonal_example(self):
        obb = gbb_to_obb(GaussBox(3, 4, 3, 12, 0))
        assert (obb.x0, obb.y0) == (3, 4)
        assert obb.w == pytest.approx(6.0, rel=1e-12)
        assert obb.h == pytest.approx(12.0, rel=1e-12)
        assert obb.theta == 0.0

    def test_isotropic_square_theta_zero(self):
        obb = gbb_to_obb(GaussBox(0, 0, 1, 1, 0))
        assert obb.w == pytest.approx(obb.h, rel=1e-12)
        assert obb.theta == 0.0

    def test_rotated_example_up_to_angle_equivalence(self):
        obb = gbb_to_obb(GaussBox(0, 0, 2.5, 2.5, -1.5))
        assert sorted([obb.w, obb.h]) == pytest.approx(
            sorted([math.sqrt(12), math.sqrt(48)]), rel=1e-12
        )
        g = obb_to_gbb(obb)
        assert (g.a, g.b, g.c) == pytest.approx((2.5, 2.5, -1.5), rel=1e-12)

    def test_round_trip_over_random_obbs(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            w, h = rng.uniform(0.5, 5.0, size=2)
            if abs(w - h) < 1e-3:
                continue
            obb = Obb(
                rng.uniform(-5, 5),
                rng.uniform(-5, 5),
                w,
                h,
                rng.uniform(-math.pi / 4 + 1e-6, math.pi / 4 - 1e-6),
            )
            back = gbb_to_obb(obb_to_gbb(obb))
            assert back.x0 == pytest.approx(obb.x0, rel=1e-9, abs=1e-9)
            assert back.y0 == pytest.approx(obb.y0, rel=1e-9, abs=1e-9)
            assert back.w == pytest.approx(obb.w, rel=1e-9)
            assert back.h == pytest.approx(obb.h, rel=1e-9)
            assert back.theta == pytest.approx(obb.theta, rel=1e-9, abs=1e-9)


class TestMaskConversions:
    def test_axis_rectangle_matches_hbb_route(self):
        g_mask = mask_to_gbb(rect_polygon(3, 4, 6, 12))
        g_box = hbb_to_gbb(Hbb(3, 4, 6, 12))
        assert (g_mask.a, g_mask.b) == pytest.approx((g_box.a, g_box.b), rel=1e-12)
        assert g_mask.c == pytest.approx(0.0, abs=1e-12)

    def test_rotated_rectangle_matches_obb_route(self):
        theta = 0.6
        g_mask = mask_to_gbb(rect_polygon(1, -1, 2, 5, theta))
        g_box = obb_to_gbb(Obb(1, -1, 2, 5, theta))
        for field in ("x0", "y0", "a", "b", "c"):
            assert getattr(g_mask, field) == pytest.approx(
                getattr(g_box, field), rel=1e-9, abs=1e-9
            )

    def test_unit_triangle_moments(self):
        g = mask_to_gbb(PolygonMask(np.array([[0, 0], [1, 0], [0, 1]])))
        assert (g.x0, g.y0) == pytest.approx((1 / 3, 1 / 3), rel=1e-12)
        assert g.a == pytest.approx(1 / 18, rel=1e-12)
        assert g.b == pytest.approx(1 / 18, rel=1e-12)
        assert g.c == pytest.approx(-1 / 36, rel=1e-12)

    def test_hbb_of_axis_rectangle_is_identity(self):
        box = mask_to_hbb(rect_polygon(3, 4, 6, 12))
        assert (box.x0, box.y0, box.w, box.h) == pytest.approx((3, 4, 6, 12), rel=1e-12)

    def test_hbb_of_unit_triangle(self):
        box = mask_to_hbb(PolygonMask(np.array([[0, 0], [1, 0], [0, 1]])))
        assert (box.x0, box.y0, box.w, box.h) == pytest.approx((0.5, 0.5, 1, 1))

    def test_obb_recovers_rotated_rectangle(self):
        poly = rect_polygon(2, -3, 4, 1.5, math.radians(30))
        obb = mask_to_obb(poly)
        assert obb.w * obb.h == pytest.approx(6.0, rel=1e-9)
        assert sorted([obb.w, obb.h]) == pytest.approx([1.5, 4.0], rel=1e-9)
        assert (obb.x0, obb.y0) == pytest.approx((2, -3), abs=1e-9)


class TestEllipse:
    def test_square_box_gives_equal_area_circle(self):
        g = hbb_to_gbb(Hbb(0, 0, 12, 12))
        e = gbb_to_ellipse(g)
        assert e.semi_major == pytest.approx(12 / math.sqrt(math.pi), rel=1e-12)
        assert e.semi_minor == pytest.approx(e.semi_major, rel=1e-12)
        area = math.pi * e.semi_major * e.semi_minor
        assert area == pytest.approx(144.0, rel=1e-12)

    def test_default_radius_covers_85_percent(self):
        assert tau_from_r(DEFAULT_LEVEL_SET_RADIUS) == pytest.approx(
            1.0 - math.exp(-6.0 / math.pi), rel=1e-15
        )

    def test_rejects_nonpositive_radius(self):
        g = hbb_to_gbb(Hbb(0, 0, 1, 1))
        with pytest.raises(ValueError):
            gbb_to_ellipse(g, r=0.0)
        with pytest.raises(ValueError):
            gbb_to_ellipse(g, r=-1.0)
        with pytest.raises(ValueError, match="level-set radius must be positive, got 0.0"):
            tau_from_r(0.0)

    def test_area_identity_over_random_obbs(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            obb = Obb(
                rng.uniform(-5, 5),
                rng.uniform(-5, 5),
                rng.uniform(0.2, 6.0),
                rng.uniform(0.2, 6.0),
                rng.uniform(-math.pi, math.pi),
            )
            e = gbb_to_ellipse(obb_to_gbb(obb))
            assert math.pi * e.semi_major * e.semi_minor == pytest.approx(
                obb.w * obb.h, rel=1e-9
            )


class TestInverses:
    def test_ellipse_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = random_gauss_box(rng)
            back = ellipse_to_gbb(gbb_to_ellipse(g))
            assert (back.x0, back.y0) == (g.x0, g.y0)
            assert (back.a, back.b, back.c) == pytest.approx((g.a, g.b, g.c), rel=1e-9, abs=1e-12)

    def test_hbb_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            box = Hbb(*rng.uniform(-5, 5, 2), *rng.uniform(0.1, 6.0, 2))
            back = gbb_to_hbb(hbb_to_gbb(box))
            assert (back.x0, back.y0) == (box.x0, box.y0)
            assert (back.w, back.h) == pytest.approx((box.w, box.h), rel=1e-12)

    def test_hbb_rejects_correlated_gaussian(self):
        with pytest.raises(ValueError, match="use obb instead"):
            gbb_to_hbb(GaussBox(0, 0, 2, 1, 0.3))

    @pytest.mark.parametrize("turns", [1, -1, 2, 3])
    def test_obb_at_a_quarter_turn_converts_to_hbb(self, turns):
        # cov_from_angles leaves a c of a few ulp of max(a, b) at fl(k pi / 2).
        box = to_hbb(Obb(1.0, 2.0, 3.0, 1.0, turns * math.pi / 2))
        w, h = (3.0, 1.0) if turns % 2 == 0 else (1.0, 3.0)
        assert (box.x0, box.y0) == (1.0, 2.0)
        assert (box.w, box.h) == pytest.approx((w, h), rel=1e-15, abs=0.0)
        with pytest.raises(ValueError, match="use obb instead"):
            to_hbb(Obb(1.0, 2.0, 3.0, 1.0, turns * math.pi / 2 + 1e-9))


class TestShapeToGbb:
    def test_dispatch_over_all_shape_types(self):
        g = GaussBox(1, 2, 2, 1, 0.3)
        hbb, obb = Hbb(1, 2, 3, 1), Obb(1, 2, 3, 1, 0.4)
        poly = rect_polygon(1, 2, 3, 1, 0.4)
        ell = Ellipse(1, 2, 2, 1, 0.3)
        assert shape_to_gbb(g) is g
        assert shape_to_gbb(hbb) == hbb_to_gbb(hbb)
        assert shape_to_gbb(obb) == obb_to_gbb(obb)
        assert shape_to_gbb(poly) == mask_to_gbb(poly)
        assert shape_to_gbb(ell) == ellipse_to_gbb(ell)
        with pytest.raises(TypeError):
            shape_to_gbb(AngleCov(1.0, 1.0, 0.0))

    def test_to_crisp_turns_only_gaussians_into_ellipses(self):
        g = GaussBox(1, 2, 2, 1, 0.3)
        assert to_crisp(g) == gbb_to_ellipse(g)
        hbb = Hbb(1, 2, 3, 1)
        assert to_crisp(hbb) is hbb


class TestBoxAndPolygonTargets:
    def test_to_hbb_dispatch(self):
        hbb, poly = Hbb(1, 2, 3, 1), rect_polygon(1, 2, 3, 1, 0.4)
        g, ell = GaussBox(1, 2, 2, 1, 0.0), Ellipse(1, 2, 2, 1, 0.0)
        assert to_hbb(hbb) is hbb
        assert to_hbb(poly) == mask_to_hbb(poly)
        assert to_hbb(g) == gbb_to_hbb(g)
        assert to_hbb(ell) == gbb_to_hbb(ellipse_to_gbb(ell))
        with pytest.raises(ValueError, match="use obb instead"):
            to_hbb(Obb(1, 2, 3, 1, 0.4))

    def test_to_obb_dispatch(self):
        obb, poly = Obb(1, 2, 3, 1, 0.4), rect_polygon(1, 2, 3, 1, 0.4)
        g, ell = GaussBox(1, 2, 2, 1, 0.3), Ellipse(1, 2, 2, 1, 0.3)
        assert to_obb(obb) is obb
        assert to_obb(Hbb(1, 2, 3, 1)) == Obb(1, 2, 3, 1, 0.0)
        assert to_obb(poly) == mask_to_obb(poly)
        assert to_obb(g) == gbb_to_obb(g)
        assert to_obb(ell) == gbb_to_obb(ellipse_to_gbb(ell))

    def test_to_polygon_takes_only_crisp_shapes(self):
        hbb, obb, poly = Hbb(1, 2, 3, 1), Obb(1, 2, 3, 1, 0.4), rect_polygon(1, 2, 3, 1)
        assert to_polygon(poly) is poly
        corners = [[-0.5, 1.5], [2.5, 1.5], [2.5, 2.5], [-0.5, 2.5]]
        assert np.array_equal(to_polygon(hbb).vertices, corners)
        assert np.array_equal(to_polygon(obb).vertices, obb_corners(obb))
        for fuzzy in (GaussBox(1, 2, 2, 1, 0.3), Ellipse(1, 2, 2, 1, 0.3)):
            with pytest.raises(ValueError, match="fuzzy shapes convert to ellipse"):
                to_polygon(fuzzy)


class TestRFromTau:
    def test_default_radius_inverse(self):
        tau = 1.0 - math.exp(-6.0 / math.pi)
        assert r_from_tau(tau) == pytest.approx(math.sqrt(12.0 / math.pi), rel=1e-12)

    def test_unit_radius(self):
        assert r_from_tau(1.0 - math.exp(-0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_small_tau_limit(self):
        assert 0.0 < r_from_tau(1e-12) < 2e-6

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, tau):
        with pytest.raises(ValueError):
            r_from_tau(tau)


class TestConstrainedParams:
    def test_identity_point(self):
        assert constrained_to_cov(0, 0, 0) == (1.0, 1.0, 0.0)

    def test_worked_example(self):
        a, b, c = constrained_to_cov(math.log(2), 0, 2)
        assert (a, b, c) == pytest.approx((2.0, 3.0, 2.0), rel=1e-12)
        assert a * b - c * c == pytest.approx(2.0, rel=1e-12)

    def test_clamping_keeps_values_finite(self):
        a, b, c = constrained_to_cov(1e6, -1e6, 0.5)
        assert math.isfinite(a) and math.isfinite(b)
        assert a == pytest.approx(math.exp(30.0))

    def test_output_always_positive_definite(self):
        rng = np.random.default_rng(7)
        params = rng.uniform(-10.0, 10.0, size=(100_000, 3))
        for alpha, beta, c in params:
            a, b, cc = constrained_to_cov(alpha, beta, c)
            ok, why = validate_gbb(GaussBox(0.0, 0.0, a, b, cc))
            assert ok, why


def test_isotropic_round_trip_loses_theta():
    g = GaussBox(0, 0, 2.0, 2.0, 0.0)
    obb = gbb_to_obb(g)
    assert obb.theta == 0.0
    back = obb_to_gbb(obb)
    assert (back.a, back.b, back.c) == pytest.approx((g.a, g.b, g.c), rel=1e-12)
