import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from conftest import central_difference, random_gauss_box, random_hbb
from gbbkit import (
    GaussBox,
    Hbb,
    grad_general,
    grad_l1_hbb,
    grad_l2_hbb,
    hbb_to_gbb,
    similarity,
    validate_gbb,
)
from gbbkit.gradients import _grad_terms


def bd_of_hbb_vec(v, q):
    """Loss value as a function of the raw (x, y, w, h) vector, for FD."""
    return similarity(hbb_to_gbb(Hbb(*v)), hbb_to_gbb(q)).b_d


def hd_of_hbb_vec(v, q):
    return similarity(hbb_to_gbb(Hbb(*v)), hbb_to_gbb(q)).h_d


def bd_of_gbb_vec(v, q):
    return similarity(GaussBox(*v), q).b_d


def hd_of_gbb_vec(v, q):
    return similarity(GaussBox(*v), q).h_d


def rel_err(got, want):
    scale = max(np.max(np.abs(want)), 1e-12)
    return np.max(np.abs(got - want)) / scale


def reference_grad_l2_hbb(p, q):
    """Hand-derived closed-form box gradient of the Bhattacharyya distance."""
    dx = p.x0 - q.x0
    dy = p.y0 - q.y0
    sw = p.w * p.w + q.w * q.w
    sh = p.h * p.h + q.h * q.h
    return np.array([
        6.0 * dx / sw,
        6.0 * dy / sh,
        (p.w * p.w - q.w * q.w) / (2.0 * p.w * sw) - 6.0 * p.w * dx * dx / (sw * sw),
        (p.h * p.h - q.h * q.h) / (2.0 * p.h * sh) - 6.0 * p.h * dy * dy / (sh * sh),
    ])


def reference_l1_factor_hbb(p, q):
    """d(sqrt(1 - exp(-t)))/dt at the boxes' Bhattacharyya distance t.

    t comes from the diagonal-covariance closed form
    3 (dx**2/sw + dy**2/sh) + ln(sw sh / (4 p.w q.w p.h q.h)) / 2.
    """
    sw = p.w * p.w + q.w * q.w
    sh = p.h * p.h + q.h * q.h
    b_d = (
        3.0 * ((p.x0 - q.x0) ** 2 / sw + (p.y0 - q.y0) ** 2 / sh)
        + 0.5 * math.log(sw * sh / (4.0 * p.w * q.w * p.h * q.h))
    )
    return math.exp(-b_d) / (2.0 * math.sqrt(-math.expm1(-b_d)))


def box_pairs(rng, n):
    """Random box pairs with sides from e**-7 to e**3, then pairs of tiny
    boxes whose Gaussians fail validate_gbb."""
    def box(scale):
        x, y = rng.uniform(-5, 5, 2)
        return Hbb(x * scale, y * scale, *(scale * np.exp(rng.uniform(-7, 3, 2))))

    pairs = [(box(1.0), box(1.0)) for _ in range(n)]
    tiny = [(box(1e-4), box(1e-4)) for _ in range(n // 10)]
    tiny.append((Hbb(0, 0, 1e-3, 1e-3), Hbb(1e-3, 5e-4, 2e-3, 1e-3)))
    assert all(not validate_gbb(hbb_to_gbb(p))[0] for p, _ in tiny)
    return pairs + tiny


def exact_grad_terms(*args):
    """_grad_terms in exact rational arithmetic on the same float inputs."""
    x1, y1, a1, b1, c1, x2, y2, a2, b2, c2 = map(Fraction, args)
    dx, dy = x1 - x2, y1 - y2
    asum, bsum, csum = a1 + a2, b1 + b2, c1 + c2
    det_sum = asum * bsum - csum * csum
    det1 = a1 * b1 - c1 * c1
    u_x = (bsum * dx - csum * dy) / det_sum
    u_y = (asum * dy - csum * dx) / det_sum
    return (
        u_x / 2,
        u_y / 2,
        bsum / (2 * det_sum) - b1 / (4 * det1) - u_x * u_x / 4,
        asum / (2 * det_sum) - a1 / (4 * det1) - u_y * u_y / 4,
        c1 / (2 * det1) - csum / det_sum - u_x * u_y / 2,
    )


def test_grad_terms_accurate_per_component_on_box_pairs():
    # A box's d/da and d/db can be many orders of magnitude below its other
    # components; each must still be accurate relative to itself.
    worst = 0.0
    for p, q in box_pairs(np.random.default_rng(12), 500):
        args = (*astuple(hbb_to_gbb(p)), *astuple(hbb_to_gbb(q)))
        for got, want in zip(_grad_terms(*args), exact_grad_terms(*args)):
            if want == 0:
                assert got == 0.0
            else:
                worst = max(worst, float(abs(Fraction(got) - want) / abs(want)))
    assert worst < 1e-11


class TestBoxGradientMatchesClosedForm:
    # The hand-derived reference has terms of its own that cancel in d_w
    # and d_h, so agreement is measured against the gradient's largest
    # component rather than each component alone.
    @staticmethod
    def assert_close(got, want):
        atol = 1e-9 * max(np.max(np.abs(want)), 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=atol)

    def test_l2(self):
        for p, q in box_pairs(np.random.default_rng(4), 2000):
            self.assert_close(grad_l2_hbb(p, q).as_array(), reference_grad_l2_hbb(p, q))

    def test_l1(self):
        for p, q in box_pairs(np.random.default_rng(5), 2000):
            want = reference_l1_factor_hbb(p, q) * reference_grad_l2_hbb(p, q)
            self.assert_close(grad_l1_hbb(p, q).as_array(), want)

    def test_l1_singular_at_identity_for_tiny_boxes(self):
        p = Hbb(0, 0, 1e-3, 1e-3)
        assert not validate_gbb(hbb_to_gbb(p))[0]
        assert grad_l1_hbb(p, p).singular


class TestGradL2Hbb:
    def test_zero_iff_identical(self):
        p = Hbb(1, 2, 3, 4)
        g = grad_l2_hbb(p, p)
        assert g.as_array().tolist() == [0.0, 0.0, 0.0, 0.0]
        # Perturbing any single parameter makes the gradient nonzero.
        for bump in (Hbb(1.1, 2, 3, 4), Hbb(1, 1.9, 3, 4), Hbb(1, 2, 3.3, 4), Hbb(1, 2, 3, 4.4)):
            assert grad_l2_hbb(bump, p).norm() > 0.0

    def test_center_component_example(self):
        g = grad_l2_hbb(Hbb(0, 0, 2, 2), Hbb(1, 0, 2, 2))
        assert g.d_x == pytest.approx(-0.75, rel=1e-12)
        assert g.d_y == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = random_hbb(rng)
            q = random_hbb(rng)
            got = grad_l2_hbb(p, q).as_array()
            want = central_difference(
                lambda v: bd_of_hbb_vec(v, q), np.array([p.x0, p.y0, p.w, p.h])
            )
            assert rel_err(got, want) < 1e-5

    def test_rejects_degenerate_boxes(self):
        with pytest.raises(ValueError):
            grad_l2_hbb(Hbb(0, 0, 1, 1), Hbb(0, 0, 0.0, 1))


class TestGradL1Hbb:
    def test_singular_at_identity(self):
        p = Hbb(0, 0, 1, 1)
        g = grad_l1_hbb(p, p)
        assert g.singular
        assert g.as_array().tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_far_boxes_underflow(self):
        g = grad_l1_hbb(Hbb(0, 0, 1, 1), Hbb(100, 0, 1, 1))
        assert not g.singular
        assert g.norm() < 1e-8

    def test_near_identical_exceeds_l2(self):
        p = Hbb(0.01, 0, 1, 1)
        q = Hbb(0, 0, 1, 1)
        assert grad_l1_hbb(p, q).norm() > grad_l2_hbb(p, q).norm()

    def test_chain_factor_exceeds_half_near_optimum(self):
        # As the distance shrinks the L1/L2 gradient ratio grows without bound.
        q = Hbb(0, 0, 1, 1)
        ratios = [
            grad_l1_hbb(Hbb(d, 0, 1, 1), q).norm() / grad_l2_hbb(Hbb(d, 0, 1, 1), q).norm()
            for d in (0.5, 0.1, 0.01)
        ]
        assert all(r > 0.5 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_matches_finite_differences_on_overlapping_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            q = random_hbb(rng)
            p = Hbb(q.x0 + rng.uniform(-1, 1), q.y0 + rng.uniform(-1, 1),
                    q.w * rng.uniform(0.7, 1.4), q.h * rng.uniform(0.7, 1.4))
            got = grad_l1_hbb(p, q).as_array()
            want = central_difference(
                lambda v: hd_of_hbb_vec(v, q), np.array([p.x0, p.y0, p.w, p.h])
            )
            assert rel_err(got, want) < 1e-5


class TestGradGeneral:
    def test_zero_at_identity_l2(self):
        p = GaussBox(1, -1, 2, 1, 0.3)
        assert grad_general(p, p, "l2").tolist() == [0.0] * 5

    def test_l1_rejects_identity(self):
        p = GaussBox(1, -1, 2, 1, 0.3)
        with pytest.raises(ValueError):
            grad_general(p, p, "l1")

    def test_rejects_bad_selector_and_inputs(self):
        p = GaussBox(0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            grad_general(p, p, "l3")
        with pytest.raises(ValueError):
            grad_general(GaussBox(0, 0, -1, 1, 0), p, "l2")

    @pytest.mark.parametrize("which", ["l2", "l1"])
    def test_matches_finite_differences(self, which):
        rng = np.random.default_rng(2)
        fn = bd_of_gbb_vec if which == "l2" else hd_of_gbb_vec
        for _ in range(300):
            p = random_gauss_box(rng, center_scale=2.0)
            q = random_gauss_box(rng, center_scale=2.0)
            got = grad_general(p, q, which)
            want = central_difference(
                lambda v: fn(v, q), np.array([p.x0, p.y0, p.a, p.b, p.c])
            )
            assert rel_err(got, want) < 1e-5

    def test_diagonal_consistency_with_hbb_form(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_hbb(rng)
            q = random_hbb(rng)
            full = grad_general(hbb_to_gbb(p), hbb_to_gbb(q), "l2")
            # Chain through the box-to-variance Jacobian diag(1, 1, w/6, h/6).
            want = np.array([full[0], full[1], full[2] * p.w / 6.0, full[3] * p.h / 6.0])
            np.testing.assert_allclose(grad_l2_hbb(p, q).as_array(), want, atol=1e-9, rtol=1e-9)

    def test_nonvanishing_l2_across_perturbation_scales(self):
        p = GaussBox(0, 0, 1, 1, 0)
        for scale in (1e-6, 1e-4, 1e-2, 1.0, 1e2):
            q = GaussBox(scale, 0, 1, 1, 0)
            assert np.linalg.norm(grad_general(q, p, "l2")) > 0.0
            q2 = GaussBox(0, 0, 1 + scale, 1, 0)
            assert np.linalg.norm(grad_general(q2, p, "l2")) > 0.0
