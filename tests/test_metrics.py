import math

import numpy as np
import pytest

from conftest import bc_quadrature, random_gauss_box, transform_gbb
from gbbkit import (
    GaussBox,
    PolygonMask,
    bhattacharyya_terms,
    mask_bc,
    similarity,
)
from gbbkit.batch import hd_pairs, mask_prob_iou_pairs
from gbbkit.polygons import convex_hull, intersection_area, signed_area

UNIT = GaussBox(0, 0, 1, 1, 0)
SHIFTED = GaussBox(2, 0, 1, 1, 0)
SCALED = GaussBox(0, 0, 4, 4, 0)


def square_mask(x0, y0, side=1.0):
    return PolygonMask(
        np.array([[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]])
    )


class TestBhattacharyyaTerms:
    def test_identical_inputs_are_exact_zero(self):
        t = bhattacharyya_terms(UNIT, UNIT)
        assert (t.b1, t.b2) == (0.0, 0.0)

    def test_translated_pair(self):
        t = bhattacharyya_terms(UNIT, SHIFTED)
        assert t.b1 == pytest.approx(0.5, rel=1e-12)
        assert t.b2 == pytest.approx(0.0, abs=1e-15)

    def test_scale_only_pair(self):
        t = bhattacharyya_terms(UNIT, SCALED)
        assert t.b1 == 0.0
        assert t.b2 == pytest.approx(math.log(5 / 4), rel=1e-12)

    def test_b2_ignores_means(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = random_gauss_box(rng)
            q = random_gauss_box(rng)
            moved_p = GaussBox(p.x0 + 3.7, p.y0 - 1.2, p.a, p.b, p.c)
            moved_q = GaussBox(q.x0 - 9.9, q.y0 + 0.4, q.a, q.b, q.c)
            assert bhattacharyya_terms(p, q).b2 == bhattacharyya_terms(moved_p, moved_q).b2

    def test_b1_zero_iff_means_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = random_gauss_box(rng)
            q = random_gauss_box(rng)
            same_mean = GaussBox(p.x0, p.y0, q.a, q.b, q.c)
            assert bhattacharyya_terms(p, same_mean).b1 == 0.0
            if (p.x0, p.y0) != (q.x0, q.y0):
                assert bhattacharyya_terms(p, q).b1 > 0.0

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            bhattacharyya_terms(UNIT, GaussBox(0, 0, 1, 1, 1))

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            p = random_gauss_box(rng, center_scale=1.0)
            q = random_gauss_box(rng, center_scale=1.0)
            t = bhattacharyya_terms(p, q)
            assert math.exp(-(t.b1 + t.b2)) == pytest.approx(bc_quadrature(p, q), abs=1e-6)


class TestSimilarity:
    def test_identical(self):
        rep = similarity(UNIT, UNIT)
        assert (rep.b_d, rep.b_c, rep.h_d, rep.prob_iou) == (0.0, 1.0, 0.0, 1.0)

    def test_translated_pair(self):
        rep = similarity(UNIT, SHIFTED)
        assert rep.b_d == pytest.approx(0.5, rel=1e-12)
        assert rep.b_c == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert rep.h_d == pytest.approx(math.sqrt(1 - math.exp(-0.5)), rel=1e-12)
        assert rep.prob_iou == pytest.approx(1 - math.sqrt(1 - math.exp(-0.5)), rel=1e-12)

    def test_far_pair_underflows_cleanly(self):
        rep = similarity(UNIT, GaussBox(100, 0, 1, 1, 0))
        assert rep.b_d == pytest.approx(1250.0, rel=1e-12)
        assert rep.b_c == 0.0
        assert rep.h_d == 1.0
        assert rep.prob_iou == 0.0

    def test_report_internal_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            rep = similarity(random_gauss_box(rng), random_gauss_box(rng))
            assert rep.b_c == pytest.approx(math.exp(-rep.b_d), rel=1e-12)
            assert rep.h_d**2 == pytest.approx(1.0 - rep.b_c, abs=1e-12)
            assert rep.prob_iou == 1.0 - rep.h_d

    def test_range_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            p = random_gauss_box(rng)
            q = random_gauss_box(rng)
            rep = similarity(p, q)
            assert 0.0 < rep.b_c <= 1.0
            assert 0.0 <= rep.h_d < 1.0
            assert 0.0 < rep.prob_iou <= 1.0
            if p != q:
                assert rep.prob_iou < 1.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_gauss_box(rng)
            q = random_gauss_box(rng)
            assert similarity(p, q) == similarity(q, p)

    def test_similarity_invariance_under_transforms(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            p = random_gauss_box(rng)
            q = random_gauss_box(rng)
            s = rng.uniform(0.1, 10.0)
            phi = rng.uniform(-math.pi, math.pi)
            tx, ty = rng.uniform(-20, 20, size=2)
            before = similarity(p, q).b_d
            after = similarity(
                transform_gbb(p, s, phi, tx, ty), transform_gbb(q, s, phi, tx, ty)
            ).b_d
            assert after == pytest.approx(before, rel=1e-9, abs=1e-9)

    def test_hellinger_triangle_inequality(self):
        rng = np.random.default_rng(7)
        n = 10_000
        trip = np.stack(
            [
                np.array([(g.x0, g.y0, g.a, g.b, g.c) for g in
                          (random_gauss_box(rng) for _ in range(n))])
                for _ in range(3)
            ]
        )
        d_pq = hd_pairs(trip[0], trip[1])
        d_qr = hd_pairs(trip[1], trip[2])
        d_pr = hd_pairs(trip[0], trip[2])
        assert np.all(d_pr <= d_pq + d_qr + 1e-12)


class TestMaskMetrics:
    def test_identical_masks(self):
        sq = square_mask(0, 0)
        assert mask_bc(sq, sq) == pytest.approx(1.0, abs=1e-12)
        assert mask_prob_iou_pairs(mask_bc(sq, sq)) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_masks(self):
        bc = mask_bc(square_mask(0, 0), square_mask(5, 0))
        assert bc == 0.0
        # The plateau that ProbIoU on masks shares with the plain IoU.
        assert mask_prob_iou_pairs(bc) == 0.0

    def test_half_overlap_squares(self):
        a = square_mask(0, 0)
        b = square_mask(0.5, 0)
        bc = mask_bc(a, b)
        assert bc == pytest.approx(0.5, abs=1e-12)
        iou = 0.5 / 1.5
        assert bc >= iou
        assert mask_prob_iou_pairs(bc) == pytest.approx(1 - math.sqrt(0.5), rel=1e-12)

    def test_bc_at_least_iou_on_random_convex_masks(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 2000:
            a = convex_hull(rng.normal(size=(7, 2)))
            b = convex_hull(rng.normal(size=(7, 2)) + rng.uniform(-1.5, 1.5, size=2))
            if len(a) < 3 or len(b) < 3:
                continue
            pa, pb = PolygonMask(a), PolygonMask(b)
            inter = intersection_area(a, b)
            union = signed_area(a) + signed_area(b) - inter
            assert mask_bc(pa, pb) >= inter / union - 1e-12
            checked += 1

    def test_bc_at_least_iou_on_random_boxes(self):
        # The 1e5-pair batch check lives in the acceptance suite; here a few
        # thousand pairs go through the exact polygon path.
        rng = np.random.default_rng(10)
        for _ in range(2000):
            ax, ay, bx, by = rng.uniform(0, 1, size=4)
            aw, ah, bw, bh = rng.uniform(0.05, 1, size=4)
            a = square_mask(ax, ay, 1.0)
            b = square_mask(bx, by, 1.0)
            pa = PolygonMask(np.array([[ax, ay], [ax + aw, ay], [ax + aw, ay + ah], [ax, ay + ah]]))
            pb = PolygonMask(np.array([[bx, by], [bx + bw, by], [bx + bw, by + bh], [bx, by + bh]]))
            inter = intersection_area(pa.vertices, pb.vertices)
            union = aw * ah + bw * bh - inter
            assert mask_bc(pa, pb) >= inter / union - 1e-12
