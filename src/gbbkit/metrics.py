"""Overlap metrics between Gaussian regions and between uniform masks.

The Bhattacharyya distance between two 2D Gaussians splits into a
mean-separation term and a shape term, both closed-form in the covariance
entries.  Everything downstream (coefficient, Hellinger distance, ProbIoU,
both losses) derives from that pair of terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polygons import intersection_area, signed_area
from .types import GaussBox, PolygonMask, require_valid_gbb

LN2 = math.log(2.0)


@dataclass(frozen=True)
class BhattacharyyaTerms:
    """Additive split of the Bhattacharyya distance.

    b1 is the mean-separation term (zero iff the means coincide); b2 is the
    shape term and depends only on the two covariances.
    """

    b1: float
    b2: float


@dataclass(frozen=True)
class SimilarityReport:
    """Bhattacharyya distance/coefficient, Hellinger distance, and ProbIoU.

    Invariants: b_c = exp(-b_d), h_d = sqrt(1 - b_c), prob_iou = 1 - h_d.
    """

    b_d: float
    b_c: float
    h_d: float
    prob_iou: float


def _bd_terms(
    x1: float, y1: float, a1: float, b1: float, c1: float,
    x2: float, y2: float, a2: float, b2: float, c2: float,
) -> tuple[float, float]:
    """Closed-form Bhattacharyya terms from raw Gaussian parameters.

    The 2x2 inverse and determinants are expanded by hand; the denominator
    (a1+a2)(b1+b2) - (c1+c2)**2 is positive whenever both inputs are
    positive-definite.  Identical parameters short-circuit to exact zeros,
    which pins the L1 singular point precisely at p == q.
    """
    if x1 == x2 and y1 == y2 and a1 == a2 and b1 == b2 and c1 == c2:
        return 0.0, 0.0
    asum = a1 + a2
    bsum = b1 + b2
    csum = c1 + c2
    dx = x1 - x2
    dy = y1 - y2
    denom = asum * bsum - csum * csum
    term1 = 0.25 * (asum * dy * dy + bsum * dx * dx - 2.0 * csum * dx * dy) / denom
    det1 = a1 * b1 - c1 * c1
    det2 = a2 * b2 - c2 * c2
    term2 = 0.5 * math.log(denom / (4.0 * math.sqrt(det1 * det2)))
    return term1, term2


def bhattacharyya_terms(p: GaussBox, q: GaussBox) -> BhattacharyyaTerms:
    """Mean-separation and shape terms of the Bhattacharyya distance."""
    require_valid_gbb(p)
    require_valid_gbb(q)
    b1, b2 = _bd_terms(p.x0, p.y0, p.a, p.b, p.c, q.x0, q.y0, q.a, q.b, q.c)
    return BhattacharyyaTerms(b1, b2)


def similarity(p: GaussBox, q: GaussBox) -> SimilarityReport:
    """Full similarity report between two Gaussian regions.

    b_d is clamped to >= 0 before exponentiation: roundoff can land a hair
    below zero for near-identical inputs, and the clamp keeps b_c <= 1.
    h_d uses expm1 so it stays nonzero (metric axiom) even when b_c rounds
    to 1 for nearly identical inputs.
    """
    require_valid_gbb(p)
    require_valid_gbb(q)
    return _similarity_report(*_bd_terms(p.x0, p.y0, p.a, p.b, p.c, q.x0, q.y0, q.a, q.b, q.c))


def _similarity_report(b1: float, b2: float) -> SimilarityReport:
    """The report of similarity from the two Bhattacharyya terms, unvalidated."""
    b_d = max(b1 + b2, 0.0)
    h_d = _hellinger(b_d)
    return SimilarityReport(b_d=b_d, b_c=math.exp(-b_d), h_d=h_d, prob_iou=1.0 - h_d)


def _hellinger(b_d: float) -> float:
    """Hellinger distance from a clamped Bhattacharyya distance b_d >= 0."""
    return math.sqrt(max(0.0, -math.expm1(-b_d)))


def loss_l2_axis_aligned(p: GaussBox, q: GaussBox) -> float:
    """Bhattacharyya distance for diagonal covariances, offset by -ln 2.

    Valid only for c1 = c2 = 0.  The constant offset does not affect
    gradients, so the value equals similarity(p, q).b_d - ln 2 and the
    minimum at p == q is -ln 2.
    """
    require_valid_gbb(p)
    require_valid_gbb(q)
    if p.c != 0.0 or q.c != 0.0:
        raise ValueError("axis-aligned loss requires diagonal covariances (c == 0)")
    b1, b2 = _bd_terms(p.x0, p.y0, p.a, p.b, p.c, q.x0, q.y0, q.a, q.b, q.c)
    return b1 + b2 - LN2


def mask_bc(m1: PolygonMask, m2: PolygonMask) -> float:
    """Bhattacharyya coefficient of two masks viewed as uniform densities.

    Equals intersection_area / sqrt(area1 * area2); always >= the mask IoU
    because sqrt(area1 * area2) <= union area.
    """
    area1 = signed_area(m1.vertices)
    area2 = signed_area(m2.vertices)
    inter = intersection_area(m1.vertices, m2.vertices)
    return min(inter / math.sqrt(area1 * area2), 1.0)


def mask_probiou(m1: PolygonMask, m2: PolygonMask) -> float:
    """Hellinger-based similarity of two uniform masks: 1 - sqrt(1 - mask_bc).

    Zero for disjoint masks, so as a loss it shares the plateau problem of
    the plain IoU.
    """
    return 1.0 - math.sqrt(max(0.0, 1.0 - mask_bc(m1, m2)))


__all__ = [
    "LN2",
    "BhattacharyyaTerms",
    "SimilarityReport",
    "bhattacharyya_terms",
    "similarity",
    "loss_l2_axis_aligned",
    "mask_bc",
    "mask_probiou",
]
