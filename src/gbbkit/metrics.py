"""Overlap metrics between Gaussian regions and between uniform masks.

The Bhattacharyya distance between two 2D Gaussians splits into a
mean-separation term and a shape term, both closed-form in the covariance
entries.  Everything downstream (coefficient, Hellinger distance, ProbIoU,
both losses) derives from that pair of terms.

fidelity_ious is the paper's first experiment: the exact IoU of each
annotated polygon with its bounding box, rotated box and moment-matched
ellipse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convert import _moments_to_gbb, gbb_to_ellipse
from .polygons import (
    ellipse_intersection_area,
    intersection_area,
    min_area_rect,
    polygon_moments,
    signed_area,
)
from .types import GaussBox, PolygonMask, require_valid_gbb

# Most vertices fidelity_ious stacks into one block.  Each of the block's
# few dozen temporaries then holds a couple of KB, whatever the corpus size.
_FIDELITY_BLOCK_VERTICES = 256


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
    # Two finite determinants whose product overflows keep their root apart.
    root = math.sqrt(det1 * det2) if det1 * det2 != math.inf else math.sqrt(det1) * math.sqrt(det2)
    term2 = 0.5 * math.log(denom / (4.0 * root))
    return term1, term2


def bhattacharyya_terms(p: GaussBox, q: GaussBox) -> BhattacharyyaTerms:
    """Mean-separation and shape terms of the Bhattacharyya distance."""
    require_valid_gbb(p)
    require_valid_gbb(q)
    b1, b2 = _bd_terms(p.x0, p.y0, p.a, p.b, p.c, q.x0, q.y0, q.a, q.b, q.c)
    return BhattacharyyaTerms(b1, b2)


def _bd(
    x1: float, y1: float, a1: float, b1: float, c1: float,
    x2: float, y2: float, a2: float, b2: float, c2: float,
) -> float:
    """Bhattacharyya distance b1 + b2 from raw Gaussian parameters, unvalidated.

    Clamped to >= 0: roundoff can land a hair below zero for near-identical
    inputs, and the clamp keeps b_c <= 1.  A NaN sum stays NaN.
    """
    t1, t2 = _bd_terms(x1, y1, a1, b1, c1, x2, y2, a2, b2, c2)
    return max(t1 + t2, 0.0)


def similarity(p: GaussBox, q: GaussBox) -> SimilarityReport:
    """Full similarity report between two Gaussian regions.

    b_d is _bd's clamped distance.  h_d uses expm1 so it stays nonzero
    (metric axiom) even when b_c rounds to 1 for nearly identical inputs.
    """
    require_valid_gbb(p)
    require_valid_gbb(q)
    b_d = _bd(p.x0, p.y0, p.a, p.b, p.c, q.x0, q.y0, q.a, q.b, q.c)
    h_d = _hellinger(b_d)
    return SimilarityReport(b_d=b_d, b_c=math.exp(-b_d), h_d=h_d, prob_iou=1.0 - h_d)


def _hellinger(b_d: float) -> float:
    """Hellinger distance from a clamped Bhattacharyya distance b_d >= 0; NaN stays NaN."""
    return math.sqrt(-math.expm1(-b_d))


def mask_bc(m1: PolygonMask, m2: PolygonMask) -> float:
    """Bhattacharyya coefficient of two masks viewed as uniform densities.

    Equals intersection_area / sqrt(area1 * area2); always >= the mask IoU
    because sqrt(area1 * area2) <= union area.
    """
    area1 = signed_area(m1.vertices)
    area2 = signed_area(m2.vertices)
    inter = intersection_area(m1.vertices, m2.vertices)
    return min(inter / math.sqrt(area1 * area2), 1.0)


def fidelity_ious(polys: list[PolygonMask]) -> np.ndarray:
    """Exact IoU of each polygon with its hbb, obb and moment-matched ellipse.

    Returns an (n, 3) array, one (hbb, obb, ellipse) row per polygon.  Both
    boxes contain the polygon by construction (tight bounds, and the
    minimum-area rectangle of its hull), so each box's exact IoU is the
    ratio of the smaller area to the larger.  The polygon's area is taken
    relative to its least corner, so an axis-aligned rectangle's equals its
    hbb's w * h exactly; in absolute coordinates the shoelace rounds it.

    Polygons with one vertex count are stacked into (k, n, 2) blocks of at
    most _FIDELITY_BLOCK_VERTICES vertices, and each block runs the bounds,
    the area, the minimum-area rectangle, the moments and the ellipse
    overlap once.  A block of one polygon (a vertex count no other polygon
    has, a group's last one left over, or more than half the budget) runs
    the one-polygon kernels instead, which cost less than a stack of one.
    Every row equals what the polygon gets on its own, to the bit.
    """
    ious = np.empty((len(polys), 3))
    by_count: dict[int, list[int]] = {}
    for i, poly in enumerate(polys):
        by_count.setdefault(len(poly.vertices), []).append(i)
    for n, members in by_count.items():
        step = max(1, _FIDELITY_BLOCK_VERTICES // n)
        for start in range(0, len(members), step):
            rows = members[start : start + step]
            v = np.array([polys[i].vertices for i in rows])
            ious[rows] = _fidelity(v[0] if len(rows) == 1 else v)
    return ious


def _fidelity(v: np.ndarray) -> np.ndarray:
    """fidelity_ious of an (n, 2) polygon or a (k, n, 2) stack, as a (3,) or (k, 3) array."""
    lo = v.min(axis=-2)
    hbb = v.max(axis=-2) - lo
    area = np.asarray(signed_area(v - lo[..., None, :]))
    _, w, h, _ = min_area_rect(v)
    _, mu, cov = polygon_moments(v)
    ellipses = [
        gbb_to_ellipse(_moments_to_gbb(m, c))
        for m, c in zip(mu.reshape(-1, 2), cov.reshape(-1, 2, 2))
    ]
    x0, y0, a, b, theta = np.array(
        [(e.x0, e.y0, e.semi_major, e.semi_minor, e.theta) for e in ellipses]
    ).T.reshape(5, *area.shape)
    inter = ellipse_intersection_area(v, x0, y0, a, b, theta)
    boxes = np.stack((hbb[..., 0] * hbb[..., 1], w * h), axis=-1)
    box_ious = np.minimum(area[..., None], boxes) / np.maximum(area[..., None], boxes)
    ellipse_iou = inter / (area + math.pi * a * b - inter)
    return np.concatenate((box_ious, ellipse_iou[..., None]), axis=-1)


__all__ = [
    "BhattacharyyaTerms",
    "SimilarityReport",
    "bhattacharyya_terms",
    "similarity",
    "mask_bc",
    "fidelity_ious",
]
