"""Vectorized kernels for batch experiments.

Array counterparts of the scalar metric functions, used by the Monte Carlo
drivers where per-pair Python objects would dominate the runtime.  Gaussian
parameter batches are (n, 5) arrays of (x, y, a, b, c); box batches are
(n, 4) arrays of (x, y, w, h), and oriented ones (n, 5) arrays of
(x, y, w, h, theta).  Consistency with the scalar path is pinned by tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .convert import DEFAULT_LEVEL_SET_RADIUS
from .polygons import _box_corners, _next, _turns, signed_area


def gbb_from_hbb(boxes: np.ndarray) -> np.ndarray:
    """(n, 4) center/size boxes to (n, 5) diagonal Gaussian parameters."""
    boxes = np.asarray(boxes, dtype=float)
    out = np.zeros((len(boxes), 5))
    out[:, 0] = boxes[:, 0]
    out[:, 1] = boxes[:, 1]
    out[:, 2] = boxes[:, 2] ** 2 / 12.0
    out[:, 3] = boxes[:, 3] ** 2 / 12.0
    return out


def bd_pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Bhattacharyya distance between (n, 5) Gaussian batches."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dx = p[:, 0] - q[:, 0]
    dy = p[:, 1] - q[:, 1]
    asum = p[:, 2] + q[:, 2]
    bsum = p[:, 3] + q[:, 3]
    csum = p[:, 4] + q[:, 4]
    denom = asum * bsum - csum**2
    b1 = 0.25 * (asum * dy**2 + bsum * dx**2 - 2.0 * csum * dx * dy) / denom
    det1 = p[:, 2] * p[:, 3] - p[:, 4] ** 2
    det2 = q[:, 2] * q[:, 3] - q[:, 4] ** 2
    with np.errstate(over="ignore"):  # metrics._bd_terms' root, apart where det1 * det2 overflows
        root = np.sqrt(det1 * det2)
    big = np.isinf(root)
    root[big] = np.sqrt(det1[big]) * np.sqrt(det2[big])
    b2 = 0.5 * np.log(denom / (4.0 * root))
    return np.maximum(b1 + b2, 0.0)


def hd_pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Hellinger distance between (n, 5) Gaussian batches."""
    return np.sqrt(np.maximum(-np.expm1(-bd_pairs(p, q)), 0.0))


def prob_iou_pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise ProbIoU (1 - Hellinger distance) between Gaussian batches."""
    return 1.0 - hd_pairs(p, q)


def _overlap_1d(c1, s1, c2, s2):
    return np.maximum(
        0.0, np.minimum(c1 + s1 / 2.0, c2 + s2 / 2.0) - np.maximum(c1 - s1 / 2.0, c2 - s2 / 2.0)
    )


def iou_hbb_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise exact IoU between (n, 4) axis-aligned box batches."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    inter = _overlap_1d(a[:, 0], a[:, 2], b[:, 0], b[:, 2]) * _overlap_1d(
        a[:, 1], a[:, 3], b[:, 1], b[:, 3]
    )
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    return inter / union


def rect_mask_bc_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise uniform-mask Bhattacharyya coefficient for box batches.

    Intersection area over the geometric mean of the areas; always at least
    the IoU of the same pair.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    inter = _overlap_1d(a[:, 0], a[:, 2], b[:, 0], b[:, 2]) * _overlap_1d(
        a[:, 1], a[:, 3], b[:, 1], b[:, 3]
    )
    return np.minimum(inter / np.sqrt(a[:, 2] * a[:, 3] * b[:, 2] * b[:, 3]), 1.0)


def mask_prob_iou_pairs(bc: np.ndarray) -> np.ndarray:
    """ProbIoU from uniform-mask Bhattacharyya coefficients."""
    return 1.0 - np.sqrt(np.maximum(1.0 - np.asarray(bc, dtype=float), 0.0))


def _clip_edge(x, y, count, start, end):
    """One Sutherland-Hodgman cut of each row's polygon (its first `count`
    vertices of x and y) by the half-plane left of start -> end.

    polygons.clip_convex's expressions and output order, row-wise.  The
    result is as wide as its longest row, so no row can overflow it.
    """
    n, width = x.shape
    cx1, cy1 = start[:, :1], start[:, 1:]
    ex, ey = end[:, :1] - cx1, end[:, 1:] - cy1
    side = ex * (y - cy1) - ey * (x - cx1)
    # Each vertex's predecessor, the row's last vertex before its first.
    last = np.maximum(count - 1, 0)[:, None]
    px, py, sp = (
        np.concatenate((np.take_along_axis(v, last, 1), v[:, :-1]), axis=1) for v in (x, y, side)
    )
    valid = np.arange(width) < count[:, None]
    inside = side >= 0.0
    cut = valid & ((sp >= 0.0) != inside)
    t = sp / np.where(cut, sp - side, 1.0)
    # Per vertex, the cut point (if the edge into it changes side) and then
    # the vertex itself (if inside), compacted in that order.
    keep = np.stack((cut, valid & inside), axis=2).reshape(n, 2 * width)
    cand_x = np.stack((px + t * (x - px), x), axis=2).reshape(n, 2 * width)
    cand_y = np.stack((py + t * (y - py), y), axis=2).reshape(n, 2 * width)
    count = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, : max(int(count.max(initial=0)), 1)]
    return np.take_along_axis(cand_x, order, 1), np.take_along_axis(cand_y, order, 1), count


def iou_obb_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise exact IoU between (n, 5) (x, y, w, h, theta) box batches.

    Each row equals raster.iou_convex of the two boxes' corners to the bit:
    the corners come from the same matmul, a is clipped against b's edges
    (3 -> 0), (0 -> 1), (1 -> 2), (2 -> 3) with clip_convex's arithmetic,
    and each area is polygons.signed_area of a stack of one vertex count,
    which sums as the lone polygon does.

    A row comes back NaN where the scalar route would raise or give a
    non-finite value (an area not positive, as rounding gives boxes far
    from the origin), or where a turn of b's corners is negative, so that
    intersection_area might not clip against b.  Callers that need the
    reason score such rows with raster.iou_between.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ca, cb = _box_corners(*a.T), _box_corners(*b.T)
    area_a, area_b = signed_area(ca), signed_area(cb)

    x, y, count = ca[:, :, 0], ca[:, :, 1], np.full(len(a), 4)
    for i in (3, 0, 1, 2):
        x, y, count = _clip_edge(x, y, count, cb[:, i], cb[:, (i + 1) % 4])
    inter = np.zeros(len(a))
    for k in np.unique(count[count >= 3]).tolist():
        rows = np.nonzero(count == k)[0]
        poly = np.stack((x[rows, :k], y[rows, :k]), axis=2)
        inter[rows] = np.abs(signed_area(poly))
    # Rounding can put a flush pair's clipped area a few ulp above the smaller one.
    inter = np.minimum(np.minimum(inter, area_a), area_b)

    refused = (area_a <= 0) | (area_b <= 0) | (_turns(_next(cb) - cb) < 0).any(axis=1)
    iou = inter / np.where(refused, 1.0, area_a + area_b - inter)
    return np.where(refused | ~np.isfinite(iou), np.nan, iou)


# The crossing function f is sampled at these angles.  A trig polynomial
# of degree 2 with more than 4 zeros on the circle vanishes identically, so
# 8 samples tell coincident ellipses apart from any other pair.
_SAMPLE_ANGLES = np.arange(8) * (np.pi / 4.0)
_SAMPLE_BASIS = np.stack(
    [
        np.ones(8),
        np.cos(_SAMPLE_ANGLES),
        np.sin(_SAMPLE_ANGLES),
        np.cos(2.0 * _SAMPLE_ANGLES),
        np.sin(2.0 * _SAMPLE_ANGLES),
    ]
)

# Bound on the rounding of a level value |x|^2 - 1, relative to its scale.
_ROUNDING = 64.0 * np.finfo(float).eps


class _DiskFrame(NamedTuple):
    """Each row's pair after mapping its larger ellipse to the unit disk D:
    the other ellipse is c + U (cos t, sin t), U = [[u11, 0], [u21, u22]]."""

    c1: np.ndarray
    c2: np.ndarray
    u11: np.ndarray
    u21: np.ndarray
    u22: np.ndarray

    @classmethod
    def of(cls, p: np.ndarray, q: np.ndarray) -> _DiskFrame:
        det_p = p[:, 2] * p[:, 3] - p[:, 4] ** 2
        det_q = q[:, 2] * q[:, 3] - q[:, 4] ** 2
        swap = (det_q > det_p)[:, None]
        p, q = np.where(swap, q, p), np.where(swap, p, q)
        # Cholesky factors [[l11, 0], [l21, l22]]; U = Lp^-1 Lq.
        p11 = np.sqrt(p[:, 2])
        p21 = p[:, 4] / p11
        p22 = np.sqrt(p[:, 3] - p21 * p21)
        q11 = np.sqrt(q[:, 2])
        q21 = q[:, 4] / q11
        c1 = (q[:, 0] - p[:, 0]) / (DEFAULT_LEVEL_SET_RADIUS * p11)
        c2 = ((q[:, 1] - p[:, 1]) / DEFAULT_LEVEL_SET_RADIUS - p21 * c1) / p22
        u11 = q11 / p11
        return cls(c1, c2, u11, (q21 - p21 * u11) / p22, np.sqrt(q[:, 3] - q21 * q21) / p22)

    def column(self) -> _DiskFrame:
        return _DiskFrame(*(v[:, None] for v in self))


def _crossing_splits(f: _DiskFrame):
    """Split angles of q's ellipse: the real part of every root of the
    crossing quartic.  Returns the (n, 4) sorted angles, the scale of the
    crossing function, the rows where it vanishes and the rows whose frame
    or quartic is not finite."""
    # f(t) = |c + U e(t)|^2 - 1 = A0 + A1 cos t + B1 sin t + A2 cos 2t + B2 sin 2t.
    m11 = f.u11 * f.u11 + f.u21 * f.u21
    m22 = f.u22 * f.u22
    coef = np.stack(
        [
            f.c1 * f.c1 + f.c2 * f.c2 - 1.0 + 0.5 * (m11 + m22),
            2.0 * (f.u11 * f.c1 + f.u21 * f.c2),
            2.0 * f.u22 * f.c2,
            0.5 * (m11 - m22),
            f.u21 * f.u22,
        ],
        axis=1,
    )
    samples = coef @ _SAMPLE_BASIS
    best = np.argmax(np.abs(samples), axis=1)
    scale = 1.0 + f.c1 * f.c1 + f.c2 * f.c2 + m11 + m22
    coincident = samples[np.arange(len(best)), best] == 0.0

    # Rotate the coefficients to t = t0 + tau with t0 + pi the best sample.
    t0 = _SAMPLE_ANGLES[best] - np.pi
    cos1, sin1, cos2, sin2 = np.cos(t0), np.sin(t0), np.cos(2.0 * t0), np.sin(2.0 * t0)
    a0 = coef[:, 0]
    a1 = coef[:, 1] * cos1 + coef[:, 2] * sin1
    b1 = coef[:, 2] * cos1 - coef[:, 1] * sin1
    a2 = coef[:, 3] * cos2 + coef[:, 4] * sin2
    b2 = coef[:, 4] * cos2 - coef[:, 3] * sin2

    # (1 + s^2)^2 f(t0 + tau), s = tan(tau / 2), as a monic quartic's companion matrix.
    lead = np.where(coincident, 1.0, a0 - a1 + a2)
    companion = np.zeros((len(best), 4, 4))
    companion[:, 0, 0] = -(2.0 * b1 - 4.0 * b2) / lead
    companion[:, 0, 1] = -(2.0 * a0 - 6.0 * a2) / lead
    companion[:, 0, 2] = -(2.0 * b1 + 4.0 * b2) / lead
    companion[:, 0, 3] = -(a0 + a1 + a2) / lead
    companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1.0

    # A row that is not positive-definite, or whose frame or coefficients
    # overflow, has no roots; NaN carries through.  Every frame field is in
    # some coefficient, so a non-finite one shows here.
    broken = ~(np.isfinite(coef).all(axis=1) & np.isfinite(companion).all(axis=(1, 2)))
    companion[broken] = 0.0
    split = t0[:, None] + 2.0 * np.arctan(np.linalg.eigvals(companion).real)
    split[broken] = np.nan
    split.sort(axis=1)
    return split, scale, coincident, broken


def _on_other(f: _DiskFrame, t: np.ndarray):
    """Points c + U (cos t, sin t) of the other ellipse."""
    cos_t = np.cos(t)
    return f.c1 + f.u11 * cos_t, f.c2 + f.u21 * cos_t + f.u22 * np.sin(t)


def _angle_to(f: _DiskFrame, t: np.ndarray, mx: np.ndarray, my: np.ndarray):
    """Angle about the centre from the other ellipse's points at t to (mx, my)."""
    x, y = _on_other(f, t)
    return np.arctan2(x * my - y * mx, x * mx + y * my)


def iou_ellipse_pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise exact IoU of the default level-set ellipses of (n, 5)
    Gaussian batches (the ellipses of convert.gbb_to_ellipse).

    The decomposition of polygons.ellipse_intersection_area, with an ellipse
    for the polygon.  IoU is affine invariant, so the larger ellipse of each
    pair is mapped to the unit disk D by its Cholesky factor; the other
    becomes c + U (cos t, sin t) with U lower triangular and det U <= 1.
    Its crossings with the unit circle are the real roots of a quartic in
    tan((t - t0) / 2), solved as companion-matrix eigenvalues, with t0
    chosen so the leading coefficient f(t0 + pi) is the largest sampled.
    Split at the real part of every root, each arc adds the signed area of
    D within the fan from D's centre over it: its Green's-theorem area
    (det U * dt + c x U de) / 2 when its midpoint lies in D, else the
    sector of half the angle it sweeps about the centre.  The two agree on
    the circle, so neither a split that is not a crossing nor a tangency
    needs classifying.

    An outside arc's angle is taken in halves, one atan2 from each end to
    its midpoint, and a half sweeps less than pi: a cap of parameter length
    below pi sweeping pi about the centre from outside D would hold the
    centre and a half-disk, more than its area when det U <= 1.  A pair
    with no arc clearly inside D is disjoint or externally tangent and
    intersects in nothing; one with no arc clearly outside, or coincident
    (the quartic vanishes or no arc is clear either way), intersects in the
    smaller ellipse.  A row that is not positive-definite, has a non-finite
    field, or whose frame or quartic overflows (centres about 1e155 apart
    in units of the larger ellipse) gives NaN.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    frame = _DiskFrame.of(p, q)
    det_u = frame.u11 * frame.u22
    split, scale, coincident, broken = _crossing_splits(frame)
    f = frame.column()
    end = np.concatenate((split[:, 1:], split[:, :1] + 2.0 * np.pi), axis=1)
    dt = end - split
    mx, my = _on_other(f, split + 0.5 * dt)
    level = mx * mx + my * my - 1.0
    inside = level < 0.0
    clear = np.abs(level) > _ROUNDING * scale[:, None]

    de_cos, de_sin = np.cos(end) - np.cos(split), np.sin(end) - np.sin(split)
    green = det_u[:, None] * dt + f.c1 * (f.u21 * de_cos + f.u22 * de_sin) - f.c2 * f.u11 * de_cos
    sweep = _angle_to(f, split, mx, my) - _angle_to(f, end, mx, my)
    smaller = np.pi * np.minimum(det_u, 1.0)
    inter = np.clip(0.5 * np.sum(np.where(inside, green, sweep), axis=1), 0.0, smaller)
    inter = np.where(np.any(clear & inside, axis=1), inter, 0.0)
    inter = np.where(coincident | ~np.any(clear & ~inside, axis=1), smaller, inter)
    # A broken row has no arcs, so the branches above would call it contained.
    known = np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1) & ~broken
    return np.where(known, inter / (np.pi * (1.0 + det_u) - inter), np.nan)


__all__ = [
    "gbb_from_hbb",
    "bd_pairs",
    "hd_pairs",
    "prob_iou_pairs",
    "iou_hbb_pairs",
    "iou_obb_pairs",
    "rect_mask_bc_pairs",
    "mask_prob_iou_pairs",
    "iou_ellipse_pairs",
]
