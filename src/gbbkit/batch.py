"""Vectorized kernels for batch experiments.

Array counterparts of the scalar metric functions, used by the Monte Carlo
drivers where per-pair Python objects would dominate the runtime.  Gaussian
parameter batches are (n, 5) arrays of (x, y, a, b, c); box batches are
(n, 4) arrays of (x, y, w, h).  Consistency with the scalar path is pinned
by tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .convert import DEFAULT_LEVEL_SET_RADIUS


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
    b2 = 0.5 * np.log(denom / (4.0 * np.sqrt(det1 * det2)))
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

# Bound on the rounding of a level value |x|^2 - 1, relative to its scale,
# and the level within which an arc's midpoint is near the other curve.
_ROUNDING = 64.0 * np.finfo(float).eps
_NEAR = 1e-8


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
    crossing function and the rows where it vanishes."""
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

    # A row that is not positive-definite has no roots; NaN carries through.
    broken = ~np.isfinite(companion).all(axis=(1, 2))
    companion[broken] = 0.0
    split = t0[:, None] + 2.0 * np.arctan(np.linalg.eigvals(companion).real)
    split[broken] = np.nan
    split.sort(axis=1)
    return split, scale, coincident


def _arcs(split: np.ndarray):
    """Arcs between sorted split angles, the last wrapping through 2*pi:
    (end, length, midpoint)."""
    end = np.empty_like(split)
    end[:, :-1] = split[:, 1:]
    end[:, -1] = split[:, 0] + 2.0 * np.pi
    length = end - split
    return end, length, split + 0.5 * length


def _ellipse_arcs(f: _DiskFrame, split: np.ndarray, scale: np.ndarray):
    """Arcs of q's ellipse between its splits: Green's-theorem area of each,
    its midpoint's level against D (negative inside) and that level
    relative to its rounding scale."""
    end, dt, mid = _arcs(split)
    de_cos = np.cos(end) - np.cos(split)
    de_sin = np.sin(end) - np.sin(split)
    area = 0.5 * (
        f.u11 * f.u22 * dt + f.c1 * (f.u21 * de_cos + f.u22 * de_sin) - f.c2 * f.u11 * de_cos
    )
    mx = f.c1 + f.u11 * np.cos(mid)
    my = f.c2 + f.u21 * np.cos(mid) + f.u22 * np.sin(mid)
    level = mx * mx + my * my - 1.0
    return area, level, np.abs(level) / scale[:, None]


def _circle_arcs(f: _DiskFrame, split: np.ndarray):
    """Arcs of the unit circle between the images of q's splits.  D-arc j
    starts at the image of split order[j].  Returns order, the area of each
    arc and its midpoint's level against q's ellipse, absolute and relative
    to its rounding scale."""
    cos_s, sin_s = np.cos(split), np.sin(split)
    phi = np.arctan2(f.c2 + f.u21 * cos_s + f.u22 * sin_s, f.c1 + f.u11 * cos_s)
    order = np.argsort(phi, axis=1, kind="stable")
    _, dphi, mid = _arcs(np.take_along_axis(phi, order, axis=1))
    w1 = (np.cos(mid) - f.c1) / f.u11
    w2 = (np.sin(mid) - f.c2 - f.u21 * w1) / f.u22
    level = w1 * w1 + w2 * w2 - 1.0
    # |U^-1| <= |U|_F / det U bounds how far rounding moves w.
    u_norm = np.sqrt(f.u11 * f.u11 + f.u21 * f.u21 + f.u22 * f.u22)
    w_scale = 1.0 + ((1.0 + np.hypot(f.c1, f.c2)) * u_norm / (f.u11 * f.u22)) ** 2
    return order, 0.5 * dphi, level, np.abs(level) / w_scale


def _fill_undecided(state: np.ndarray) -> np.ndarray:
    """Give each undecided (-1) arc the state of the nearest decided arc
    before it, cyclically; rows with no decided arc stay -1."""
    col = np.where(state >= 0, np.arange(state.shape[1]), -1)
    last = np.maximum.accumulate(col, axis=1)
    last = np.where(last < 0, col.max(axis=1, keepdims=True), last)
    return np.where(last < 0, -1, np.take_along_axis(state, np.maximum(last, 0), axis=1))


def iou_ellipse_pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise exact IoU of the default level-set ellipses of (n, 5)
    Gaussian batches (the ellipses of convert.gbb_to_ellipse).

    IoU is affine invariant, so the larger ellipse of each pair is mapped
    to the unit disk D by its Cholesky factor; the other becomes
    c + U (cos t, sin t) with U lower triangular.  Its crossings with the
    unit circle are the real roots of a quartic in tan((t - t0) / 2),
    solved as companion-matrix eigenvalues, with t0 chosen so the leading
    coefficient f(t0 + pi) is the largest sampled.  Both boundaries are
    split at the real part of every root, and Green's theorem sums the
    pieces: an arc of the mapped ellipse counts
    (det U * dt + c x U de) / 2 when its midpoint lies in D, an arc of the
    circle counts dphi / 2 when its midpoint lies in the mapped ellipse.
    A split that is not a crossing only cuts an arc in two, so no root
    needs classifying.

    Where the curves touch, a double root splits into two nearby ones and
    the short arcs between them, one on each curve, bound a sliver whose
    midpoints are within rounding of the other curve.  Both arcs then take
    the state of the arcs before them: whatever the sliver holds, that
    keeps the boundary closed, and only the sliver's area is at stake.
    Coincident ellipses, where the quartic vanishes or no arc's midpoint
    is clear of the other curve, intersect in the smaller one.  A row that
    is not positive-definite gives NaN.
    """
    frame = _DiskFrame.of(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    det_u = frame.u11 * frame.u22
    split, scale, coincident = _crossing_splits(frame)
    frame = frame.column()
    q_area, q_level, q_rel = _ellipse_arcs(frame, split, scale)
    order, d_area, d_level, d_rel = _circle_arcs(frame, split)

    # D-arc j and q-arc order[j] bound a sliver when they join the same two
    # points and both midpoints lie near the other curve.
    twin = np.roll(order, -1, axis=1) == (order + 1) % order.shape[1]
    q_rel_d = np.take_along_axis(q_rel, order, axis=1)
    sliver = (
        twin
        & (np.minimum(q_rel_d, d_rel) <= _ROUNDING)
        & (np.maximum(q_rel_d, d_rel) <= _NEAR)
    )
    q_sliver = np.take_along_axis(sliver, np.argsort(order, axis=1), axis=1)
    q_state = _fill_undecided(np.where((q_rel <= _ROUNDING) | q_sliver, -1, q_level < 0.0))
    d_state = _fill_undecided(np.where((d_rel <= _ROUNDING) | sliver, -1, d_level < 0.0))

    inter = np.sum(np.where(q_state == 1, q_area, 0.0), axis=1) + np.sum(
        np.where(d_state == 1, d_area, 0.0), axis=1
    )
    smaller = np.pi * np.minimum(det_u, 1.0)
    coincident |= (q_state[:, 0] < 0) | (d_state[:, 0] < 0)
    inter = np.where(coincident, smaller, np.clip(inter, 0.0, smaller))
    return inter / (np.pi * (1.0 + det_u) - inter)


__all__ = [
    "gbb_from_hbb",
    "bd_pairs",
    "hd_pairs",
    "prob_iou_pairs",
    "iou_hbb_pairs",
    "rect_mask_bc_pairs",
    "mask_prob_iou_pairs",
    "iou_ellipse_pairs",
]
