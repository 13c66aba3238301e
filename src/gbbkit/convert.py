"""Conversions between box, polygon, Gaussian, and ellipse representations.

A crisp region maps to the Gaussian whose density matches the uniform
density over the region (same mean and covariance); a Gaussian maps back to
a crisp region through a Mahalanobis level-set ellipse.  A W x H rectangle
has uniform-density variances W**2/12 and H**2/12, which fixes all the
box conversions.
"""

from __future__ import annotations

import math

import numpy as np

from .polygons import min_area_rect, polygon_moments
from .types import (
    AngleCov,
    Ellipse,
    GaussBox,
    Hbb,
    Obb,
    PolygonMask,
    require_valid_gbb,
)

# Level-set radius making the ellipse area equal W*H for box-derived
# Gaussians; covers about 85.2% of the probability mass.
DEFAULT_LEVEL_SET_RADIUS = math.sqrt(12.0 / math.pi)

# Clamp for the exponential covariance parametrization: covers ~26 orders
# of magnitude of variance while staying far from float64 overflow.
EXP_CLAMP = 30.0

_ISOTROPIC_TOL = 1e-12

# Largest |c| / max(a, b) that gbb_to_hbb reads as a diagonal covariance.
_DIAGONAL_REL_TOL = 2.0**-51


def hbb_to_gbb(box: Hbb) -> GaussBox:
    """Axis-aligned box to its moment-matched Gaussian (diagonal covariance)."""
    return GaussBox(box.x0, box.y0, box.w * box.w / 12.0, box.h * box.h / 12.0, 0.0)


def cov_from_angles(ac: AngleCov) -> tuple[float, float, float]:
    """Covariance entries (a, b, c) of R_theta @ diag(a', b') @ R_theta.T."""
    cos_t = math.cos(ac.theta)
    sin_t = math.sin(ac.theta)
    a = ac.a_prime * cos_t * cos_t + ac.b_prime * sin_t * sin_t
    b = ac.a_prime * sin_t * sin_t + ac.b_prime * cos_t * cos_t
    c = 0.5 * (ac.a_prime - ac.b_prime) * math.sin(2.0 * ac.theta)
    return a, b, c


def _variance(shape, name: str, value: float) -> float:
    """value, a variance from the shape's field `name`, unless it underflowed to 0."""
    if value == 0.0:
        kind, field = type(shape).__name__, getattr(shape, name)
        raise ValueError(f"{kind} field {name} is too small to square, got {field}")
    return value


def obb_to_gbb(box: Obb) -> GaussBox:
    """Oriented box to its moment-matched Gaussian (rotated covariance)."""
    w2, h2 = _variance(box, "w", box.w * box.w / 12.0), _variance(box, "h", box.h * box.h / 12.0)
    a, b, c = cov_from_angles(AngleCov(w2, h2, box.theta))
    return GaussBox(box.x0, box.y0, a, b, c)


def gbb_to_angle_cov(g: GaussBox) -> AngleCov:
    """Unique (a', b', theta) factorization with theta in [-pi/4, pi/4].

    Isotropic covariances (a == b, c == 0 within 1e-12) return theta = 0 by
    convention; the orientation is genuinely undefined there.
    """
    require_valid_gbb(g)
    if abs(g.a - g.b) < _ISOTROPIC_TOL and abs(g.c) < _ISOTROPIC_TOL:
        mean = 0.5 * (g.a + g.b)
        return AngleCov(mean, mean, 0.0)

    theta = 0.5 * math.atan2(2.0 * g.c, g.a - g.b)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    sin2 = math.sin(2.0 * theta)
    a_prime = g.a * cos_t * cos_t + g.b * sin_t * sin_t + g.c * sin2
    b_prime = g.a * sin_t * sin_t + g.b * cos_t * cos_t - g.c * sin2
    return AngleCov(*_canonical_angle(a_prime, b_prime, theta))


def _canonical_angle(a_prime: float, b_prime: float, theta: float) -> tuple[float, float, float]:
    """(a', b', theta) with a theta in [-pi/2, pi/2] moved into [-pi/4, pi/4]
    by a quarter turn, the two variances swapping with it."""
    if theta > math.pi / 4.0:
        return b_prime, a_prime, theta - math.pi / 2.0
    if theta < -math.pi / 4.0:
        return b_prime, a_prime, theta + math.pi / 2.0
    return a_prime, b_prime, theta


def gbb_to_obb(g: GaussBox) -> Obb:
    """Gaussian back to the oriented box whose moments it matches."""
    ac = gbb_to_angle_cov(g)
    return Obb(g.x0, g.y0, math.sqrt(12.0 * ac.a_prime), math.sqrt(12.0 * ac.b_prime), ac.theta)


def _moments_to_gbb(centroid: np.ndarray, cov: np.ndarray) -> GaussBox:
    """Gaussian of a (2,) mean and a (2, 2) covariance, checked positive-definite."""
    (x0, y0), ((a, c), (_, b)) = centroid.tolist(), cov.tolist()
    return require_valid_gbb(GaussBox(x0, y0, a, b, c))


def mask_to_gbb(mask: PolygonMask) -> GaussBox:
    """Polygon to the Gaussian matching its exact interior moments."""
    _, mu, cov = polygon_moments(mask.vertices)
    return _moments_to_gbb(mu, cov)


def mask_to_hbb(mask: PolygonMask) -> Hbb:
    """Axis-aligned bounding rectangle of the polygon vertices."""
    xmin, ymin = mask.vertices.min(axis=0)
    xmax, ymax = mask.vertices.max(axis=0)
    return Hbb(0.5 * (xmin + xmax), 0.5 * (ymin + ymax), xmax - xmin, ymax - ymin)


def mask_to_obb(mask: PolygonMask) -> Obb:
    """Minimum-area enclosing rotated rectangle of the polygon."""
    center, w, h, theta = min_area_rect(mask.vertices)
    return Obb(float(center[0]), float(center[1]), w, h, theta)


def gbb_to_ellipse(g: GaussBox, r: float = DEFAULT_LEVEL_SET_RADIUS) -> Ellipse:
    """Mahalanobis level set d2(x) = r**2 of the Gaussian, as an ellipse.

    Semi-axes are r times the square roots of the covariance eigenvalues.
    With the default r the ellipse area equals w*h of the matching oriented
    box exactly.
    """
    ac = gbb_to_angle_cov(g)
    if not r > 0:
        raise ValueError(f"level-set radius must be positive, got {r}")
    major = r * math.sqrt(ac.a_prime)
    minor = r * math.sqrt(ac.b_prime)
    theta = ac.theta
    if minor > major:
        major, minor = minor, major
        theta += math.pi / 2.0
    return Ellipse(g.x0, g.y0, major, minor, theta)


def ellipse_to_gbb(e: Ellipse) -> GaussBox:
    """Gaussian whose default-radius level set is the ellipse (inverse of gbb_to_ellipse)."""
    r2 = DEFAULT_LEVEL_SET_RADIUS * DEFAULT_LEVEL_SET_RADIUS
    try:  # semi_major >= semi_minor, so it is the first square to overflow
        major2, minor2 = e.semi_major**2, e.semi_minor**2
    except OverflowError:
        raise ValueError(
            f"Ellipse field semi_major is too large to square, got {e.semi_major}"
        ) from None
    # semi_minor <= semi_major, so it is the first square to underflow.
    minor_var = _variance(e, "semi_minor", minor2 / r2)
    a, b, c = cov_from_angles(AngleCov(major2 / r2, minor_var, e.theta))
    return GaussBox(e.x0, e.y0, a, b, c)


def gbb_to_hbb(g: GaussBox) -> Hbb:
    """Diagonal Gaussian back to the axis-aligned box whose moments it matches.

    A c within _DIAGONAL_REL_TOL of max(a, b) counts as zero: at a quarter
    turn theta = fl(k pi / 2), cov_from_angles leaves up to about
    1.4 * 2**-52 * max(a, b) in c, and an obb or ellipse there is axis-aligned.
    """
    if not abs(g.c) <= _DIAGONAL_REL_TOL * max(g.a, g.b):
        raise ValueError("only diagonal Gaussians convert to hbb; use obb instead")
    return Hbb(g.x0, g.y0, math.sqrt(12.0 * g.a), math.sqrt(12.0 * g.b))


def shape_to_gbb(shape) -> GaussBox:
    """Moment-matched Gaussian of any supported shape; ellipses via ellipse_to_gbb."""
    if isinstance(shape, GaussBox):
        return shape
    if isinstance(shape, Hbb):
        return hbb_to_gbb(shape)
    if isinstance(shape, Obb):
        return obb_to_gbb(shape)
    if isinstance(shape, PolygonMask):
        return mask_to_gbb(shape)
    if isinstance(shape, Ellipse):
        return ellipse_to_gbb(shape)
    raise TypeError(f"cannot interpret {type(shape).__name__} as a Gaussian")


def to_hbb(shape) -> Hbb:
    """Axis-aligned box of any supported shape.

    A polygon gives its bounding rectangle; Gaussians, oriented boxes and
    ellipses give the box their Gaussian's moments match, which exists only
    for a diagonal covariance.
    """
    if isinstance(shape, Hbb):
        return shape
    if isinstance(shape, PolygonMask):
        return mask_to_hbb(shape)
    return gbb_to_hbb(shape_to_gbb(shape))


def to_obb(shape) -> Obb:
    """Oriented box of any supported shape.

    An hbb is the same box at theta = 0, a polygon gives its minimum-area
    rectangle, and Gaussians and ellipses give the box their Gaussian's
    moments match.
    """
    if isinstance(shape, Obb):
        return shape
    if isinstance(shape, Hbb):
        return Obb(shape.x0, shape.y0, shape.w, shape.h, 0.0)
    if isinstance(shape, PolygonMask):
        return mask_to_obb(shape)
    return gbb_to_obb(shape_to_gbb(shape))


def obb_corners(box: Obb) -> np.ndarray:
    """Counter-clockwise corners of an oriented box as a (4, 2) array."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    hw, hh = box.w / 2.0, box.h / 2.0
    local = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.x0, box.y0])


def _vertices(shape) -> np.ndarray:
    """Vertex array of a crisp shape: a polygon's own, a box's four corners."""
    if isinstance(shape, PolygonMask):
        return shape.vertices
    if isinstance(shape, (Hbb, Obb)):
        return obb_corners(to_obb(shape))
    raise ValueError(
        "polygon output needs a box or polygon input; fuzzy shapes convert to ellipse"
    )


def to_polygon(shape) -> PolygonMask:
    """Polygon of a crisp shape: a box becomes its four corners."""
    return shape if isinstance(shape, PolygonMask) else PolygonMask(_vertices(shape))


def to_crisp(shape):
    """Crisp region used for IoU: Gaussians become default-radius ellipses."""
    return gbb_to_ellipse(shape) if isinstance(shape, GaussBox) else shape


def r_from_tau(tau: float) -> float:
    """Level-set radius covering probability mass tau of the Gaussian.

    Inverts the chi-squared (2 dof) CDF 1 - exp(-r**2 / 2) = tau.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"coverage must lie strictly in (0, 1), got {tau}")
    return math.sqrt(-2.0 * math.log1p(-tau))


def tau_from_r(r: float) -> float:
    """Probability mass inside the level set of radius r (inverse of r_from_tau)."""
    if not r > 0:
        raise ValueError(f"level-set radius must be positive, got {r}")
    return -math.expm1(-0.5 * r * r)


def constrained_to_cov(alpha: float, beta: float, c: float) -> tuple[float, float, float]:
    """Map unconstrained (alpha, beta, c) to covariance entries (a, b, c).

    a = exp(alpha) and b = c**2 / a + exp(beta) give
    a*b - c**2 = exp(alpha + beta) > 0 for every input, so the output is
    always positive-definite.  alpha and beta are clamped to +/-EXP_CLAMP
    before exponentiation.
    """
    alpha = min(max(alpha, -EXP_CLAMP), EXP_CLAMP)
    beta = min(max(beta, -EXP_CLAMP), EXP_CLAMP)
    a = math.exp(alpha)
    return a, c * c / a + math.exp(beta), c


__all__ = [
    "DEFAULT_LEVEL_SET_RADIUS",
    "EXP_CLAMP",
    "hbb_to_gbb",
    "obb_to_gbb",
    "cov_from_angles",
    "gbb_to_angle_cov",
    "gbb_to_obb",
    "mask_to_gbb",
    "mask_to_hbb",
    "mask_to_obb",
    "gbb_to_ellipse",
    "ellipse_to_gbb",
    "gbb_to_hbb",
    "shape_to_gbb",
    "to_hbb",
    "to_obb",
    "obb_corners",
    "to_polygon",
    "to_crisp",
    "r_from_tau",
    "tau_from_r",
    "constrained_to_cov",
]
