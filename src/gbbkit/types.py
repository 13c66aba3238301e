"""Core value types for Gaussian bounding boxes and crisp region shapes.

Conventions: x grows right, y grows up, angles in radians measured
counter-clockwise from the +x axis.  All types are immutable values and
all functions in this package are pure, so everything here is safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polygons

# Positive-definiteness tolerance for covariance checks.  Absolute, sized
# for coordinates in the O(1)-O(1e4) range; tighten or loosen per domain.
POSITIVE_DEFINITE_EPS = 1e-12


@dataclass(frozen=True)
class GaussBox:
    """2D Gaussian region: mean (x0, y0) and covariance [[a, c], [c, b]].

    Valid instances satisfy a > 0 and a*b - c**2 > 0.  Construction does
    not enforce this so that candidate values can be screened with
    :func:`validate_gbb`; operations reject invalid inputs.
    """

    x0: float
    y0: float
    a: float
    b: float
    c: float


@dataclass(frozen=True)
class AngleCov:
    """Decorrelated covariance factorization: variances a', b' plus rotation.

    The canonical form keeps theta in [-pi/4, pi/4]; (a', b', theta) and
    (b', a', theta + pi/2) produce the same covariance matrix.
    """

    a_prime: float
    b_prime: float
    theta: float

    def __post_init__(self):
        if not (self.a_prime > 0 and self.b_prime > 0):
            raise ValueError(
                f"variances must be positive, got a'={self.a_prime}, b'={self.b_prime}"
            )


def _require_finite(shape) -> None:
    """Raise ValueError naming the first field of a box or ellipse that is not finite."""
    for name, value in vars(shape).items():
        if not math.isfinite(value):
            raise ValueError(f"{type(shape).__name__} field {name} must be finite, got {value}")


@dataclass(frozen=True)
class Hbb:
    """Axis-aligned box: center (x0, y0), width w, height h."""

    x0: float
    y0: float
    w: float
    h: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box dimensions must be positive, got w={self.w}, h={self.h}")


@dataclass(frozen=True)
class Obb:
    """Oriented box: center (x0, y0), width w along the theta axis, height h."""

    x0: float
    y0: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box dimensions must be positive, got w={self.w}, h={self.h}")


@dataclass(frozen=True)
class Ellipse:
    """Ellipse: center, semi-axes (major >= minor), major-axis angle."""

    x0: float
    y0: float
    semi_major: float
    semi_minor: float
    theta: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.semi_major >= self.semi_minor > 0):
            raise ValueError(
                "semi-axes must satisfy semi_major >= semi_minor > 0, got "
                f"{self.semi_major}, {self.semi_minor}"
            )


@dataclass(frozen=True, eq=False)
class PolygonMask:
    """Simple polygon standing in for a segmentation mask.

    Vertices are stored as an (n, 2) float array, ordered counter-clockwise
    (positive signed area).  Simplicity (no self-intersection) is not checked
    here but where polygons enter the program: `cli.parse_shape` and
    `annotations.ingest_annotations` reject crossing edges (polygons.is_simple).
    """

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("polygon needs an (n >= 3, 2) vertex array")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        object.__setattr__(self, "vertices", verts)
        if self.signed_area() <= 0:
            raise ValueError("polygon must be counter-clockwise with positive area")

    def signed_area(self) -> float:
        return polygons.signed_area(self.vertices)


@dataclass(frozen=True)
class ConstrainedCovParams:
    """Unconstrained parameters (alpha, beta, c) of a covariance matrix.

    The mapping a = exp(alpha), b = exp(-alpha) * c**2 + exp(beta) is
    positive-definite for every real triple, so these can be regressed with
    no activation constraints.
    """

    alpha: float
    beta: float
    c: float


def validate_gbb(g: GaussBox) -> tuple[bool, str]:
    """Check positive-definiteness of a GaussBox covariance.

    Returns (ok, diagnostic); diagnostic is "" when ok.  Uses the leading
    principal minors: a > eps and a*b - c**2 > eps, eps = POSITIVE_DEFINITE_EPS.
    """
    why = _gbb_problem(g.x0, g.y0, g.a, g.b, g.c)
    return not why, why


def _gbb_problem(x0: float, y0: float, a: float, b: float, c: float) -> str:
    """validate_gbb's diagnostic for a GaussBox's five fields, "" when valid."""
    eps, isfinite = POSITIVE_DEFINITE_EPS, math.isfinite
    if not (isfinite(x0) and isfinite(y0) and isfinite(a) and isfinite(b) and isfinite(c)):
        for name, v in zip(("x0", "y0", "a", "b", "c"), (x0, y0, a, b, c)):
            if not isfinite(v):
                return f"{name} is not finite (got {v})"
    if not a > eps:
        return f"a must exceed {eps} (got {a})"
    det = a * b - c * c
    if math.isnan(det):
        return "a*b - c^2 overflows (a*b and c^2 are both inf)"
    if not det > eps:
        return f"a*b - c^2 must exceed {eps} (got {det})"
    return ""


def require_valid_gbb(g: GaussBox) -> GaussBox:
    """Raise ValueError unless the GaussBox covariance is positive-definite."""
    ok, why = validate_gbb(g)
    if not ok:
        raise ValueError(f"invalid GaussBox: {why}")
    return g
