import math

import numpy as np
import pytest

from gbbkit import (
    AngleCov,
    Ellipse,
    GaussBox,
    Hbb,
    Obb,
    PolygonMask,
    validate_gbb,
)
from gbbkit.polygons import signed_area
from gbbkit.types import POSITIVE_DEFINITE_EPS


class TestValidateGbb:
    def test_valid_isotropic(self):
        ok, why = validate_gbb(GaussBox(0, 0, 1, 1, 0))
        assert ok
        assert why == ""

    def test_singular_determinant(self):
        ok, why = validate_gbb(GaussBox(0, 0, 1, 1, 1))
        assert not ok
        assert "c^2" in why

    def test_negative_variance(self):
        ok, _ = validate_gbb(GaussBox(0, 0, -1, 1, 0))
        assert not ok

    def test_non_finite(self):
        assert not validate_gbb(GaussBox(0, 0, float("nan"), 1, 0))[0]
        assert not validate_gbb(GaussBox(float("inf"), 0, 1, 1, 0))[0]

    def test_eps_boundary(self):
        # det exactly at eps fails the strict inequality; the next float above passes
        eps = POSITIVE_DEFINITE_EPS
        assert not validate_gbb(GaussBox(0, 0, 1.0, eps, 0))[0]
        assert validate_gbb(GaussBox(0, 0, 1.0, math.nextafter(eps, math.inf), 0))[0]


@pytest.mark.parametrize("w,h", [(0, 1), (-1, 1), (1, 0)])
def test_box_rejects_bad_dimensions(w, h):
    with pytest.raises(ValueError):
        Hbb(0, 0, w, h)
    with pytest.raises(ValueError):
        Obb(0, 0, w, h, 0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda bad: Hbb(bad, 0, 1, 1), "Hbb field x0"),
        (lambda bad: Hbb(0, 0, bad, 1), "Hbb field w"),
        (lambda bad: Obb(0, bad, 1, 1, 0.3), "Obb field y0"),
        (lambda bad: Obb(0, 0, 1, bad, 0.3), "Obb field h"),
        (lambda bad: Obb(0, 0, 1, 1, bad), "Obb field theta"),
        (lambda bad: Ellipse(bad, 0, 2, 1, 0.3), "Ellipse field x0"),
        (lambda bad: Ellipse(0, 0, bad, 1, 0.3), "Ellipse field semi_major"),
        (lambda bad: Ellipse(0, 0, 2, 1, bad), "Ellipse field theta"),
    ],
    ids=["hbb-x0", "hbb-w", "obb-y0", "obb-h", "obb-theta", "ellipse-x0", "ellipse-major",
         "ellipse-theta"],
)
def test_box_and_ellipse_reject_non_finite_fields(make, field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
        make(bad)


def test_angle_cov_rejects_nonpositive_variances():
    with pytest.raises(ValueError):
        AngleCov(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        AngleCov(1.0, -2.0, 0.0)


def test_ellipse_axis_ordering():
    with pytest.raises(ValueError):
        Ellipse(0, 0, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        Ellipse(0, 0, 1.0, 0.0, 0.0)
    e = Ellipse(0, 0, 2.0, 1.0, 0.1)
    assert e.semi_major == 2.0


class TestPolygonMask:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            PolygonMask(np.array([[0, 0], [1, 0]]))

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            PolygonMask(np.array([[0, 0], [0, 1], [1, 0]]))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            PolygonMask(np.array([[0, 0], [1, 1], [2, 2]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_vertices(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PolygonMask(np.array([[0, 0], [1, 0], [bad, 1]]))

    def test_signed_area(self):
        square = PolygonMask(np.array([[0, 0], [2, 0], [2, 2], [0, 2]]))
        assert signed_area(square.vertices) == pytest.approx(4.0)

    def test_vertices_coerced_to_float(self):
        tri = PolygonMask(np.array([[0, 0], [1, 0], [0, 1]]))
        assert tri.vertices.dtype == float
