import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gbbkit.annotations import SYNTHETIC_PRESETS, generate_synthetic
from gbbkit.polygons import (
    clip_convex,
    convex_hull,
    ellipse_intersection_area,
    intersection_area,
    is_convex,
    is_simple,
    min_area_rect,
    points_in_polygon,
    polygon_moments,
    signed_area,
)
from gbbkit.raster import _occupancy_counts, iou_convex
from gbbkit.types import Ellipse, PolygonMask

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
UNIT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def rotate(poly, phi, about=(0.0, 0.0)):
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    about = np.asarray(about, dtype=float)
    return (poly - about) @ rot.T + about


class TestMoments:
    def test_triangle_against_quadrature_oracle(self):
        # Independent oracle: direct 2D quadrature of the uniform density
        # over the triangle x >= 0, y >= 0, x + y <= 1.
        from scipy.integrate import dblquad

        area = 0.5
        ex = dblquad(lambda y, x: x, 0, 1, 0, lambda x: 1 - x)[0] / area
        exx = dblquad(lambda y, x: x * x, 0, 1, 0, lambda x: 1 - x)[0] / area
        exy = dblquad(lambda y, x: x * y, 0, 1, 0, lambda x: 1 - x)[0] / area

        got_area, mu, cov = polygon_moments(UNIT_TRIANGLE)
        assert got_area == pytest.approx(0.5, abs=1e-15)
        assert mu[0] == pytest.approx(ex, abs=1e-9)
        assert mu[1] == pytest.approx(ex, abs=1e-9)  # symmetric triangle
        assert cov[0, 0] == pytest.approx(exx - ex * ex, abs=1e-9)
        assert cov[0, 1] == pytest.approx(exy - ex * ex, abs=1e-9)
        # Frozen closed forms the oracle reproduces.
        assert mu == pytest.approx([1 / 3, 1 / 3], abs=1e-12)
        assert cov[0, 0] == pytest.approx(1 / 18, abs=1e-12)
        assert cov[1, 1] == pytest.approx(1 / 18, abs=1e-12)
        assert cov[0, 1] == pytest.approx(-1 / 36, abs=1e-12)

    def test_rectangle_matches_uniform_variances(self):
        rect = np.array([[0.0, -2.0], [6.0, -2.0], [6.0, 10.0], [0.0, 10.0]])
        area, mu, cov = polygon_moments(rect)
        assert area == pytest.approx(72.0)
        assert mu == pytest.approx([3.0, 4.0])
        assert cov[0, 0] == pytest.approx(36.0 / 12.0, rel=1e-12)
        assert cov[1, 1] == pytest.approx(144.0 / 12.0, rel=1e-12)
        assert cov[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = rng.normal(size=(8, 2)) * rng.uniform(0.5, 3.0)
            hull = convex_hull(pts)
            if len(hull) < 3:
                continue
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)
            rot = np.array([[c, -s], [s, c]])
            _, mu0, cov0 = polygon_moments(hull)
            _, mu1, cov1 = polygon_moments(rotate(hull, phi))
            np.testing.assert_allclose(mu1, rot @ mu0, atol=1e-9)
            np.testing.assert_allclose(cov1, rot @ cov0 @ rot.T, atol=1e-9)

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            polygon_moments(UNIT_SQUARE[::-1])


class TestHullAndCalipers:
    def test_hull_of_square_with_interior_points(self):
        pts = np.vstack([UNIT_SQUARE, [[0.5, 0.5], [0.2, 0.7]]])
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert signed_area(hull) == pytest.approx(1.0)

    def test_min_area_rect_recovers_rotated_rectangle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w, h = rng.uniform(0.5, 4.0, size=2)
            phi = rng.uniform(-math.pi, math.pi)
            rect = rotate(
                np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]]),
                phi,
            ) + rng.uniform(-5, 5, size=2)
            center, got_w, got_h, _ = min_area_rect(rect)
            assert got_w * got_h == pytest.approx(w * h, rel=1e-9)
            assert sorted([got_w, got_h]) == pytest.approx(sorted([w, h]), rel=1e-9)

    @pytest.mark.parametrize(
        "points, expected",
        [
            (np.empty((0, 2)), np.empty((0, 2))),
            ([[1.0, 2.0]], [[1.0, 2.0]]),
            ([[1.0, 2.0], [-1.0, 5.0]], [[-1.0, 5.0], [1.0, 2.0]]),
            ([[3.0, 1.0], [3.0, 1.0], [3.0, 1.0], [3.0, 1.0]], [[3.0, 1.0]]),
            ([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0]], [[0.0, -1.0], [0.0, 1.0]]),
        ],
    )
    def test_hull_of_fewer_than_three_distinct_points(self, points, expected):
        hull = convex_hull(np.asarray(points))
        assert hull.shape == np.shape(expected)
        assert np.array_equal(hull, expected)

    def test_hull_starts_at_lexicographically_smallest_point(self):
        pts = np.array([[2.0, 2.0], [0.0, 1.0], [2.0, 0.0], [0.0, 0.5], [1.0, 3.0]])
        hull = convex_hull(pts)
        assert hull.tolist() == [[0.0, 0.5], [2.0, 0.0], [2.0, 2.0], [1.0, 3.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "points",
        [
            [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
            [[5.0, 1.0], [5.0, 1.0], [5.0, 1.0]],
            [[0.0, 0.0], [1.0, 0.0]],
        ],
    )
    def test_min_area_rect_rejects_collinear_points(self, points):
        with pytest.raises(ValueError, match="^need at least 3 non-collinear points$"):
            min_area_rect(np.asarray(points))

    def test_min_area_rect_tie_goes_to_first_hull_edge(self):
        # Edges at 0, pi/2 and -pi/2 all give area exactly 1.0; the hull's
        # first edge, from (0, 0) to (1, 0), wins.
        center, w, h, theta = min_area_rect(UNIT_SQUARE)
        assert (w, h, theta) == (1.0, 1.0, 0.0)
        assert center.tolist() == [0.5, 0.5]

    def test_min_area_rect_never_smaller_than_hull(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pts = rng.normal(size=(12, 2))
            hull = convex_hull(pts)
            _, w, h, _ = min_area_rect(pts)
            assert w * h >= abs(signed_area(hull)) - 1e-12


class TestClipping:
    def test_self_intersection_is_identity(self):
        clipped = clip_convex(UNIT_SQUARE, UNIT_SQUARE)
        assert abs(signed_area(clipped)) == pytest.approx(1.0, abs=1e-12)

    def test_half_overlap(self):
        shifted = UNIT_SQUARE + [0.5, 0.0]
        clipped = clip_convex(UNIT_SQUARE, shifted)
        assert abs(signed_area(clipped)) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_is_empty(self):
        assert len(clip_convex(UNIT_SQUARE, UNIT_SQUARE + [5.0, 0.0])) == 0

    def test_intersection_area_commutes(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = convex_hull(rng.normal(size=(7, 2)))
            b = convex_hull(rng.normal(size=(7, 2)) + rng.uniform(-1, 1, size=2))
            if len(a) < 3 or len(b) < 3:
                continue
            assert intersection_area(a, b) == pytest.approx(intersection_area(b, a), abs=1e-12)

    def test_nonconvex_intersection_via_decomposition(self):
        # L-shaped polygon against a square covering its lower half.
        ell = np.array(
            [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]
        )
        assert not is_convex(ell)
        lower = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        assert intersection_area(ell, lower) == pytest.approx(2.0, abs=1e-9)
        upper = lower + [0.0, 1.0]
        assert intersection_area(ell, upper) == pytest.approx(1.0, abs=1e-9)


def _reference_is_simple(points):
    """No two edges meet inside both, and the winding numbers off the
    boundary span at most 0 and one of +1 or -1, in exact rational arithmetic.

    Slabs are cut at every vertex and at every point where two edges meet,
    so no two edges cross inside a slab and each region between consecutive
    edges meets the slab's mid-abscissa.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    edges = [(p, q) for p, q in zip(pts, pts[1:] + pts[:1]) if p != q]
    cuts = {x for x, _ in pts}
    for (p, q), (r, s) in itertools.combinations(edges, 2):
        den = (q[0] - p[0]) * (s[1] - r[1]) - (q[1] - p[1]) * (s[0] - r[0])
        if den:
            t = ((r[0] - p[0]) * (s[1] - r[1]) - (r[1] - p[1]) * (s[0] - r[0])) / den
            u = ((r[0] - p[0]) * (q[1] - p[1]) - (r[1] - p[1]) * (q[0] - p[0])) / den
            if 0 < t < 1 and 0 < u < 1:
                return False
            if 0 <= t <= 1 and 0 <= u <= 1:
                cuts.add(p[0] + t * (q[0] - p[0]))
    windings = {0}
    xs = sorted(cuts)
    for a, b in zip(xs, xs[1:]):
        m = (a + b) / 2
        hits = sorted(
            (p[1] + (m - p[0]) * (q[1] - p[1]) / (q[0] - p[0]), 1 if q[0] > p[0] else -1)
            for p, q in edges
            if min(p[0], q[0]) < m < max(p[0], q[0])
        )
        w = 0
        for k, (y, d) in enumerate(hits):
            w += d
            if k + 1 == len(hits) or hits[k + 1][0] != y:
                windings.add(w)
    return max(windings) - min(windings) <= 1


class TestIsSimple:
    @pytest.mark.parametrize(
        "points",
        [
            # Unequal lobes give a positive signed area of 2.
            [(0, 1), (4, 0), (4, 2), (0, 0)],
            # The passes cross at (2, 1), a vertex of one of them; lobes +8 and -2.
            [(0, 2), (6, -1), (6, 3), (2, 1), (0, 0)],
            # The passes cross at (1, 1), a vertex of both.
            [(0, 0), (1, 1), (2, 2), (2, 0), (1, 1), (0, 2)],
            # The second lap runs along the first's bottom edge: winding 2 above it.
            [(0, 0), (2, 0), (2, 1), (0, 1), (0, 0), (2, 0), (2, 2), (0, 2)],
        ],
        ids=["bow-tie", "crossing-at-a-vertex", "crossing-at-a-shared-vertex", "second-lap"],
    )
    def test_crossing_boundaries_are_rejected(self, points):
        assert signed_area(np.array(points, dtype=float)) >= 0
        assert not is_simple(np.array(points, dtype=float))

    def test_pentagram_is_rejected_though_every_turn_is_left(self):
        phi = math.pi / 2 + np.arange(5) * 4 * math.pi / 5
        pentagram = np.column_stack([np.cos(phi), np.sin(phi)])
        assert is_convex(pentagram) and signed_area(pentagram) > 0
        assert not is_simple(pentagram)

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)],
            # Two triangles meeting where a vertex rests on the bottom edge.
            [(0, 0), (4, 0), (4, 2), (2, 0), (0, 2)],
            # Two lobes meeting at a vertex both pass through.
            [(0, 2), (0, 0), (1, 1), (2, 0), (2, 2), (1, 1)],
            # A square hole reached by a slit, its two edges laid back to back.
            [(0, 0), (4, 0), (4, 4), (0, 4), (0, 2), (1, 2), (1, 3), (3, 3), (3, 1), (1, 1),
             (1, 2), (0, 2)],
        ],
        ids=["repeated-vertex", "vertex-on-edge", "shared-vertex", "slit-to-a-hole"],
    )
    def test_touching_boundaries_are_accepted(self, points):
        assert is_simple(np.array(points, dtype=float))

    def test_synthetic_polygons_are_simple(self):
        for record in generate_synthetic("default", 30, 3):
            assert is_simple(record.polygon.vertices)

    def test_memory_is_linear_in_vertices(self):
        phi = np.arange(2000) * 2 * math.pi / 2000
        ring = np.column_stack([np.cos(phi), np.sin(phi)]) * 500.0 + [640.0, 480.0]
        tracemalloc.start()
        try:
            assert is_simple(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A full 2000 x 2000 pair table would need 32 MB for one float array.
        assert peak < 8e6

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(3, 9).flatmap(
        lambda n: st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n)
    ))
    def test_matches_exact_reference(self, points):
        # Small integer lattices: many touching, collinear and repeated cases.
        assert is_simple(np.array(points, dtype=float)) == _reference_is_simple(points)


class TestPointsInPolygon:
    def test_square_interior_and_exterior(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2], [0.9, 0.99]])
        inside = points_in_polygon(pts, UNIT_SQUARE)
        assert inside.tolist() == [True, False, False, True]

    def test_matches_winding_on_random_stars(self):
        rng = np.random.default_rng(10)
        n = rng.integers(5, 10)
        angles = np.sort(rng.uniform(0, 2 * math.pi, size=n))
        radii = rng.uniform(0.5, 2.0, size=n)
        poly = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        pts = rng.uniform(-2.5, 2.5, size=(500, 2))
        inside = points_in_polygon(pts, poly)
        # Independent check: ray-cast each point in pure Python.
        for p, got in zip(pts, inside):
            crossings = 0
            for i in range(len(poly)):
                x0, y0 = poly[i]
                x1, y1 = poly[(i + 1) % len(poly)]
                if (y0 <= p[1]) != (y1 <= p[1]):
                    xc = x0 + (p[1] - y0) * (x1 - x0) / (y1 - y0)
                    if p[0] < xc:
                        crossings += 1
            assert got == (crossings % 2 == 1)


# Reference implementations: the per-edge caliper loop and the numpy-array
# monotone chain that the vectorized versions replace.  They must agree to
# the bit, signed zeros included; both read -0.0 as 0.0.


def _reference_convex_hull(points):
    pts = np.unique(np.asarray(points, dtype=float) + 0.0, axis=0)
    if len(pts) < 3:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                u = out[-1] - out[-2]
                v = p - out[-2]
                if u[0] * v[1] - u[1] * v[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _reference_min_area_rect(points):
    hull = _reference_convex_hull(points)
    if len(hull) < 3:
        raise ValueError("need at least 3 non-collinear points")
    edges = np.roll(hull, -1, axis=0) - hull
    angles = np.arctan2(edges[:, 1], edges[:, 0])
    best = None
    for ang in angles:
        c, s = math.cos(ang), math.sin(ang)
        rot = hull @ np.array([[c, -s], [s, c]])
        xmin, ymin = rot.min(axis=0)
        xmax, ymax = rot.max(axis=0)
        area = (xmax - xmin) * (ymax - ymin)
        if best is None or area < best[0]:
            best = (area, ang, xmin, xmax, ymin, ymax)
    _, ang, xmin, xmax, ymin, ymax = best
    c, s = math.cos(ang), math.sin(ang)
    cx_r, cy_r = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    center = np.array([cx_r * c - cy_r * s, cx_r * s + cy_r * c])
    return center, float(xmax - xmin), float(ymax - ymin), float(ang)


@st.composite
def _clouds(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 300))
    return rng.normal(size=(n, 2)) * draw(st.floats(1e-3, 1e3)) + rng.uniform(-50, 50, 2)


# Small integer lattices: duplicates, collinear runs and tied areas.  Both
# signs of zero appear, so equal points can differ in their bits.
_lattice_coord = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
_lattices = st.lists(st.tuples(_lattice_coord, _lattice_coord), min_size=1, max_size=80).map(
    np.array
)


@st.composite
def _signed_zero_clouds(draw):
    # Over 16 points, np.unique stops sorting by insertion, so the signed
    # zero it keeps among equal points comes from its quicksort.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(-2, 3, size=(draw(st.integers(17, 200)), 2)).astype(float)
    pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    return pts


@st.composite
def _rectangles(draw):
    w = draw(st.floats(0.1, 5.0))
    h = draw(st.one_of(st.just(w), st.floats(0.1, 5.0)))
    corners = np.array([[-w / 2, -h / 2], [w / 2, -h / 2], [w / 2, h / 2], [-w / 2, h / 2]])
    center = (draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)))
    return rotate(corners, draw(st.floats(-math.pi, math.pi))) + center


@st.composite
def _synthetic(draw):
    records = generate_synthetic(
        draw(st.sampled_from(sorted(SYNTHETIC_PRESETS))), 1, draw(st.integers(0, 10_000))
    )
    return draw(st.sampled_from(records)).polygon.vertices


_point_sets = st.one_of(_clouds(), _lattices, _signed_zero_clouds(), _rectangles(), _synthetic())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_point_sets)
def test_hull_and_min_area_rect_match_reference_exactly(points):
    hull, want = convex_hull(points), _reference_convex_hull(points)
    assert hull.shape == want.shape
    assert np.array_equal(hull, want)
    assert np.array_equal(np.signbit(hull), np.signbit(want))

    try:
        want_rect = _reference_min_area_rect(points)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            min_area_rect(points)
        return
    center, w, h, theta = min_area_rect(points)
    assert np.array_equal(center, want_rect[0])
    assert (w, h, theta) == want_rect[1:]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(_lattices, _signed_zero_clouds()))
def test_hull_and_rect_ignore_the_sign_of_zero(points):
    flipped = np.where(points == 0.0, -points, points)
    assert convex_hull(points).tobytes() == convex_hull(flipped).tobytes()
    try:
        theta = min_area_rect(points)[3]
    except ValueError:
        with pytest.raises(ValueError):
            min_area_rect(flipped)
        return
    assert min_area_rect(flipped)[3].hex() == theta.hex()


# Simple CCW polygons for intersection_area.  Stars and L-shapes are not
# convex, so a pair of them goes through the signed fan of the first; their
# vertex lists start anywhere, which puts the fan's apex on reflex vertices
# too.


@st.composite
def _stars(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, 12))
    # One vertex per sector keeps every angular gap under pi, so the star is simple.
    angles = (np.arange(n) + rng.uniform(0, 1, n)) * (2 * math.pi / n)
    radii = rng.uniform(0.3, 2.0, n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


_L_SHAPE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])


@st.composite
def _l_shapes(draw):
    poly = _L_SHAPE
    if draw(st.booleans()):
        # Edge midpoints give fan triangles with a zero turn, the apex
        # collinear with an edge.
        mids = (poly + np.roll(poly, -1, axis=0)) / 2
        poly = np.column_stack([poly, mids]).reshape(-1, 2)
    return np.roll(poly, draw(st.integers(0, len(poly) - 1)), axis=0)


@st.composite
def _convex(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return convex_hull(rng.normal(size=(draw(st.integers(3, 10)), 2)))


@st.composite
def _placed(draw):
    poly = draw(st.one_of(_stars(), _l_shapes(), _convex()))
    assume(len(poly) >= 3)
    shift = (draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5)))
    return rotate(poly * draw(st.floats(0.5, 2.0)), draw(st.floats(-math.pi, math.pi))) + shift


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_placed(), _placed())
def test_intersection_area_matches_raster_oracle(a, b):
    area_a, area_b = signed_area(a), signed_area(b)
    both = np.vstack([a, b])
    extent = float(np.max(both.max(axis=0) - both.min(axis=0)))
    tol = 1e-12 * extent**2
    inter = intersection_area(a, b)
    assert abs(inter - intersection_area(b, a)) <= tol
    assert 0.0 <= inter <= min(area_a, area_b) + tol
    iou = iou_convex(a, b)
    assert abs(iou - iou_convex(b, a)) <= 1e-12
    assert 0.0 <= iou <= 1.0

    # Only cells crossed by an edge of a or b can be counted wrongly, and an
    # edge crosses at most |dx| / cell + |dy| / cell + 2 cells.
    cell = extent / 1000
    _, _, cells = _occupancy_counts(PolygonMask(a), PolygonMask(b), cell)
    edges = np.concatenate([np.roll(a, -1, axis=0) - a, np.roll(b, -1, axis=0) - b])
    bound = cell * float(np.abs(edges).sum()) + 2 * cell**2 * len(edges)
    assert abs(inter - cells * cell**2) <= bound


def _square(half, center=(0.0, 0.0)):
    return np.array([[-half, -half], [half, -half], [half, half], [-half, half]]) + center


class TestEllipseIntersectionArea:
    @pytest.mark.parametrize(
        "poly, ellipse, expected",
        [
            # The unit disk inside a square, and a square inside the unit disk.
            (_square(2.0), (0.0, 0.0, 1.0, 1.0, 0.0), math.pi),
            (_square(0.5), (0.0, 0.0, 1.0, 1.0, 0.0), 1.0),
            # A centred square of side 1.6 cuts four segments of half-angle acos(0.8) off the disk.
            (_square(0.8), (0.0, 0.0, 1.0, 1.0, 0.0), math.pi - 4 * (math.acos(0.8) - 0.8 * 0.6)),
            (_square(1.0, (5.0, 5.0)), (0.0, 0.0, 1.0, 1.0, 0.0), 0.0),
            # A rotated, shifted ellipse inside a square, and a square inside it.
            (_square(10.0), (3.0, 1.0, 2.0, 0.5, 0.3), math.pi),
            (rotate(_square(0.3), 0.3) + [3.0, 1.0], (3.0, 1.0, 2.0, 0.5, 0.3), 0.36),
        ],
    )
    def test_closed_forms(self, poly, ellipse, expected):
        assert ellipse_intersection_area(poly, *ellipse) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "poly, expected",
        [
            # A repeated consecutive vertex is a zero-length edge.
            ([[-2, -2], [2, -2], [2, -2], [2, 2], [-2, 2]], math.pi),
            # A vertex at the centre of the ellipse.
            ([[0, 0], [2, 0], [0, 2]], math.pi / 4),
            # Two vertices on the ellipse; the chord between them cuts a segment.
            ([[1, 0], [1, 1], [0, 1]], math.pi / 4 - 0.5),
            # An edge tangent to the ellipse at (1, 0) closes a quarter sector.
            ([[0, 0], [1, -1], [1, 1]], math.pi / 4),
            # Every edge tangent: the square circumscribing the disk.
            (_square(1.0), math.pi),
        ],
    )
    def test_edge_cases(self, poly, expected):
        poly = np.asarray(poly, dtype=float)
        assert is_simple(poly)
        area = ellipse_intersection_area(poly, 0.0, 0.0, 1.0, 1.0, 0.0)
        assert area == pytest.approx(expected, abs=1e-14)


@st.composite
def _placed_ellipses(draw):
    major, minor = sorted([draw(st.floats(0.2, 2.5)), draw(st.floats(0.2, 2.5))], reverse=True)
    center = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    return Ellipse(*center, major, minor, draw(st.floats(-math.pi, math.pi)))


def _ellipse_area(poly, e):
    return ellipse_intersection_area(poly, e.x0, e.y0, e.semi_major, e.semi_minor, e.theta)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    _placed(),
    _placed_ellipses(),
    st.floats(0.1, 10.0),
    st.floats(-math.pi, math.pi),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
)
def test_ellipse_intersection_area_matches_raster_oracle(poly, e, scale, phi, tx, ty):
    a, b = e.semi_major, e.semi_minor
    inter = _ellipse_area(poly, e)
    assert 0.0 <= inter <= min(signed_area(poly), math.pi * a * b)

    # Similarity invariance: rotate by phi about the origin, scale, translate.
    moved = rotate(poly, phi) * scale + [tx, ty]
    (cx, cy), = rotate(np.array([[e.x0, e.y0]]), phi) * scale + [tx, ty]
    e_moved = Ellipse(cx, cy, a * scale, b * scale, e.theta + phi)
    assert _ellipse_area(moved, e_moved) == pytest.approx(inter * scale**2, rel=1e-9, abs=1e-12)

    # Only cells crossed by the polygon's edges or the ellipse's boundary can
    # be counted wrongly.  The boundary is four monotone arcs spanning the
    # ellipse's bounding box twice in each axis, and a monotone piece crosses
    # at most |dx| / cell + |dy| / cell + 2 cells.
    ex = math.hypot(a * math.cos(e.theta), b * math.sin(e.theta))
    ey = math.hypot(a * math.sin(e.theta), b * math.cos(e.theta))
    both = np.vstack([poly, [[e.x0 - ex, e.y0 - ey], [e.x0 + ex, e.y0 + ey]]])
    cell = float(np.max(both.max(axis=0) - both.min(axis=0))) / 3000
    _, _, cells = _occupancy_counts(e, PolygonMask(poly), cell)
    edges = np.abs(np.roll(poly, -1, axis=0) - poly)
    crossed = (float(edges.sum()) + 4 * (ex + ey)) / cell + 2 * len(poly) + 8
    assert abs(inter - cells * cell**2) <= crossed * cell**2
