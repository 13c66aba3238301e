import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import points_in_polygon
from gbbkit import (
    Ellipse, GaussBox, Hbb, Obb, PolygonMask, generate_synthetic, mask_bc, mask_to_obb, to_polygon,
)
from gbbkit import raster
from gbbkit.convert import obb_corners
from gbbkit.polygons import convex_hull, min_area_rect, signed_area
from gbbkit.raster import (
    RasterGrid,
    _boundaries,
    _occupancy_counts,
    default_cell_size,
    iou_between,
    iou_convex,
    iou_hbb,
    iou_raster,
    shared_grid,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def rotated_square(phi, center=(0.5, 0.5)):
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    ctr = np.asarray(center)
    return (UNIT_SQUARE - ctr) @ rot.T + ctr


def _run_bits(shape, grid):
    """Cells inside the span core's runs, as a (height, width) bool grid."""
    keys = _boundaries(shape, grid.x_centers(), grid.y_centers())
    flips = np.bincount(keys, minlength=grid.height * (grid.width + 1))
    inside = np.cumsum(flips) % 2 == 1
    return inside.reshape(grid.height, grid.width + 1)[:, : grid.width]


class TestRasterGrid:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RasterGrid((0, 0), 1.0, 0, 2)
        with pytest.raises(ValueError):
            RasterGrid((0, 0), 0.0, 3, 2)

    def test_centers(self):
        g = RasterGrid((1.0, 2.0), 0.5, 4, 2)
        np.testing.assert_allclose(g.x_centers(), [1.25, 1.75, 2.25, 2.75])
        np.testing.assert_allclose(g.y_centers(), [2.25, 2.75])


class TestRasterize:
    def test_half_plane_split_exact_columns(self):
        # Rectangle covering the left half marks exactly width/2 columns.
        grid = RasterGrid((0.0, 0.0), 0.1, 10, 4)
        left = Hbb(0.25, 0.2, 0.5, 0.4)
        bits = _run_bits(left, grid)
        assert bits.sum() == 5 * 4
        assert bits[:, :5].all()
        assert not bits[:, 5:].any()

    def test_full_grid_rectangle(self):
        grid = RasterGrid((0.0, 0.0), 0.1, 8, 6)
        big = Hbb(0.4, 0.3, 10.0, 10.0)
        assert _run_bits(big, grid).all()

    def test_tiny_shape_marks_no_cells(self):
        grid = RasterGrid((0.0, 0.0), 1.0, 4, 4)
        tiny = Hbb(0.1, 0.1, 0.05, 0.05)
        assert not _run_bits(tiny, grid).any()

    def test_polygon_matches_point_test_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(5, 11)
            angles = np.sort(rng.uniform(0, 2 * math.pi, size=n))
            radii = rng.uniform(0.3, 2.0, size=n)
            poly = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
            mask = PolygonMask(poly)
            grid = shared_grid(mask, mask, rng.uniform(0.05, 0.3))
            bits = _run_bits(mask, grid)
            xs, ys = np.meshgrid(grid.x_centers(), grid.y_centers())
            pts = np.column_stack([xs.ravel(), ys.ravel()])
            expected = points_in_polygon(pts, poly).reshape(bits.shape)
            np.testing.assert_array_equal(bits, expected)

    def test_ellipse_matches_quadratic_form(self):
        e = Ellipse(0.3, -0.2, 2.0, 1.0, 0.7)
        grid = shared_grid(e, e, 0.05)
        bits = _run_bits(e, grid)
        c, s = math.cos(e.theta), math.sin(e.theta)
        for r in range(0, grid.height, 7):
            for k in range(0, grid.width, 7):
                x = grid.x_centers()[k] - e.x0
                y = grid.y_centers()[r] - e.y0
                u = x * c + y * s
                w = -x * s + y * c
                inside = (u / e.semi_major) ** 2 + (w / e.semi_minor) ** 2 <= 1.0
                assert bits[r, k] == inside

    def test_obb_equals_equivalent_polygon(self):
        obb = Obb(0.5, 0.2, 2.0, 1.0, 0.4)
        grid = shared_grid(obb, obb, 0.04)
        np.testing.assert_array_equal(
            _run_bits(obb, grid),
            _run_bits(PolygonMask(obb_corners(obb)), grid),
        )


class TestIouHbb:
    def test_identical(self):
        a = Hbb(1, 2, 3, 4)
        assert iou_hbb(a, a) == 1.0

    def test_disjoint(self):
        assert iou_hbb(Hbb(0, 0, 1, 1), Hbb(5, 0, 1, 1)) == 0.0

    def test_half_offset_unit_squares(self):
        assert iou_hbb(Hbb(0, 0, 1, 1), Hbb(0.5, 0, 1, 1)) == pytest.approx(1 / 3, rel=1e-12)

    def test_containment_is_area_ratio(self):
        outer = Hbb(0, 0, 4, 4)
        inner = Hbb(0.5, -0.5, 2, 1)
        assert iou_hbb(inner, outer) == pytest.approx(2.0 / 16.0, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = Hbb(*rng.uniform(0, 1, 2), *rng.uniform(0.1, 1, 2))
            b = Hbb(*rng.uniform(0, 1, 2), *rng.uniform(0.1, 1, 2))
            assert iou_hbb(a, b) == iou_hbb(b, a)


class TestIouConvex:
    def test_identical(self):
        assert iou_convex(UNIT_SQUARE, UNIT_SQUARE) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert iou_convex(UNIT_SQUARE, UNIT_SQUARE + [3.0, 0.0]) == 0.0

    def test_square_vs_rotated_square(self):
        # Intersection is the regular octagon of area 2*sqrt(2)-2, so
        # IoU = (2*sqrt(2)-2) / (4-2*sqrt(2)) = sqrt(2)/2.
        got = iou_convex(UNIT_SQUARE, rotated_square(math.pi / 4))
        assert got == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
        # Cross-check with the independent rasterized route at a fine cell.
        approx = iou_raster(
            PolygonMask(UNIT_SQUARE), PolygonMask(rotated_square(math.pi / 4)), 1e-3
        )
        assert abs(approx - got) < 0.005

    def test_nonconvex_l_shape_is_exact(self):
        # The L of area 3 holds the unit square: intersection 1, union 3.
        ell = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
        assert iou_convex(ell, UNIT_SQUARE) == pytest.approx(1 / 3, rel=1e-12)

    def test_rejects_degenerate(self):
        line = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
        with pytest.raises(ValueError):
            iou_convex(line, UNIT_SQUARE)

    def test_symmetry_within_roundoff(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rotated_square(rng.uniform(0, math.pi)) * rng.uniform(0.5, 2)
            b = rotated_square(rng.uniform(0, math.pi)) + rng.uniform(-0.5, 0.5, 2)
            assert iou_convex(a, b) == pytest.approx(iou_convex(b, a), abs=1e-12)


# Records of generate_synthetic("default", 1000, 7) whose minimum-area box
# has an edge flush along the polygon's own edge in a way that once made the
# clipped intersection NaN.
_FLUSH_RECORDS = [
    852, 866, 1019, 1023, 1153, 1159, 1184, 1240, 1284, 1360, 1505, 1507, 1518,
    1701, 1711, 1719, 1731, 1779, 1795, 1852, 1863, 1934, 1963, 2034, 2038, 2042,
    2137, 2154, 2197, 2204, 2206, 2219, 2220, 2269, 2283, 2326, 2342, 2413, 2437,
    2467, 2516, 2580, 2587, 2597, 2611, 2622, 2768, 2772, 2944, 2950,
]


def test_flush_min_area_box_pairs_are_finite():
    records = generate_synthetic("default", 1000, 7)
    for i in _FLUSH_RECORDS:
        poly = records[i].polygon
        box = mask_to_obb(poly)
        iou = iou_between(box, poly)
        bc = mask_bc(to_polygon(box), poly)
        # The box holds the polygon, so the IoU is the area ratio.
        assert 0.0 < iou <= 1.0
        assert iou <= bc <= 1.0


def _box_corners(cx, cy, w, h, theta):
    return obb_corners(Obb(cx, cy, w, h, theta))


@st.composite
def _edge_sharing_convex_pairs(draw):
    """Convex pairs whose edges share a line: boxes stacked or nested along
    an edge at any angle, lattice rectangles, and a hull with its
    minimum-area box."""
    kind = draw(st.sampled_from(["stacked", "nested", "lattice", "hull"]))
    coord = st.floats(-5.0, 5.0)
    size = st.floats(0.05, 5.0)
    if kind == "lattice":
        cell = st.integers(-3, 3)
        x0, y0, x1, y1 = draw(cell), draw(cell), draw(cell), draw(cell)
        w0, h0, w1, h1 = (draw(st.integers(1, 4)) for _ in range(4))
        return _box_corners(x0 + w0 / 2, y0 + h0 / 2, w0, h0, 0.0), _box_corners(
            x1 + w1 / 2, y1 + h1 / 2, w1, h1, 0.0
        )
    if kind == "hull":
        pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12)))
        hull = convex_hull(pts)
        assume(len(hull) >= 3 and signed_area(hull) > 1e-6)
        center, w, h, theta = min_area_rect(hull)
        return hull, _box_corners(center[0], center[1], w, h, theta)
    cx, cy, w, h = draw(coord), draw(coord), draw(size), draw(size)
    theta = draw(st.floats(-math.pi, math.pi))
    w2, h2 = draw(size), draw(size)
    shift = draw(st.floats(-1.0, 1.0)) * (w + w2) / 2
    # Second box in the first's frame: its bottom edge on the first's top
    # edge line (stacked) or on the first's bottom edge line (nested).
    dy = (h + h2) / 2 if kind == "stacked" else (h2 - h) / 2
    c, s = math.cos(theta), math.sin(theta)
    return _box_corners(cx, cy, w, h, theta), _box_corners(
        cx + shift * c - dy * s, cy + shift * s + dy * c, w2, h2, theta
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_edge_sharing_convex_pairs())
def test_convex_iou_and_mask_bc_finite_on_shared_edges(pair):
    a, b = pair
    iou = iou_convex(a, b)
    bc = mask_bc(PolygonMask(a), PolygonMask(b))
    assert math.isfinite(iou) and 0.0 <= iou <= 1.0
    assert math.isfinite(bc) and 0.0 <= bc <= 1.0


class TestIouRaster:
    def test_identity_is_exact(self):
        e = Ellipse(0, 0, 2, 1, 0.3)
        assert iou_raster(e, e, 0.05) == 1.0

    def test_converges_to_analytic_hbb(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = Hbb(*rng.uniform(0, 1, 2), *rng.uniform(0.2, 1, 2))
            b = Hbb(*rng.uniform(0, 1, 2), *rng.uniform(0.2, 1, 2))
            cell = default_cell_size(a, b, 1000)
            assert abs(iou_raster(a, b, cell) - iou_hbb(a, b)) < 0.005

    def test_error_shrinks_as_cells_halve(self):
        rng = np.random.default_rng(4)
        pairs = []
        while len(pairs) < 30:
            a = Hbb(*rng.uniform(0, 1, 2), *rng.uniform(0.3, 1, 2))
            b = Hbb(*rng.uniform(0, 1, 2), *rng.uniform(0.3, 1, 2))
            if iou_hbb(a, b) > 0:
                pairs.append((a, b))
        mean_err = []
        for cells in (125, 250, 500, 1000):
            errs = [
                abs(iou_raster(a, b, default_cell_size(a, b, cells)) - iou_hbb(a, b))
                for a, b in pairs
            ]
            mean_err.append(np.mean(errs))
        assert mean_err[0] > mean_err[-1]
        assert mean_err[-1] < 0.005

    def test_circle_inscribed_in_square(self):
        circle = Ellipse(0, 0, 1.0, 1.0, 0.0)
        square = Hbb(0, 0, 2.0, 2.0)
        got = iou_raster(circle, square, default_cell_size(circle, square, 1000))
        assert abs(got - math.pi / 4) < 0.005

    def test_raises_on_empty_rasterization(self):
        tiny = Hbb(0, 0, 0.01, 0.01)
        far = Hbb(100, 0, 1, 1)
        with pytest.raises(ValueError, match="cell_size"):
            iou_raster(tiny, far, 5.0)

    def test_symmetry_exact(self):
        a = Ellipse(0.2, 0.1, 1.5, 0.7, 0.5)
        b = Hbb(0.5, 0.0, 1.0, 2.0)
        assert iou_raster(a, b, 0.01) == iou_raster(b, a, 0.01)

    def test_rejects_grid_over_cap(self):
        # 1e12 cells requested; the cap must stop it before allocation.
        with pytest.raises(ValueError, match="MAX_GRID_CELLS"):
            iou_raster(Hbb(0, 0, 1, 1), Hbb(0, 0, 1, 1), 1e-6)


def _star(cx, cy, outer, phase, points=5, ratio=0.4):
    k = np.arange(2 * points)
    phi = phase + k * math.pi / points
    r = np.where(k % 2 == 0, outer, outer * ratio)
    return PolygonMask(np.column_stack([cx + r * np.cos(phi), cy + r * np.sin(phi)]))


_STAR = _star(0.0, 0.0, 1.0, 0.3)
_STAR_2 = _star(0.4, -0.2, 1.2, 1.1, points=7, ratio=0.55)
_OBB = Obb(0.2, -0.1, 1.5, 0.8, 0.3)
_L_SHAPE = PolygonMask(np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float))


class TestIouBetween:
    def test_dispatches_hbb_to_analytic(self):
        a, b = Hbb(0, 0, 1, 1), Hbb(0.5, 0, 1, 1)
        assert iou_between(a, b) == iou_hbb(a, b)

    def test_obb_pair_uses_exact_clipping(self):
        a = Obb(0, 0, 2, 1, 0.0)
        b = Obb(0, 0, 2, 1, math.pi / 2)
        got = iou_between(a, b)
        # Cross shape: intersection 1, union 3.
        assert got == pytest.approx(1 / 3, rel=1e-9)

    def test_ellipse_falls_back_to_raster(self):
        e = Ellipse(0, 0, 1, 1, 0)
        sq = Hbb(0, 0, 2, 2)
        assert abs(iou_between(e, sq) - math.pi / 4) < 0.005

    def test_fuzzy_shape_is_named_in_the_error(self):
        for call in (iou_between, iou_raster):
            with pytest.raises(TypeError, match="unsupported shape type GaussBox"):
                call(GaussBox(0, 0, 1, 1, 0), Hbb(0, 0, 1, 1))

    def test_matches_hbb_corners_route(self):
        a, b = Hbb(0, 0, 2, 1), Hbb(0.4, 0.2, 1, 1)
        assert iou_convex(to_polygon(a), to_polygon(b)) == pytest.approx(
            iou_hbb(a, b), rel=1e-12
        )

    @pytest.mark.parametrize(
        "a, b",
        [(_STAR, _OBB), (_OBB, _STAR), (_STAR, _STAR_2), (_L_SHAPE, Hbb(1.2, 1.2, 1.0, 1.4))],
        ids=["star-obb", "obb-star", "star-star", "l-hbb"],
    )
    def test_polygon_pairs_take_the_exact_route(self, monkeypatch, a, b):
        def no_raster(*args, **kwargs):
            raise AssertionError("a box or polygon pair reached the raster")

        monkeypatch.setattr(raster, "iou_raster", no_raster)
        iou = iou_between(a, b)
        # Against a 3000-cell raster: only cells crossed by an edge of a or b
        # can be counted wrongly, at most |dx| / cell + |dy| / cell + 2 per edge.
        va, vb = to_polygon(a).vertices, to_polygon(b).vertices
        area_a, area_b = signed_area(va), signed_area(vb)
        cell = default_cell_size(a, b, 3000)
        _, _, cells = _occupancy_counts(a, b, cell)
        edges = np.concatenate([np.roll(va, -1, axis=0) - va, np.roll(vb, -1, axis=0) - vb])
        bound = cell * float(np.abs(edges).sum()) + 2 * cell**2 * len(edges)
        inter = iou * (area_a + area_b) / (1.0 + iou)
        assert inter > 0.1
        assert abs(inter - cells * cell**2) <= bound


# Property tests of the occupancy-count core behind iou_raster.  Every shape
# spans several cells at CELL, so none rasterizes to zero cells.
CELL = 0.05
_coord = st.floats(-2.0, 2.0)
_size = st.floats(0.3, 3.0)
_angle = st.floats(-math.pi, math.pi)


@st.composite
def _ellipses(draw):
    major, minor = sorted([draw(_size), draw(_size)], reverse=True)
    return Ellipse(draw(_coord), draw(_coord), major, minor, draw(_angle))


@st.composite
def _polygons(draw, ratios=st.sampled_from([1.0, 0.4])):
    """Regular 2n-gons (ratio 1, convex) or n-pointed stars (non-convex)."""
    n = draw(st.integers(3, 8))
    outer = draw(st.floats(0.5, 2.0))
    ratio = draw(ratios)
    k = np.arange(2 * n)
    phi = draw(_angle) + k * math.pi / n
    r = np.where(k % 2 == 0, outer, outer * ratio)
    cx, cy = draw(_coord), draw(_coord)
    return PolygonMask(np.column_stack([cx + r * np.cos(phi), cy + r * np.sin(phi)]))


_shapes = st.one_of(
    st.builds(Hbb, _coord, _coord, _size, _size),
    st.builds(Obb, _coord, _coord, _size, _size, _angle),
    _ellipses(),
    _polygons(),
)
_polygonal_shapes = st.one_of(
    st.builds(Hbb, _coord, _coord, _size, _size),
    st.builds(Obb, _coord, _coord, _size, _size, _angle),
    _polygons(),
)
_property = settings(max_examples=100, derandomize=True, deadline=None)


@_property
@given(_shapes, _shapes)
def test_iou_raster_symmetric_property(a, b):
    assert iou_raster(a, b, CELL) == iou_raster(b, a, CELL)


@_property
@given(_polygonal_shapes, _polygonal_shapes)
def test_exact_iou_bounded_by_mask_bc_property(a, b):
    # BC >= IoU because sqrt(|A| |B|) <= |A u B|; both sides exact.
    iou = iou_between(a, b)
    assert 0.0 <= iou <= mask_bc(to_polygon(a), to_polygon(b)) + 1e-12 <= 1.0 + 1e-12


# Exact agreement with an independent dense reference: the crossing-number
# point test (conftest.points_in_polygon) and the ellipse quadratic form,
# evaluated at every cell center of the shared grid.
def _dense_bits(shape, grid):
    xs, ys = np.meshgrid(grid.x_centers(), grid.y_centers())
    if isinstance(shape, Ellipse):
        x, y = xs - shape.x0, ys - shape.y0
        c, s = math.cos(shape.theta), math.sin(shape.theta)
        u = x * c + y * s
        w = -x * s + y * c
        return (u / shape.semi_major) ** 2 + (w / shape.semi_minor) ** 2 <= 1.0
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return points_in_polygon(pts, to_polygon(shape).vertices).reshape(xs.shape)


# Quarter-cell lattice: every box edge and every tangent point of an
# axis-aligned ellipse lies on a quarter-cell multiple, and the shared grid's
# cell centers sit on the same lattice, so many fall exactly on a boundary.
LATTICE_CELL = 0.25
_quarter = st.integers(-16, 16).map(lambda k: k * LATTICE_CELL / 4)
_half_size = st.integers(1, 12).map(lambda k: k * LATTICE_CELL / 2)


@st.composite
def _lattice_ellipses(draw):
    major, minor = sorted([draw(_half_size), draw(_half_size)], reverse=True)
    theta = draw(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi / 2]))
    return Ellipse(draw(_quarter), draw(_quarter), major / 2, minor / 2, theta)


_star_ratios = st.floats(0.2, 0.7)
_lattice_shapes = st.one_of(
    st.builds(Hbb, _quarter, _quarter, _half_size, _half_size),
    _lattice_ellipses(),
)
_pairs = st.one_of(
    st.tuples(_ellipses(), _ellipses(), st.just(CELL)),
    st.tuples(_polygons(_star_ratios), _polygons(_star_ratios), st.just(CELL)),
    st.tuples(_lattice_shapes, _lattice_shapes, st.just(LATTICE_CELL)),
    st.tuples(_shapes, _shapes, st.just(CELL)),
)


def _assert_matches_dense(a, b, cell):
    grid = shared_grid(a, b, cell)
    bits_a, bits_b = _dense_bits(a, grid), _dense_bits(b, grid)
    count_a, count_b = int(bits_a.sum()), int(bits_b.sum())
    inter = int((bits_a & bits_b).sum())
    if count_a == 0 or count_b == 0:
        with pytest.raises(ValueError, match="zero cells"):
            iou_raster(a, b, cell)
        return
    assert iou_raster(a, b, cell) == inter / (count_a + count_b - inter)
    np.testing.assert_array_equal(_run_bits(a, grid), bits_a)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_pairs)
def test_counts_match_dense_reference_property(pair):
    _assert_matches_dense(*pair)


# Lattice pairs where a chord end computed from the row's quadratic falls on
# the wrong side of a cell center by rounding, one case per snapping
# direction: left end moved right and right end moved left (first case),
# left end moved left, right end moved right.
@pytest.mark.parametrize(
    "a, b",
    [
        (Ellipse(0.1875, -0.0625, 0.625, 0.625, -math.pi / 2), Hbb(-0.25, -0.625, 0.625, 0.625)),
        (Ellipse(-0.25, -0.25, 0.6875, 0.125, 3 * math.pi / 2), Hbb(0.125, -1.0, 1.5, 1.375)),
        (Ellipse(-0.5, -0.625, 0.375, 0.1875, math.pi), Hbb(-0.0625, 0.0625, 1.25, 0.875)),
    ],
)
def test_chord_ends_snap_to_quadratic_form(a, b):
    _assert_matches_dense(a, b, LATTICE_CELL)


def test_ellipse_runs_clipped_at_grid_edges():
    # Runs reaching past the first or last column stop at the grid edge.
    grid = RasterGrid((-0.5, -0.5), 0.1, 7, 5)
    clipped = (Ellipse(0, 0, 3, 1, 0.3), Ellipse(0.2, 0, 0.4, 0.3, 1.0), Ellipse(-0.6, 0, 0.5, 0.4, 0))
    for e in clipped:
        np.testing.assert_array_equal(_run_bits(e, grid), _dense_bits(e, grid))
