"""IoU oracles: analytic box IoU, exact polygon IoU, and grid rasterization.

Rasterization marks a cell occupied iff its center lies inside the shape
(even-odd rule for polygons, quadratic-form test for ellipses).  Cell-center
inclusion is unbiased for randomly placed shapes and keeps occupancy counts
simple; accuracy is controlled entirely by the cell size.  Occupancy is held
as per-row runs of cells (the span core below), so counts never need a cell
grid in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .convert import _vertices
from .polygons import intersection_area, signed_area
from .types import Ellipse, Hbb, Obb, PolygonMask

Shape = Union[Hbb, Obb, Ellipse, PolygonMask]

# Cells along the larger extent when no cell size is given; keeps IoU error
# under ~0.5% for smooth shapes.
DEFAULT_CELLS = 1000

# Largest shared grid accepted; bigger requests fail.  Counts hold only run
# boundaries, O(rows x edges), but the rows and columns still size the arrays
# of cell centers.
MAX_GRID_CELLS = 10_000_000


@dataclass(frozen=True)
class RasterGrid:
    """Grid of square cells: origin corner, cell size, columns and rows.

    Cell (r, k) has its center at
    (origin[0] + (k + 0.5) * cell_size, origin[1] + (r + 0.5) * cell_size).
    """

    origin: tuple[float, float]
    cell_size: float
    width: int
    height: int

    def __post_init__(self):
        if not self.cell_size > 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have at least one cell per axis")

    def x_centers(self) -> np.ndarray:
        return self.origin[0] + (np.arange(self.width) + 0.5) * self.cell_size

    def y_centers(self) -> np.ndarray:
        return self.origin[1] + (np.arange(self.height) + 0.5) * self.cell_size


def _region(shape) -> Ellipse | np.ndarray:
    """An ellipse as it is; a box or polygon as its vertex array."""
    if isinstance(shape, (Ellipse, np.ndarray)):
        return shape
    if isinstance(shape, (Hbb, Obb, PolygonMask)):
        return _vertices(shape)
    raise TypeError(f"unsupported shape type {type(shape).__name__}")


def shape_bounds(shape: Shape | np.ndarray) -> tuple[float, float, float, float]:
    """Tight axis-aligned bounds (xmin, ymin, xmax, ymax) of a shape or vertex array."""
    if isinstance(shape, Hbb):
        # Arithmetic, not corners: perfbench's fidelity latency items size a
        # grid from an hbb per record.
        hw, hh = shape.w / 2.0, shape.h / 2.0
        return shape.x0 - hw, shape.y0 - hh, shape.x0 + hw, shape.y0 + hh
    region = _region(shape)
    if isinstance(region, Ellipse):
        c, s = math.cos(region.theta), math.sin(region.theta)
        ex = math.hypot(region.semi_major * c, region.semi_minor * s)
        ey = math.hypot(region.semi_major * s, region.semi_minor * c)
        return region.x0 - ex, region.y0 - ey, region.x0 + ex, region.y0 + ey
    (xmin, ymin), (xmax, ymax) = region.min(axis=0), region.max(axis=0)
    return float(xmin), float(ymin), float(xmax), float(ymax)


# Span core.  A shape's occupancy on a grid is a sorted array of run
# boundaries, each the key row * (width + 1) + column.  A boundary flips the
# cells of its row left of the column, so consecutive pairs (keys[0::2],
# keys[1::2]) are the row's occupied runs and every row holds an even number
# of boundaries.  Sorting two shapes' boundaries together therefore pairs up
# into the runs of their symmetric difference.  No cell grid is built: memory
# is O(rows x edges), not O(rows x columns).


def _polygon_boundaries(vertices: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Run boundaries of the even-odd fill, matching the test oracle points_in_polygon.

    Edge e straddles row r when exactly one of its ends lies at or below the
    row's center (half-open in y).  Its crossing xc flips the cells whose
    centers lie left of it, columns [0, searchsorted(xs, xc, 'left')), which
    is the point test's `px < xcross`.  The oracle lives in tests/conftest.py.
    """
    v = np.asarray(vertices, dtype=float)
    v_next = np.concatenate((v[1:], v[:1]))
    x0, y0 = v[:, 0], v[:, 1]
    x1, y1 = v_next[:, 0], v_next[:, 1]
    # Row r's center is at or above a vertex iff r >= first, so an edge
    # straddles the rows from its ends' lower first row up to the higher.
    first = np.searchsorted(ys, y0)
    first_next = np.concatenate((first[1:], first[:1]))
    lo = np.minimum(first, first_next)
    n_rows = np.abs(first - first_next)
    edge = np.repeat(np.arange(len(v)), n_rows)
    rows = np.arange(len(edge)) + np.repeat(lo - np.cumsum(n_rows) + n_rows, n_rows)
    xc = x0[edge] + (ys[rows] - y0[edge]) * (x1 - x0)[edge] / (y1 - y0)[edge]
    cols = np.searchsorted(xs, xc)
    return np.sort(rows * (len(xs) + 1) + cols)


def _ellipse_runs(e: Ellipse, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row occupied run [left, right) of an ellipse; empty where right <= left.

    At row offset y the quadratic form is A x^2 + 2 K y x + ..., its
    determinant is 1 / (a b)^2, so the chord has center -K y / A and
    half-width sqrt(A - (y / (a b))^2) / A with nothing cancelling.  Rounding
    moves a chord end by far less than a cell, so the cells on both sides of
    each end are decided by the quadratic-form test at their centers, in the
    same operations as a test of every cell; the runs then hold exactly the
    cells that test accepts.
    """
    xs = xs - e.x0
    ys = ys - e.y0
    a, b = e.semi_major, e.semi_minor
    c, s = math.cos(e.theta), math.sin(e.theta)
    quad = (c / a) ** 2 + (s / b) ** 2
    cross = c * s * (1.0 / a**2 - 1.0 / b**2)
    mid = ys * (-cross / quad)
    half = np.sqrt(np.maximum(quad - (ys / (a * b)) ** 2, 0.0)) / quad
    lo = np.searchsorted(xs, mid - half, "left")
    hi = np.searchsorted(xs, mid + half, "right")
    idx = np.concatenate((lo - 1, lo, hi - 1, hi)).reshape(4, -1)
    cell = np.clip(idx, 0, len(xs) - 1)  # candidates past the grid edge test as outside
    x = xs[cell]
    u = x * c + ys * s
    w = -x * s + ys * c
    in_lo_prev, in_lo, in_hi_prev, in_hi = ((u / a) ** 2 + (w / b) ** 2 <= 1.0) & (cell == idx)
    left = lo + 1 - np.where(in_lo_prev, 2, in_lo)
    right = hi - 1 + np.where(in_hi, 2, in_hi_prev)
    return left, right


def _boundaries(shape: Shape | np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sorted run boundaries of a shape on the grid with these cell centers."""
    region = _region(shape)
    if isinstance(region, Ellipse):
        left, right = _ellipse_runs(region, xs, ys)
        rows = np.nonzero(right > left)[0]
        base = rows * (len(xs) + 1)
        return np.column_stack((base + left[rows], base + right[rows])).ravel()
    return _polygon_boundaries(region, xs, ys)


def _run_cells(keys: np.ndarray) -> int:
    """Cells covered by the runs of sorted boundaries."""
    return int((keys[1::2] - keys[0::2]).sum())


def shared_grid(a: Shape, b: Shape, cell_size: float) -> RasterGrid:
    """Grid covering both shapes' bounds, padded by one cell."""
    if not cell_size > 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    ax0, ay0, ax1, ay1 = shape_bounds(a)
    bx0, by0, bx1, by1 = shape_bounds(b)
    xmin, ymin = min(ax0, bx0) - cell_size, min(ay0, by0) - cell_size
    xmax, ymax = max(ax1, bx1) + cell_size, max(ay1, by1) + cell_size
    nx, ny = (xmax - xmin) / cell_size, (ymax - ymin) / cell_size
    if not nx * ny <= MAX_GRID_CELLS:
        raise ValueError(f"{nx:.3g} x {ny:.3g} cells of size {cell_size!r} exceed MAX_GRID_CELLS")
    width = max(1, int(math.ceil(nx)))
    height = max(1, int(math.ceil(ny)))
    return RasterGrid((xmin, ymin), cell_size, width, height)


def default_cell_size(a: Shape, b: Shape, cells: int = DEFAULT_CELLS) -> float:
    """Cell size placing `cells` cells along the larger shared extent."""
    ax0, ay0, ax1, ay1 = shape_bounds(a)
    bx0, by0, bx1, by1 = shape_bounds(b)
    extent = max(max(ax1, bx1) - min(ax0, bx0), max(ay1, by1) - min(ay0, by0))
    return extent / cells if extent > 0 else 1.0


def _occupancy_counts(a: Shape, b: Shape, cell_size: float | None) -> tuple[int, int, int]:
    """Occupied cells of a, of b, and of both on their shared grid."""
    a, b = _region(a), _region(b)
    if cell_size is None:
        cell_size = default_cell_size(a, b)
    grid = shared_grid(a, b, cell_size)
    xs, ys = grid.x_centers(), grid.y_centers()
    keys_a = _boundaries(a, xs, ys)
    keys_b = _boundaries(b, xs, ys)
    count_a, count_b = _run_cells(keys_a), _run_cells(keys_b)
    xor = _run_cells(np.sort(np.concatenate((keys_a, keys_b))))
    inter = (count_a + count_b - xor) // 2
    if count_a == 0 or count_b == 0:
        raise ValueError(
            "shape rasterized to zero cells; reduce cell_size below the "
            "smallest shape dimension"
        )
    return count_a, count_b, inter


def iou_raster(a: Shape, b: Shape, cell_size: float | None = None) -> float:
    """IoU of the two shapes' occupancy sets on a shared grid.

    Converges to the analytic IoU as cell_size shrinks.  Raises if either
    shape rasterizes to zero cells (shape smaller than one cell): reduce
    cell_size in that case.
    """
    count_a, count_b, inter = _occupancy_counts(a, b, cell_size)
    return inter / (count_a + count_b - inter)


def iou_hbb(a: Hbb, b: Hbb) -> float:
    """Exact IoU of two axis-aligned boxes."""
    ow = min(a.x0 + a.w / 2.0, b.x0 + b.w / 2.0) - max(a.x0 - a.w / 2.0, b.x0 - b.w / 2.0)
    oh = min(a.y0 + a.h / 2.0, b.y0 + b.h / 2.0) - max(a.y0 - a.h / 2.0, b.y0 - b.h / 2.0)
    if ow <= 0.0 or oh <= 0.0:
        return 0.0
    inter = ow * oh
    return inter / (a.w * a.h + b.w * b.h - inter)


def iou_convex(a: np.ndarray | PolygonMask, b: np.ndarray | PolygonMask) -> float:
    """Exact IoU of two simple counter-clockwise polygons, convex or not (clip + shoelace)."""
    pa = a.vertices if isinstance(a, PolygonMask) else np.asarray(a, dtype=float)
    pb = b.vertices if isinstance(b, PolygonMask) else np.asarray(b, dtype=float)
    area_a, area_b = signed_area(pa), signed_area(pb)
    if len(pa) < 3 or len(pb) < 3 or area_a <= 0 or area_b <= 0:
        raise ValueError("polygons must be counter-clockwise with positive area")
    # Rounding can put a flush pair's clipped area a few ulp above the smaller one.
    inter = min(intersection_area(pa, pb), area_a, area_b)
    return inter / (area_a + area_b - inter)


def iou_between(a: Shape, b: Shape, cell_size: float | None = None) -> float:
    """IoU of two crisp shapes by one of three routes.

    Two hbbs take iou_hbb and any pair with an ellipse takes iou_raster
    (cell_size applies to it alone); every other box or polygon pair takes
    the exact iou_convex.
    """
    if isinstance(a, Hbb) and isinstance(b, Hbb):
        return iou_hbb(a, b)
    if isinstance(a, Ellipse) or isinstance(b, Ellipse):
        return iou_raster(a, b, cell_size)
    return iou_convex(_region(a), _region(b))


__all__ = [
    "DEFAULT_CELLS",
    "MAX_GRID_CELLS",
    "RasterGrid",
    "Shape",
    "shape_bounds",
    "shared_grid",
    "default_cell_size",
    "iou_raster",
    "iou_hbb",
    "iou_convex",
    "iou_between",
]
