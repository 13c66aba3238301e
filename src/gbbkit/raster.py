"""IoU oracles: analytic box IoU, convex-polygon IoU, and grid rasterization.

Rasterization marks a cell occupied iff its center lies inside the shape
(even-odd rule for polygons, quadratic-form test for ellipses).  Cell-center
inclusion is unbiased for randomly placed shapes and keeps occupancy counts
simple; accuracy is controlled entirely by the cell size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .polygons import clip_convex, is_convex, signed_area
from .types import Ellipse, Hbb, Obb, PolygonMask

Shape = Union[Hbb, Obb, Ellipse, PolygonMask]

# Cells along the larger extent when no cell size is given; keeps IoU error
# under ~0.5% for smooth shapes.
DEFAULT_CELLS = 1000

# Largest shared grid built; bigger requests fail.  The ellipse fill holds
# several float64 grids at once (32 bytes per cell measured, 320 MB at the cap).
MAX_GRID_CELLS = 10_000_000


@dataclass(frozen=True, eq=False)
class RasterGrid:
    """Occupancy grid: origin corner, square cells, row-major bits.

    bits[r, k] covers the cell whose center is
    (origin[0] + (k + 0.5) * cell_size, origin[1] + (r + 0.5) * cell_size).
    Treat bits as read-only; rasterize returns fresh grids.
    """

    origin: tuple[float, float]
    cell_size: float
    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        if not self.cell_size > 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must have at least one cell per axis")
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (self.height, self.width):
            raise ValueError(
                f"bits shape {bits.shape} does not match (height, width) = "
                f"({self.height}, {self.width})"
            )
        object.__setattr__(self, "bits", bits)

    @classmethod
    def empty(cls, origin: tuple[float, float], cell_size: float, width: int, height: int):
        return cls(origin, cell_size, width, height, np.zeros((height, width), dtype=bool))

    def cell_count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def x_centers(self) -> np.ndarray:
        return self.origin[0] + (np.arange(self.width) + 0.5) * self.cell_size

    def y_centers(self) -> np.ndarray:
        return self.origin[1] + (np.arange(self.height) + 0.5) * self.cell_size


def shape_bounds(shape: Shape) -> tuple[float, float, float, float]:
    """Tight axis-aligned bounds (xmin, ymin, xmax, ymax) of a shape."""
    if isinstance(shape, Hbb):
        return (
            shape.x0 - shape.w / 2.0,
            shape.y0 - shape.h / 2.0,
            shape.x0 + shape.w / 2.0,
            shape.y0 + shape.h / 2.0,
        )
    if isinstance(shape, Obb):
        corners = obb_corners(shape)
        xmin, ymin = corners.min(axis=0)
        xmax, ymax = corners.max(axis=0)
        return float(xmin), float(ymin), float(xmax), float(ymax)
    if isinstance(shape, Ellipse):
        c, s = math.cos(shape.theta), math.sin(shape.theta)
        ex = math.hypot(shape.semi_major * c, shape.semi_minor * s)
        ey = math.hypot(shape.semi_major * s, shape.semi_minor * c)
        return shape.x0 - ex, shape.y0 - ey, shape.x0 + ex, shape.y0 + ey
    if isinstance(shape, PolygonMask):
        xmin, ymin = shape.vertices.min(axis=0)
        xmax, ymax = shape.vertices.max(axis=0)
        return float(xmin), float(ymin), float(xmax), float(ymax)
    raise TypeError(f"unsupported shape type {type(shape).__name__}")


def obb_corners(box: Obb) -> np.ndarray:
    """Counter-clockwise corners of an oriented box as a (4, 2) array."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    hw, hh = box.w / 2.0, box.h / 2.0
    local = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.x0, box.y0])


def hbb_corners(box: Hbb) -> np.ndarray:
    hw, hh = box.w / 2.0, box.h / 2.0
    return np.array(
        [
            [box.x0 - hw, box.y0 - hh],
            [box.x0 + hw, box.y0 - hh],
            [box.x0 + hw, box.y0 + hh],
            [box.x0 - hw, box.y0 + hh],
        ]
    )


def _rasterize_polygon(vertices: np.ndarray, grid: RasterGrid) -> np.ndarray:
    """Even-odd scanline fill matching the crossing-number point test.

    Per row, edge crossings to the right of a cell center are counted via
    searchsorted, so boundary decisions agree bit-for-bit with
    polygons.points_in_polygon.
    """
    v = np.asarray(vertices, dtype=float)
    x0, y0 = v[:, 0], v[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    ys = grid.y_centers()
    xs = grid.x_centers()

    rows_all = []
    cross_all = []
    for e in range(len(v)):
        if y0[e] == y1[e]:
            continue
        straddle = (y0[e] <= ys) != (y1[e] <= ys)
        rows = np.nonzero(straddle)[0]
        if len(rows) == 0:
            continue
        xc = x0[e] + (ys[rows] - y0[e]) * (x1[e] - x0[e]) / (y1[e] - y0[e])
        rows_all.append(rows)
        cross_all.append(xc)

    bits = np.zeros((grid.height, grid.width), dtype=bool)
    if not rows_all:
        return bits
    rows_cat = np.concatenate(rows_all)
    cross_cat = np.concatenate(cross_all)
    order = np.lexsort((cross_cat, rows_cat))
    rows_cat = rows_cat[order]
    cross_cat = cross_cat[order]
    starts = np.searchsorted(rows_cat, np.arange(grid.height), side="left")
    ends = np.searchsorted(rows_cat, np.arange(grid.height), side="right")
    for r in range(grid.height):
        lo, hi = starts[r], ends[r]
        if lo == hi:
            continue
        crossings = cross_cat[lo:hi]
        right_of = (hi - lo) - np.searchsorted(crossings, xs, side="right")
        bits[r] = right_of % 2 == 1
    return bits


def _rasterize_ellipse(e: Ellipse, grid: RasterGrid) -> np.ndarray:
    """Quadratic-form inclusion test evaluated at every cell center."""
    xs = grid.x_centers() - e.x0
    ys = grid.y_centers() - e.y0
    c, s = math.cos(e.theta), math.sin(e.theta)
    u = xs[None, :] * c + ys[:, None] * s
    w = -xs[None, :] * s + ys[:, None] * c
    return (u / e.semi_major) ** 2 + (w / e.semi_minor) ** 2 <= 1.0


def rasterize(shape: Shape, grid: RasterGrid) -> RasterGrid:
    """Occupancy of a shape on the given grid (cell-center inclusion)."""
    if isinstance(shape, Hbb):
        bits = _rasterize_polygon(hbb_corners(shape), grid)
    elif isinstance(shape, Obb):
        bits = _rasterize_polygon(obb_corners(shape), grid)
    elif isinstance(shape, PolygonMask):
        bits = _rasterize_polygon(shape.vertices, grid)
    elif isinstance(shape, Ellipse):
        bits = _rasterize_ellipse(shape, grid)
    else:
        raise TypeError(f"unsupported shape type {type(shape).__name__}")
    return RasterGrid(grid.origin, grid.cell_size, grid.width, grid.height, bits)


def shared_grid(a: Shape, b: Shape, cell_size: float) -> RasterGrid:
    """Empty grid covering both shapes' bounds, padded by one cell."""
    if not cell_size > 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    ax0, ay0, ax1, ay1 = shape_bounds(a)
    bx0, by0, bx1, by1 = shape_bounds(b)
    xmin, ymin = min(ax0, bx0) - cell_size, min(ay0, by0) - cell_size
    xmax, ymax = max(ax1, bx1) + cell_size, max(ay1, by1) + cell_size
    nx, ny = (xmax - xmin) / cell_size, (ymax - ymin) / cell_size
    if not nx * ny <= MAX_GRID_CELLS:
        raise ValueError(f"{nx:.0f} x {ny:.0f} cells of size {cell_size!r} exceed MAX_GRID_CELLS")
    width = max(1, int(math.ceil(nx)))
    height = max(1, int(math.ceil(ny)))
    return RasterGrid.empty((xmin, ymin), cell_size, width, height)


def default_cell_size(a: Shape, b: Shape, cells: int = DEFAULT_CELLS) -> float:
    """Cell size placing `cells` cells along the larger shared extent."""
    ax0, ay0, ax1, ay1 = shape_bounds(a)
    bx0, by0, bx1, by1 = shape_bounds(b)
    extent = max(max(ax1, bx1) - min(ax0, bx0), max(ay1, by1) - min(ay0, by0))
    return extent / cells if extent > 0 else 1.0


def _occupancy_counts(a: Shape, b: Shape, cell_size: float | None) -> tuple[int, int, int]:
    """Occupied cells of a, of b, and of both on their shared grid."""
    if cell_size is None:
        cell_size = default_cell_size(a, b)
    grid = shared_grid(a, b, cell_size)
    bits_a = rasterize(a, grid).bits
    bits_b = rasterize(b, grid).bits
    count_a = int(np.count_nonzero(bits_a))
    count_b = int(np.count_nonzero(bits_b))
    if count_a == 0 or count_b == 0:
        raise ValueError(
            "shape rasterized to zero cells; reduce cell_size below the "
            "smallest shape dimension"
        )
    return count_a, count_b, int(np.count_nonzero(bits_a & bits_b))


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
    """Exact IoU of two convex counter-clockwise polygons (clip + shoelace)."""
    pa = a.vertices if isinstance(a, PolygonMask) else np.asarray(a, dtype=float)
    pb = b.vertices if isinstance(b, PolygonMask) else np.asarray(b, dtype=float)
    area_a = signed_area(pa)
    area_b = signed_area(pb)
    if len(pa) < 3 or len(pb) < 3 or area_a <= 0 or area_b <= 0:
        raise ValueError("polygons must be counter-clockwise with positive area")
    if not (is_convex(pa) and is_convex(pb)):
        raise ValueError("iou_convex requires convex polygons; use iou_raster instead")
    clipped = clip_convex(pa, pb)
    inter = abs(signed_area(clipped)) if len(clipped) >= 3 else 0.0
    return inter / (area_a + area_b - inter)


def iou_between(a: Shape, b: Shape, cell_size: float | None = None) -> float:
    """IoU with the cheapest exact route available for the pair.

    Box/convex-polygon pairs are computed analytically; anything involving
    an ellipse or a non-convex polygon falls back to rasterization.
    """
    if isinstance(a, Hbb) and isinstance(b, Hbb):
        return iou_hbb(a, b)

    def as_convex(shape):
        if isinstance(shape, Hbb):
            return hbb_corners(shape)
        if isinstance(shape, Obb):
            return obb_corners(shape)
        if isinstance(shape, PolygonMask) and is_convex(shape.vertices):
            return shape.vertices
        return None

    pa, pb = as_convex(a), as_convex(b)
    if pa is not None and pb is not None:
        return iou_convex(pa, pb)
    return iou_raster(a, b, cell_size)


def mask_bc_raster(m1: Shape, m2: Shape, cell_size: float | None = None) -> float:
    """Rasterized uniform-mask Bhattacharyya coefficient.

    Fallback for inputs the exact polygon clipper cannot handle (shapes
    without a polygon form, or polygons that are not simple).
    """
    count_a, count_b, inter = _occupancy_counts(m1, m2, cell_size)
    return min(inter / math.sqrt(count_a * count_b), 1.0)


__all__ = [
    "DEFAULT_CELLS",
    "MAX_GRID_CELLS",
    "RasterGrid",
    "Shape",
    "shape_bounds",
    "obb_corners",
    "hbb_corners",
    "rasterize",
    "shared_grid",
    "default_cell_size",
    "iou_raster",
    "iou_hbb",
    "iou_convex",
    "iou_between",
    "mask_bc_raster",
]
