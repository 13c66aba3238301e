"""Exact polygon geometry: areas, moments, hulls, clipping, overlap.

All polygons are (n, 2) float arrays.  Functions that consume a
counter-clockwise orientation say so; nothing here mutates its inputs.
signed_area, polygon_moments, min_area_rect and ellipse_intersection_area
also take an (..., n, 2) stack of polygons with one vertex count and return
one result per polygon.  A stack row is summed along its vertex axis as a
single polygon is, and gets the hull and the caliper product a lone polygon
gets, so each of its results equals the one-polygon call to the bit; a stack
padded to a common length would not.
"""

from __future__ import annotations

import math

import numpy as np

_CONVEX_REL_TOL = 1e-12

# Edge pairs (or slab and edge pairs) is_simple holds at once.
_SIMPLE_CHUNK = 1 << 16

# Rotated-coordinate cells (hull vertices x edges) one caliper pass over a
# stack holds at most: what a lone 64-gon's pass holds.
_CALIPER_CELLS = 4096

# A turn whose float cross product exceeds this many units of roundoff
# (2**-53) times the row's extent W * H has its exact sign in every orient
# test on the row's vertices (see _certified_hulls).
_HULL_CERT_ULPS = 32.0


def _next(a: np.ndarray, axis: int = -2) -> np.ndarray:
    """Each vertex's successor around the closed boundary of an (..., n, 2) array.

    A cyclic shift by one along the vertex axis (-2), or along the last
    axis (-1) of an array of one value per vertex.  Slices rather than
    np.roll, which costs several times a ufunc call on the short arrays here.
    """
    if axis == -1:
        return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)
    return np.concatenate((a[..., 1:, :], a[..., :1, :]), axis=-2)


def _turns(d: np.ndarray) -> np.ndarray:
    """Cross product of each edge vector of an (..., n, 2) cycle with the next.

    Positive at a left turn.  is_convex, the hull certificate and
    batch.iou_obb_pairs all test turns through it.
    """
    d1 = _next(d)
    return d[..., 0] * d1[..., 1] - d[..., 1] * d1[..., 0]


def _cos_sin(theta) -> tuple[np.ndarray, np.ndarray]:
    """math.cos and math.sin of each angle, as arrays of theta's shape.

    One angle at a time, as a one-shape route takes it: numpy's cos and sin
    may differ from math's in the last bit.
    """
    theta = np.asarray(theta, dtype=float)
    angles = theta.ravel().tolist()
    c = np.array([math.cos(t) for t in angles]).reshape(theta.shape)
    return c, np.array([math.sin(t) for t in angles]).reshape(theta.shape)


def _placed(local: np.ndarray, cx, cy, theta) -> np.ndarray:
    """A (k, m, 2) stack of outlines rotated by theta and moved to (cx, cy).

    Each row is its own (m, 2) @ (2, 2).T product, the one a lone outline
    gets from local @ rot.T (convert.obb_corners): BLAS may fuse its
    multiply-adds, so only the same product gives the same bits.
    """
    c, s = _cos_sin(theta)
    rot = np.empty((len(c), 2, 2))
    rot[:, 0, 0] = rot[:, 1, 1] = c
    rot[:, 0, 1] = -s
    rot[:, 1, 0] = s
    return local @ rot.transpose(0, 2, 1) + np.column_stack((cx, cy))[:, None, :]


def _box_corners(cx, cy, w, h, theta) -> np.ndarray:
    """(k, 4, 2) counter-clockwise corners of k oriented boxes.

    Each row equals convert.obb_corners of its box to the bit.
    """
    hw, hh = w / 2.0, h / 2.0
    local = np.stack((-hw, -hh, hw, -hh, hw, hh, -hw, hh), axis=-1).reshape(-1, 4, 2)
    return _placed(local, cx, cy, theta)


def signed_area(vertices: np.ndarray) -> float | np.ndarray:
    """Shoelace signed area; positive for counter-clockwise orientation.

    A float for one polygon, an array of areas for a stack of them.
    """
    v = np.asarray(vertices, dtype=float)
    x, y = v[..., 0], v[..., 1]
    v1 = _next(v)
    twice = np.sum(x * v1[..., 1] - v1[..., 0] * y, axis=-1)
    return 0.5 * (float(twice) if twice.ndim == 0 else twice)


def polygon_moments(
    vertices: np.ndarray,
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Area, centroid, and central second-moment matrix of a polygon interior.

    Closed-form edge sums (Green's theorem applied to the uniform density),
    so the result is exact and resolution-independent.  Requires positive
    (counter-clockwise) orientation.

    Returns:
        (area, centroid (2,), covariance (2, 2)) of the uniform distribution
        over the polygon interior; for an (..., n, 2) stack, areas (...,),
        centroids (..., 2) and covariances (..., 2, 2).
    """
    v = np.asarray(vertices, dtype=float)
    v1 = _next(v)
    x0, y0, x1, y1 = v[..., 0], v[..., 1], v1[..., 0], v1[..., 1]
    cross = x0 * y1 - x1 * y0
    # Twice the area, then the first and second moments about the origin
    # times 6, 12 and 24 times the area: one sum along the edge axis.
    terms = (
        cross,
        (x0 + x1) * cross,
        (y0 + y1) * cross,
        (x0 * x0 + x0 * x1 + x1 * x1) * cross,
        (y0 * y0 + y0 * y1 + y1 * y1) * cross,
        (x0 * y1 + 2.0 * x0 * y0 + 2.0 * x1 * y1 + x1 * y0) * cross,
    )
    sums = np.sum(np.array(terms), axis=-1)
    stack = sums.ndim > 1
    twice, sx, sy, sxx, syy, sxy = sums if stack else sums.tolist()

    area = 0.5 * twice
    if (area <= 0).any() if stack else area <= 0:
        raise ValueError(f"polygon must be counter-clockwise with positive area, got {np.min(area)}")
    cx = sx / (6.0 * area)
    cy = sy / (6.0 * area)
    # Shift the second moments to the centroid.
    exx = sxx / (12.0 * area)
    eyy = syy / (12.0 * area)
    exy = sxy / (24.0 * area)

    centroid = np.array([cx, cy])
    cov = np.array([[exx - cx * cx, exy - cx * cy], [exy - cx * cy, eyy - cy * cy]])
    if stack:  # move the coordinate axes behind the stack's (np.moveaxis costs more)
        centroid = centroid.transpose(*range(1, centroid.ndim), 0)
        cov = cov.transpose(*range(2, cov.ndim), 0, 1)
    return area, centroid, cov


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull by Andrew's monotone chain, counter-clockwise, no duplicates.

    The hull starts at the lexicographically smallest point (least x, then
    least y), and collinear boundary points are dropped.  Fewer than three
    distinct points come back as the distinct rows in lexicographic order.
    """
    # Sort the rows lexicographically and drop each row equal to the one
    # before it.  Adding 0.0 turns -0.0 into 0.0 first, so which of two equal
    # points is kept cannot show in the hull's bits.
    pts = np.asarray(points, dtype=float) + 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    pts = pts[keep]
    if len(pts) < 3:
        return pts

    def build(seq):
        out: list[list[float]] = []
        for p in seq:
            px, py = p
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    seq = pts.tolist()
    lower = build(seq)
    upper = build(seq[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _certified_hulls(v: np.ndarray) -> np.ndarray:
    """Which rows of a (k, n, 2) stack are, bit for bit, their own convex_hull.

    A row is certified when every turn's float cross product exceeds
    _HULL_CERT_ULPS * u * W * H (u = 2**-53, W x H the row's extent) and
    "the next vertex is lexicographically greater" switches exactly twice
    around the cycle.  All turns are then left turns of less than pi, the
    edge direction turns through 2 pi exactly once, so the row is a strictly
    convex counter-clockwise polygon with distinct vertices.

    Such a row is its own hull, and the monotone chain finds it exactly.
    Shewchuk's orient2d bound puts the rounding error of every turn test the
    chain makes, and of the crosses here, below about 6 u W H.  The smallest
    triangle on the vertices of a convex polygon has three consecutive
    vertices, whose exact twice-area here exceeds 25 u W H.  So every test
    the chain could make gets its exact sign, and convex_hull returns the row
    after + 0.0, rotated to start at its lexicographic minimum.
    """
    lo, hi = v.min(axis=-2), v.max(axis=-2)
    extent = hi - lo
    bound = _HULL_CERT_ULPS * 2.0**-53 * extent[:, 0] * extent[:, 1]
    cross = _turns(_next(v) - v)
    x, y = v[..., 0], v[..., 1]
    x1, y1 = _next(x, -1), _next(y, -1)
    up = (x1 > x) | ((x1 == x) & (y1 > y))
    switches = np.count_nonzero(up != _next(up, -1), axis=-1)
    return np.all(cross > bound[:, None], axis=-1) & (switches == 2)


def _calipers(hulls: np.ndarray) -> list[tuple[float, float, float, float, float]]:
    """min_area_rect of each CCW hull in a (k, m, 2) stack, as (cx, cy, w, h, theta).

    One candidate orientation per hull edge; the optimum is aligned with
    some edge, so checking all edges is exact.  rots[:, i * m + j] holds
    [[c, -s], [s, c]] for edge j's angle (a rotation by -angle), so one
    product puts hull i in every edge's frame.  It rounds as a 2x2 product
    per edge does, which elementwise x*c + y*s does not; math.cos/sin, not
    numpy's, for the same reason.  Each stack row is its own (m, 2) @ (2, 2m)
    product, the one a lone hull gets.  The best edge's rectangle is then a
    few float operations per row, cheaper in Python than in numpy calls.
    """
    k, m, _ = hulls.shape
    edges = _next(hulls) - hulls
    angles = np.arctan2(edges[..., 1], edges[..., 0]).ravel()
    rots = np.empty((2, k * m, 2))
    rots[0, :, 0], rots[1, :, 0] = _cos_sin(angles)
    rots[1, :, 1] = rots[0, :, 0]
    rots[0, :, 1] = -rots[1, :, 0]
    rot = (hulls @ rots.reshape(2, k, 2 * m).transpose(1, 0, 2)).reshape(k, m, m, 2)
    lo, hi = rot.min(axis=1), rot.max(axis=1)
    extent = hi - lo
    rects = []
    for row, b in enumerate(np.argmin(extent[..., 0] * extent[..., 1], axis=1).tolist()):
        i = row * m + b
        (xmin, ymin), (xmax, ymax) = lo[row, b].tolist(), hi[row, b].tolist()
        c, s = rots[:, i, 0].tolist()
        cx_r, cy_r = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        x, y = cx_r * c - cy_r * s, cx_r * s + cy_r * c
        rects.append((x, y, xmax - xmin, ymax - ymin, float(angles[i])))
    return rects


def _caliper_hull(points: np.ndarray) -> np.ndarray:
    """convex_hull of one point set, which must have three hull points at least."""
    hull = convex_hull(points)
    if len(hull) < 3:
        raise ValueError("need at least 3 non-collinear points")
    return hull


def min_area_rect(
    points: np.ndarray,
) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Minimum-area enclosing rotated rectangle via rotating calipers.

    One candidate orientation per hull edge (see _calipers).  Ties go to the
    first hull edge, counting from the hull's lexicographically smallest
    point.

    An (..., n, 2) stack gives one rectangle per row, each equal to the
    one-row call to the bit.  Rows _certified_hulls marks skip convex_hull
    and share caliper passes of at most _CALIPER_CELLS vertex x edge cells;
    any other row takes the one-row route.

    Returns:
        (center (2,), width, height, theta) with width measured along the
        theta direction; for a stack, centers (..., 2) and arrays (...,) of
        the other three.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        [(cx, cy, w, h, theta)] = _calipers(_caliper_hull(pts)[None])
        return np.array([cx, cy]), w, h, theta

    lead, n = pts.shape[:-2], pts.shape[-2]
    v = pts.reshape(-1, n, 2)
    certified = _certified_hulls(v)
    # Each row's lexicographic minimum: the least y among the least x.
    x, y = v[..., 0], v[..., 1]
    start = np.argmin(np.where(x == x.min(axis=1, keepdims=True), y, np.inf), axis=1)
    rects = np.empty((len(v), 5))
    rows = np.flatnonzero(certified)
    step = max(1, _CALIPER_CELLS // (n * n))
    for r0 in range(0, len(rows), step):
        # A certified row is its own hull: + 0.0, from its least point on.
        chunk = rows[r0 : r0 + step]
        rects[chunk] = _calipers(v[chunk[:, None], (start[chunk, None] + np.arange(n)) % n] + 0.0)
    for i in np.flatnonzero(~certified).tolist():
        [rects[i]] = _calipers(_caliper_hull(v[i])[None])
    rects = rects.reshape(*lead, 5)
    return rects[..., :2], rects[..., 2], rects[..., 3], rects[..., 4]


def is_convex(vertices: np.ndarray) -> bool:
    """True when every turn of the counter-clockwise boundary is a left turn.

    A turn counts as left down to -_CONVEX_REL_TOL times the square of the
    largest edge coordinate, so collinear vertices pass and the answer does
    not depend on the unit.  A polygon of zero size is convex.
    """
    v = np.asarray(vertices, dtype=float)
    d = _next(v) - v
    scale = float(np.max(np.abs(d))) ** 2
    return bool(np.all(_turns(d) >= -_CONVEX_REL_TOL * scale))


def _sides(points: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Sign of each point against each directed line start -> end: (points, lines)."""
    d = end - start
    rel = points[:, None, :] - start[None, :, :]
    return np.sign(d[:, 0] * rel[..., 1] - d[:, 1] * rel[..., 0])


def _off_edge(vertex: np.ndarray, edge: np.ndarray, n: int) -> np.ndarray:
    """(vertices, edges) mask: the vertex is neither end of the edge."""
    vertex = vertex[:, None]
    return (edge != vertex) & ((edge + 1) % n != vertex)


def is_simple(vertices: np.ndarray) -> bool:
    """True when the closed boundary does not cross itself; touching is allowed.

    Every fill rule (signed area, even-odd) then gives the same area.
    Repeated vertices, a vertex resting on another edge and an edge laid back
    along another (a slit to a hole) pass.  Two tests decide it:

    * no two edges cross properly, each one's ends lying strictly on
      opposite sides of the other's line;
    * the winding number takes at most two neighbouring values, 0 and +1 or
      -1.  Without proper crossings the edges spanning an open slab between
      consecutive vertex abscissas keep their order, so the windings at each
      slab's mid-abscissa cover every region.  Edges closer than a rounding
      tolerance there count as one, as collinear ones must.  This test runs
      only when some vertex lies on the line of an edge it does not end;
      otherwise any two edges that meet cross properly.

    O(n^2) time; pairs are taken in chunks of _SIMPLE_CHUNK, so memory is O(n)
    per chunk.
    """
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    v_next = _next(v)
    step = max(1, _SIMPLE_CHUNK // n)
    touching = False
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        # Edges r0..r1-1 against edges r0.., each one's ends against the other's line.
        mine, theirs = np.arange(r0, r1 + 1) % n, np.arange(r0, n + 1) % n
        ends = _sides(v[mine], v[r0:], v_next[r0:])
        lines = _sides(v[theirs], v[r0:r1], v_next[r0:r1])
        if np.any((ends[:-1] * ends[1:] < 0) & (lines[:-1] * lines[1:] < 0).T):
            return False
        touching = touching or bool(
            np.any((ends == 0) & _off_edge(mine, np.arange(r0, n), n))
            or np.any((lines == 0) & _off_edge(theirs, np.arange(r0, r1), n))
        )
    if not touching:
        return True

    x0, y0, x1, y1 = v[:, 0], v[:, 1], v_next[:, 0], v_next[:, 1]
    xs = np.unique(x0)
    # Edge e spans the slabs first[e] .. last[e] - 1 (a vertical edge spans none).
    first = np.searchsorted(xs, np.minimum(x0, x1))
    last = np.searchsorted(xs, np.maximum(x0, x1))
    tol = 1e-9 * float(np.max(np.abs(v)))
    low = high = 0
    for s0 in range(0, len(xs) - 1, step):
        lo = np.maximum(first, s0)
        count = np.maximum(np.minimum(last, s0 + step) - lo, 0)
        edge = np.repeat(np.arange(n), count)
        slab = np.arange(len(edge)) + np.repeat(lo - np.cumsum(count) + count, count)
        mid = 0.5 * (xs[slab] + xs[slab + 1])
        y = y0[edge] + (mid - x0[edge]) * ((y1 - y0)[edge] / (x1 - x0)[edge])
        order = np.lexsort((y, slab))
        slab, y = slab[order], y[order]
        # Crossing a rightward edge upwards enters a counter-clockwise interior.
        # Each slab's crossings sum to zero, so one running sum serves them all.
        winding = np.cumsum(np.sign(x1 - x0)[edge[order]])
        group_end = np.append((slab[1:] != slab[:-1]) | (np.diff(y) > tol), True)
        low = min(low, int(winding[group_end].min()))
        high = max(high, int(winding[group_end].max()))
        if high - low > 1:
            return False
    return True


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against a convex CCW clip polygon.

    Returns the clipped polygon (possibly empty).  Its signed area is the
    intersection area for any simple CCW subject, convex or not: each
    half-plane cut keeps the subject's winding number inside the half-plane
    and adds only segments on the clip line, which enclose no area.  Each
    vertex's signed side of a clip edge is computed once, and an edge that
    changes side is cut at t = s_p / (s_p - s_q): the two sides differ in
    sign, so t lies in [0, 1] even for an edge lying flush along the clip
    line.
    """
    output = np.asarray(subject, dtype=float).tolist()
    clip_pts = np.asarray(clip, dtype=float).tolist()

    cx1, cy1 = clip_pts[-1]
    for cx2, cy2 in clip_pts:
        if not output:
            break
        ex, ey = cx2 - cx1, cy2 - cy1
        sides = [ex * (y - cy1) - ey * (x - cx1) for x, y in output]
        result = []
        (px, py), sp = output[-1], sides[-1]
        for (qx, qy), sq in zip(output, sides):
            if (sp >= 0.0) != (sq >= 0.0):
                t = sp / (sp - sq)
                result.append([px + t * (qx - px), py + t * (qy - py)])
            if sq >= 0.0:
                result.append([qx, qy])
            px, py, sp = qx, qy, sq
        output = result
        cx1, cy1 = cx2, cy2

    return np.array(output) if output else np.empty((0, 2))


def _clipped_area(subject: np.ndarray, clip: np.ndarray) -> float:
    """Area of a simple CCW subject inside a convex CCW clip polygon."""
    clipped = clip_convex(subject, clip)
    return abs(signed_area(clipped)) if len(clipped) >= 3 else 0.0


def intersection_area(poly_a: np.ndarray, poly_b: np.ndarray) -> float:
    """Exact intersection area of two simple CCW polygons.

    When either polygon is convex, the other is clipped against it once.
    Otherwise a is the signed fan of triangles (a0, ai, ai+1): their signed
    indicators sum to a's, so b clipped against each triangle, taken
    counter-clockwise, adds its area with the triangle's sign.
    """
    a = np.asarray(poly_a, dtype=float)
    b = np.asarray(poly_b, dtype=float)
    if is_convex(b):
        return _clipped_area(a, b)
    if is_convex(a):
        return _clipped_area(b, a)

    total = 0.0
    apex, *rest = a.tolist()
    ox, oy = apex
    for p, q in zip(rest, rest[1:]):
        turn = (p[0] - ox) * (q[1] - oy) - (p[1] - oy) * (q[0] - ox)
        if turn > 0:
            total += _clipped_area(b, [apex, p, q])
        elif turn < 0:
            total -= _clipped_area(b, [apex, q, p])
    # Where positive and negative triangles cancel outside a, rounding can
    # leave a few ulp below zero.
    return max(total, 0.0)


def ellipse_intersection_area(
    vertices: np.ndarray,
    x0: float | np.ndarray,
    y0: float | np.ndarray,
    semi_major: float | np.ndarray,
    semi_minor: float | np.ndarray,
    theta: float | np.ndarray,
) -> float | np.ndarray:
    """Exact area of a simple CCW polygon inside an ellipse, vectorized over edges.

    The ellipse has center (x0, y0), semi-axes semi_major along theta and
    semi_minor across it.  Mapping it to the unit disk scales every area by
    1 / (semi_major * semi_minor) and leaves the polygon a polygon, whose
    indicator is the signed sum of its fan triangles (0, p, q) over the edges
    p -> q.  Each triangle's signed overlap with the disk follows from the
    edge alone: the part of p + t (q - p) inside the disk is the chord
    between the roots of |p + t (q - p)|^2 = 1 clipped to [0, 1], which adds
    half its cross product, and the parts outside add circular sectors of
    half their angle.  A zero-length edge, and one that misses or only
    touches the disk, is a single sector.  The sum is clamped to [0,
    min(|P|, pi)] in the disk frame, where rounding could leave it a few ulp
    outside.  batch.iou_ellipse_pairs sums the same fan over the arcs of a
    second ellipse in place of the edges.

    For an (..., n, 2) stack of polygons the five ellipse parameters are
    arrays of the stack's leading shape, one ellipse per polygon, and the
    result is an array of areas.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim > 2:
        # One ellipse per polygon, as columns against the edge axis.
        c, s = (a[..., None] for a in _cos_sin(theta))
        x0, y0, semi_major, semi_minor = (
            np.asarray(p, dtype=float)[..., None] for p in (x0, y0, semi_major, semi_minor)
        )
    else:
        c, s = math.cos(theta), math.sin(theta)
    dx, dy = v[..., 0] - x0, v[..., 1] - y0
    u = (dx * c + dy * s) / semi_major
    w = (dy * c - dx * s) / semi_minor
    u1, w1 = _next(u, -1), _next(w, -1)
    du, dw = u1 - u, w1 - w
    qa = du * du + dw * dw
    qb = u * du + w * dw
    disc = qb * qb - qa * (u * u + w * w - 1.0)
    chord = disc > 0.0  # a zero-length edge has qa = qb = disc = 0
    root = np.sqrt(np.where(chord, disc, 0.0))
    qa = np.where(chord, qa, 1.0)
    t_in = np.where(chord, np.clip((-qb - root) / qa, 0.0, 1.0), 0.0)
    t_out = np.where(chord, np.clip((-qb + root) / qa, 0.0, 1.0), 0.0)
    ui, wi = u + t_in * du, w + t_in * dw
    uo, wo = u + t_out * du, w + t_out * dw
    twice = (
        np.arctan2(u * wi - w * ui, u * ui + w * wi)
        + (ui * wo - wi * uo)
        + np.arctan2(uo * w1 - wo * u1, uo * u1 + wo * w1)
    )
    sums = 0.5 * np.sum(np.array((twice, u * w1 - u1 * w)), axis=-1)
    if v.ndim == 2:
        inside, polygon = sums.tolist()
        return max(0.0, min(inside, polygon, math.pi)) * semi_major * semi_minor
    inside, polygon = sums
    # Python's min and max, elementwise: of equal values the first is kept,
    # so the sign of a zero comes out as in the one-polygon call.
    clamped = np.where(polygon < inside, polygon, inside)
    clamped = np.where(math.pi < clamped, math.pi, clamped)
    clamped = np.where(clamped > 0.0, clamped, 0.0)
    return clamped * semi_major[..., 0] * semi_minor[..., 0]
