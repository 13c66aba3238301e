"""Exact polygon geometry: areas, moments, hulls, clipping, overlap.

All polygons are (n, 2) float arrays.  Functions that consume a
counter-clockwise orientation say so; nothing here mutates its inputs.
"""

from __future__ import annotations

import math

import numpy as np

_CONVEX_REL_TOL = 1e-12

# Edge pairs (or slab and edge pairs) is_simple holds at once.
_SIMPLE_CHUNK = 1 << 16


def _next(a: np.ndarray) -> np.ndarray:
    """Each row's successor around the closed boundary: a cyclic shift by one.

    Slices rather than np.roll, which costs several times a ufunc call on the
    short arrays here.
    """
    return np.concatenate((a[1:], a[:1]))


def signed_area(vertices: np.ndarray) -> float:
    """Shoelace signed area; positive for counter-clockwise orientation."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    v1 = _next(v)
    return 0.5 * float(np.sum(x * v1[:, 1] - v1[:, 0] * y))


def polygon_moments(vertices: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Area, centroid, and central second-moment matrix of a polygon interior.

    Closed-form edge sums (Green's theorem applied to the uniform density),
    so the result is exact and resolution-independent.  Requires positive
    (counter-clockwise) orientation.

    Returns:
        (area, centroid (2,), covariance (2, 2)) of the uniform distribution
        over the polygon interior.
    """
    v = np.asarray(vertices, dtype=float)
    v1 = _next(v)
    x0, y0, x1, y1 = v[:, 0], v[:, 1], v1[:, 0], v1[:, 1]
    cross = x0 * y1 - x1 * y0

    area = 0.5 * float(np.sum(cross))
    if area <= 0:
        raise ValueError(f"polygon must be counter-clockwise with positive area, got {area}")

    cx = float(np.sum((x0 + x1) * cross)) / (6.0 * area)
    cy = float(np.sum((y0 + y1) * cross)) / (6.0 * area)

    # Second moments about the origin, then shift to the centroid.
    exx = float(np.sum((x0 * x0 + x0 * x1 + x1 * x1) * cross)) / (12.0 * area)
    eyy = float(np.sum((y0 * y0 + y0 * y1 + y1 * y1) * cross)) / (12.0 * area)
    exy = float(np.sum((x0 * y1 + 2.0 * x0 * y0 + 2.0 * x1 * y1 + x1 * y0) * cross)) / (
        24.0 * area
    )

    cov = np.array([[exx - cx * cx, exy - cx * cy], [exy - cx * cy, eyy - cy * cy]])
    return area, np.array([cx, cy]), cov


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


def min_area_rect(points: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Minimum-area enclosing rotated rectangle via rotating calipers.

    One candidate orientation per hull edge; the optimum is aligned with
    some edge, so checking all edges is exact.  Ties go to the first hull
    edge, counting from the hull's lexicographically smallest point.

    Returns:
        (center (2,), width, height, theta) with width measured along the
        theta direction.
    """
    hull = convex_hull(points)
    if len(hull) < 3:
        raise ValueError("need at least 3 non-collinear points")

    edges = np.concatenate((hull[1:], hull[:1])) - hull
    angles = np.arctan2(edges[:, 1], edges[:, 0])

    # rots[:, k] is [[c, -s], [s, c]] for angles[k] (a rotation by -angle),
    # so one product puts the hull in every edge's frame.  It rounds as a
    # 2x2 product per edge does, which elementwise x*c + y*s does not;
    # math.cos/sin, not numpy's, for the same reason.
    rots = np.empty((2, len(angles), 2))
    rots[0, :, 0] = rots[1, :, 1] = [math.cos(ang) for ang in angles.tolist()]
    rots[1, :, 0] = [math.sin(ang) for ang in angles.tolist()]
    rots[0, :, 1] = -rots[1, :, 0]
    rot = (hull @ rots.reshape(2, -1)).reshape(len(hull), len(angles), 2)
    lo, hi = rot.min(axis=0), rot.max(axis=0)
    extent = hi - lo
    best = int(np.argmin(extent[:, 0] * extent[:, 1]))

    ang = angles[best]
    (xmin, ymin), (xmax, ymax) = lo[best], hi[best]
    c, s = math.cos(ang), math.sin(ang)
    cx_r, cy_r = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    center = np.array([cx_r * c - cy_r * s, cx_r * s + cy_r * c])
    return center, float(xmax - xmin), float(ymax - ymin), float(ang)


def is_convex(vertices: np.ndarray) -> bool:
    """True when every turn of the counter-clockwise boundary is a left turn.

    Collinear vertices are tolerated within _CONVEX_REL_TOL of the polygon
    scale.
    """
    v = np.asarray(vertices, dtype=float)
    d = _next(v) - v
    d1 = _next(d)
    cross = d[:, 0] * d1[:, 1] - d[:, 1] * d1[:, 0]
    scale = float(np.max(np.abs(d))) ** 2 + 1.0
    return bool(np.all(cross >= -_CONVEX_REL_TOL * scale))


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
    x0: float,
    y0: float,
    semi_major: float,
    semi_minor: float,
    theta: float,
) -> float:
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
    outside.
    """
    v = np.asarray(vertices, dtype=float)
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = v[:, 0] - x0, v[:, 1] - y0
    u = (dx * c + dy * s) / semi_major
    w = (dy * c - dx * s) / semi_minor
    u1, w1 = _next(u), _next(w)
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
    inside = 0.5 * float(np.sum(twice))
    polygon = 0.5 * float(np.sum(u * w1 - u1 * w))
    return max(0.0, min(inside, polygon, math.pi)) * semi_major * semi_minor


def points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Even-odd (crossing-number) point-in-polygon test, vectorized over points.

    Edges are treated half-open in y so points on a scanline through a vertex
    are counted once.
    """
    pts = np.asarray(points, dtype=float)
    v = np.asarray(vertices, dtype=float)
    v1 = _next(v)
    x0, y0, x1, y1 = v[:, 0], v[:, 1], v1[:, 0], v1[:, 1]

    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    straddles = (y0[None, :] <= py) != (y1[None, :] <= py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x0[None, :] + (py - y0[None, :]) * (x1 - x0)[None, :] / (y1 - y0)[None, :]
    hits = straddles & (px < xcross)
    return np.sum(hits, axis=1) % 2 == 1
