"""Shared helpers: random well-conditioned inputs and independent oracles."""

from __future__ import annotations

import math

import numpy as np

from gbbkit import AngleCov, GaussBox, Hbb, cov_from_angles


def random_gauss_box(rng: np.random.Generator, center_scale: float = 5.0) -> GaussBox:
    """Well-conditioned random GaussBox (eigenvalues in [0.2, 3])."""
    a, b, c = cov_from_angles(
        AngleCov(
            rng.uniform(0.2, 3.0),
            rng.uniform(0.2, 3.0),
            rng.uniform(-math.pi / 4, math.pi / 4),
        )
    )
    return GaussBox(
        rng.uniform(-center_scale, center_scale),
        rng.uniform(-center_scale, center_scale),
        a,
        b,
        c,
    )


def random_hbb(rng: np.random.Generator, center_scale: float = 5.0) -> Hbb:
    return Hbb(
        rng.uniform(-center_scale, center_scale),
        rng.uniform(-center_scale, center_scale),
        rng.uniform(0.5, 4.0),
        rng.uniform(0.5, 4.0),
    )


def central_difference(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def transform_gbb(g: GaussBox, scale: float, phi: float, tx: float, ty: float) -> GaussBox:
    """Similarity transform: rotate by phi, scale, then translate."""
    c, s = math.cos(phi), math.sin(phi)
    x = scale * (c * g.x0 - s * g.y0) + tx
    y = scale * (s * g.x0 + c * g.y0) + ty
    # R Sigma R^T, then scale**2.
    a = c * c * g.a - 2.0 * c * s * g.c + s * s * g.b
    b = s * s * g.a + 2.0 * c * s * g.c + c * c * g.b
    cc = c * s * (g.a - g.b) + (c * c - s * s) * g.c
    k = scale * scale
    return GaussBox(x, y, k * a, k * b, k * cc)


def gaussian_pdf(g: GaussBox):
    """Density function of the GaussBox's Gaussian, for quadrature oracles."""
    det = g.a * g.b - g.c * g.c
    inv_a = g.b / det
    inv_b = g.a / det
    inv_c = -g.c / det
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def pdf(x: float, y: float) -> float:
        dx = x - g.x0
        dy = y - g.y0
        return norm * math.exp(-0.5 * (inv_a * dx * dx + 2.0 * inv_c * dx * dy + inv_b * dy * dy))

    return pdf


def bc_quadrature(p: GaussBox, q: GaussBox) -> float:
    """Bhattacharyya coefficient by direct 2D quadrature of sqrt(p * q).

    Independent of the closed forms under test; integrates over the union
    of both means +/- 10 standard deviations.
    """
    from scipy.integrate import dblquad

    fp = gaussian_pdf(p)
    fq = gaussian_pdf(q)
    spread = 10.0 * math.sqrt(max(p.a, p.b, q.a, q.b))
    xlo = min(p.x0, q.x0) - spread
    xhi = max(p.x0, q.x0) + spread
    ylo = min(p.y0, q.y0) - spread
    yhi = max(p.y0, q.y0) + spread
    value, _ = dblquad(
        lambda y, x: math.sqrt(fp(x, y) * fq(x, y)),
        xlo,
        xhi,
        lambda _: ylo,
        lambda _: yhi,
        epsabs=1e-9,
        epsrel=1e-9,
    )
    return value


def points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Even-odd (crossing-number) point-in-polygon test, vectorized over points.

    The raster's oracle: raster._polygon_boundaries must fill exactly the
    cell centers this test accepts.  Edges are treated half-open in y so
    points on a scanline through a vertex are counted once.
    """
    pts = np.asarray(points, dtype=float)
    v = np.asarray(vertices, dtype=float)
    v1 = np.roll(v, -1, axis=0)
    x0, y0, x1, y1 = v[:, 0], v[:, 1], v1[:, 0], v1[:, 1]

    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    straddles = (y0[None, :] <= py) != (y1[None, :] <= py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x0[None, :] + (py - y0[None, :]) * (x1 - x0)[None, :] / (y1 - y0)[None, :]
    hits = straddles & (px < xcross)
    return np.sum(hits, axis=1) % 2 == 1
