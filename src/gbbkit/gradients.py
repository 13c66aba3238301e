"""Analytic gradients of the Gaussian-overlap losses.

One closed form in raw Gaussian coordinates (x, y, a, b, c) serves both
surfaces: the general 5-parameter form, and the 4-parameter form for
axis-aligned boxes (center, width, height), which chains it through the
box-to-variance map a = w**2/12, b = h**2/12.  Both are validated against
central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convert import hbb_to_gbb
from .metrics import _bd, _hellinger
from .types import GaussBox, Hbb, _gbb_problem, require_valid_gbb


@dataclass(frozen=True)
class HbbGradient:
    """Loss gradient w.r.t. axis-aligned box parameters (x, y, w, h).

    singular marks the removable singularity of the L1 chain factor at
    p == q, where a zero gradient is returned instead of raising.
    """

    d_x: float
    d_y: float
    d_w: float
    d_h: float
    singular: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([self.d_x, self.d_y, self.d_w, self.d_h])

    def norm(self) -> float:
        return float(np.hypot(np.hypot(self.d_x, self.d_y), np.hypot(self.d_w, self.d_h)))


def _grad_terms(
    x1: float, y1: float, a1: float, b1: float, c1: float,
    x2: float, y2: float, a2: float, b2: float, c2: float,
) -> tuple[float, float, float, float, float]:
    """Bhattacharyya-distance gradient w.r.t. (x1, y1, a1, b1, c1), unvalidated.

    Both covariances must be positive-definite; callers decide how strictly
    to check that.
    """
    dx = x1 - x2
    dy = y1 - y2
    asum = a1 + a2
    bsum = b1 + b2
    csum = c1 + c2
    det_sum = asum * bsum - csum * csum
    det1 = a1 * b1 - c1 * c1
    # u = S^-1 (mu1 - mu2) with S = Sigma1 + Sigma2.  The mean term
    # u . (mu1 - mu2) / 4 has gradient -u u^T / 4 in S, so no terms cancel.
    u_x = (bsum * dx - csum * dy) / det_sum
    u_y = (asum * dy - csum * dx) / det_sum
    g_a = bsum / (2.0 * det_sum) - b1 / (4.0 * det1) - u_x * u_x / 4.0
    g_b = asum / (2.0 * det_sum) - a1 / (4.0 * det1) - u_y * u_y / 4.0
    g_c = c1 / (2.0 * det1) - csum / det_sum - u_x * u_y / 2.0
    return u_x / 2.0, u_y / 2.0, g_a, g_b, g_c


def _l1_factor_at(b_d: float) -> float | None:
    """d(sqrt(1 - exp(-t)))/dt at the pair's clamped Bhattacharyya distance t.

    Evaluated at the full distance with its constant term: the factor is
    value-sensitive even though the L2 gradient is not.  None at t == 0
    (p == q), where the factor diverges; expm1 keeps it finite for tiny t.
    """
    if b_d == 0.0:
        return None
    return math.exp(-b_d) / (2.0 * math.sqrt(-math.expm1(-b_d)))


def grad_l2_hbb(p: Hbb, q: Hbb) -> HbbGradient:
    """Gradient of the Bhattacharyya-distance loss for axis-aligned boxes.

    The general gradient at the boxes' diagonal Gaussians, chained through
    a = w**2/12, b = h**2/12 to p's (x, y, w, h); exactly zero iff p == q.
    Boxes too small for validate_gbb still get a gradient.
    """
    gp, gq = hbb_to_gbb(p), hbb_to_gbb(q)
    g_x, g_y, g_a, g_b, _ = _grad_terms(
        gp.x0, gp.y0, gp.a, gp.b, gp.c, gq.x0, gq.y0, gq.a, gq.b, gq.c
    )
    return HbbGradient(g_x, g_y, g_a * p.w / 6.0, g_b * p.h / 6.0)


def grad_l1_hbb(p: Hbb, q: Hbb) -> HbbGradient:
    """Gradient of the Hellinger-distance loss for axis-aligned boxes.

    grad_l2_hbb times the L1 chain factor, which underflows to zero for
    far-apart boxes and diverges at p == q, where a zero gradient with the
    singular flag is returned.
    """
    gp, gq = hbb_to_gbb(p), hbb_to_gbb(q)
    factor = _l1_factor_at(_bd(gp.x0, gp.y0, gp.a, gp.b, gp.c, gq.x0, gq.y0, gq.a, gq.b, gq.c))
    if factor is None:
        return HbbGradient(0.0, 0.0, 0.0, 0.0, singular=True)
    g = grad_l2_hbb(p, q)
    return HbbGradient(factor * g.d_x, factor * g.d_y, factor * g.d_w, factor * g.d_h)


def _loss_and_grad(state: tuple, target: tuple, selector: str):
    """ProbIoU, unweighted loss and (x, y, a, b, c) gradient, as floats, of two 5-tuples.

    Only the state is checked, by validate_gbb's rule.  One outside the
    positive-definite region (an oversized step can slam both variances
    into the floor) reports an infinite loss, so the caller aborts.
    """
    if _gbb_problem(*state):
        return 0.0, math.inf, (0.0,) * 5
    args = (*state, *target)
    b_d = _bd(*args)
    h_d = _hellinger(b_d)
    grad = _grad_terms(*args)
    if selector == "l2":
        return 1.0 - h_d, b_d, grad
    factor = _l1_factor_at(b_d)
    if factor is None:
        # Exact optimum: the L1 chain factor is singular but the true
        # directional gradient is what an optimizer should see: zero.
        return 1.0 - h_d, h_d, (0.0,) * 5
    return 1.0 - h_d, h_d, tuple(g * factor for g in grad)


def grad_general(p: GaussBox, q: GaussBox, which: str = "l2") -> np.ndarray:
    """Analytic gradient of the selected loss w.r.t. (x1, y1, a1, b1, c1).

    which selects "l2" (Bhattacharyya distance) or "l1" (Hellinger
    distance).  The L1 selector rejects p == q, where its chain factor is
    singular.

    Returns:
        (5,) array of partial derivatives with respect to p.
    """
    require_valid_gbb(p)
    require_valid_gbb(q)
    if which not in ("l1", "l2"):
        raise ValueError(f"loss selector must be 'l1' or 'l2', got {which!r}")
    _, loss, grad = _loss_and_grad((p.x0, p.y0, p.a, p.b, p.c), (q.x0, q.y0, q.a, q.b, q.c), which)
    if which == "l1" and loss == 0.0:  # h_d is 0 only at b_d == 0
        raise ValueError("L1 gradient is singular at p = q")
    return np.array(grad)


__all__ = ["HbbGradient", "grad_l2_hbb", "grad_l1_hbb", "grad_general"]
