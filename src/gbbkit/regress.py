"""Toy-scale gradient descent on the Gaussian-overlap losses.

Plain clipped gradient descent under a two-stage schedule: the unbounded
Bhattacharyya loss first (long-range pull), the bounded Hellinger loss
after the switch (tight final fit).  No momentum or adaptive steps: the
point is to probe the loss geometry, and the simplest dynamics keep
descent properties testable.  Runs are deterministic: same config, same
trajectory, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .batch import iou_ellipse_pairs
from .convert import _canonical_angle, _constrained_to_cov, cov_from_angles, gbb_to_angle_cov
from .gradients import _grad_terms, _l1_factor_at
from .metrics import _bd_terms, _hellinger
from .types import AngleCov, GaussBox, _gbb_problem, require_valid_gbb

PARAMETRIZATIONS = ("hbb4", "angle5", "constrained5")

# Floor applied to variances after each unconstrained update.
VARIANCE_FLOOR = 1e-9

# States per batched ellipse-IoU call in the fit log.  A call has a fixed
# cost of about 0.2 ms, and its temporaries grow with the block.  Under
# tracemalloc a 400-step fit peaks at 89 KB with blocks of 64, 125 KB at
# 128, 197 KB at 256 and 279 KB in one call; a whole `regress` run peaks at
# 0.292, 0.294 and 0.368 MB at the first three.  128 is the largest block
# that leaves the run's peak where it is.
_LOG_BLOCK = 128


def _require_number(name: str, value, kind=numbers.Real) -> None:
    """Raise ValueError unless value is a finite number of the kind (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class LossSchedule:
    """Two-stage loss configuration.

    Stage 1 minimizes omega2 * L2 for the first switch_fraction of the
    steps; stage 2 minimizes omega1 * L1 for the rest.  The default
    omega2 = 5 * omega1 keeps gradient magnitudes comparable across the
    switch; switch_fraction = 0 gives a pure-L1 run, 1 a pure-L2 run.
    """

    omega1: float = 1.0
    omega2: float = 5.0
    switch_fraction: float = 0.5
    total_steps: int = 400

    def __post_init__(self):
        _require_number("omega1", self.omega1)
        _require_number("omega2", self.omega2)
        _require_number("switch_fraction", self.switch_fraction)
        _require_number("total_steps", self.total_steps, numbers.Integral)
        if not (self.omega1 > 0 and self.omega2 > 0):
            raise ValueError("loss weights must be positive")
        if not 0.0 <= self.switch_fraction <= 1.0:
            raise ValueError(f"switch_fraction must lie in [0, 1], got {self.switch_fraction}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Step size, per-component gradient clip, and update space."""

    step_size: float = 0.1
    grad_clip: float = 10.0
    parametrization: str = "constrained5"

    def __post_init__(self):
        _require_number("step_size", self.step_size)
        _require_number("grad_clip", self.grad_clip)
        if not self.step_size > 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip}")
        if self.parametrization not in PARAMETRIZATIONS:
            raise ValueError(
                f"parametrization must be one of {PARAMETRIZATIONS}, got "
                f"{self.parametrization!r}"
            )


@dataclass(frozen=True)
class FitStep:
    """One trajectory record: state plus diagnostics at that state."""

    params: GaussBox
    loss: float
    grad_norm: float
    prob_iou: float
    iou: float


@dataclass(frozen=True, eq=False)
class FitTrajectory:
    """Per-state records as columns, initial state first: (x0, y0, a, b, c)
    rows in states, one (n,) array per diagnostic.  steps is the same records
    as FitSteps, built on first access; aborted explains truncation."""

    states: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    prob_iou: np.ndarray
    iou: np.ndarray
    aborted: str | None = None

    @cached_property
    def steps(self) -> list[FitStep]:
        columns = (self.states, self.loss, self.grad_norm, self.prob_iou, self.iou)
        return [FitStep(GaussBox(*s), *rest) for s, *rest in zip(*(c.tolist() for c in columns))]

    def final(self) -> FitStep:
        return self.steps[-1]


def schedule_loss(step: int, schedule: LossSchedule) -> tuple[str, float]:
    """Loss selector and weight active at a step: ("l2", omega2) before the
    switch point, ("l1", omega1) from it on."""
    if not 0 <= step < schedule.total_steps:
        raise ValueError(f"step must lie in [0, {schedule.total_steps}), got {step}")
    if step < schedule.switch_fraction * schedule.total_steps:
        return "l2", schedule.omega2
    return "l1", schedule.omega1


class _Parametrization:
    """Maps harness vectors to (x0, y0, a, b, c) states and chains gradients back."""

    def __init__(self, kind: str, init: GaussBox):
        self.kind = kind
        if kind == "hbb4":
            if init.c != 0.0:
                raise ValueError("hbb4 parametrization needs a diagonal init (c == 0)")
            vec = (init.x0, init.y0, init.a, init.b)
        elif kind == "angle5":
            ac = gbb_to_angle_cov(init)
            vec = (init.x0, init.y0, ac.a_prime, ac.b_prime, ac.theta)
        else:
            # b - c^2/a = det/a > 0 for valid inputs, so both logs are defined.
            alpha, beta = math.log(init.a), math.log(init.b - init.c * init.c / init.a)
            vec = (init.x0, init.y0, alpha, beta, init.c)
        self.vec = [float(v) for v in vec]

    def state(self) -> tuple[float, ...]:
        v = self.vec
        if self.kind == "hbb4":
            return v[0], v[1], v[2], v[3], 0.0
        if self.kind == "angle5":
            return (v[0], v[1], *cov_from_angles(AngleCov(v[2], v[3], v[4])))
        return (v[0], v[1], *_constrained_to_cov(v[2], v[3], v[4]))

    def chain_gradient(self, grad_abc) -> tuple[float, ...]:
        """Pull a (x, y, a, b, c) gradient back into this update space."""
        gx, gy, ga, gb, gc = grad_abc
        v = self.vec
        if self.kind == "hbb4":
            return gx, gy, ga, gb
        if self.kind == "angle5":
            ap, bp, th = v[2], v[3], v[4]
            cos2 = math.cos(th) ** 2
            sin2 = math.sin(th) ** 2
            s2t = math.sin(2.0 * th)
            c2t = math.cos(2.0 * th)
            return (
                gx,
                gy,
                ga * cos2 + gb * sin2 + 0.5 * gc * s2t,
                ga * sin2 + gb * cos2 - 0.5 * gc * s2t,
                (ap - bp) * ((gb - ga) * s2t + gc * c2t),
            )
        alpha, beta, c = v[2], v[3], v[4]
        ea = math.exp(alpha)
        return (
            gx,
            gy,
            ga * ea - gb * c * c / ea,
            gb * math.exp(beta),
            gb * 2.0 * c / ea + gc,
        )

    def apply_update(self, delta) -> None:
        v = self.vec = [x - d for x, d in zip(self.vec, delta)]
        if self.kind == "constrained5":
            return
        v[2] = max(v[2], VARIANCE_FLOOR)
        v[3] = max(v[3], VARIANCE_FLOOR)
        if self.kind == "angle5":
            # Re-canonicalize the angle each step, swapping axes as needed.
            th = v[4]
            if th > math.pi / 4.0 or th < -math.pi / 4.0:
                th = (th + math.pi / 2.0) % math.pi - math.pi / 2.0
                v[2], v[3], v[4] = _canonical_angle(v[2], v[3], th)


def _loss_and_grad(state: tuple, target: tuple, selector: str):
    """ProbIoU, unweighted loss, and (x, y, a, b, c) gradient, as floats,
    of two (x0, y0, a, b, c) tuples: similarity's and grad_general's numbers.

    Only the state is checked, by validate_gbb's rule.  One outside the
    positive-definite region (an oversized step can slam both variances
    into the floor) reports an infinite loss, so the caller aborts.
    """
    if _gbb_problem(*state):
        return 0.0, math.inf, (0.0,) * 5
    args = (*state, *target)
    b1, b2 = _bd_terms(*args)
    b_d = max(b1 + b2, 0.0)
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


def fit_gbb(
    target: GaussBox,
    init: GaussBox,
    schedule: LossSchedule,
    opt: OptimizerConfig,
) -> FitTrajectory:
    """Fit a GaussBox to a target by clipped gradient descent.

    Records total_steps + 1 states (initial state first) as FitTrajectory
    columns: each state's five floats, its weighted stage loss, gradient
    norm and ProbIoU, and the exact IoU of the two default level-set
    ellipses.  A non-finite loss or gradient aborts the run, keeping the
    records so far.  The IoU never steers the fit: it is computed after the
    loop, over the states array, _LOG_BLOCK rows at a time.
    """
    require_valid_gbb(target)
    require_valid_gbb(init)
    param = _Parametrization(opt.parametrization, init)
    goal = (target.x0, target.y0, target.a, target.b, target.c)
    last = schedule.total_steps
    states = np.empty((last + 1, 5))
    loss, grad_norm, prob_iou = np.empty((3, last + 1))
    aborted = None

    clip = opt.grad_clip
    for step in range(last + 1):
        selector, weight = schedule_loss(min(step, last - 1), schedule)
        state = states[step] = param.state()
        prob, step_loss, grad_abc = _loss_and_grad(state, goal, selector)
        grad_vec = [weight * g for g in param.chain_gradient(grad_abc)]
        if not (math.isfinite(step_loss) and all(map(math.isfinite, grad_vec))):
            loss[step], grad_norm[step], prob_iou[step] = math.inf, math.inf, 0.0
            aborted = f"non-finite loss or gradient at step {step}; reduce step_size"
            break
        # The logged norm sums the squares with math.fsum, exactly rounded,
        # so its bits depend on no BLAS kernel and no summation order.
        norm = math.sqrt(math.fsum(g * g for g in grad_vec))
        loss[step], grad_norm[step], prob_iou[step] = weight * step_loss, norm, prob
        if step < last:
            param.apply_update([opt.step_size * min(max(g, -clip), clip) for g in grad_vec])

    n = step + 1
    logged = step if aborted else n
    iou = np.zeros(n)
    for start in range(0, logged, _LOG_BLOCK):
        end = min(start + _LOG_BLOCK, logged)
        iou[start:end] = iou_ellipse_pairs(states[start:end], np.broadcast_to(goal, (end - start, 5)))
    return FitTrajectory(states[:n], loss[:n], grad_norm[:n], prob_iou[:n], iou, aborted)


__all__ = [
    "PARAMETRIZATIONS",
    "VARIANCE_FLOOR",
    "LossSchedule",
    "OptimizerConfig",
    "FitStep",
    "FitTrajectory",
    "schedule_loss",
    "fit_gbb",
]
