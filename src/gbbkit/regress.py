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
from dataclasses import dataclass, field

import numpy as np

from .batch import iou_ellipse_pairs
from .convert import _canonical_angle, constrained_to_cov, cov_from_angles, gbb_to_angle_cov
from .gradients import _grad_terms, _l1_factor_at, grad_general
from .metrics import _bd_terms, _hellinger, similarity
from .types import AngleCov, ConstrainedCovParams, GaussBox, require_valid_gbb, validate_gbb

PARAMETRIZATIONS = ("hbb4", "angle5", "constrained5")

# Floor applied to variances after each unconstrained update.
VARIANCE_FLOOR = 1e-9

# States per batched ellipse-IoU call in the fit log: a call has a fixed
# cost of a few hundred microseconds, and its temporaries grow with the
# block, so blocks keep both small.
_LOG_BLOCK = 64


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


@dataclass(frozen=True)
class FitTrajectory:
    """Per-step records (initial state included); aborted explains truncation."""

    steps: list[FitStep] = field(default_factory=list)
    aborted: str | None = None

    def final(self) -> FitStep:
        return self.steps[-1]


@dataclass(frozen=True)
class GradientProbe:
    """Gradient norms of both losses plus overlap measures for one pair."""

    norm_l2_grad: float
    norm_l1_grad: float
    iou: float
    prob_iou: float
    l1_singular: bool = False


def schedule_loss(step: int, schedule: LossSchedule) -> tuple[str, float]:
    """Loss selector and weight active at a step: ("l2", omega2) before the
    switch point, ("l1", omega1) from it on."""
    if not 0 <= step < schedule.total_steps:
        raise ValueError(
            f"step must lie in [0, {schedule.total_steps}), got {step}"
        )
    if step < schedule.switch_fraction * schedule.total_steps:
        return "l2", schedule.omega2
    return "l1", schedule.omega1


def _rows(gs) -> np.ndarray:
    """(n, 5) parameter rows of GaussBoxes, for the batch kernels."""
    return np.array([(g.x0, g.y0, g.a, g.b, g.c) for g in gs], dtype=float)


class _Parametrization:
    """Maps harness vectors to GaussBoxes and chains gradients back."""

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
            vec = (
                init.x0,
                init.y0,
                math.log(init.a),
                math.log(init.b - init.c * init.c / init.a),
                init.c,
            )
        self.vec = [float(v) for v in vec]

    def gauss_box(self) -> GaussBox:
        v = self.vec
        if self.kind == "hbb4":
            return GaussBox(v[0], v[1], v[2], v[3], 0.0)
        if self.kind == "angle5":
            a, b, c = cov_from_angles(AngleCov(v[2], v[3], v[4]))
            return GaussBox(v[0], v[1], a, b, c)
        a, b, c = constrained_to_cov(ConstrainedCovParams(v[2], v[3], v[4]))
        return GaussBox(v[0], v[1], a, b, c)

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


def _loss_and_grad(current: GaussBox, target: GaussBox, selector: str):
    """ProbIoU, unweighted loss, and (x, y, a, b, c) gradient, as floats.

    The same numbers as similarity and grad_general, with the state checked
    once, by validate_gbb; the target is validated by the caller.  A state
    outside the positive-definite region (possible when an oversized step
    slams both variances into the floor) reports an infinite loss so the
    caller aborts instead of raising mid-run.
    """
    if not validate_gbb(current)[0]:
        return 0.0, math.inf, (0.0,) * 5
    args = (
        current.x0, current.y0, current.a, current.b, current.c,
        target.x0, target.y0, target.a, target.b, target.c,
    )
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

    Records total_steps + 1 states (initial state first).  Each record
    carries the weighted stage loss and gradient norm at that state, plus
    ProbIoU and the exact IoU of the two default level-set ellipses.  A
    non-finite loss or gradient aborts the run, returning the trajectory so
    far with the abort reason.  The logged IoU never steers the fit; it is
    computed for blocks of _LOG_BLOCK states at a time.
    """
    require_valid_gbb(target)
    require_valid_gbb(init)
    param = _Parametrization(opt.parametrization, init)
    target_row = _rows([target])

    steps: list[FitStep] = []
    pending: list[tuple[GaussBox, float, float, float]] = []

    def log_pending():
        if pending:
            states = _rows(s[0] for s in pending)
            ious = iou_ellipse_pairs(states, np.broadcast_to(target_row, states.shape))
            steps.extend(FitStep(*s, iou) for s, iou in zip(pending, ious.tolist()))
            pending.clear()

    clip = opt.grad_clip
    for step in range(schedule.total_steps + 1):
        selector, weight = schedule_loss(min(step, schedule.total_steps - 1), schedule)
        current = param.gauss_box()
        prob_iou, loss, grad_abc = _loss_and_grad(current, target, selector)
        grad_vec = [weight * g for g in param.chain_gradient(grad_abc)]
        if not (math.isfinite(loss) and all(map(math.isfinite, grad_vec))):
            log_pending()
            steps.append(FitStep(current, math.inf, math.inf, 0.0, 0.0))
            return FitTrajectory(
                steps,
                aborted=f"non-finite loss or gradient at step {step}; reduce step_size",
            )
        # The logged norm keeps np.linalg.norm's bits: the square root of the
        # BLAS ddot, which OpenBLAS sums as a chain of fused multiply-adds.
        # So grad_norm, and with it the regress goldens, depends on the BLAS.
        # On 200,000 random 4- and 5-vectors a Python sum of squares gave
        # other last bits on 21,738 and math.hypot on 37,595.
        arr = np.array(grad_vec)
        pending.append((current, weight * loss, math.sqrt(arr.dot(arr)), prob_iou))
        if len(pending) == _LOG_BLOCK:
            log_pending()
        if step == schedule.total_steps:
            break
        param.apply_update([opt.step_size * min(max(g, -clip), clip) for g in grad_vec])
    log_pending()
    return FitTrajectory(steps)


def gradient_probe(p: GaussBox, q: GaussBox) -> GradientProbe:
    """Gradient norms of both (unweighted) losses plus IoU and ProbIoU.

    Far-apart pairs show a large L2 norm but an underflowed L1 norm;
    well-overlapping pairs show the opposite ordering.  At p == q the L1
    gradient is reported as zero with the singular flag set.  IoU is the
    exact IoU of the two default level-set ellipses.
    """
    require_valid_gbb(p)
    require_valid_gbb(q)
    report = similarity(p, q)
    norm_l2 = float(np.linalg.norm(grad_general(p, q, "l2")))
    iou = float(iou_ellipse_pairs(_rows([p]), _rows([q]))[0])
    if report.b_d == 0.0:
        return GradientProbe(norm_l2, 0.0, iou, report.prob_iou, True)
    norm_l1 = float(np.linalg.norm(grad_general(p, q, "l1")))
    return GradientProbe(norm_l2, norm_l1, iou, report.prob_iou)


__all__ = [
    "PARAMETRIZATIONS",
    "VARIANCE_FLOOR",
    "LossSchedule",
    "OptimizerConfig",
    "FitStep",
    "FitTrajectory",
    "GradientProbe",
    "schedule_loss",
    "fit_gbb",
    "gradient_probe",
]
