import math
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from gbbkit import (
    GaussBox,
    Hbb,
    LossSchedule,
    OptimizerConfig,
    fit_gbb,
    grad_general,
    hbb_to_gbb,
    iou_ellipse_pairs,
    schedule_loss,
    similarity,
    validate_gbb,
)

UNIT_AT = lambda x: hbb_to_gbb(Hbb(x, 0.0, 1.0, 1.0))  # noqa: E731

# perfbench's workloads module, for its regress-fit configs.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))


class TestScheduleLoss:
    def test_defaults_start_with_weighted_l2(self):
        schedule = LossSchedule(total_steps=100)
        assert schedule_loss(0, schedule) == ("l2", 5.0)
        assert schedule.omega2 == 5 * schedule.omega1
        assert schedule.switch_fraction == 0.5

    def test_switch_boundary(self):
        schedule = LossSchedule(total_steps=100)
        assert schedule_loss(49, schedule)[0] == "l2"
        assert schedule_loss(50, schedule) == ("l1", 1.0)

    def test_pure_l1_ablation(self):
        schedule = LossSchedule(switch_fraction=0.0, total_steps=10)
        assert schedule_loss(0, schedule)[0] == "l1"

    def test_pure_l2(self):
        schedule = LossSchedule(switch_fraction=1.0, total_steps=10)
        assert schedule_loss(9, schedule)[0] == "l2"

    @pytest.mark.parametrize("step", [-1, 100, 2000])
    def test_rejects_out_of_range_step(self, step):
        with pytest.raises(ValueError):
            schedule_loss(step, LossSchedule(total_steps=100))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossSchedule(omega1=0.0)
        with pytest.raises(ValueError):
            LossSchedule(switch_fraction=1.5)
        with pytest.raises(ValueError):
            LossSchedule(total_steps=0)
        with pytest.raises(ValueError):
            OptimizerConfig(step_size=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(parametrization="nope")


class TestFitGbb:
    def test_init_equals_target_is_constant(self):
        target = UNIT_AT(0.0)
        traj = fit_gbb(target, target, LossSchedule(total_steps=20), OptimizerConfig())
        assert traj.aborted is None
        assert len(traj.steps) == 21
        assert traj.final().prob_iou == 1.0
        for s in traj.steps:
            assert s.params == target
            assert s.grad_norm == 0.0

    def test_two_stage_converges_from_disjoint_start(self):
        traj = fit_gbb(
            UNIT_AT(0.0),
            UNIT_AT(2.0),
            LossSchedule(total_steps=400),
            OptimizerConfig(step_size=0.1, parametrization="constrained5"),
        )
        assert traj.aborted is None
        assert traj.final().prob_iou > 0.99

    # The bounded loss behaves like a distance near the optimum, so fixed-step
    # descent settles into a small limit cycle; for the additive update spaces
    # assert the trajectory reaches the target overlap rather than the final
    # phase of that cycle.
    def test_hbb4_reaches_target_overlap(self):
        traj = fit_gbb(
            UNIT_AT(0.0),
            UNIT_AT(2.0),
            LossSchedule(total_steps=400),
            OptimizerConfig(step_size=0.01, parametrization="hbb4"),
        )
        assert traj.aborted is None
        assert max(s.prob_iou for s in traj.steps) > 0.99
        assert traj.final().prob_iou > 0.9

    def test_angle5_converges_on_rotated_target(self):
        from gbbkit import Obb, obb_to_gbb

        target = obb_to_gbb(Obb(0.0, 0.0, 2.0, 1.0, 0.5))
        init = obb_to_gbb(Obb(1.0, 0.5, 1.0, 1.5, -0.3))
        traj = fit_gbb(
            target,
            init,
            LossSchedule(total_steps=400),
            OptimizerConfig(step_size=0.01, parametrization="angle5"),
        )
        assert traj.aborted is None
        assert max(s.prob_iou for s in traj.steps) > 0.99
        assert traj.final().prob_iou > 0.9

    def test_pure_l1_from_far_start_stalls(self):
        traj = fit_gbb(
            UNIT_AT(0.0),
            UNIT_AT(100.0),
            LossSchedule(switch_fraction=0.0, total_steps=400),
            OptimizerConfig(step_size=0.1),
        )
        assert traj.steps[0].grad_norm < 1e-8
        first, last = traj.steps[0].params, traj.final().params
        assert last.x0 == first.x0
        assert traj.final().prob_iou == traj.steps[0].prob_iou

    def test_trajectory_length_and_validity(self):
        traj = fit_gbb(
            UNIT_AT(0.0),
            UNIT_AT(1.0),
            LossSchedule(total_steps=50),
            OptimizerConfig(step_size=0.05),
        )
        assert len(traj.steps) == 51
        for s in traj.steps:
            ok, why = validate_gbb(s.params)
            assert ok, why

    def test_descent_property_small_steps_pure_l2(self):
        traj = fit_gbb(
            UNIT_AT(0.0),
            UNIT_AT(1.0),
            LossSchedule(switch_fraction=1.0, total_steps=200),
            OptimizerConfig(step_size=1e-3),
        )
        losses = [s.loss for s in traj.steps]
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev + 1e-10

    def test_reaching_optimum_means_vanishing_gradient(self):
        traj = fit_gbb(
            UNIT_AT(0.0),
            UNIT_AT(2.0),
            LossSchedule(total_steps=400),
            OptimizerConfig(step_size=0.1),
        )
        for s in traj.steps:
            if s.prob_iou > 1 - 1e-9:
                assert s.grad_norm < 1e-6
        # Non-vacuous instance: a run sitting at the optimum has zero norms.
        at_opt = fit_gbb(
            UNIT_AT(0.0), UNIT_AT(0.0), LossSchedule(total_steps=5), OptimizerConfig()
        )
        assert all(s.prob_iou > 1 - 1e-9 and s.grad_norm < 1e-6 for s in at_opt.steps)

    def test_bit_identical_reproducibility(self):
        def run():
            return fit_gbb(
                UNIT_AT(0.0),
                UNIT_AT(2.0),
                LossSchedule(total_steps=100),
                OptimizerConfig(step_size=0.1, parametrization="constrained5"),
            )

        t1, t2 = run(), run()
        assert [s.params for s in t1.steps] == [s.params for s in t2.steps]
        assert [s.loss for s in t1.steps] == [s.loss for s in t2.steps]

    def test_oversized_step_aborts_with_diagnostic(self):
        # A huge step slams a too-large init straight through the variance
        # floor; the loop must abort with a diagnostic trajectory, not raise.
        traj = fit_gbb(
            UNIT_AT(0.0),
            hbb_to_gbb(Hbb(0.0, 0.0, 35.0, 35.0)),
            LossSchedule(total_steps=100),
            OptimizerConfig(step_size=1e4, parametrization="hbb4"),
        )
        assert traj.aborted is not None
        assert "step" in traj.aborted
        assert len(traj.steps) <= 101

    def test_logged_iou_is_the_exact_ellipse_iou_of_each_state(self):
        # States are logged in blocks; every record must carry its own
        # state's IoU, also across block ends and up to an abort.
        target = UNIT_AT(0.0)

        def rows(gs):
            return np.array([(g.x0, g.y0, g.a, g.b, g.c) for g in gs])

        full = fit_gbb(target, UNIT_AT(1.5), LossSchedule(total_steps=150), OptimizerConfig())
        aborted = fit_gbb(
            target,
            hbb_to_gbb(Hbb(0.0, 0.0, 35.0, 35.0)),
            LossSchedule(total_steps=100),
            OptimizerConfig(step_size=1e4, parametrization="hbb4"),
        )
        assert len(full.steps) == 151 and aborted.aborted is not None
        for traj in (full, aborted):
            logged = [s for s in traj.steps if s.loss != np.inf]
            want = iou_ellipse_pairs(rows(s.params for s in logged), rows([target] * len(logged)))
            assert [s.iou for s in logged] == want.tolist()
        assert aborted.final().iou == 0.0 and len(aborted.steps) >= 2

    @pytest.mark.parametrize(
        "state",
        [
            GaussBox(np.nan, 0.0, 1.0, 1.0, 0.0),
            GaussBox(0.0, np.inf, 1.0, 1.0, 0.0),
            GaussBox(0.0, 0.0, np.inf, 1.0, 0.0),
            GaussBox(0.0, 0.0, 1.0, np.inf, 0.0),
            GaussBox(0.0, 0.0, 1.0, 1.0, np.nan),
            GaussBox(0.0, 0.0, 1e-12, 10.0, 0.0),
            GaussBox(0.0, 0.0, 1.0, 1e-12, 0.0),
            GaussBox(0.0, 0.0, 1.0, 1.0, 1.0),
            GaussBox(0.0, 0.0, 1.0, 1e-12 + 2e-16, 0.0),
        ],
    )
    def test_step_state_check_is_validate_gbb(self, state):
        # The fit step checks its state's five floats; it must accept exactly
        # the states validate_gbb accepts, and report the others as infinite.
        from gbbkit.regress import _loss_and_grad

        for selector in ("l1", "l2"):
            _, loss, _ = _loss_and_grad(astuple(state), astuple(UNIT_AT(0.0)), selector)
            assert math.isfinite(loss) == validate_gbb(state)[0]

    def test_hbb4_requires_diagonal_init(self):
        with pytest.raises(ValueError):
            fit_gbb(
                UNIT_AT(0.0),
                GaussBox(0, 0, 1, 1, 0.2),
                LossSchedule(total_steps=10),
                OptimizerConfig(parametrization="hbb4"),
            )


class TestFitTrajectory:
    # fit_gbb keeps its records as columns; steps is a view built from them.

    @staticmethod
    def _fits(seed):
        from gbbkit import cli
        from workloads import regress_configs

        for cfg in regress_configs(seed):
            target, init = (cli.shape_to_gbb(cli.parse_shape(cfg[k])) for k in ("target", "init"))
            yield fit_gbb(
                target, init, LossSchedule(**cfg["schedule"]), OptimizerConfig(**cfg["optimizer"])
            )
        # A fit that aborts at its second state.
        yield fit_gbb(
            UNIT_AT(0.0),
            hbb_to_gbb(Hbb(0.0, 0.0, 35.0, 35.0)),
            LossSchedule(total_steps=100),
            OptimizerConfig(step_size=1e4, parametrization="hbb4"),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_steps_view_is_the_columns_to_the_bit(self, seed):
        trajs = list(self._fits(seed))
        assert [t.aborted is None for t in trajs] == [True] * 6 + [False]
        for traj in trajs:
            columns = (traj.loss, traj.grad_norm, traj.prob_iou, traj.iou)
            assert traj.states.shape == (len(traj.loss), 5)
            assert all(c.shape == traj.loss.shape for c in columns)
            assert len(traj.steps) == len(traj.loss) and traj.final() is traj.steps[-1]
            for s, row, *rest in zip(traj.steps, traj.states.tolist(), *(c.tolist() for c in columns)):
                got = (*astuple(s.params), s.loss, s.grad_norm, s.prob_iou, s.iou)
                assert all(type(v) is float for v in got)
                assert [v.hex() for v in got] == [v.hex() for v in (*row, *rest)]
        last = trajs[-1].final()
        assert (last.loss, last.grad_norm, last.prob_iou, last.iou) == (math.inf, math.inf, 0.0, 0.0)

    def test_tracemalloc_peak_of_a_400_step_fit(self):
        args = (UNIT_AT(0.0), UNIT_AT(2.0), LossSchedule(total_steps=400), OptimizerConfig())
        fit_gbb(*args)  # first call's one-time costs
        tracemalloc.start()
        try:
            traj = fit_gbb(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.loss) == 401 and peak < 200_000


class TestChainedGradients:
    # The harness pulls (x, y, a, b, c) gradients back into each update
    # space; check every chain against finite differences of the composed
    # loss in that space.
    @pytest.mark.parametrize("kind", ["hbb4", "angle5", "constrained5"])
    def test_chain_matches_finite_differences(self, kind):
        from conftest import central_difference
        from gbbkit import grad_general
        from gbbkit.regress import _Parametrization

        rng = np.random.default_rng(12)
        for _ in range(50):
            if kind == "hbb4":
                init = GaussBox(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                rng.uniform(0.3, 3), rng.uniform(0.3, 3), 0.0)
            else:
                from conftest import random_gauss_box

                init = random_gauss_box(rng, center_scale=2.0)
            target = GaussBox(init.x0 + rng.uniform(-1, 1), init.y0 + rng.uniform(-1, 1),
                              init.a * rng.uniform(0.7, 1.4), init.b * rng.uniform(0.7, 1.4),
                              0.0)
            param = _Parametrization(kind, init)
            got = param.chain_gradient(grad_general(GaussBox(*param.state()), target, "l2"))

            def loss_of(vec):
                probe = _Parametrization(kind, init)
                probe.vec = vec
                return similarity(GaussBox(*probe.state()), target).b_d

            want = central_difference(loss_of, param.vec.copy())
            scale = max(np.max(np.abs(want)), 1e-9)
            assert np.max(np.abs(got - want)) / scale < 1e-5


def _ellipse_iou(p, q):
    """Exact IoU of the two default level-set ellipses."""
    return iou_ellipse_pairs(*(np.array([(g.x0, g.y0, g.a, g.b, g.c)]) for g in (p, q)))[0]


class TestGradientProbe:
    # The two losses' regimes, read from grad_general, similarity and the
    # exact ellipse IoU.

    def test_identical_pair(self):
        g = UNIT_AT(0.0)
        assert np.linalg.norm(grad_general(g, g, "l2")) == 0.0
        with pytest.raises(ValueError, match="singular"):
            grad_general(g, g, "l1")
        assert _ellipse_iou(g, g) == 1.0
        assert similarity(g, g).prob_iou == 1.0

    def test_far_pair_regime(self):
        p, q = UNIT_AT(0.0), UNIT_AT(100.0)
        assert np.linalg.norm(grad_general(p, q, "l1")) < 1e-8
        assert np.linalg.norm(grad_general(p, q, "l2")) > 1.0
        assert _ellipse_iou(p, q) == 0.0
        assert similarity(p, q).prob_iou < 1e-6

    def test_overlapping_pair_regime(self):
        # Boxes overlapping at IoU ~0.83: the bounded loss now has the
        # larger gradient.
        p = hbb_to_gbb(Hbb(0.0, 0.0, 2.0, 2.0))
        q = hbb_to_gbb(Hbb(0.17, 0.0, 2.0, 2.0))
        assert 0.5 < _ellipse_iou(p, q) < 0.95
        assert np.linalg.norm(grad_general(p, q, "l1")) > np.linalg.norm(grad_general(p, q, "l2"))

    def test_matches_similarity(self):
        # The fit step's ProbIoU and both losses are similarity's numbers.
        from gbbkit.regress import _loss_and_grad

        p, q = UNIT_AT(0.0), UNIT_AT(0.5)
        rep = similarity(p, q)
        assert _loss_and_grad(astuple(p), astuple(q), "l2")[:2] == (rep.prob_iou, rep.b_d)
        assert _loss_and_grad(astuple(p), astuple(q), "l1")[:2] == (rep.prob_iou, rep.h_d)
