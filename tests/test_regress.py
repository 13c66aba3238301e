import math

import numpy as np
import pytest

from gbbkit import (
    GaussBox,
    Hbb,
    LossSchedule,
    OptimizerConfig,
    fit_gbb,
    gradient_probe,
    hbb_to_gbb,
    iou_ellipse_pairs,
    schedule_loss,
    similarity,
    validate_gbb,
)

UNIT_AT = lambda x: hbb_to_gbb(Hbb(x, 0.0, 1.0, 1.0))  # noqa: E731


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
        # The fit step checks its state inline; it must accept exactly the
        # states validate_gbb accepts, and report the others as infinite.
        from gbbkit.regress import _loss_and_grad

        for selector in ("l1", "l2"):
            _, loss, _ = _loss_and_grad(state, UNIT_AT(0.0), selector)
            assert math.isfinite(loss) == validate_gbb(state)[0]

    def test_hbb4_requires_diagonal_init(self):
        with pytest.raises(ValueError):
            fit_gbb(
                UNIT_AT(0.0),
                GaussBox(0, 0, 1, 1, 0.2),
                LossSchedule(total_steps=10),
                OptimizerConfig(parametrization="hbb4"),
            )


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
            got = param.chain_gradient(grad_general(param.gauss_box(), target, "l2"))

            def loss_of(vec):
                probe = _Parametrization(kind, init)
                probe.vec = vec
                return similarity(probe.gauss_box(), target).b_d

            want = central_difference(loss_of, param.vec.copy())
            scale = max(np.max(np.abs(want)), 1e-9)
            assert np.max(np.abs(got - want)) / scale < 1e-5


class TestGradientProbe:
    def test_identical_pair(self):
        g = UNIT_AT(0.0)
        probe = gradient_probe(g, g)
        assert probe.norm_l2_grad == 0.0
        assert probe.norm_l1_grad == 0.0
        assert probe.l1_singular
        assert probe.iou == 1.0
        assert probe.prob_iou == 1.0

    def test_far_pair_regime(self):
        probe = gradient_probe(UNIT_AT(0.0), UNIT_AT(100.0))
        assert probe.norm_l1_grad < 1e-8
        assert probe.norm_l2_grad > 1.0
        assert probe.iou == 0.0
        assert probe.prob_iou < 1e-6

    def test_overlapping_pair_regime(self):
        # Boxes overlapping at raster IoU ~0.74: the bounded loss now has the
        # larger gradient.
        p = hbb_to_gbb(Hbb(0.0, 0.0, 2.0, 2.0))
        q = hbb_to_gbb(Hbb(0.17, 0.0, 2.0, 2.0))
        probe = gradient_probe(p, q)
        assert 0.5 < probe.iou < 0.95
        assert probe.norm_l1_grad > probe.norm_l2_grad
        assert not probe.l1_singular

    def test_matches_similarity(self):
        p, q = UNIT_AT(0.0), UNIT_AT(0.5)
        probe = gradient_probe(p, q)
        assert probe.prob_iou == similarity(p, q).prob_iou
