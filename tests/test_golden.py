"""Golden seeded outputs: the CLI must keep producing these exact bytes.

Each digest is the first 16 hex digits of the sha256 of an output produced
from fixed seeds.  A change that alters any printed digit of any value fails
here; a change meant to alter output must update the digest and say why.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from gbbkit.annotations import generate_synthetic
from gbbkit.cli import main, parse_shape
from gbbkit.convert import (
    gbb_to_angle_cov,
    gbb_to_ellipse,
    mask_to_gbb,
    mask_to_hbb,
    mask_to_obb,
    shape_to_gbb,
)
from gbbkit.metrics import fidelity_ious
from gbbkit.raster import default_cell_size, iou_raster
from gbbkit.regress import VARIANCE_FLOOR, LossSchedule, OptimizerConfig, fit_gbb


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


def _cli(argv, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    return f"exit {code}\n{captured.out}\n--stderr--\n{captured.err}"


def _star(rng, n_points: int) -> dict:
    k = np.arange(2 * n_points)
    phi = rng.uniform(-math.pi, math.pi) + k * math.pi / n_points
    outer = rng.uniform(0.5, 2.0)
    r = np.where(k % 2 == 0, outer, 0.4 * outer)
    cx, cy = rng.uniform(-2.0, 2.0, 2)
    verts = np.column_stack([cx + r * np.cos(phi), cy + r * np.sin(phi)])
    return {"type": "polygon", "vertices": verts.tolist()}


def _mixed_pairs(seed: int = 11, n: int = 24) -> list[str]:
    """JSON lines of hbb, obb, gbb and star-polygon pairs in every combination."""
    rng = np.random.default_rng(seed)

    def hbb():
        x, y = rng.uniform(-2.0, 2.0, 2)
        w, h = rng.uniform(0.3, 3.0, 2)
        return {"type": "hbb", "x": x, "y": y, "w": w, "h": h}

    def obb():
        return {**hbb(), "type": "obb", "theta": rng.uniform(-math.pi, math.pi)}

    def gbb():
        x, y = rng.uniform(-2.0, 2.0, 2)
        a, b = rng.uniform(0.1, 1.5, 2)
        c = rng.uniform(-0.5, 0.5) * math.sqrt(a * b)
        return {"type": "gbb", "x": x, "y": y, "a": a, "b": b, "c": c}

    makers = (hbb, obb, gbb, lambda: _star(rng, int(rng.integers(3, 8))))
    lines = []
    for i in range(n):
        first = makers[i % 4]
        second = makers[(i // 4) % 4]
        lines.append(json.dumps([first(), second()]))
    # A sub-cell Gaussian far from its partner: skipped as zero cells.
    tiny = {"type": "gbb", "x": 0.0, "y": 0.0, "a": 1e-5, "b": 1e-5, "c": 0.0}
    far = {"type": "gbb", "x": 1000.0, "y": 0.0, "a": 1e-5, "b": 1e-5, "c": 0.0}
    lines.append(json.dumps([tiny, far]))
    return lines


# The medians of exact overlaps.  The ids leave the digests out, so
# re-recording one keeps the test's name.
@pytest.mark.parametrize(
    "preset, digest",
    [("default", "ce66407d5288a9ba"), ("ellipses", "da45e64470bbc30b")],
    ids=["default", "ellipses"],
)
def test_fidelity_synthetic_golden(preset, digest, capsys):
    out = _cli(["fidelity", "--synthetic", preset, "--n", "20", "--seed", "5"], capsys)
    assert _digest(out) == digest


def test_fidelity_exact_per_record_iou_golden():
    # Every exact IoU the fidelity study takes a median of, not just the medians.
    records = generate_synthetic("default", 12, 3)
    rows = fidelity_ious([rec.polygon for rec in records]).tolist()
    values = [v.hex() for row in rows for v in row]
    assert _digest("\n".join(values)) == "effa6680db9db691"


def test_fidelity_per_record_iou_golden():
    # Every record's raster IoU at 256 cells along the larger extent, the
    # resolution perfbench's fidelity latency items time.
    values = []
    for rec in generate_synthetic("default", 12, 3):
        poly = rec.polygon
        for rep in (mask_to_hbb(poly), mask_to_obb(poly), gbb_to_ellipse(mask_to_gbb(poly))):
            values.append(repr(iou_raster(rep, poly, default_cell_size(rep, poly, 256))))
    assert _digest("\n".join(values)) == "7d7d670dc622e611"


def test_obb_fit_golden():
    # Center, w, h and theta of every minimum-area rectangle, to the last bit.
    fits = [repr(mask_to_obb(rec.polygon)) for rec in generate_synthetic("default", 12, 3)]
    assert _digest("\n".join(fits)) == "0d3e0414c5108a21"


# One shape of each kind the convert subcommand accepts, plus a non-convex polygon.
_CONVERT_INPUTS = [
    {"type": "hbb", "x": 3.0, "y": 4.0, "w": 6.0, "h": 12.0},
    {"type": "obb", "x": -1.5, "y": 2.0, "w": 3.0, "h": 0.7, "theta": 0.6},
    {"type": "gbb", "x": 0.5, "y": -0.25, "a": 2.0, "b": 0.5, "c": 0.0},
    {"type": "gbb", "x": 0.5, "y": -0.25, "a": 2.0, "b": 0.5, "c": 0.6},
    {"type": "ellipse", "x": 1.0, "y": 1.0, "semi_major": 2.0, "semi_minor": 0.5, "theta": 0.4},
    {"type": "ellipse", "x": 1.0, "y": 1.0, "semi_major": 2.0, "semi_minor": 0.5, "theta": 0.0},
    {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]},
]


def test_convert_golden(capsys):
    outs = [
        _cli(["convert", json.dumps(shape), target], capsys)
        for shape in _CONVERT_INPUTS
        for target in ("hbb", "obb", "gbb", "ellipse", "polygon")
    ]
    assert _digest("\n".join(outs)) == "9a6502d4639d7510"


def test_score_mixed_golden(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join(_mixed_pairs()) + "\n", encoding="utf-8")
    out = _cli(["score", str(pairs)], capsys)
    assert "zero cells" in out
    assert _digest(out) == "a23a8c88e5a343e4"


_REGRESS_SCHEDULE = {"omega1": 1.0, "omega2": 5.0, "switch_fraction": 0.5, "total_steps": 400}

# The README config, the period-2 oscillation from an oriented init, and one
# near-target fit in each additive update space (a step of 0.1 far from the
# target drives their variances through the floor).
_REGRESS_CONFIGS = [
    {"target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
     "init": {"type": "hbb", "x": 2, "y": 0, "w": 1, "h": 1},
     "schedule": _REGRESS_SCHEDULE,
     "optimizer": {"step_size": 0.1, "grad_clip": 10.0, "parametrization": "constrained5"}},
    {"target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
     "init": {"type": "obb", "x": 2, "y": 0.5, "w": 2, "h": 0.5, "theta": 0.4}},
    {"target": {"type": "hbb", "x": 1.0, "y": -2.0, "w": 2.1, "h": 1.1},
     "init": {"type": "hbb", "x": 1.4, "y": -2.3, "w": 1.4, "h": 1.6},
     "schedule": {**_REGRESS_SCHEDULE, "switch_fraction": 0.4},
     "optimizer": {"step_size": 0.02, "grad_clip": 10.0, "parametrization": "hbb4"}},
    {"target": {"type": "obb", "x": -3.0, "y": 0.5, "w": 2.0, "h": 1.0, "theta": 0.5},
     "init": {"type": "obb", "x": -2.7, "y": 0.7, "w": 1.5, "h": 1.2, "theta": -0.3},
     "schedule": {**_REGRESS_SCHEDULE, "switch_fraction": 0.6},
     "optimizer": {"step_size": 0.02, "grad_clip": 10.0, "parametrization": "angle5"}},
]


def test_regress_golden(tmp_path, capsys):
    # Trajectory CSV, summary JSON and exit code of every config, to the last bit.
    outs = []
    for i, cfg in enumerate(_REGRESS_CONFIGS):
        config = tmp_path / f"fit{i}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        trajectory = tmp_path / f"trajectory{i}.csv"
        outs.append(_cli(["regress", "--config", str(config), "--out", str(trajectory)], capsys))
        outs.append(trajectory.read_text(encoding="utf-8"))
    assert all('"aborted": null' in out for out in outs[::2])
    assert _digest("\n".join(outs)) == "40742cdbab95435a"


def test_regress_fit_bits_golden(tmp_path, capsys):
    # The same fits without the logged IoU column: the log never steers a
    # fit, so a change to how it is measured must leave these bits alone.
    outs = []
    for i, cfg in enumerate(_REGRESS_CONFIGS):
        config = tmp_path / f"fit{i}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        trajectory = tmp_path / f"trajectory{i}.csv"
        outs.append(_cli(["regress", "--config", str(config), "--out", str(trajectory)], capsys))
        rows = trajectory.read_text(encoding="utf-8").splitlines()
        outs.append("\n".join(row.rsplit(",", 1)[0] for row in rows))
    assert outs[1].startswith("step,loss,grad_norm,prob_iou\n")
    assert _digest("\n".join(outs)) == "c89ef64f9318687a"


def _theta_wraps(traj) -> bool:
    thetas = [gbb_to_angle_cov(s.params).theta for s in traj.steps]
    return any(abs(t1 - t0) > math.pi / 4 for t0, t1 in zip(thetas, thetas[1:]))


# Fit paths the configs above never reach.  Each config names its branch
# and comes with a check on its trajectory that the branch runs.
_BRANCH_CASES = [
    # A correlated target (c != 0) from a start whose ProbIoU rounds to 0,
    # under constrained5.
    ({"target": {"type": "gbb", "x": 0.5, "y": -0.5, "a": 1.0, "b": 0.4, "c": 0.45},
      "init": {"type": "hbb", "x": 6, "y": -4, "w": 1, "h": 1}},
     lambda traj: traj.steps[0].prob_iou < 1e-12 and traj.final().params.c != 0.0),
    # angle5 whose theta leaves [-pi/4, pi/4]: the update re-canonicalizes
    # it and swaps the axes.
    ({"target": {"type": "obb", "x": 0.0, "y": 0.0, "w": 2.0, "h": 1.0, "theta": 0.95},
      "init": {"type": "obb", "x": 0.2, "y": 0.1, "w": 1.8, "h": 1.1, "theta": 0.6},
      "optimizer": {"step_size": 0.02, "grad_clip": 10.0, "parametrization": "angle5"}},
     _theta_wraps),
    # hbb4 whose update drives a variance below VARIANCE_FLOOR, and the fit
    # goes on from the floor.
    ({"target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
      "init": {"type": "hbb", "x": 1.0, "y": 0, "w": 0.8, "h": 1.0},
      "optimizer": {"step_size": 0.05, "grad_clip": 10.0, "parametrization": "hbb4"}},
     lambda traj: traj.aborted is None
     and any(VARIANCE_FLOOR in (s.params.a, s.params.b) for s in traj.steps)),
    # An oversized step floors both variances: the next state is not
    # positive-definite and the fit aborts.
    ({"target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
      "init": {"type": "hbb", "x": 0, "y": 0, "w": 35, "h": 35},
      "schedule": {"total_steps": 100},
      "optimizer": {"step_size": 1e4, "grad_clip": 10.0, "parametrization": "hbb4"}},
     lambda traj: traj.aborted is not None),
    # init == target: the gradient is zero, and every L1 step meets the
    # singular chain factor.
    ({"target": {"type": "obb", "x": 1, "y": 2, "w": 3, "h": 1, "theta": 0.3},
      "init": {"type": "obb", "x": 1, "y": 2, "w": 3, "h": 1, "theta": 0.3}},
     lambda traj: all(s.grad_norm == 0.0 for s in traj.steps)),
]


def test_regress_fit_branches_golden(tmp_path, capsys):
    # Summary, exit code and trajectory without the logged IoU column, as
    # in test_regress_fit_bits_golden.
    outs = []
    for i, (cfg, branch_runs) in enumerate(_BRANCH_CASES):
        target = shape_to_gbb(parse_shape(cfg["target"]))
        init = shape_to_gbb(parse_shape(cfg["init"]))
        traj = fit_gbb(
            target, init, LossSchedule(**cfg.get("schedule", {})),
            OptimizerConfig(**cfg.get("optimizer", {})),
        )
        assert branch_runs(traj), f"config {i} misses its branch"
        config = tmp_path / f"fit{i}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        trajectory = tmp_path / f"trajectory{i}.csv"
        outs.append(_cli(["regress", "--config", str(config), "--out", str(trajectory)], capsys))
        rows = trajectory.read_text(encoding="utf-8").splitlines()
        outs.append("\n".join(row.rsplit(",", 1)[0] for row in rows))
    assert _digest("\n".join(outs)) == "2661d9d64e95483d"
