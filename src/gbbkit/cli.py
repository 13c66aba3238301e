"""gbbkit command line: convert, score, scatter, fidelity, regress.

JSON in, CSV/JSON out.  Shape JSON forms:

    {"type": "hbb", "x": .., "y": .., "w": .., "h": ..}
    {"type": "obb", "x": .., "y": .., "w": .., "h": .., "theta": ..}
    {"type": "gbb", "x": .., "y": .., "a": .., "b": .., "c": ..}
    {"type": "polygon", "vertices": [[x, y], ...]}
    {"type": "ellipse", "x": .., "y": .., "semi_major": .., "semi_minor": .., "theta": ..}

CSV output uses a header row, '.' decimals, and '\\n' line ends; identical
invocations (same seed) produce byte-identical files.  Exit codes: 0
success, 1 runtime error (I/O, empty results), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple

import numpy as np

from . import batch
from .annotations import SYNTHETIC_PRESETS, generate_synthetic, ingest_annotations
from .convert import (
    gbb_to_ellipse,
    mask_to_gbb,
    mask_to_hbb,
    mask_to_obb,
    shape_to_gbb,
    to_crisp,
    to_hbb,
    to_obb,
    to_polygon,
)
from .metrics import similarity
from .polygons import ellipse_intersection_area, is_simple, signed_area
# iou_raster has no caller here; perfbench's instrument test checks that
# patching it rebinds the name in cli.
from .raster import iou_between, iou_raster  # noqa: F401
from .regress import FitTrajectory, LossSchedule, OptimizerConfig, fit_gbb
from .types import Ellipse, GaussBox, Hbb, Obb, PolygonMask, require_valid_gbb

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# Cells along the larger extent at which perfbench's fidelity latency items
# time iou_raster.  `fidelity` itself never rasterizes.
FIDELITY_CELLS = 256

_SCATTER_DIM_EPS = 1e-6


class UsageError(ValueError):
    """Bad user input: maps to exit code 2."""


def _num(obj, key) -> float:
    try:
        v = float(obj[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"shape field {key!r} missing or not a number") from exc
    if not math.isfinite(v):
        raise UsageError(f"shape field {key!r} must be finite, got {v}")
    return v


# JSON keys of each flat shape type, in its dataclass field order.
_SHAPE_KEYS = {
    "hbb": (Hbb, ("x", "y", "w", "h")),
    "obb": (Obb, ("x", "y", "w", "h", "theta")),
    "gbb": (GaussBox, ("x", "y", "a", "b", "c")),
    "ellipse": (Ellipse, ("x", "y", "semi_major", "semi_minor", "theta")),
}


def parse_shape(obj):
    """Shape JSON object to a typed shape; raises UsageError on bad input."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise UsageError("shape must be a JSON object with a 'type' field")
    kind = obj["type"]
    try:
        if kind == "polygon":
            verts = obj.get("vertices")
            if not isinstance(verts, list):
                raise UsageError("polygon needs a 'vertices' list of [x, y] pairs")
            poly = PolygonMask(np.asarray(verts, dtype=float))
            if not is_simple(poly.vertices):
                raise UsageError("polygon edges cross; vertices must outline a simple polygon")
            return poly
        if isinstance(kind, str) and kind in _SHAPE_KEYS:
            cls, keys = _SHAPE_KEYS[kind]
            shape = cls(*(_num(obj, key) for key in keys))
            return require_valid_gbb(shape) if cls is GaussBox else shape
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown shape type {kind!r}")


def shape_to_json(shape) -> dict:
    if isinstance(shape, PolygonMask):
        return {"type": "polygon", "vertices": shape.vertices.tolist()}
    for kind, (cls, keys) in _SHAPE_KEYS.items():
        if isinstance(shape, cls):
            return {"type": kind, **dict(zip(keys, astuple(shape)))}
    raise TypeError(f"cannot serialize {type(shape).__name__}")


def convert_shape(shape, target: str):
    """Apply the conversion from a parsed shape to the named representation."""
    if target == "gbb":
        return shape_to_gbb(shape)
    if target == "ellipse":
        return gbb_to_ellipse(shape_to_gbb(shape))
    if target == "obb":
        return to_obb(shape)
    if target == "hbb":
        return to_hbb(shape)
    if target == "polygon":
        return to_polygon(shape)
    raise UsageError(f"unknown target representation {target!r}")


def _fmt(v) -> str:
    return repr(float(v))


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_csv(path: str | None, header: list[str], rows) -> None:
    out, close = _open_out(path)
    try:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    text = sys.stdin.read() if args.shape == "-" else args.shape
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"shape is not valid JSON: {exc}") from exc
    result = convert_shape(parse_shape(obj), args.target)
    out, close = _open_out(args.out)
    try:
        json.dump(shape_to_json(result), out)
        out.write("\n")
    finally:
        if close:
            out.close()
    return EXIT_OK


def _positive_int(text: str) -> int:
    """--n: an integer >= 1, checked before any work is done."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _cell_size(text: str) -> float:
    """--cell-size: a positive finite float, checked before any input is read."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _parse_pair(line: str):
    obj = json.loads(line)
    if isinstance(obj, list) and len(obj) == 2:
        return parse_shape(obj[0]), parse_shape(obj[1])
    if isinstance(obj, dict) and "a" in obj and "b" in obj:
        return parse_shape(obj["a"]), parse_shape(obj["b"])
    raise UsageError("each line must be a [shape, shape] array or {'a':…, 'b':…}")


def cmd_score(args) -> int:
    try:
        with open(args.pairs, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    rows = []
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            shape_a, shape_b = _parse_pair(line)
            report = similarity(shape_to_gbb(shape_a), shape_to_gbb(shape_b))
            iou = iou_between(to_crisp(shape_a), to_crisp(shape_b), args.cell_size)
        except ValueError as exc:
            print(f"line {lineno}: skipped ({exc})", file=sys.stderr)
            skipped += 1
            continue
        values = dict(
            b_d=report.b_d, b_c=report.b_c, h_d=report.h_d, prob_iou=report.prob_iou, iou=iou
        )
        bad = [name for name, v in values.items() if not math.isfinite(v)]
        if bad:
            print(f"line {lineno}: skipped (non-finite {', '.join(bad)})", file=sys.stderr)
            skipped += 1
            continue
        rows.append([_fmt(v) for v in values.values()])
    _write_csv(args.out, ["b_d", "b_c", "h_d", "prob_iou", "iou"], rows)
    print(f"scored {len(rows)} pairs, skipped {skipped}", file=sys.stderr)
    return EXIT_OK


def _sample_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random boxes: centers uniform on [0, 1], dimensions on (eps, 1]."""
    u = rng.random((n, 4))
    u[:, 2:] = 1.0 - (1.0 - _SCATTER_DIM_EPS) * u[:, 2:]
    return u


def cmd_scatter(args) -> int:
    rng = np.random.default_rng(args.seed)
    boxes_a = _sample_boxes(rng, args.n)
    boxes_b = _sample_boxes(rng, args.n)
    iou = batch.iou_hbb_pairs(boxes_a, boxes_b)
    if args.mode == "gbb":
        prob_iou = batch.prob_iou_pairs(batch.gbb_from_hbb(boxes_a), batch.gbb_from_hbb(boxes_b))
    else:
        prob_iou = batch.mask_prob_iou_pairs(batch.rect_mask_bc_pairs(boxes_a, boxes_b))
    rows = ([_fmt(i), _fmt(p), args.mode] for i, p in zip(iou, prob_iou))
    _write_csv(args.out, ["iou", "prob_iou", "mode"], rows)
    return EXIT_OK


def _fidelity_ious(poly: PolygonMask) -> tuple[float, float, float]:
    """Exact IoU of the polygon with its hbb, obb and moment-matched ellipse.

    Both boxes contain the polygon by construction (tight bounds, and the
    minimum-area rectangle of its hull), so each box's exact IoU is the
    ratio of the smaller area to the larger.  The polygon's area is taken
    relative to its least corner, so an axis-aligned rectangle's equals its
    hbb's w * h exactly; in absolute coordinates the shoelace rounds it.
    """
    hbb, obb = mask_to_hbb(poly), mask_to_obb(poly)
    ellipse = gbb_to_ellipse(mask_to_gbb(poly))
    v = poly.vertices
    area = signed_area(v - v.min(axis=0))
    a, b = ellipse.semi_major, ellipse.semi_minor
    inter = ellipse_intersection_area(v, ellipse.x0, ellipse.y0, a, b, ellipse.theta)
    ellipse_area = math.pi * a * b
    box_ious = (min(area, box.w * box.h) / max(area, box.w * box.h) for box in (hbb, obb))
    return (*box_ious, inter / (area + ellipse_area - inter))


def cmd_fidelity(args) -> int:
    if args.annotations is not None:
        try:
            result = ingest_annotations(args.annotations)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        records = result.records
        if result.skipped_multipart or result.skipped_malformed:
            print(
                f"skipped {result.skipped_multipart} multi-part and "
                f"{result.skipped_malformed} malformed annotations",
                file=sys.stderr,
            )
    else:
        records = generate_synthetic(args.synthetic, args.n, args.seed)
    if not records:
        print("error: no usable annotations", file=sys.stderr)
        return EXIT_RUNTIME

    # One row of (hbb, obb, ellipse) IoUs per record, in CSV column order.
    ious = np.array([_fidelity_ious(rec.polygon) for rec in records])
    categories = np.array([rec.category for rec in records], dtype=object)

    def median_row(category: str, part: np.ndarray) -> list[str]:
        return [category, *(_fmt(m) for m in np.median(part, axis=0)), str(len(part))]

    rows = [median_row(name, ious[categories == name]) for name in sorted(set(categories))]
    rows.append(median_row("overall", ious))
    _write_csv(
        args.out,
        ["category", "median_iou_hbb", "median_iou_obb", "median_iou_ellipse", "count"],
        rows,
    )
    return EXIT_OK


def _config_section(cfg: dict, key: str, cls, allowed: tuple[str, ...]):
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise UsageError(f"config field {key!r} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise UsageError(f"config field {key!r} has unknown keys: {sorted(unknown)}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config field {key!r}: {exc}") from exc


def _regress_summary(traj: FitTrajectory) -> dict:
    prob = [s.prob_iou for s in traj.steps]
    steps_to_09 = next((i for i, v in enumerate(prob) if v >= 0.9), None)
    stalled = None
    if all(s.grad_norm < 1e-8 for s in traj.steps) and traj.steps[-1].prob_iou < 0.9:
        stalled = "stalled: gradient underflow"
    return {
        "final_prob_iou": traj.steps[-1].prob_iou,
        "steps_to_0_9": steps_to_09,
        "stalled": stalled,
        "aborted": traj.aborted,
    }


def cmd_regress(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict) or "target" not in cfg or "init" not in cfg:
        raise UsageError("config must be an object with 'target' and 'init' shapes")
    unknown = set(cfg) - {"target", "init", "schedule", "optimizer"}
    if unknown:
        raise UsageError(f"config has unknown keys: {sorted(unknown)}")

    target = shape_to_gbb(parse_shape(cfg["target"]))
    init = shape_to_gbb(parse_shape(cfg["init"]))
    schedule = _config_section(
        cfg, "schedule", LossSchedule, ("omega1", "omega2", "switch_fraction", "total_steps")
    )
    opt = _config_section(
        cfg, "optimizer", OptimizerConfig, ("step_size", "grad_clip", "parametrization")
    )

    traj = fit_gbb(target, init, schedule, opt)
    rows = (
        [str(i), _fmt(s.loss), _fmt(s.grad_norm), _fmt(s.prob_iou), _fmt(s.iou)]
        for i, s in enumerate(traj.steps)
    )
    _write_csv(args.out, ["step", "loss", "grad_norm", "prob_iou", "iou"], rows)
    json.dump(_regress_summary(traj), sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbbkit",
        description="Gaussian bounding boxes: conversions, overlap scores, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert one shape between representations")
    p.add_argument("shape", help="shape JSON (or '-' to read stdin)")
    p.add_argument("target", choices=["hbb", "obb", "gbb", "ellipse", "polygon"])
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("score", help="score JSON-lines shape pairs to CSV")
    p.add_argument("pairs", help="JSON-lines file, one shape pair per line")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument(
        "--cell-size", type=_cell_size, help="raster cell size for pairs with an ellipse"
    )
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("scatter", help="random-box IoU vs ProbIoU scatter CSV")
    p.add_argument("--n", type=_positive_int, default=100000, help="number of box pairs")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mode", choices=["gbb", "uniform_mask"], default="gbb")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("fidelity", help="representation-fidelity medians per category")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--annotations", help="COCO-style annotation JSON path")
    src.add_argument(
        "--synthetic",
        choices=list(SYNTHETIC_PRESETS),
        default="default",
        help="synthetic corpus preset (used when --annotations is absent)",
    )
    p.add_argument(
        "--n", type=_positive_int, default=1000, help="synthetic shapes per category"
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("regress", help="run a two-stage fit from a JSON config")
    p.add_argument("--config", required=True, help="fit configuration JSON path")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_regress)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
