"""gbbkit command line: convert, score, scatter, fidelity, regress.

JSON in, CSV/JSON out.  Shape JSON forms:

    {"type": "hbb", "x": .., "y": .., "w": .., "h": ..}
    {"type": "obb", "x": .., "y": .., "w": .., "h": .., "theta": ..}
    {"type": "gbb", "x": .., "y": .., "a": .., "b": .., "c": ..}
    {"type": "polygon", "vertices": [[x, y], ...]}
    {"type": "ellipse", "x": .., "y": .., "semi_major": .., "semi_minor": .., "theta": ..}

CSV output uses a header row, '.' decimals, '\\n' line ends, and quotes
only the fields that need it (RFC 4180); identical invocations (same seed)
produce byte-identical files.  Exit codes: 0 success, 1 runtime error
(I/O, empty results), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np

from . import batch
from .annotations import (
    AGGREGATE_CATEGORY,
    SYNTHETIC_PRESETS,
    _all_numbers,
    _is_number,
    generate_synthetic,
    ingest_annotations,
)
from .convert import gbb_to_ellipse, shape_to_gbb, to_crisp, to_hbb, to_obb, to_polygon
from .metrics import fidelity_ious, similarity
from .polygons import is_simple
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

# Pairs `scatter` draws, scores and writes at a time, so its memory does not
# grow with --n.  A multiple of 8 (the AVX-512 double width): numpy's SIMD
# loops then see every row at the position a whole-array call gives it, and
# give it the same bits.
_SCATTER_CHUNK = 8192

# Box pairs `score` scores in one batch.iou_obb_pairs call.  The kernel's
# temporaries take under 1 KB a row (tracemalloc), so a block's peak stays
# near 0.1 MB.
_SCORE_BOX_BLOCK = 128


class UsageError(ValueError):
    """Bad user input: maps to exit code 2."""


def _num(obj, key) -> float:
    value = obj.get(key)
    if not _is_number(value):
        raise UsageError(f"shape field {key!r} missing or not a number")
    try:
        v = float(value)
    except OverflowError as exc:
        raise UsageError(f"shape field {key!r} is an integer beyond the float range") from exc
    if not math.isfinite(v):
        raise UsageError(f"shape field {key!r} must be finite, got {v}")
    return v


def _vertices(verts) -> np.ndarray:
    """The (n, 2) array of a JSON list of [x, y] number pairs."""
    if not (isinstance(verts, list) and all(isinstance(p, list) and len(p) == 2 for p in verts)):
        raise UsageError("polygon needs a 'vertices' list of [x, y] pairs")
    if not _all_numbers([c for pair in verts for c in pair]):
        i, j = next((i, j) for i, p in enumerate(verts) for j in (0, 1) if not _is_number(p[j]))
        raise UsageError(f"shape field 'vertices[{i}][{j}]' is not a number")
    try:
        return np.array(verts, dtype=float)
    except OverflowError as exc:
        raise UsageError("polygon vertices hold an integer beyond the float range") from exc


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
            # Crossing edges first: their net area can look like a clockwise outline.
            verts = _vertices(obj.get("vertices"))
            if len(verts) >= 3 and np.isfinite(verts).all() and not is_simple(verts):
                raise UsageError("polygon edges cross; vertices must outline a simple polygon")
            return PolygonMask(verts)
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
    """The parsed shape in the named representation; an invalid Gaussian raises ValueError."""
    if target == "gbb":
        return require_valid_gbb(shape_to_gbb(shape))
    if target == "ellipse":
        return gbb_to_ellipse(shape_to_gbb(shape))
    if target == "obb":
        return to_obb(shape)
    if target == "hbb":
        return to_hbb(shape)
    if target == "polygon":
        return to_polygon(shape)
    raise UsageError(f"unknown target representation {target!r}")


def _csv_field(text: str) -> str:
    # RFC 4180 quoting.  csv.writer would take a 128 KB record buffer, the
    # largest allocation of a fidelity job.
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@contextmanager
def _output(path: str | None):
    """The output stream: stdout for None or '-', else the file, closed after."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as out:
            yield out


def _write_lines(path: str | None, header: list[str], lines) -> None:
    """The CSV header, then each item of `lines`: already formatted text of
    one or more whole, newline-ended lines."""
    with _output(path) as out:
        out.write(",".join(header) + "\n")
        out.writelines(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    text = sys.stdin.read() if args.shape == "-" else args.shape
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"shape is not valid JSON: {exc}") from exc
    with np.errstate(all="ignore"):
        result = convert_shape(parse_shape(obj), args.target)
    with _output(args.out) as out:
        json.dump(shape_to_json(result), out)
        out.write("\n")
    return EXIT_OK


def _checked(parse, ok, message: str):
    """An argparse type: parse(text) when it parses and passes ok, else
    ArgumentTypeError(message), with {text!r} filled in.  Checked before any
    work is done."""

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(message.format(text=text))
        return value

    return check


_positive_int = _checked(int, lambda v: v >= 1, "must be a positive integer")
_seed = _checked(int, lambda v: v >= 0, "must be a non-negative integer")
_cell_size = _checked(
    float, lambda v: math.isfinite(v) and v > 0.0, "must be a positive finite number, got {text!r}"
)


def _parse_pair(line: str):
    obj = json.loads(line)
    if isinstance(obj, list) and len(obj) == 2:
        return parse_shape(obj[0]), parse_shape(obj[1])
    if isinstance(obj, dict) and "a" in obj and "b" in obj:
        return parse_shape(obj["a"]), parse_shape(obj["b"])
    raise UsageError("each line must be a [shape, shape] array or {'a':…, 'b':…}")


_SCORE_HEADER = ["b_d", "b_c", "h_d", "prob_iou", "iou"]


def _box_row(shape: Hbb | Obb) -> tuple[float, ...]:
    """(x, y, w, h, theta) of a box, an hbb at theta 0 as convert.to_obb has it."""
    theta = shape.theta if isinstance(shape, Obb) else 0.0
    return shape.x0, shape.y0, shape.w, shape.h, theta


def _iou_or_reason(a, b, cell_size) -> float | str:
    """iou_between of the pair's crisp shapes, or the reason it raised."""
    try:
        return iou_between(to_crisp(a), to_crisp(b), cell_size)
    except ValueError as exc:
        return str(exc)


def _score_outcome(lineno: int, values: tuple, iou: float | str) -> tuple[str | None, str | None]:
    """A line's (CSV row, None), or (None, skip line) when its iou is a
    failure reason or a value is not finite."""
    if isinstance(iou, str):
        return None, f"line {lineno}: skipped ({iou})\n"
    values = (*values, iou)
    bad = [name for name, v in zip(_SCORE_HEADER, values) if not math.isfinite(v)]
    if bad:
        return None, f"line {lineno}: skipped (non-finite {', '.join(bad)})\n"
    return ",".join(map(repr, values)) + "\n", None


def cmd_score(args) -> int:
    # One slot per line in each list, the other left None.  A pair of two
    # boxes (not two hbbs, which iou_hbb scores faster) fills its slots once
    # its block has been through the exact box kernel.
    rows: list[str | None] = []
    skips: list[str | None] = []
    queued: list[tuple] = []  # (slot, line number, the four Gaussian values)
    boxes = np.empty((_SCORE_BOX_BLOCK, 2, 5))

    def flush():
        ious = batch.iou_obb_pairs(boxes[: len(queued), 0], boxes[: len(queued), 1])
        for (slot, lineno, values), iou, (a, b) in zip(queued, ious.tolist(), boxes.tolist()):
            if math.isnan(iou):
                # The scalar route raises on this pair or scores it non-finite;
                # an hbb as its theta-0 obb has the same corners there.
                iou = _iou_or_reason(Obb(*a), Obb(*b), args.cell_size)
            rows[slot], skips[slot] = _score_outcome(lineno, values, iou)
        queued.clear()

    # Overflow far from the origin shows as a skip line's reason, not as
    # numpy warnings on stderr.
    with open(args.pairs, encoding="utf-8-sig") as fh, np.errstate(all="ignore"):
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                shape_a, shape_b = _parse_pair(line)
                report = similarity(shape_to_gbb(shape_a), shape_to_gbb(shape_b))
            except ValueError as exc:
                outcome = _score_outcome(lineno, (), str(exc))
            else:
                values = (report.b_d, report.b_c, report.h_d, report.prob_iou)
                kinds = {type(shape_a), type(shape_b)}
                if kinds <= {Hbb, Obb} and kinds != {Hbb}:
                    boxes[len(queued)] = _box_row(shape_a), _box_row(shape_b)
                    queued.append((len(rows), lineno, values))
                    outcome = None, None
                else:
                    iou = _iou_or_reason(shape_a, shape_b, args.cell_size)
                    outcome = _score_outcome(lineno, values, iou)
            rows.append(outcome[0])
            skips.append(outcome[1])
            if len(queued) == _SCORE_BOX_BLOCK:
                flush()
        if queued:
            flush()
    # Skip lines go out once the whole input has been read, so an
    # undecodable byte stops the command before it reports any line.
    skips = [line for line in skips if line is not None]
    rows = [row for row in rows if row is not None]
    sys.stderr.writelines(skips)
    _write_lines(args.out, _SCORE_HEADER, rows)
    print(f"scored {len(rows)} pairs, skipped {len(skips)}", file=sys.stderr)
    return EXIT_OK


def _sample_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random boxes: centers uniform on [0, 1], dimensions on (eps, 1]."""
    u = rng.random((n, 4))
    u[:, 2:] = 1.0 - (1.0 - _SCATTER_DIM_EPS) * u[:, 2:]
    return u


def cmd_scatter(args) -> int:
    n, mode = args.n, args.mode
    # The pairs are those of one whole-array draw: n boxes a, then n boxes b,
    # from default_rng(seed).  Generator.random takes one 64-bit output per
    # double, so a second generator advanced past a's 4n outputs draws b's
    # values chunk by chunk, while the first draws a's.
    rng_a = np.random.default_rng(args.seed)
    rng_b = np.random.Generator(np.random.PCG64(args.seed).advance(4 * n))

    def chunks():
        for start in range(0, n, _SCATTER_CHUNK):
            size = min(_SCATTER_CHUNK, n - start)
            boxes_a = _sample_boxes(rng_a, size)
            boxes_b = _sample_boxes(rng_b, size)
            iou = batch.iou_hbb_pairs(boxes_a, boxes_b)
            if mode == "gbb":
                prob_iou = batch.prob_iou_pairs(
                    batch.gbb_from_hbb(boxes_a), batch.gbb_from_hbb(boxes_b)
                )
            else:
                prob_iou = batch.mask_prob_iou_pairs(batch.rect_mask_bc_pairs(boxes_a, boxes_b))
            # repr of Python floats, without a numpy scalar per value; one
            # string per chunk, so the file takes one write per chunk.
            yield "".join(
                [f"{i!r},{p!r},{mode}\n" for i, p in zip(iou.tolist(), prob_iou.tolist())]
            )

    _write_lines(args.out, ["iou", "prob_iou", "mode"], chunks())
    return EXIT_OK


def cmd_fidelity(args) -> int:
    if args.annotations is not None:
        # --n and --seed draw the synthetic corpus; a file has no use for them.
        for flag, value in (("--n", args.n), ("--seed", args.seed)):
            if value is not None:
                raise UsageError(f"argument {flag}: not allowed with argument --annotations")
        result = ingest_annotations(args.annotations)
        records = result.records
        if result.skipped_multipart or result.skipped_malformed:
            print(
                f"skipped {result.skipped_multipart} multi-part and "
                f"{result.skipped_malformed} malformed annotations",
                file=sys.stderr,
            )
    else:
        # Without the flags: 1000 shapes per category, seed 7.
        seed = 7 if args.seed is None else args.seed
        records = generate_synthetic(args.synthetic, args.n or 1000, seed)
    if not records:
        print("error: no usable annotations", file=sys.stderr)
        return EXIT_RUNTIME

    # One row of (hbb, obb, ellipse) IoUs per record, in CSV column order.
    ious = fidelity_ious([rec.polygon for rec in records])
    categories = np.array([rec.category for rec in records], dtype=object)

    def median_row(category: str, part: np.ndarray) -> str:
        hbb, obb, ellipse = np.median(part, axis=0).tolist()
        return f"{_csv_field(category)},{hbb!r},{obb!r},{ellipse!r},{len(part)}\n"

    rows = [median_row(name, ious[categories == name]) for name in sorted(set(categories))]
    rows.append(median_row(AGGREGATE_CATEGORY, ious))
    _write_lines(
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
    prob = traj.prob_iou.tolist()
    stalled = (traj.grad_norm < 1e-8).all() and prob[-1] < 0.9
    return {
        "final_prob_iou": prob[-1],
        "steps_to_0_9": next((i for i, v in enumerate(prob) if v >= 0.9), None),
        "stalled": "stalled: gradient underflow" if stalled else None,
        "aborted": traj.aborted,
    }


def cmd_regress(args) -> int:
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
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
    # tolist gives Python floats, whose repr is the CSV's text.
    columns = (traj.loss, traj.grad_norm, traj.prob_iou, traj.iou)
    rows = enumerate(zip(*(c.tolist() for c in columns)))
    lines = (f"{i},{loss!r},{norm!r},{prob!r},{iou!r}\n" for i, (loss, norm, prob, iou) in rows)
    _write_lines(args.out, ["step", "loss", "grad_norm", "prob_iou", "iou"], lines)
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

    p = sub.add_parser("score", help="score JSON-lines shape pairs to CSV")
    p.add_argument("pairs", help="JSON-lines file, one shape pair per line")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument(
        "--cell-size", type=_cell_size, help="raster cell size for pairs with an ellipse"
    )

    p = sub.add_parser("scatter", help="random-box IoU vs ProbIoU scatter CSV")
    p.add_argument("--n", type=_positive_int, default=100000, help="number of box pairs")
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--mode", choices=["gbb", "uniform_mask"], default="gbb")
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("fidelity", help="representation-fidelity medians per category")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--annotations", help="COCO-style annotation JSON path")
    src.add_argument(
        "--synthetic",
        choices=list(SYNTHETIC_PRESETS),
        default="default",
        help="synthetic corpus preset (used when --annotations is absent)",
    )
    p.add_argument("--n", type=_positive_int, help="synthetic shapes per category")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("regress", help="run a two-stage fit from a JSON config")
    p.add_argument("--config", required=True, help="fit configuration JSON path")
    p.add_argument("--out", required=True, help="trajectory CSV path")

    return parser


# The parser, built by the first main call and reused by later ones.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # Looked up at call time, so a rebound cmd_* (a wrapper) is the one called.
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
