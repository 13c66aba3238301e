"""Annotation ingestion and synthetic shape corpora.

Reads a small slice of COCO-style instance files: image ids, category
names, and single-polygon segmentations.  Multi-part segmentations (mostly
occlusion splits) are skipped and counted, as are malformed entries.
Synthetic corpora provide seeded rotated ellipses, rectangles, and capsules
so representation-fidelity studies run without any dataset download.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .convert import mask_to_gbb
from .polygons import _box_corners, _cos_sin, _placed, is_simple, signed_area
from .types import PolygonMask

logger = logging.getLogger(__name__)

SYNTHETIC_PRESETS = ("default", "ellipses", "axis-rect")

# The name of the fidelity table's row over all categories, which no
# annotation category may take.
AGGREGATE_CATEGORY = "overall"


@dataclass(frozen=True)
class AnnotationRecord:
    """One usable annotation: image id, category name, simple polygon."""

    image_id: str
    category: str
    polygon: PolygonMask


@dataclass(frozen=True)
class IngestResult:
    """Parsed records plus counts of everything that was skipped."""

    records: list[AnnotationRecord]
    skipped_multipart: int = 0
    skipped_malformed: int = 0


def _is_number(value) -> bool:
    """True for an int or a float (a numpy float64 too), but not a bool.

    The test for a JSON number, as opposed to true, false or a string: a
    JSON true or false loads as a bool, which is an int.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _all_numbers(values: list) -> bool:
    """_is_number of every value, tested once per distinct type.

    The test depends on the type alone, so on a long coordinate list this
    costs a fraction of a test per value.
    """
    return all(map(_is_number, dict(zip(map(type, values), values)).values()))


def _polygon_from_flat(coords) -> PolygonMask:
    if not isinstance(coords, list) or not _all_numbers(coords):
        raise ValueError("segmentation coordinates must be JSON numbers")
    pts = np.asarray(coords, dtype=float)
    if len(pts) < 6 or len(pts) % 2 != 0 or not np.all(np.isfinite(pts)):
        raise ValueError("segmentation must be a flat list of >= 3 finite coordinate pairs")
    verts = pts.reshape(-1, 2)
    # Normalize orientation; image-coordinate polygons usually come clockwise.
    if signed_area(verts) < 0:
        verts = verts[::-1]
    if not is_simple(verts):
        raise ValueError("segmentation edges cross; the polygon is not simple")
    polygon = PolygonMask(verts)
    mask_to_gbb(polygon)  # raises when no valid Gaussian matches its moments
    return polygon


def ingest_annotations(path: str) -> IngestResult:
    """Parse a COCO-style annotation file into usable polygon records.

    Only images[].id, categories[].id/name, and annotations[] with
    image_id, category_id, and a single-polygon segmentation are read.
    Raises OSError when the file cannot be read and ValueError when it is
    not valid JSON of the expected shape (annotations or categories that
    are not an array among them), when a category entry is not an object or
    its id is an array, an object or a boolean, when two categories share an
    id under different names, or when an annotation's category is named
    AGGREGATE_CATEGORY; individually malformed annotations (a category_id
    that is an array, an object or a boolean, or a polygon whose moments
    match no valid Gaussian, among them) are skipped and counted instead.
    """
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "annotations" not in doc:
        raise ValueError(f"{path}: expected an object with an 'annotations' list")
    for field in ("annotations", "categories"):
        if not isinstance(doc.get(field, []), list):
            raise ValueError(f"{path}: field {field!r} must be a JSON array")

    categories = {}
    first_index = {}
    for index, cat in enumerate(doc.get("categories", [])):
        if not isinstance(cat, dict):
            raise ValueError(f"{path}: categories[{index}] must be a JSON object")
        cat_id = cat.get("id")
        kind = {list: "array", dict: "object", bool: "boolean"}.get(type(cat_id))
        if kind:
            raise ValueError(
                f"{path}: categories[{index}].id must be a number or a string, not a JSON {kind}"
            )
        name = str(cat.get("name", cat_id))
        first = first_index.setdefault(cat_id, index)
        if categories.setdefault(cat_id, name) != name:
            raise ValueError(
                f"{path}: categories[{first}] and categories[{index}] share id {cat_id!r} "
                f"but are named {categories[cat_id]!r} and {name!r}"
            )

    records: list[AnnotationRecord] = []
    skipped_multipart = 0
    skipped_malformed = 0
    for ann in doc["annotations"]:
        if not isinstance(ann, dict):
            skipped_malformed += 1
            continue
        seg = ann.get("segmentation")
        if not isinstance(seg, list) or not seg:
            skipped_malformed += 1
            continue
        if len(seg) > 1:
            skipped_multipart += 1
            continue
        category_id = ann.get("category_id")
        if isinstance(category_id, (list, dict, bool)):  # no category can have it
            skipped_malformed += 1
            continue
        try:
            with np.errstate(all="ignore"):
                polygon = _polygon_from_flat(seg[0])
        except (ValueError, TypeError, OverflowError):
            skipped_malformed += 1
            continue
        category = categories.get(category_id, str(category_id))
        if category == AGGREGATE_CATEGORY:
            raise ValueError(
                f"{path}: category name {AGGREGATE_CATEGORY!r} is reserved for the aggregate row"
            )
        records.append(
            AnnotationRecord(
                image_id=str(ann.get("image_id", "")), category=category, polygon=polygon
            )
        )

    if skipped_multipart or skipped_malformed:
        logger.info(
            "%s: %d records, skipped %d multi-part and %d malformed annotations",
            path,
            len(records),
            skipped_multipart,
            skipped_malformed,
        )
    return IngestResult(records, skipped_multipart, skipped_malformed)


_ELLIPSE_SEGMENTS = 64
_CAP_SEGMENTS = 16

# Records whose vertices generate_synthetic builds in one stack.
_SYNTHETIC_CHUNK = 64

# Unit-circle samples of an ellipse outline, and of a capsule's right then
# left cap, with the side of the center each cap lies on.  Each cos and sin
# is taken over the array a lone outline once took it over.
_PHI = np.linspace(0.0, 2.0 * math.pi, _ELLIPSE_SEGMENTS, endpoint=False)
_CIRCLE = np.cos(_PHI), np.sin(_PHI)
_CAPS = (
    np.linspace(-math.pi / 2.0, math.pi / 2.0, _CAP_SEGMENTS + 1),
    np.linspace(math.pi / 2.0, 3.0 * math.pi / 2.0, _CAP_SEGMENTS + 1),
)
_CAP_COS = np.concatenate([np.cos(cap) for cap in _CAPS])
_CAP_SIN = np.concatenate([np.sin(cap) for cap in _CAPS])
_CAP_SIDE = np.repeat([1.0, -1.0], _CAP_SEGMENTS + 1)


def _ellipse_vertices(cx, cy, semi_major, semi_minor, theta) -> np.ndarray:
    c, s = (a[:, None] for a in _cos_sin(theta))
    ex = semi_major[:, None] * _CIRCLE[0]
    ey = semi_minor[:, None] * _CIRCLE[1]
    return np.stack((cx[:, None] + ex * c - ey * s, cy[:, None] + ex * s + ey * c), axis=-1)


def _capsule_vertices(cx, cy, length, radius, theta) -> np.ndarray:
    """Stadium shapes: rectangles with semicircular caps on the short ends."""
    half, r = (length / 2.0 - radius)[:, None], radius[:, None]
    local = np.stack((_CAP_SIDE * half + r * _CAP_COS, r * _CAP_SIN), axis=-1)
    return _placed(local, cx, cy, theta)


def generate_synthetic(
    preset: str = "default", n_per_category: int = 1000, seed: int = 7
) -> list[AnnotationRecord]:
    """Seeded synthetic corpus of labelled polygon annotations.

    Presets: "default" (rotated ellipses, rectangles, and capsules),
    "ellipses" (eccentric rotated ellipses only), and "axis-rect"
    (axis-aligned rectangles, which horizontal boxes fit exactly).

    Each record draws its center, size, aspect ratio and angle in turn, one
    scalar at a time.  The outlines are then built _SYNTHETIC_CHUNK records
    at a time, elementwise and with one rotation product per record.
    """
    if preset not in SYNTHETIC_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose one of {SYNTHETIC_PRESETS}")
    if n_per_category < 1:
        raise ValueError("n_per_category must be positive")
    rng = np.random.default_rng(seed)
    records: list[AnnotationRecord] = []
    angle = (-math.pi / 2.0, math.pi / 2.0)

    def draw(*ranges) -> np.ndarray:
        # One row per parameter: center x and y, then the given ranges.
        ranges = ((0.0, 10.0), (0.0, 10.0), *ranges)
        draws = [[rng.uniform(lo, hi) for lo, hi in ranges] for _ in range(n_per_category)]
        return np.array(draws).T

    def add(kind: str, build, *params: np.ndarray) -> None:
        for r0 in range(0, n_per_category, _SYNTHETIC_CHUNK):
            verts = build(*(p[r0 : r0 + _SYNTHETIC_CHUNK] for p in params))
            records.extend(
                AnnotationRecord(f"synthetic-{kind}-{i}", kind, PolygonMask(v))
                for i, v in enumerate(verts, r0)
            )

    if preset in ("default", "ellipses"):
        cx, cy, semi_major, ratio, theta = draw((1.0, 3.0), (0.25, 0.6), angle)
        add("ellipse", _ellipse_vertices, cx, cy, semi_major, semi_major * ratio, theta)
    if preset == "default":
        cx, cy, w, ratio, theta = draw((1.0, 4.0), (0.3, 0.8), angle)
        add("rectangle", _box_corners, cx, cy, w, w * ratio, theta)
        cx, cy, length, ratio, theta = draw((2.0, 5.0), (0.12, 0.3), angle)
        add("capsule", _capsule_vertices, cx, cy, length, length * ratio, theta)
    if preset == "axis-rect":
        cx, cy, w, ratio = draw((1.0, 4.0), (0.3, 0.8))
        add("axis-rect", _box_corners, cx, cy, w, w * ratio, np.zeros(n_per_category))
    return records


__all__ = [
    "SYNTHETIC_PRESETS",
    "AGGREGATE_CATEGORY",
    "AnnotationRecord",
    "IngestResult",
    "ingest_annotations",
    "generate_synthetic",
]
