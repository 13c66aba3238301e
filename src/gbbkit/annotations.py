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

from .convert import obb_corners
from .polygons import is_simple, signed_area
from .types import Obb, PolygonMask

logger = logging.getLogger(__name__)

SYNTHETIC_PRESETS = ("default", "ellipses", "axis-rect")

# The name of the fidelity table's row over all categories, which no
# annotation category may take.
AGGREGATE_CATEGORY = "overall"

_ELLIPSE_SEGMENTS = 64
_CAP_SEGMENTS = 16


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
    return PolygonMask(verts)


def ingest_annotations(path: str) -> IngestResult:
    """Parse a COCO-style annotation file into usable polygon records.

    Only images[].id, categories[].id/name, and annotations[] with
    image_id, category_id, and a single-polygon segmentation are read.
    Raises OSError when the file cannot be read and ValueError when it is
    not valid JSON of the expected shape, or when an annotation's category
    is named AGGREGATE_CATEGORY; individually malformed annotations are
    skipped and counted instead.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "annotations" not in doc:
        raise ValueError(f"{path}: expected an object with an 'annotations' list")

    categories = {
        cat.get("id"): str(cat.get("name", cat.get("id")))
        for cat in doc.get("categories", [])
        if isinstance(cat, dict)
    }

    records: list[AnnotationRecord] = []
    skipped_multipart = 0
    skipped_malformed = 0
    for ann in doc.get("annotations", []):
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
        try:
            polygon = _polygon_from_flat(seg[0])
        except (ValueError, TypeError, OverflowError):
            skipped_malformed += 1
            continue
        category = categories.get(ann.get("category_id"), str(ann.get("category_id")))
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


def _ellipse_polygon(cx, cy, semi_major, semi_minor, theta, segments=_ELLIPSE_SEGMENTS):
    phi = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    c, s = math.cos(theta), math.sin(theta)
    ex = semi_major * np.cos(phi)
    ey = semi_minor * np.sin(phi)
    return PolygonMask(np.column_stack([cx + ex * c - ey * s, cy + ex * s + ey * c]))


def _capsule_polygon(cx, cy, length, radius, theta, segments=_CAP_SEGMENTS):
    """Stadium shape: a rectangle with semicircular caps on the short ends."""
    half = length / 2.0 - radius
    right = np.linspace(-math.pi / 2.0, math.pi / 2.0, segments + 1)
    left = np.linspace(math.pi / 2.0, 3.0 * math.pi / 2.0, segments + 1)
    pts = np.concatenate(
        [
            np.column_stack([half + radius * np.cos(right), radius * np.sin(right)]),
            np.column_stack([-half + radius * np.cos(left), radius * np.sin(left)]),
        ]
    )
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return PolygonMask(pts @ rot.T + np.array([cx, cy]))


def generate_synthetic(
    preset: str = "default", n_per_category: int = 1000, seed: int = 7
) -> list[AnnotationRecord]:
    """Seeded synthetic corpus of labelled polygon annotations.

    Presets: "default" (rotated ellipses, rectangles, and capsules),
    "ellipses" (eccentric rotated ellipses only), and "axis-rect"
    (axis-aligned rectangles, which horizontal boxes fit exactly).
    """
    if preset not in SYNTHETIC_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose one of {SYNTHETIC_PRESETS}")
    if n_per_category < 1:
        raise ValueError("n_per_category must be positive")
    rng = np.random.default_rng(seed)
    records: list[AnnotationRecord] = []

    def center():
        return rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)

    if preset in ("default", "ellipses"):
        for i in range(n_per_category):
            cx, cy = center()
            semi_major = rng.uniform(1.0, 3.0)
            semi_minor = semi_major * rng.uniform(0.25, 0.6)
            theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
            records.append(
                AnnotationRecord(
                    f"synthetic-ellipse-{i}",
                    "ellipse",
                    _ellipse_polygon(cx, cy, semi_major, semi_minor, theta),
                )
            )
    if preset == "default":
        for i in range(n_per_category):
            cx, cy = center()
            w = rng.uniform(1.0, 4.0)
            h = w * rng.uniform(0.3, 0.8)
            theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
            rect = PolygonMask(obb_corners(Obb(cx, cy, w, h, theta)))
            records.append(AnnotationRecord(f"synthetic-rectangle-{i}", "rectangle", rect))
        for i in range(n_per_category):
            cx, cy = center()
            length = rng.uniform(2.0, 5.0)
            radius = length * rng.uniform(0.12, 0.3)
            theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
            records.append(
                AnnotationRecord(
                    f"synthetic-capsule-{i}",
                    "capsule",
                    _capsule_polygon(cx, cy, length, radius, theta),
                )
            )
    if preset == "axis-rect":
        for i in range(n_per_category):
            cx, cy = center()
            w = rng.uniform(1.0, 4.0)
            h = w * rng.uniform(0.3, 0.8)
            rect = PolygonMask(obb_corners(Obb(cx, cy, w, h, 0.0)))
            records.append(AnnotationRecord(f"synthetic-axis-rect-{i}", "axis-rect", rect))
    return records


__all__ = [
    "SYNTHETIC_PRESETS",
    "AGGREGATE_CATEGORY",
    "AnnotationRecord",
    "IngestResult",
    "ingest_annotations",
    "generate_synthetic",
]
