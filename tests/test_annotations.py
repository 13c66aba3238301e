import json
import math

import numpy as np
import pytest

from gbbkit.annotations import SYNTHETIC_PRESETS, generate_synthetic, ingest_annotations
from gbbkit.convert import obb_corners
from gbbkit.polygons import signed_area
from gbbkit.types import Obb


def write_coco(tmp_path, annotations, categories=None):
    doc = {
        "images": [{"id": 1}, {"id": 2}],
        "annotations": annotations,
        "categories": categories
        if categories is not None
        else [{"id": 7, "name": "triangle"}],
    }
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps(doc))
    return str(path)


TRIANGLE = [0.0, 0.0, 4.0, 0.0, 0.0, 3.0]


class TestIngest:
    def test_minimal_file_with_one_triangle(self, tmp_path):
        path = write_coco(
            tmp_path,
            [{"image_id": 1, "category_id": 7, "segmentation": [TRIANGLE]}],
        )
        result = ingest_annotations(path)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.image_id == "1"
        assert rec.category == "triangle"
        assert signed_area(rec.polygon.vertices) == pytest.approx(6.0)

    def test_multipart_segmentation_skipped_and_counted(self, tmp_path):
        path = write_coco(
            tmp_path,
            [
                {"image_id": 1, "category_id": 7, "segmentation": [TRIANGLE, TRIANGLE]},
                {"image_id": 2, "category_id": 7, "segmentation": [TRIANGLE]},
            ],
        )
        result = ingest_annotations(path)
        assert len(result.records) == 1
        assert result.skipped_multipart == 1
        assert result.skipped_malformed == 0

    def test_malformed_annotations_skipped_and_counted(self, tmp_path):
        path = write_coco(
            tmp_path,
            [
                {"image_id": 1, "category_id": 7, "segmentation": [[0, 0, 1, 1]]},
                {"image_id": 1, "category_id": 7, "segmentation": "nope"},
                {"image_id": 1, "category_id": 7},
                {"image_id": 2, "category_id": 7, "segmentation": [TRIANGLE]},
            ],
        )
        result = ingest_annotations(path)
        assert len(result.records) == 1
        assert result.skipped_malformed == 3

    def test_non_finite_coordinates_skipped_and_counted(self, tmp_path):
        # json.load accepts the NaN and Infinity literals that json.dumps writes.
        path = write_coco(
            tmp_path,
            [
                {"image_id": 1, "category_id": 7, "segmentation": [[0, 0, 4, 0, float("nan"), 3]]},
                {"image_id": 1, "category_id": 7, "segmentation": [[0, 0, float("inf"), 0, 0, 3]]},
                {"image_id": 2, "category_id": 7, "segmentation": [TRIANGLE]},
            ],
        )
        result = ingest_annotations(path)
        assert len(result.records) == 1
        assert result.skipped_malformed == 2

    def test_self_intersecting_polygon_skipped_and_counted(self, tmp_path):
        # A bow-tie of unequal lobes: nonzero area, but two edges cross.
        bow_tie = [0, 1, 4, 0, 4, 2, 0, 0]
        path = write_coco(
            tmp_path,
            [
                {"image_id": 1, "category_id": 7, "segmentation": [bow_tie]},
                {"image_id": 2, "category_id": 7, "segmentation": [TRIANGLE]},
            ],
        )
        result = ingest_annotations(path)
        assert [r.image_id for r in result.records] == ["2"]
        assert result.skipped_malformed == 1

    def test_clockwise_polygons_are_normalized(self, tmp_path):
        clockwise = [0.0, 0.0, 0.0, 3.0, 4.0, 0.0]
        path = write_coco(
            tmp_path, [{"image_id": 1, "category_id": 7, "segmentation": [clockwise]}]
        )
        result = ingest_annotations(path)
        assert signed_area(result.records[0].polygon.vertices) > 0

    def test_empty_annotation_list(self, tmp_path):
        path = write_coco(tmp_path, [])
        result = ingest_annotations(path)
        assert result.records == []
        assert result.skipped_multipart == 0

    def test_unknown_category_falls_back_to_id(self, tmp_path):
        path = write_coco(
            tmp_path,
            [{"image_id": 1, "category_id": 99, "segmentation": [TRIANGLE]}],
            categories=[],
        )
        assert ingest_annotations(path).records[0].category == "99"

    def test_annotation_that_is_not_an_object_is_skipped_and_counted(self, tmp_path):
        path = write_coco(
            tmp_path,
            [5, [TRIANGLE], {"image_id": 2, "category_id": 7, "segmentation": [TRIANGLE]}],
        )
        result = ingest_annotations(path)
        assert [r.image_id for r in result.records] == ["2"]
        assert result.skipped_malformed == 2

    def test_document_that_is_not_an_object_raises(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="expected an object with an 'annotations' list"):
            ingest_annotations(str(path))

    def test_invalid_json_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            ingest_annotations(str(path))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ingest_annotations(str(tmp_path / "absent.json"))


class TestSyntheticCorpus:
    def test_default_preset_categories_and_counts(self):
        records = generate_synthetic("default", n_per_category=10, seed=1)
        by_cat = {}
        for r in records:
            by_cat.setdefault(r.category, []).append(r)
        assert sorted(by_cat) == ["capsule", "ellipse", "rectangle"]
        assert all(len(v) == 10 for v in by_cat.values())

    def test_deterministic_for_fixed_seed(self):
        a = generate_synthetic("ellipses", n_per_category=5, seed=3)
        b = generate_synthetic("ellipses", n_per_category=5, seed=3)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.polygon.vertices, rb.polygon.vertices)

    def test_seeds_differ(self):
        a = generate_synthetic("ellipses", n_per_category=3, seed=3)
        b = generate_synthetic("ellipses", n_per_category=3, seed=4)
        assert not np.array_equal(a[0].polygon.vertices, b[0].polygon.vertices)

    def test_axis_rect_is_axis_aligned(self):
        for rec in generate_synthetic("axis-rect", n_per_category=5, seed=0):
            verts = rec.polygon.vertices
            xs = sorted(set(np.round(verts[:, 0], 12)))
            ys = sorted(set(np.round(verts[:, 1], 12)))
            assert len(xs) == 2 and len(ys) == 2

    def test_all_polygons_valid(self):
        for rec in generate_synthetic("default", n_per_category=20, seed=5):
            assert signed_area(rec.polygon.vertices) > 0

    def test_rejects_unknown_preset(self):
        with pytest.raises(ValueError):
            generate_synthetic("wibble", 10, 0)
        with pytest.raises(ValueError):
            generate_synthetic("default", 0, 0)

    def test_fitted_hbb_contains_every_polygon(self):
        # Containment sanity for the fidelity study: the bounding box always
        # covers the polygon's occupancy cells, and its IoU never exceeds 1.
        from gbbkit import mask_to_hbb
        from gbbkit.raster import _occupancy_counts, default_cell_size, iou_raster

        for rec in generate_synthetic("default", n_per_category=15, seed=2):
            box = mask_to_hbb(rec.polygon)
            cell = default_cell_size(box, rec.polygon, 128)
            _, count_poly, inter = _occupancy_counts(box, rec.polygon, cell)
            assert inter == count_poly
            assert iou_raster(box, rec.polygon, cell) <= 1.0


# The corpus built one record at a time, as generate_synthetic once did:
# the reference its stacked outlines must equal to the bit.


def _reference_ellipse(cx, cy, semi_major, semi_minor, theta):
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    c, s = math.cos(theta), math.sin(theta)
    ex = semi_major * np.cos(phi)
    ey = semi_minor * np.sin(phi)
    return np.column_stack([cx + ex * c - ey * s, cy + ex * s + ey * c])


def _reference_capsule(cx, cy, length, radius, theta):
    half = length / 2.0 - radius
    right = np.linspace(-math.pi / 2.0, math.pi / 2.0, 17)
    left = np.linspace(math.pi / 2.0, 3.0 * math.pi / 2.0, 17)
    pts = np.concatenate(
        [
            np.column_stack([half + radius * np.cos(right), radius * np.sin(right)]),
            np.column_stack([-half + radius * np.cos(left), radius * np.sin(left)]),
        ]
    )
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return pts @ rot.T + np.array([cx, cy])


def _reference_synthetic(preset, n, seed):
    rng = np.random.default_rng(seed)
    records = []

    def center():
        return rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)

    if preset in ("default", "ellipses"):
        for i in range(n):
            cx, cy = center()
            semi_major = rng.uniform(1.0, 3.0)
            semi_minor = semi_major * rng.uniform(0.25, 0.6)
            theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
            verts = _reference_ellipse(cx, cy, semi_major, semi_minor, theta)
            records.append((f"synthetic-ellipse-{i}", "ellipse", verts))
    if preset == "default":
        for i in range(n):
            cx, cy = center()
            w = rng.uniform(1.0, 4.0)
            h = w * rng.uniform(0.3, 0.8)
            theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
            verts = obb_corners(Obb(cx, cy, w, h, theta))
            records.append((f"synthetic-rectangle-{i}", "rectangle", verts))
        for i in range(n):
            cx, cy = center()
            length = rng.uniform(2.0, 5.0)
            radius = length * rng.uniform(0.12, 0.3)
            theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
            verts = _reference_capsule(cx, cy, length, radius, theta)
            records.append((f"synthetic-capsule-{i}", "capsule", verts))
    if preset == "axis-rect":
        for i in range(n):
            cx, cy = center()
            w = rng.uniform(1.0, 4.0)
            h = w * rng.uniform(0.3, 0.8)
            verts = obb_corners(Obb(cx, cy, w, h, 0.0))
            records.append((f"synthetic-axis-rect-{i}", "axis-rect", verts))
    return records


@pytest.mark.parametrize("seed", [0, 7, 901])
@pytest.mark.parametrize("n", [1, 2, 37, 300])
@pytest.mark.parametrize("preset", SYNTHETIC_PRESETS)
def test_synthetic_corpus_equals_per_record_reference_to_the_bit(preset, n, seed):
    got = [
        (rec.image_id, rec.category, rec.polygon.vertices.tobytes())
        for rec in generate_synthetic(preset, n, seed)
    ]
    want = [(i, c, v.tobytes()) for i, c, v in _reference_synthetic(preset, n, seed)]
    assert got == want
