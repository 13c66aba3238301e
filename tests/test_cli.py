import csv
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbbkit import batch, cli, raster
from gbbkit.annotations import SYNTHETIC_PRESETS, generate_synthetic
from gbbkit.cli import main
from gbbkit.convert import gbb_to_ellipse, mask_to_gbb, mask_to_hbb, mask_to_obb
from gbbkit.metrics import fidelity_ious, similarity
from gbbkit.polygons import convex_hull, ellipse_intersection_area, signed_area
from gbbkit.types import GaussBox, PolygonMask

HBB_JSON = json.dumps({"type": "hbb", "x": 3, "y": 4, "w": 6, "h": 12})
# Two triangles joined at a crossing, the right one larger, so the signed
# area (2) is positive and only the crossing edges make it invalid.
BOW_TIE = {"type": "polygon", "vertices": [[0, 1], [4, 0], [4, 2], [0, 0]]}


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConvert:
    def test_hbb_to_gbb_example(self, capsys):
        code, out, _ = run_main(["convert", HBB_JSON, "gbb"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got == {"type": "gbb", "x": 3.0, "y": 4.0, "a": 3.0, "b": 12.0, "c": 0.0}

    def test_square_box_to_ellipse_example(self, capsys):
        shape = json.dumps({"type": "hbb", "x": 0, "y": 0, "w": 12, "h": 12})
        code, out, _ = run_main(["convert", shape, "ellipse"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["semi_major"] == pytest.approx(12 / math.sqrt(math.pi), rel=1e-9)
        assert got["semi_minor"] == pytest.approx(got["semi_major"], rel=1e-9)

    def test_malformed_json_exits_2(self, capsys):
        code, _, err = run_main(["convert", "{oops", "gbb"], capsys)
        assert code == 2
        assert "error" in err

    def test_invalid_geometry_exits_2(self, capsys):
        bad = json.dumps({"type": "hbb", "x": 0, "y": 0, "w": -1, "h": 2})
        code, _, err = run_main(["convert", bad, "gbb"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "shape, target, field",
        [
            ({"type": "gbb", "x": 0, "y": 0, "a": 1e308, "b": 1, "c": 0}, "obb", "Obb field w"),
            (
                {"type": "polygon",
                 "vertices": [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]]},
                "hbb",
                "Hbb field w",
            ),
        ],
        ids=["huge-gbb-to-obb", "huge-polygon-to-hbb"],
    )
    def test_overflowing_result_exits_2_naming_the_field(self, shape, target, field, capsys):
        code, out, err = run_main(["convert", json.dumps(shape), target], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {field} must be finite, got inf\n"

    def test_ellipse_output_at_a_quarter_turn_converts_back_to_hbb(self, capsys):
        gbb = json.dumps({"type": "gbb", "x": 0, "y": 0, "a": 1, "b": 4, "c": 0})
        code, ellipse, _ = run_main(["convert", gbb, "ellipse"], capsys)
        assert code == 0 and json.loads(ellipse)["theta"] == math.pi / 2
        code, out, err = run_main(["convert", ellipse, "hbb"], capsys)
        assert (code, err) == (0, "")
        got = json.loads(out)
        want = (math.sqrt(12), math.sqrt(48))
        assert (got["w"], got["h"]) == pytest.approx(want, rel=1e-15, abs=0)

    def test_non_finite_polygon_vertex_exits_2(self, capsys):
        shape = '{"type": "polygon", "vertices": [[0, 0], [1, 0], [NaN, 1]]}'
        code, _, err = run_main(["convert", shape, "obb"], capsys)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "shape, field",
        [
            ({"type": "hbb", "x": True, "y": 2, "w": 1, "h": 1}, "'x'"),
            ({"type": "hbb", "x": 1, "y": "2", "w": 1, "h": 1}, "'y'"),
            ({"type": "polygon", "vertices": [[0, 0], [4, 0], ["1", False]]}, "'vertices[2][0]'"),
            ({"type": "polygon", "vertices": [[0, 0], [4, 0], [1, False]]}, "'vertices[2][1]'"),
        ],
        ids=["bool-field", "string-field", "string-vertex", "bool-vertex"],
    )
    def test_non_number_shape_field_exits_2(self, shape, field, capsys):
        code, out, err = run_main(["convert", json.dumps(shape), "gbb"], capsys)
        assert (code, out) == (2, "")
        assert field in err

    def test_numpy_floats_parse_as_numbers(self):
        # In-process callers (perfbench among them) build shapes from numpy values.
        shape = cli.parse_shape({"type": "hbb", "x": np.float64(1.5), "y": 2, "w": 1.0, "h": 3})
        assert shape.x0 == 1.5
        poly = cli.parse_shape({"type": "polygon", "vertices": [[0, 0], [np.float64(4), 0], [0, 3]]})
        assert poly.vertices[1, 0] == 4.0

    @pytest.mark.parametrize(
        "shape",
        [
            {"type": "hbb", "x": 10**400, "y": 0, "w": 1, "h": 1},
            {"type": "polygon", "vertices": [[0, 0], [4, 0], [0, 10**400]]},
        ],
        ids=["field", "vertex"],
    )
    def test_integer_beyond_float_range_exits_2(self, shape, capsys):
        code, out, err = run_main(["convert", json.dumps(shape), "gbb"], capsys)
        assert (code, out) == (2, "")
        assert "beyond the float range" in err

    def test_self_intersecting_polygon_exits_2(self, capsys):
        code, out, err = run_main(["convert", json.dumps(BOW_TIE), "obb"], capsys)
        assert code == 2
        assert out == ""
        assert "polygon edges cross" in err

    @pytest.mark.parametrize(
        "vertices",
        [[[0, 0], [1, 1], [1, 0], [0, 1]], [[0, 0], [3, 3], [3, 0], [0, 1]],
         [[0, 1], [3, 0], [3, 3], [0, 0]]],
        ids=["zero-net-area", "negative-net-area", "reversed"],
    )
    def test_crossing_polygon_reports_the_crossing_whatever_its_net_area(self, vertices, capsys):
        shape = json.dumps({"type": "polygon", "vertices": vertices})
        code, out, err = run_main(["convert", shape, "obb"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: polygon edges cross; vertices must outline a simple polygon\n"

    def test_clockwise_simple_polygon_reports_its_orientation(self, capsys):
        shape = json.dumps({"type": "polygon", "vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]})
        code, out, err = run_main(["convert", shape, "obb"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: polygon must be counter-clockwise with positive area\n"

    def test_ellipse_too_large_to_square_exits_2_naming_the_field(self, capsys):
        shape = {"type": "ellipse", "x": 0, "y": 0, "semi_major": 1e200, "semi_minor": 1,
                 "theta": 0}
        code, out, err = run_main(["convert", json.dumps(shape), "hbb"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: Ellipse field semi_major is too large to square, got 1e+200\n"

    @pytest.mark.parametrize(
        "shape, field",
        [
            ({"type": "ellipse", "x": 0, "y": 0, "semi_major": 1, "semi_minor": 1e-200,
              "theta": 0}, "Ellipse field semi_minor is too small to square, got 1e-200"),
            ({"type": "obb", "x": 0, "y": 0, "w": 1, "h": 1e-170, "theta": 0},
             "Obb field h is too small to square, got 1e-170"),
        ],
        ids=["ellipse-semi-minor", "obb-h"],
    )
    def test_square_underflow_exits_2_naming_the_field(self, shape, field, capsys):
        code, out, err = run_main(["convert", json.dumps(shape), "gbb"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {field}\n"

    def test_determinant_overflow_exits_2_saying_so(self, capsys):
        # Finite covariance entries whose products a*b and c^2 both overflow.
        shape = {"type": "ellipse", "x": 0, "y": 0, "semi_major": 1e154, "semi_minor": 1e-154,
                 "theta": 0.3}
        code, out, err = run_main(["convert", json.dumps(shape), "gbb"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: invalid GaussBox: a*b - c^2 overflows (a*b and c^2 are both inf)\n"

    def test_polygon_to_obb(self, capsys):
        shape = json.dumps(
            {"type": "polygon", "vertices": [[0, 0], [4, 0], [4, 2], [0, 2]]}
        )
        code, out, _ = run_main(["convert", shape, "obb"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["w"] * got["h"] == pytest.approx(8.0, rel=1e-9)

    def test_round_trip_through_ellipse_json(self, capsys):
        code, out, _ = run_main(["convert", HBB_JSON, "ellipse"], capsys)
        ellipse_json = out.strip()
        code, out, _ = run_main(["convert", ellipse_json, "gbb"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["a"] == pytest.approx(3.0, rel=1e-9)
        assert got["b"] == pytest.approx(12.0, rel=1e-9)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ({"type": "hbb", "x": 0, "y": 0, "w": 1e-200, "h": 1e-200}, "a must exceed 1e-12 (got 0.0)"),
            ({"type": "hbb", "x": 0, "y": 0, "w": 1e200, "h": 1}, "a is not finite (got inf)"),
            (
                {"type": "obb", "x": 0, "y": 0, "w": 1e-7, "h": 1e-7, "theta": 0},
                "a must exceed 1e-12 (got 8.3",
            ),
        ],
        ids=["hbb-underflow", "hbb-overflow", "obb-below-eps"],
    )
    def test_invalid_gaussian_result_exits_2(self, shape, message, capsys):
        code, out, err = run_main(["convert", json.dumps(shape), "gbb"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid GaussBox: {message}")

    def test_writes_to_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "converted.json"
        code, out, _ = run_main(["convert", HBB_JSON, "gbb", "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["a"] == 3.0


class TestScore:
    def _write_pairs(self, tmp_path, lines):
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return str(path)

    def test_identical_pair(self, tmp_path, capsys):
        g = {"type": "gbb", "x": 0, "y": 0, "a": 1, "b": 1, "c": 0}
        path = self._write_pairs(tmp_path, [json.dumps([g, g])])
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        rows = read_csv(out_csv)
        assert len(rows) == 1
        assert float(rows[0]["prob_iou"]) == 1.0
        assert float(rows[0]["iou"]) == 1.0

    def test_translated_gaussian_pair(self, tmp_path, capsys):
        a = {"type": "gbb", "x": 0, "y": 0, "a": 1, "b": 1, "c": 0}
        b = {"type": "gbb", "x": 2, "y": 0, "a": 1, "b": 1, "c": 0}
        path = self._write_pairs(tmp_path, [json.dumps([a, b])])
        out_csv = tmp_path / "scores.csv"
        code, _, _ = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        row = read_csv(out_csv)[0]
        assert float(row["b_d"]) == pytest.approx(0.5, rel=1e-12)
        assert float(row["prob_iou"]) == pytest.approx(
            1 - math.sqrt(1 - math.exp(-0.5)), rel=1e-12
        )

    def test_empty_file_gives_header_only(self, tmp_path, capsys):
        path = self._write_pairs(tmp_path, [])
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        assert out_csv.read_text() == "b_d,b_c,h_d,prob_iou,iou\n"
        assert "scored 0 pairs" in err

    def test_bad_lines_skipped_with_count(self, tmp_path, capsys):
        g = {"type": "gbb", "x": 0, "y": 0, "a": 1, "b": 1, "c": 0}
        path = self._write_pairs(
            tmp_path, [json.dumps([g, g]), "{broken", json.dumps({"a": g})]
        )
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        assert len(read_csv(out_csv)) == 1
        assert "skipped 2" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run_main(["score", str(tmp_path / "none.jsonl")], capsys)
        assert code == 1

    def test_flush_obb_pair_scores_finite(self, tmp_path, capsys):
        # A synthetic rectangle and its minimum-area box: an edge of each lies
        # flush along the other's, which once made the clipped IoU NaN.
        obb = {"type": "obb", "x": 5.603519506606166, "y": 3.881789653321177,
               "w": 2.5893383206677982, "h": 3.37196885129904, "theta": -1.1269016627246646}
        poly = {"type": "polygon", "vertices": [
            [4.6369392461670085, 1.988529418070409], [7.682116819808289, 3.4366549233782764],
            [6.570099767045324, 5.775049888571945], [3.524922193404043, 4.326924383264078]]}
        path = self._write_pairs(tmp_path, [json.dumps([obb, poly])])
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        assert "skipped 0" in err
        assert float(read_csv(out_csv)[0]["iou"]) == pytest.approx(1.0, abs=1e-12)

    def test_self_intersecting_polygon_skipped_with_reason(self, tmp_path, capsys):
        box = {"type": "obb", "x": 2, "y": 1, "w": 4, "h": 2, "theta": 0.0}
        path = self._write_pairs(tmp_path, [json.dumps([BOW_TIE, box]), json.dumps([box, box])])
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        assert len(read_csv(out_csv)) == 1
        assert "line 1: skipped (polygon edges cross" in err
        assert "scored 1 pairs, skipped 1" in err

    def test_ellipse_too_large_to_square_is_skipped_with_reason(self, tmp_path, capsys):
        huge = {"type": "ellipse", "x": 0, "y": 0, "semi_major": 1e200, "semi_minor": 1,
                "theta": 0}
        box = {"type": "obb", "x": 2, "y": 1, "w": 4, "h": 2, "theta": 0.3}
        path = self._write_pairs(tmp_path, [json.dumps([box, box]), json.dumps([box, huge]),
                                            json.dumps([box, box])])
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        assert [row["iou"] for row in read_csv(out_csv)] == ["1.0", "1.0"]
        assert err == (
            "line 2: skipped (Ellipse field semi_major is too large to square, got 1e+200)\n"
            "scored 2 pairs, skipped 1\n"
        )

    def test_large_valid_gaussians_are_compared(self, tmp_path, capsys):
        # Each determinant is finite, their product is not: the Bhattacharyya
        # shape term takes the root of each apart instead of failing on log(0).
        wide = {"type": "gbb", "x": 0, "y": 0, "a": 1e150, "b": 1e150, "c": 0}
        long = {"type": "gbb", "x": 0, "y": 0, "a": 1e300, "b": 1, "c": 0}
        lines = [json.dumps([g, {**g, "x": 1}]) for g in (wide, long)]
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", self._write_pairs(tmp_path, lines), "--out", str(out_csv)],
                                capsys)
        assert code == 0 and "math domain error" not in err
        rep = similarity(GaussBox(0, 0, 1e150, 1e150, 0), GaussBox(1, 0, 1e150, 1e150, 0))
        row = read_csv(out_csv)[0]
        assert [float(row[k]) for k in ("b_d", "b_c", "h_d", "prob_iou", "iou")] == [
            rep.b_d, rep.b_c, rep.h_d, rep.prob_iou, 1.0
        ]

    def test_non_finite_metric_skipped_with_reason(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "iou_between", lambda a, b, cell_size: math.nan)
        g = {"type": "gbb", "x": 0, "y": 0, "a": 1, "b": 1, "c": 0}
        path = self._write_pairs(tmp_path, [json.dumps([g, g])])
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        assert read_csv(out_csv) == []
        assert "line 1: skipped (non-finite iou)" in err
        assert "scored 0 pairs, skipped 1" in err

    def test_grid_beyond_max_cells_skip_line_is_short(self, tmp_path, capsys):
        box = {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1}
        ellipse = {"type": "ellipse", "x": 0, "y": 0, "semi_major": 1, "semi_minor": 0.5,
                   "theta": 0}
        path = self._write_pairs(tmp_path, [json.dumps([box, ellipse])])
        code, _, err = run_main(["score", path, "--cell-size", "1e-300"], capsys)
        assert code == 0
        skip = err.splitlines()[0]
        assert skip.startswith("line 1: skipped (") and "MAX_GRID_CELLS" in skip
        assert len(skip) < 200

    def test_box_pairs_are_scored_in_blocks(self, tmp_path, capsys, monkeypatch):
        calls = []
        kernel = batch.iou_obb_pairs

        def recording(a, b):
            calls.append(len(a))
            return kernel(a, b)

        monkeypatch.setattr(batch, "iou_obb_pairs", recording)
        block = cli._SCORE_BOX_BLOCK
        obb = {"type": "obb", "x": 1, "y": 2, "w": 3, "h": 1, "theta": 0.5}
        hbb = {"type": "hbb", "x": 1.5, "y": 2, "w": 2, "h": 2}
        # hbb-hbb pairs and the ellipse pair keep their own routes.
        lines = [json.dumps([obb, hbb])] * (3 * block + 1) + [json.dumps([hbb, hbb])] * 5
        lines.append(json.dumps([{"type": "gbb", "x": 0, "y": 0, "a": 1, "b": 1, "c": 0}, obb]))
        path = self._write_pairs(tmp_path, lines)
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        assert calls == [block, block, block, 1]
        assert err == f"scored {3 * block + 7} pairs, skipped 0\n"
        want = repr(raster.iou_between(cli.parse_shape(obb), cli.parse_shape(hbb)))
        assert [row["iou"] for row in read_csv(out_csv)[: 3 * block + 1]] == [want] * (3 * block + 1)

    @pytest.mark.parametrize("block", [1, 2, 3, 128])
    def test_skip_lines_keep_line_order_around_box_blocks(
        self, block, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_SCORE_BOX_BLOCK", block)
        rng = np.random.default_rng(4)

        def box(kind):
            x, y, w, h, theta = rng.uniform([0, 0, 1, 1, -3], [10, 10, 5, 5, 3]).tolist()
            if kind == "hbb":
                return {"type": "hbb", "x": x, "y": y, "w": w, "h": h}
            return {"type": "obb", "x": x, "y": y, "w": w, "h": h, "theta": theta}

        def boxes(n):
            return [json.dumps([box(a), box(b)]) for a, b in
                    [("obb", "hbb"), ("hbb", "obb"), ("obb", "obb")] * n]

        tiny = {"type": "gbb", "a": 1e-4, "b": 1e-4, "c": 0}
        far = {"x": 1e8, "y": 1e8, "w": 0.1, "h": 0.1}
        lines = [
            *boxes(1), "{broken", *boxes(1), json.dumps([BOW_TIE, box("obb")]), *boxes(2),
            json.dumps([{**tiny, "x": 0, "y": 0}, {**tiny, "x": 1000, "y": 0}]), *boxes(1),
            json.dumps([{"type": "obb", **far, "theta": 0.3}, {"type": "hbb", **far}]), *boxes(1),
        ]
        path = self._write_pairs(tmp_path, lines)
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        assert err.splitlines() == [
            "line 4: skipped (Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1))",
            "line 8: skipped (polygon edges cross; vertices must outline a simple polygon)",
            "line 15: skipped (shape rasterized to zero cells; reduce cell_size below the "
            "smallest shape dimension)",
            "line 19: skipped (polygons must be counter-clockwise with positive area)",
            "scored 18 pairs, skipped 4",
        ]
        scalar = [
            repr(raster.iou_between(*(cli.parse_shape(s) for s in json.loads(lines[i]))))
            for i in range(len(lines)) if i + 1 not in (4, 8, 15, 19)
        ]
        assert [row["iou"] for row in read_csv(out_csv)] == scalar

    def test_overflowing_box_pair_is_skipped_without_warnings(self, tmp_path):
        far = {"x": 1e200, "y": 1e200, "w": 1, "h": 1}
        path = self._write_pairs(
            tmp_path, [json.dumps([{"type": "obb", **far, "theta": 0.3}, {"type": "hbb", **far}])]
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gbbkit.cli", "score", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "b_d,b_c,h_d,prob_iou,iou\n"
        assert proc.stderr == "line 1: skipped (non-finite iou)\nscored 0 pairs, skipped 1\n"

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        obb = {"type": "obb", "x": 1, "y": 2, "w": 3, "h": 1, "theta": 0.5}
        g = {"type": "gbb", "x": 0, "y": 0, "a": 1, "b": 1, "c": 0}
        text = "\n".join([json.dumps([obb, g]), json.dumps([g, obb])]) + "\n"
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert run_main(["score", str(marked)], capsys) == run_main(["score", str(plain)], capsys)
        code, out, err = run_main(["score", str(marked)], capsys)
        assert (code, len(out.splitlines()), err) == (0, 3, "scored 2 pairs, skipped 0\n")

    def test_undecodable_byte_exits_2_before_any_skip_line(self, tmp_path, capsys):
        obb = {"type": "obb", "x": 1, "y": 2, "w": 3, "h": 1, "theta": 0.5}
        hbb = {"type": "hbb", "x": 1.5, "y": 2, "w": 2, "h": 2}
        lines = [json.dumps([obb, hbb]).encode()] * 300
        path = tmp_path / "pairs.jsonl"
        path.write_bytes(b"\n".join([*lines, b"{broken", b'[{"type": "hbb", "x": \xff}]']) + b"\n")
        out_csv = tmp_path / "scores.csv"
        code, out, err = run_main(["score", str(path), "--out", str(out_csv)], capsys)
        assert code == 2
        assert out == ""
        # The position counts from the start of the 8 KB chunk being decoded.
        assert err == "error: 'utf-8' codec can't decode byte 0xff in position 1762: invalid start byte\n"
        assert not out_csv.exists()

    def test_mixed_shape_pair_scores(self, tmp_path, capsys):
        a = {"type": "hbb", "x": 0, "y": 0, "w": 2, "h": 2}
        b = {"type": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
        path = self._write_pairs(tmp_path, [json.dumps({"a": a, "b": b})])
        out_csv = tmp_path / "scores.csv"
        code, _, _ = run_main(["score", path, "--out", str(out_csv)], capsys)
        assert code == 0
        row = read_csv(out_csv)[0]
        assert float(row["iou"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["prob_iou"]) == pytest.approx(1.0, abs=1e-9)


def _scatter_oracle(n, seed, mode):
    """scatter's CSV from one whole-array draw: n boxes a, then n boxes b."""
    rng = np.random.default_rng(seed)
    boxes_a = cli._sample_boxes(rng, n)
    boxes_b = cli._sample_boxes(rng, n)
    iou = batch.iou_hbb_pairs(boxes_a, boxes_b)
    if mode == "gbb":
        prob_iou = batch.prob_iou_pairs(batch.gbb_from_hbb(boxes_a), batch.gbb_from_hbb(boxes_b))
    else:
        prob_iou = batch.mask_prob_iou_pairs(batch.rect_mask_bc_pairs(boxes_a, boxes_b))
    rows = (f"{i!r},{p!r},{mode}\n" for i, p in zip(iou.tolist(), prob_iou.tolist()))
    return "iou,prob_iou,mode\n" + "".join(rows)


class TestScatter:
    @pytest.mark.parametrize("mode", ["gbb", "uniform_mask"])
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("n", [1, 6, 7, 8, 23])
    def test_chunks_write_the_whole_array_bytes(self, n, seed, mode, monkeypatch, capsys):
        # Chunks of 7: a short last chunk, an exact fit, and several chunks.
        monkeypatch.setattr(cli, "_SCATTER_CHUNK", 7)
        argv = ["scatter", "--n", str(n), "--seed", str(seed), "--mode", mode]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        # Lists, so a failure names the first differing row without a diff
        # of the whole text.
        want = _scatter_oracle(n, seed, mode)
        assert out.splitlines(keepends=True) == want.splitlines(keepends=True)

    @pytest.mark.parametrize("mode", ["gbb", "uniform_mask"])
    def test_default_chunk_writes_the_whole_array_bytes(self, mode, capsys):
        n = 2 * cli._SCATTER_CHUNK + 3
        code, out, _ = run_main(["scatter", "--n", str(n), "--seed", "9", "--mode", mode], capsys)
        assert code == 0
        want = _scatter_oracle(n, 9, mode)
        assert out.splitlines(keepends=True) == want.splitlines(keepends=True)

    def test_peak_memory_does_not_grow_with_n(self, tmp_path):
        out = tmp_path / "s.csv"

        def peak(n):
            tracemalloc.start()
            try:
                assert main(["scatter", "--n", str(n), "--seed", "1", "--out", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # warm: the parser and numpy's first-call caches
        chunk = cli._SCATTER_CHUNK
        assert peak(32 * chunk) <= 1.2 * peak(4 * chunk)

    def test_deterministic_and_endpoint(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scatter", "--n", "2000", "--seed", "42", "--mode", "gbb"]
        assert run_main(args + ["--out", str(out1)], capsys)[0] == 0
        assert run_main(args + ["--out", str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        for row in read_csv(out1):
            if float(row["iou"]) == 1.0:
                assert float(row["prob_iou"]) == 1.0

    def test_uniform_mask_respects_bc_bound(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        code, _, _ = run_main(
            ["scatter", "--n", "5000", "--seed", "7", "--mode", "uniform_mask",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        for row in read_csv(out):
            iou = float(row["iou"])
            prob_iou = float(row["prob_iou"])
            bc = 1.0 - (1.0 - prob_iou) ** 2
            assert bc >= iou - 1e-12

    def test_spearman_correlation_high(self, tmp_path, capsys):
        from scipy.stats import spearmanr

        out = tmp_path / "s.csv"
        code, _, _ = run_main(
            ["scatter", "--n", "100000", "--seed", "42", "--out", str(out)], capsys
        )
        assert code == 0
        rows = read_csv(out)
        iou = np.array([float(r["iou"]) for r in rows])
        prob = np.array([float(r["prob_iou"]) for r in rows])
        mask = iou > 0
        rho = spearmanr(iou[mask], prob[mask]).statistic
        assert rho > 0.9

    def test_mode_recorded_in_rows(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        run_main(
            ["scatter", "--n", "10", "--seed", "1", "--mode", "uniform_mask",
             "--out", str(out)],
            capsys,
        )
        assert all(r["mode"] == "uniform_mask" for r in read_csv(out))


class TestFidelity:
    def test_axis_rect_corpus_hbb_is_exact(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code, _, _ = run_main(
            ["fidelity", "--synthetic", "axis-rect", "--n", "40", "--seed", "3",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        rows = {r["category"]: r for r in read_csv(out)}
        assert float(rows["axis-rect"]["median_iou_hbb"]) == 1.0
        assert rows["axis-rect"]["count"] == "40"
        assert "overall" in rows

    def test_ellipse_corpus_ordering(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, _, _ = run_main(
            ["fidelity", "--synthetic", "ellipses", "--n", "60", "--seed", "7",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        row = {r["category"]: r for r in read_csv(out)}["ellipse"]
        med_h = float(row["median_iou_hbb"])
        med_o = float(row["median_iou_obb"])
        med_e = float(row["median_iou_ellipse"])
        assert med_e > med_o > med_h

    def test_coco_annotations_path(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": 5, "name": "tri"}],
            "annotations": [
                {"image_id": 1, "category_id": 5,
                 "segmentation": [[0, 0, 4, 0, 0, 3]]},
                {"image_id": 1, "category_id": 5,
                 "segmentation": [[0, 0, 1, 0, 0, 1], [2, 2, 3, 2, 2, 3]]},
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, err = run_main(
            ["fidelity", "--annotations", str(path), "--out", str(out)], capsys
        )
        assert code == 0
        assert "1 multi-part" in err
        rows = {r["category"]: r for r in read_csv(out)}
        assert rows["tri"]["count"] == "1"

    def test_non_number_coordinates_count_as_malformed(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": 5, "name": "tri"}],
            "annotations": [
                {"image_id": 1, "category_id": 5, "segmentation": [[0, 0, 4, 0, 0, 3]]},
                {"image_id": 1, "category_id": 5, "segmentation": [[0, 0, "4", 0, 0, 3]]},
                {"image_id": 1, "category_id": 5, "segmentation": [[0, 0, 4, 0, True, 3]]},
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, err = run_main(
            ["fidelity", "--annotations", str(path), "--out", str(out)], capsys
        )
        assert code == 0
        assert "skipped 0 multi-part and 2 malformed" in err
        assert {r["category"]: r["count"] for r in read_csv(out)} == {"tri": "1", "overall": "1"}

    def test_category_named_overall_exits_2(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": 1, "name": "overall"}, {"id": 2, "name": "tri"}],
            "annotations": [
                {"image_id": 1, "category_id": 1, "segmentation": [[0, 0, 4, 0, 0, 3]]},
                {"image_id": 1, "category_id": 2, "segmentation": [[0, 0, 2, 0, 0, 5]]},
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, err = run_main(
            ["fidelity", "--annotations", str(path), "--out", str(out)], capsys
        )
        assert code == 2
        assert "category name 'overall' is reserved for the aggregate row" in err
        assert not out.exists()

    def test_list_valued_category_id_counts_as_malformed(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": 1, "name": "tri"}],
            "annotations": [
                {"image_id": 1, "category_id": [1], "segmentation": [[0, 0, 4, 0, 0, 3]]},
                {"image_id": 1, "category_id": 1, "segmentation": [[0, 0, 2, 0, 0, 5]]},
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, err = run_main(
            ["fidelity", "--annotations", str(path), "--out", str(out)], capsys
        )
        assert code == 0
        assert "skipped 0 multi-part and 1 malformed" in err
        assert {r["category"]: r["count"] for r in read_csv(out)} == {"tri": "1", "overall": "1"}

    def test_polygon_without_valid_gaussian_counts_as_malformed(self, tmp_path, capsys):
        big = 1e100
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": 1, "name": "box"}],
            "annotations": [
                {"image_id": 1, "category_id": 1, "segmentation": [[0, 0, 4, 0, 4, 3, 0, 3]]},
                {"image_id": 1, "category_id": 1,
                 "segmentation": [[0, 0, big, 0, big, big, 0, big]]},
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            code, _, err = run_main(
                ["fidelity", "--annotations", str(path), "--out", str(out)], capsys
            )
        assert code == 0
        assert err == "skipped 0 multi-part and 1 malformed annotations\n"
        assert {r["category"]: r["count"] for r in read_csv(out)} == {"box": "1", "overall": "1"}

    def test_repeated_category_id_with_two_names_exits_2(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": 1, "name": "car"}, {"id": 1, "name": "truck"}],
            "annotations": [
                {"image_id": 1, "category_id": 1, "segmentation": [[0, 0, 4, 0, 0, 3]]},
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, err = run_main(
            ["fidelity", "--annotations", str(path), "--out", str(out)], capsys
        )
        assert code == 2
        assert "categories[0] and categories[1] share id 1 but are named 'car' and 'truck'" in err
        assert not out.exists()

    def test_repeated_category_id_with_one_name_is_accepted(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": 1, "name": "car"}, {"id": 1, "name": "car"}],
            "annotations": [
                {"image_id": 1, "category_id": 1, "segmentation": [[0, 0, 4, 0, 0, 3]]},
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, _ = run_main(["fidelity", "--annotations", str(path), "--out", str(out)], capsys)
        assert code == 0
        assert {r["category"]: r["count"] for r in read_csv(out)} == {"car": "1", "overall": "1"}

    def test_list_valued_category_id_in_categories_exits_2(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": 2, "name": "box"}, {"id": [1], "name": "tri"}],
            "annotations": [
                {"image_id": 1, "category_id": 2, "segmentation": [[0, 0, 4, 0, 0, 3]]},
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, err = run_main(
            ["fidelity", "--annotations", str(path), "--out", str(out)], capsys
        )
        assert code == 2
        assert "categories[1].id must be a number or a string, not a JSON array" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, field",
        [({"annotations": 5}, "annotations"), ({"annotations": [], "categories": 5}, "categories")],
        ids=["annotations", "categories"],
    )
    def test_non_array_field_exits_2(self, doc, field, tmp_path, capsys):
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_main(["fidelity", "--annotations", str(path)], capsys)
        assert code == 2
        assert err == f"error: {path}: field {field!r} must be a JSON array\n"

    def test_category_names_are_quoted_where_needed(self, tmp_path, capsys):
        names = ["car, parked", 'the "big" one', "tri"]
        doc = {
            "images": [{"id": 1}],
            "categories": [{"id": i, "name": name} for i, name in enumerate(names)],
            "annotations": [
                {"image_id": 1, "category_id": i, "segmentation": [[0, 0, 4, 0, 0, 3]]}
                for i in range(len(names))
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "f.csv"
        code, _, _ = run_main(["fidelity", "--annotations", str(path), "--out", str(out)], capsys)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 5 for row in rows)
        assert [row[0] for row in rows[1:]] == sorted(names) + ["overall"]
        assert out.read_text().splitlines()[-1].startswith("overall,")

    @pytest.mark.parametrize(
        "flags, flag",
        [(["--n", "5"], "--n"), (["--seed", "3"], "--seed"), (["--n", "5", "--seed", "3"], "--n")],
        ids=["n", "seed", "both"],
    )
    def test_corpus_flags_with_annotations_exit_2_before_reading(
        self, flags, flag, tmp_path, capsys
    ):
        # The file does not exist: reading it would exit 1.
        out = tmp_path / "f.csv"
        argv = ["fidelity", "--annotations", str(tmp_path / "none.json"), *flags, "--out", str(out)]
        code, stdout, err = run_main(argv, capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: argument {flag}: not allowed with argument --annotations\n"
        assert not out.exists()

    def test_synthetic_corpus_defaults_to_n_1000_and_seed_7(self, capsys):
        default = run_main(["fidelity", "--synthetic", "axis-rect"], capsys)
        explicit = run_main(["fidelity", "--synthetic", "axis-rect", "--n", "1000", "--seed", "7"],
                            capsys)
        assert default == explicit
        assert default[0] == 0 and ",1000\n" in default[1]

    def test_zero_usable_annotations_exit_1(self, tmp_path, capsys):
        path = tmp_path / "coco.json"
        path.write_text(json.dumps({"images": [], "categories": [], "annotations": []}))
        code, _, err = run_main(["fidelity", "--annotations", str(path)], capsys)
        assert code == 1

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        doc = {
            "categories": [{"id": 5, "name": "tri"}],
            "annotations": [{"image_id": 1, "category_id": 5, "segmentation": [[0, 0, 4, 0, 0, 3]]}],
        }
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(json.dumps(doc), encoding="utf-8")
        marked.write_text(json.dumps(doc), encoding="utf-8-sig")
        runs = [run_main(["fidelity", "--annotations", str(p)], capsys) for p in (marked, plain)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "tri," in runs[0][1]

    def test_unreadable_file_exit_1(self, tmp_path, capsys):
        code, _, _ = run_main(
            ["fidelity", "--annotations", str(tmp_path / "none.json")], capsys
        )
        assert code == 1

    def test_malformed_annotation_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "coco.json"
        path.write_text("{oops")
        code, _, _ = run_main(["fidelity", "--annotations", str(path)], capsys)
        assert code == 2

    def test_exact_route_never_rasterizes(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fidelity rasterized")

        monkeypatch.setattr(cli, "iou_raster", refuse)
        monkeypatch.setattr(raster, "_occupancy_counts", refuse)
        out = tmp_path / "f.csv"
        args = ["fidelity", "--synthetic", "default", "--n", "5", "--seed", "2"]
        assert run_main(args + ["--out", str(out)], capsys)[0] == 0
        assert [r["count"] for r in read_csv(out)] == ["5", "5", "5", "15"]

    def test_boxes_contain_their_polygon(self):
        # The exact route scores each box by |P| / (w h), which holds because
        # the box contains its polygon.
        for preset in SYNTHETIC_PRESETS:
            for rec in generate_synthetic(preset, 10, 6):
                poly, v = rec.polygon, rec.polygon.vertices
                area = signed_area(v - v.min(axis=0))
                tol = 1e-12 * float(np.max(np.abs(v)))
                boxes = (mask_to_hbb(poly), mask_to_obb(poly))
                for box, exact in zip(boxes, fidelity_ious([poly])[0]):
                    theta = getattr(box, "theta", 0.0)
                    rel = v - [box.x0, box.y0]
                    along = rel @ [math.cos(theta), math.sin(theta)]
                    across = rel @ [-math.sin(theta), math.cos(theta)]
                    assert np.all(np.abs(along) <= box.w / 2 + tol)
                    assert np.all(np.abs(across) <= box.h / 2 + tol)
                    iou = raster.iou_between(box, poly)
                    assert abs(area / (box.w * box.h) - iou) <= 1e-12
                    assert abs(exact - iou) <= 1e-12

    def test_cell_size_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", "--n", "2", "--cell-size", "0.05"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cell-size" in capsys.readouterr().err

    def test_seeded_fidelity_is_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        args = ["fidelity", "--synthetic", "default", "--n", "10", "--seed", "5"]
        assert run_main(args + ["--out", str(out1)], capsys)[0] == 0
        assert run_main(args + ["--out", str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


def _reference_fidelity_ious(poly):
    # One polygon at a time, through the scalar conversions and kernels.
    hbb, obb = mask_to_hbb(poly), mask_to_obb(poly)
    ellipse = gbb_to_ellipse(mask_to_gbb(poly))
    v = poly.vertices
    area = signed_area(v - v.min(axis=0))
    a, b = ellipse.semi_major, ellipse.semi_minor
    inter = ellipse_intersection_area(v, ellipse.x0, ellipse.y0, a, b, ellipse.theta)
    ellipse_area = math.pi * a * b
    box_ious = (min(area, box.w * box.h) / max(area, box.w * box.h) for box in (hbb, obb))
    return (*box_ious, inter / (area + ellipse_area - inter))


@st.composite
def _fidelity_corpora(draw):
    # Synthetic records (5 to 16 of each kind, so the 64-gon ellipses span
    # two to four blocks, the last often of one polygon), non-convex stars
    # and random convex hulls, shuffled.
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    polys = [rec.polygon for rec in generate_synthetic("default", draw(st.integers(5, 16)), seed)]
    for _ in range(draw(st.integers(0, 30))):
        n = int(rng.integers(5, 9))
        angles = (np.arange(n) + rng.uniform(0, 1, n)) * (2 * math.pi / n)
        radii = rng.uniform(0.3, 2.0, n) * rng.uniform(0.1, 10.0)
        star = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        polys.append(PolygonMask(star + rng.uniform(-50, 50, 2)))
    for _ in range(draw(st.integers(0, 30))):
        hull = convex_hull(rng.normal(size=(int(rng.integers(3, 12)), 2)) * rng.uniform(0.1, 10.0))
        if len(hull) >= 3:
            polys.append(PolygonMask(hull + rng.uniform(-50, 50, 2)))
    # Over 128 vertices, each polygon is a block of its own.  Fine stars and
    # dense hulls of points on an ellipse, a few sharing a vertex count.
    for _ in range(draw(st.integers(0, 4))):
        n = int(rng.choice([129, 130, int(rng.integers(129, 400))]))
        angles = (np.arange(n) + rng.uniform(0, 1, n)) * (2 * math.pi / n)
        radii = rng.uniform(0.8, 1.2, n) * rng.uniform(0.1, 10.0)
        star = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        polys.append(PolygonMask(star + rng.uniform(-50, 50, 2)))
    for _ in range(draw(st.integers(0, 4))):
        angles = rng.uniform(0, 2 * math.pi, int(rng.integers(140, 400)))
        circle = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.1, 10.0)
        hull = convex_hull(circle * rng.uniform(0.5, 2.0, 2))
        polys.append(PolygonMask(hull + rng.uniform(-50, 50, 2)))
    return [polys[i] for i in rng.permutation(len(polys))]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_fidelity_corpora())
def test_fidelity_blocks_match_one_polygon_reference_to_the_bit(polys):
    got = fidelity_ious(polys)
    assert got.shape == (len(polys), 3)
    for row, poly in zip(got.tolist(), polys):
        assert [v.hex() for v in row] == [float(v).hex() for v in _reference_fidelity_ious(poly)]


class TestRegress:
    def _write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_init_equals_target(self, tmp_path, capsys):
        box = {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1}
        cfg = self._write_config(tmp_path, {"target": box, "init": box})
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_main(
            ["regress", "--config", cfg, "--out", str(out)], capsys
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["final_prob_iou"] == 1.0
        assert summary["steps_to_0_9"] == 0
        assert summary["stalled"] is None
        assert len(read_csv(out)) == 401

    def test_two_stage_disjoint_start_converges(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path,
            {
                "target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
                "init": {"type": "hbb", "x": 2, "y": 0, "w": 1, "h": 1},
                "optimizer": {"step_size": 0.1, "parametrization": "constrained5"},
            },
        )
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_main(["regress", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["final_prob_iou"] > 0.99
        assert summary["steps_to_0_9"] is not None

    def test_pure_l1_far_start_flags_stall(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path,
            {
                "target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
                "init": {"type": "hbb", "x": 100, "y": 0, "w": 1, "h": 1},
                "schedule": {"switch_fraction": 0.0, "total_steps": 100},
            },
        )
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_main(["regress", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads(stdout)
        assert summary["stalled"] == "stalled: gradient underflow"

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        box = {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1}
        cfg = {"target": box, "init": {**box, "x": 0.5},
               "schedule": {"total_steps": 10}}
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(json.dumps(cfg), encoding="utf-8")
        marked.write_text(json.dumps(cfg), encoding="utf-8-sig")
        outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
        runs = [
            run_main(["regress", "--config", str(c), "--out", str(o)], capsys)
            for c, o in zip((plain, marked), outs)
        ]
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(read_csv(outs[1])) == 11

    def test_invalid_config_field_exit_2(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path,
            {
                "target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
                "init": {"type": "hbb", "x": 1, "y": 0, "w": 1, "h": 1},
                "schedule": {"switch_fraction": 2.0},
            },
        )
        code, _, err = run_main(
            ["regress", "--config", cfg, "--out", str(tmp_path / "t.csv")], capsys
        )
        assert code == 2
        assert "schedule" in err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path,
            {
                "target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
                "init": {"type": "hbb", "x": 1, "y": 0, "w": 1, "h": 1},
                "optimizer": {"momentum": 0.9},
            },
        )
        code, _, err = run_main(
            ["regress", "--config", cfg, "--out", str(tmp_path / "t.csv")], capsys
        )
        assert code == 2
        assert "momentum" in err

    def test_unknown_top_level_key_exit_2(self, tmp_path, capsys):
        # A misspelled section must not fall back to the default fit.
        cfg = self._write_config(
            tmp_path,
            {
                "target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
                "init": {"type": "hbb", "x": 1, "y": 0, "w": 1, "h": 1},
                "optimiser": {"step_size": 0.02, "parametrization": "hbb4"},
                "Schedule": {},
            },
        )
        out = tmp_path / "t.csv"
        code, stdout, err = run_main(["regress", "--config", cfg, "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: config has unknown keys: ['Schedule', 'optimiser']\n"
        assert stdout == "" and not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("schedule", {"total_steps": 40.5}, "total_steps must be an integer, got 40.5"),
            ("schedule", {"total_steps": True}, "total_steps must be an integer, got True"),
            ("schedule", {"omega2": math.inf}, "omega2 must be finite, got inf"),
        ],
        ids=["fractional_steps", "bool_steps", "infinite_weight"],
    )
    def test_bad_config_number_exit_2(self, tmp_path, capsys, section, values, message):
        cfg = self._write_config(
            tmp_path,
            {
                "target": {"type": "hbb", "x": 0, "y": 0, "w": 1, "h": 1},
                "init": {"type": "hbb", "x": 1, "y": 0, "w": 1, "h": 1},
                section: values,
            },
        )
        out = tmp_path / "t.csv"
        code, stdout, err = run_main(["regress", "--config", cfg, "--out", str(out)], capsys)
        assert code == 2
        assert err == f"error: config field {section!r}: {message}\n"
        assert stdout == "" and not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["score"])
def test_bad_cell_size_exits_2_before_reading_input(command, value, tmp_path, capsys):
    # The input path does not exist: reading it would exit 1 instead.
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as exc:
        main([command, missing, "--cell-size", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --cell-size: must be a positive finite number, got {value!r}\n" in err
    assert "skipped" not in err


@pytest.mark.parametrize("value", ["0", "-1", "1.5"])
@pytest.mark.parametrize("command", ["scatter", "fidelity"])
def test_bad_n_exits_2_before_any_work(command, value, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --n: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "-5", "1.5", "x"])
@pytest.mark.parametrize("command", ["scatter", "fidelity"])
def test_bad_seed_exits_2_before_any_work(command, value, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, target",
    [
        (["score", "{missing}"], "missing"),
        (["fidelity", "--annotations", "{missing}"], "missing"),
        (["regress", "--config", "{missing}"], "missing"),
        (["score", "{dir}"], "dir"),
    ],
    ids=["score-missing", "fidelity-missing", "regress-missing", "score-directory"],
)
def test_unreadable_input_exits_1_through_main(argv, target, tmp_path, capsys):
    paths = {"missing": str(tmp_path / "none.json"), "dir": str(tmp_path)}
    out = tmp_path / "out.csv"
    code, stdout, err = run_main([a.format(**paths) for a in argv] + ["--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and paths[target] in err
    assert not out.exists()


def test_parser_is_built_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    assert run_main(["convert", HBB_JSON, "gbb"], capsys)[0] == 0
    assert run_main(["convert", HBB_JSON, "hbb"], capsys)[0] == 0
    assert len(builds) == 1


def test_main_dispatches_through_the_module_global(monkeypatch, capsys):
    # A wrapper bound to cli.cmd_convert after the parser exists is the one
    # main calls, as the benchmark's traced run needs for its spans.
    assert run_main(["convert", HBB_JSON, "gbb"], capsys)[0] == 0
    calls = []
    original = cli.cmd_convert

    def recording(args):
        calls.append(args.target)
        return original(args)

    monkeypatch.setattr(cli, "cmd_convert", recording)
    code, out, _ = run_main(["convert", HBB_JSON, "gbb"], capsys)
    assert code == 0 and json.loads(out)["a"] == 3.0
    assert calls == ["gbb"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gbbkit.cli", "convert", HBB_JSON, "gbb"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == 3.0
