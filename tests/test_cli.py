import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gbbkit import cli, raster
from gbbkit.annotations import SYNTHETIC_PRESETS, generate_synthetic
from gbbkit.cli import main
from gbbkit.convert import mask_to_hbb, mask_to_obb
from gbbkit.polygons import signed_area

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

    def test_non_finite_polygon_vertex_exits_2(self, capsys):
        shape = '{"type": "polygon", "vertices": [[0, 0], [1, 0], [NaN, 1]]}'
        code, _, err = run_main(["convert", shape, "obb"], capsys)
        assert code == 2
        assert "finite" in err

    def test_self_intersecting_polygon_exits_2(self, capsys):
        code, out, err = run_main(["convert", json.dumps(BOW_TIE), "obb"], capsys)
        assert code == 2
        assert out == ""
        assert "polygon edges cross" in err

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


class TestScatter:
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

    def test_zero_usable_annotations_exit_1(self, tmp_path, capsys):
        path = tmp_path / "coco.json"
        path.write_text(json.dumps({"images": [], "categories": [], "annotations": []}))
        code, _, err = run_main(["fidelity", "--annotations", str(path)], capsys)
        assert code == 1

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
                for box, exact in zip(boxes, cli._fidelity_ious(poly)):
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
    assert "argument --cell-size: must be a positive finite number" in err
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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gbbkit.cli", "convert", HBB_JSON, "gbb"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a"] == 3.0
