"""Tests for the benchmark's own arithmetic: self time, the tail rule, failure share.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from workloads import JobResult  # noqa: E402


# --- self time ---------------------------------------------------------------

def span(sid, name, start, end, parent):
    return (sid, name, start, end, parent, 0)


NESTED = [
    # cli.main [0, 100] > raster.a [10, 60] > polygons.b [20, 30]; cli.main > raster.c [70, 90]
    span(2, "polygons.b", 20, 30, 1),
    span(1, "raster.a", 10, 60, 0),
    span(3, "raster.c", 70, 90, 0),
    span(0, "cli.main", 0, 100, spans.ROOT),
]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_ns(NESTED) == {"cli.main": 30, "raster.a": 40, "polygons.b": 10, "raster.c": 20}


def test_layer_self_times_sum_to_root_span():
    per_layer = spans.layer_self_ns(NESTED)
    assert per_layer == {"cli": 30, "raster": 60, "polygons": 10}
    assert sum(per_layer.values()) == spans.root_ns(NESTED) == 100


def test_calls_into_count_layer_boundary_crossings():
    nested = NESTED + [span(4, "raster.d", 75, 80, 3)]  # raster -> raster: not a new entry
    assert spans.calls_into(nested) == {"cli": 1, "raster": 2, "polygons": 1}


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 1
        return self.t


def test_wrapped_calls_nest_and_hook_time_is_excluded():
    rec = spans.Recorder(clock=FakeClock())

    def slow_hook(rec_, sid, result, exc):
        rec_._clock.t += 1000  # bookkeeping that must not show in any span

    inner = spans._wrap(rec, "raster.inner", lambda: None, slow_hook)
    outer = spans._wrap(rec, "cli.outer", lambda: (inner(), inner()))
    outer()
    by_name = {s[1]: s for s in rec.spans}
    assert by_name["cli.outer"][4] == spans.ROOT
    assert all(s[4] == by_name["cli.outer"][0] for s in rec.spans if s[1] == "raster.inner")
    root = spans.root_ns(rec.spans)
    assert root < 1000
    assert sum(spans.layer_self_ns(rec.spans).values()) == root


def test_instrument_rebinds_importers_and_restore_undoes_it():
    from gbbkit import cli, raster

    original = raster.iou_raster
    rec = spans.Recorder()
    patches = spans.instrument(rec)
    try:
        assert cli.iou_raster is raster.iou_raster is not original
        assert cli.main.__wrapped__ is not None
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["convert", '{"type": "hbb", "x": 0, "y": 0, "w": 2, "h": 1}', "gbb"]) == 0
    finally:
        spans.restore(patches)
    assert cli.iou_raster is raster.iou_raster is original
    assert not hasattr(cli.main, "__wrapped__")
    names = {s[1] for s in rec.spans}
    assert {"cli.main", "cli.convert_shape", "convert.hbb_to_gbb"} <= names
    assert sum(spans.layer_self_ns(rec.spans).values()) == spans.root_ns(rec.spans)


def test_route_counters_follow_the_child_span_under_iou_between():
    from gbbkit import raster
    from gbbkit.types import Ellipse, Hbb, Obb

    rec = spans.Recorder()
    patches = spans.instrument(rec)
    try:
        raster.iou_between(Hbb(0, 0, 2, 1), Hbb(0.5, 0, 2, 1))
        raster.iou_between(Obb(0, 0, 2, 1, 0.3), Hbb(0.5, 0, 2, 1))
        raster.iou_between(Ellipse(0, 0, 1, 0.5, 0.2), Hbb(0.5, 0, 2, 1), 0.05)
        with pytest.raises(ValueError):
            raster.iou_between(Ellipse(0, 0, 1e-3, 1e-3, 0.0), Hbb(500, 0, 1e-3, 1e-3))
    finally:
        spans.restore(patches)
    counts = {k: v for k, v in rec.counts.items() if k.startswith("raster.route_")}
    assert counts == {"raster.route_hbb": 1, "raster.route_convex": 1, "raster.route_raster": 2}
    assert rec.counts["raster.zero_cell_errors"] == 1
    grids = sum(1 for s in rec.spans if s[1] == "raster.shared_grid")
    assert grids == 2 and rec.counts["raster.grid_cells"] > 0


# --- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize(
    "n, pct",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    value, got_pct, count = stats.tail(values)
    assert (got_pct, count) == (pct, n)
    beyond = sum(v > value for v in values)
    assert beyond >= stats.TAIL_MIN_BEYOND
    higher = [p for p in stats.TAIL_LADDER if p > pct]
    if higher:
        _, beyond_next = stats.nearest_rank(sorted(values), higher[0])
        assert beyond_next < stats.TAIL_MIN_BEYOND


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 19)


def test_per_item_medians_drop_items_that_always_failed():
    assert stats.per_item_medians([[3.0, 1.0, 2.0], [], [5.0]]) == [2.0, 5.0]


# --- failed_frac -------------------------------------------------------------

class FakeWorkload:
    items = 10

    def __init__(self, problems, skipped=0):
        self.problems = problems
        self.skipped = skipped

    def check(self, job):
        return list(self.problems), self.skipped


def job(data=b"rows\n", code=0):
    return JobResult(1.0, [code], outputs={"out.csv": data})


def test_failed_check_counts_every_item_of_every_repeat_as_failed():
    ledger = run.Ledger(FakeWorkload(["iou out of range"]))
    for _ in range(3):
        ledger.account(job())
    assert (ledger.attempted, ledger.failed, ledger.skipped) == (30, 30, 0)
    assert stats.failed_frac(ledger.attempted, ledger.skipped, ledger.failed) == 1.0
    assert ledger.problems == ["iou out of range", "output repeats a run that failed its checks"]


def test_changed_bytes_or_exit_code_fail_only_that_job():
    ledger = run.Ledger(FakeWorkload([], skipped=2))
    ledger.account(job())
    ledger.account(job(b"other\n"))
    ledger.account(job(code=1))
    ledger.account(job())
    assert (ledger.attempted, ledger.failed, ledger.skipped) == (40, 20, 4)
    assert stats.failed_frac(ledger.attempted, ledger.skipped, ledger.failed) == 24 / 40


def test_failed_frac_needs_attempts():
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0, 0)
