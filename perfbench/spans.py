"""Span recorder for the traced run.

Every public function of each gbbkit module (the layers) is wrapped in a
span and rebound in its defining module and in every gbbkit module that
imported it by name, so calls made through module globals are seen too.
Nothing under src/ changes: `instrument` patches module attributes and
`restore` puts the originals back.

A span is (span_id, name, start_ns, end_ns, parent_id, item).  Spans are
kept in memory and written out by `write_csv` when the run ends.  The
clock excludes the time spent in counter hooks, so the hooks add to the
tracing overhead but not to any layer's self time.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import time
from collections import defaultdict

ROOT = -1

LAYERS = (
    "cli", "annotations", "convert", "polygons", "metrics", "gradients", "batch", "raster",
    "regress",
)

# Functions left unwrapped because one call costs less than one span
# (perfbench/calibrate.py measures both; README.md has the figures).  Their
# time stays in the calling span's self time.
UNWRAPPED = frozenset({"regress.schedule_loss"})

ROUTES = {"raster.iou_hbb": "hbb", "raster.iou_convex": "convex", "raster.iou_raster": "raster"}


class Recorder:
    """In-memory span list plus the counters recorded at layer boundaries."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.paused_ns = 0
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.stack = [ROOT]
        self.next_id = 0
        self.item = 0
        self.counts: dict[str, float] = defaultdict(float)

    def now(self) -> int:
        return self._clock() - self.paused_ns

    def run_hook(self, hook, sid, result, exc) -> None:
        h0 = self._clock()
        hook(self, sid, result, exc)
        self.paused_ns += self._clock() - h0


def _wrap(rec: Recorder, name: str, fn, hook=None):
    def span(*args, **kwargs):
        sid = rec.next_id
        rec.next_id = sid + 1
        parent = rec.stack[-1]
        rec.stack.append(sid)
        start = rec.now()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.stack.pop()
            rec.spans.append((sid, name, start, rec.now(), parent, rec.item))
            if hook is not None:
                rec.run_hook(hook, sid, None, exc)
            raise
        rec.stack.pop()
        rec.spans.append((sid, name, start, rec.now(), parent, rec.item))
        if hook is not None:
            rec.run_hook(hook, sid, result, None)
        return result

    span.__name__ = fn.__name__
    span.__qualname__ = fn.__qualname__
    span.__doc__ = fn.__doc__
    span.__wrapped__ = fn
    return span


def _grid_cells(rec, sid, grid, exc):
    if grid is not None:
        rec.counts["raster.grid_cells"] += grid.width * grid.height


def _occupancy(rec, sid, grid, exc):
    if grid is not None:
        rec.counts["raster.occupied_cells"] += grid.cell_count()
        rec.counts["raster.rasterized_cells"] += grid.width * grid.height


def _zero_cells(rec, sid, result, exc):
    if isinstance(exc, ValueError) and "zero cells" in str(exc):
        rec.counts["raster.zero_cell_errors"] += 1


def _route(rec, sid, result, exc):
    # The span itself was appended last; its children ended just before it,
    # as the latest spans with a higher id.  The direct child that names a
    # route decides it.
    for i in range(len(rec.spans) - 2, -1, -1):
        child = rec.spans[i]
        if child[0] <= sid:
            return
        if child[4] == sid and child[1] in ROUTES:
            rec.counts["raster.route_" + ROUTES[child[1]]] += 1
            return


HOOKS = {
    "raster.shared_grid": _grid_cells,
    "raster.rasterize": _occupancy,
    "raster.iou_raster": _zero_cells,
    "raster.mask_bc_raster": _zero_cells,
    "raster.iou_between": _route,
}


def public_functions():
    """(layer.name, function) for every public function defined in a layer."""
    for layer in LAYERS:
        mod = importlib.import_module(f"gbbkit.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                yield f"{layer}.{name}", obj


def instrument(rec: Recorder, skip=UNWRAPPED) -> list[tuple[object, str, object]]:
    """Wrap every public layer function not in `skip`; returns the patches made."""
    wrappers = {}
    for qualname, fn in public_functions():
        if qualname not in skip:
            wrappers[id(fn)] = (fn, _wrap(rec, qualname, fn, HOOKS.get(qualname)))
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "gbbkit" and not modname.startswith("gbbkit."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((mod, name, obj))
                setattr(mod, name, hit[1])
    return patches


def restore(patches) -> None:
    for mod, name, obj in patches:
        setattr(mod, name, obj)


def self_ns(spans) -> dict[str, int]:
    """Self time per span name: duration minus the durations of direct children."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, name, start, end, parent, item in spans:
        if parent != ROOT:
            child_ns[parent] += end - start
    out: dict[str, int] = defaultdict(int)
    for sid, name, start, end, parent, item in spans:
        out[name] += (end - start) - child_ns[sid]
    return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_ns(spans) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for name, ns in self_ns(spans).items():
        out[layer_of(name)] += ns
    return dict(out)


def calls_into(spans) -> dict[str, int]:
    """Calls entering each layer from another layer or from outside the program."""
    layer_by_id = {sid: layer_of(name) for sid, name, *_ in spans}
    out: dict[str, int] = defaultdict(int)
    for sid, name, start, end, parent, item in spans:
        layer = layer_of(name)
        if parent == ROOT or layer_by_id.get(parent) != layer:
            out[layer] += 1
    return dict(out)


def root_ns(spans) -> int:
    return sum(end - start for sid, name, start, end, parent, item in spans if parent == ROOT)


def write_csv(path, spans) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["span_id", "name", "start_ns", "end_ns", "parent_id", "item"])
        w.writerows(spans)
