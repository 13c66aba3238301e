"""gbbkit benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload score-mixed --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the program is imported from its
src/ directory.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of the traced run.  Human-readable lines
(environment, output hashes, every metric with its unit) come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Generated inputs, span files and a JSON
record of each run go to .perfbench_out/ in the checkout.  See
perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# numpy here multiplies 2x2 and 4x2 matrices; a BLAS thread pool would only
# add scheduler noise.  Set before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SPAWNS = 11  # fresh-interpreter imports per run; setup_s is their median
MIN_JOBS = 3  # timed jobs per run, however short --seconds is
MIN_PASSES = 3  # latency passes per run, so each item has a median

# glibc's mmap and trim thresholds start at 128 KiB and rise with the
# allocation history, so whether a numpy temporary of 100 KB to a few MB is
# mapped and faulted in afresh on each call, or reused from the heap, depended
# on what the process had freed before.  regress-fit's 128-cell grids sit
# just above 128 KiB: its per-step latency came out near 0.35 ms in some runs
# and 0.6 ms in others.  Pinned at the default instead, every such temporary
# faults on every call; the job then ran at about half the speed and the
# fault cost drifted with the host, so runs spread as widely.  Pinned high, the
# temporaries stay on the heap, as in a long-lived process that has freed a
# large array once.  Only this process is pinned (mallopt also switches the
# rise off); the set-up spawns run with the allocator untouched.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_PINS = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 256 << 20}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_mb": "MB",
}


PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in spans.LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "raster.grid_cells": "count",
    "raster.occupied_frac": "ratio",
    "raster.route_hbb": "count",
    "raster.route_convex": "count",
    "raster.route_raster": "count",
    "raster.zero_cell_errors": "count",
    "cli.skipped": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one gbbkit benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_malloc_thresholds() -> str:
    """Fix glibc's mmap and trim thresholds (MALLOC_PINS); say what was done."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        pinned = all(libc.mallopt(param, value) == 1 for param, value in MALLOC_PINS.items())
    except (OSError, AttributeError):
        pinned = False
    if pinned:
        return (f"mmap threshold {MALLOC_PINS[M_MMAP_THRESHOLD]} bytes, "
                f"trim threshold {MALLOC_PINS[M_TRIM_THRESHOLD]} bytes (mallopt)")
    return "default (mallopt unavailable)"


def environment(malloc: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc": malloc,
    }


def spawn_import() -> float:
    """Wall time of one fresh interpreter that only imports gbbkit.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gbbkit.cli"], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def digests(job) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(job.outputs.items())}


class Ledger:
    """Checks every job of a run and counts attempted, failed and skipped items.

    The first job is checked in full and its output hashes become the
    reference; every later job on the same seed must reproduce them byte
    for byte.  A job that exits non-zero or fails a check has all of its
    items counted as failed.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.skipped_per_job = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.reference_ok = False

    def account(self, job) -> None:
        self.attempted += self.wl.items
        problems = []
        if not job.exited_ok:
            problems.append(f"exit codes {job.codes}")
        if self.reference is None:
            self.reference = digests(job)
            try:
                found, self.skipped_per_job = self.wl.check(job)
                problems.extend(found)
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"output unreadable: {exc}")
            self.reference_ok = not problems
        elif digests(job) != self.reference:
            problems.append("output bytes differ from the first run on this seed")
        elif not self.reference_ok:
            problems.append("output repeats a run that failed its checks")
        if problems:
            self.failed += self.wl.items
            self.problems.extend(p for p in problems[:5] if p not in self.problems)
        else:
            self.skipped += self.skipped_per_job


def end_to_end(wl, ledger, seconds: float) -> tuple[dict, dict]:
    from workloads import run_job

    ledger.account(run_job(wl.invocations))  # warm-up: caches filled, outputs checked

    # Whole jobs (throughput) and latency passes take turns, each getting
    # about half of the time, so both see the same drift in machine speed.
    # The set-up spawns are spread evenly over the run for the same reason.
    calls = wl.latency_items()
    samples: list[list[float]] = [[] for _ in calls]
    throughputs, setups = [], []
    job_s = pass_s = 0.0
    passes = 0
    start = time.perf_counter()
    deadline = start + seconds
    while (len(throughputs) < MIN_JOBS or passes < MIN_PASSES or len(setups) < SETUP_SPAWNS
           or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        if len(setups) < SETUP_SPAWNS and t0 - start >= len(setups) * seconds / SETUP_SPAWNS:
            setups.append(spawn_import())
            continue
        if job_s <= pass_s:
            job = run_job(wl.invocations)
            ledger.account(job)
            throughputs.append(wl.items / job.wall_s)
            job_s += time.perf_counter() - t0
            continue
        for i, call in enumerate(calls):
            t1 = time.perf_counter()
            try:
                call()
            except ValueError:
                continue
            samples[i].append(time.perf_counter() - t1)
        passes += 1
        pass_s += time.perf_counter() - t0
    latencies = stats.per_item_medians(samples)
    tail_s, tail_pct, n_samples = stats.tail(latencies)

    tracemalloc.start()
    try:
        job = run_job(wl.invocations)
    finally:
        tracemalloc.stop()
    ledger.account(job)

    metrics = {
        "setup_s": statistics.median(setups),
        "throughput": statistics.median(throughputs),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_tail_ms": 1e3 * tail_s,
        "peak_mb": job.peak_bytes / 1e6,
    }
    extra = {
        "jobs_timed": len(throughputs),
        "latency_passes": passes,
        "item_tail_pct": tail_pct,
        "item_samples": n_samples,
        "items_failing_latency": len(calls) - n_samples,
    }
    return metrics, extra


def traced(wl, ledger, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from workloads import run_job

    ledger.account(run_job(wl.invocations))  # warm-up, untraced
    rec = spans.Recorder()
    plain, traced_walls = [], []
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < MIN_JOBS or time.perf_counter() < deadline:
        job = run_job(wl.invocations)
        ledger.account(job)
        plain.append(job.wall_s)
        rec.item = len(traced_walls)
        patches = spans.instrument(rec)
        try:
            job = run_job(wl.invocations)
        finally:
            spans.restore(patches)
        ledger.account(job)
        traced_walls.append(job.wall_s)
    spans.write_csv(spans_path, rec.spans)

    n = len(traced_walls)
    self_ns = spans.layer_self_ns(rec.spans)
    calls = spans.calls_into(rec.spans)
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9 / n
        metrics[f"{layer}.calls"] = calls.get(layer, 0) / n
    counts = rec.counts
    rasterized = counts["raster.rasterized_cells"]
    metrics["raster.grid_cells"] = counts["raster.grid_cells"] / n
    metrics["raster.occupied_frac"] = (
        counts["raster.occupied_cells"] / rasterized if rasterized else 0.0
    )
    for route in ("hbb", "convex", "raster"):
        metrics[f"raster.route_{route}"] = counts[f"raster.route_{route}"] / n
    metrics["raster.zero_cell_errors"] = counts["raster.zero_cell_errors"] / n
    metrics["cli.skipped"] = ledger.skipped_per_job
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    extra = {
        "jobs_traced": n,
        "spans": len(rec.spans),
        "root_span_s": spans.root_ns(rec.spans) / 1e9 / n,
        "layer_self_sum_s": sum(self_ns.values()) / 1e9 / n,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    malloc = pin_malloc_thresholds()
    if not (SRC / "gbbkit" / "cli.py").is_file():
        print(f"error: program source {SRC / 'gbbkit'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        env = environment(malloc)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ledger = Ledger(wl)
        if args.trace:
            metrics, extra = traced(wl, ledger, args.seconds,
                                    OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
            units = PER_LAYER_UNITS
        else:
            metrics, extra = end_to_end(wl, ledger, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra["items_skipped"] = ledger.skipped
    extra["failed_frac"] = stats.failed_frac(ledger.attempted, ledger.skipped, ledger.failed)
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "sha256": ledger.reference, "extra": extra,
        "problems": ledger.problems, **result,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in env.items():
        print(f"env {key} {value}")
    for name, digest in (ledger.reference or {}).items():
        print(f"sha256 {name} {digest}")
    for problem in ledger.problems:
        print(f"check FAILED {problem}")
    for name, value in extra.items():
        print(f"info {name} {value}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
