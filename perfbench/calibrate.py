"""Which layer functions cost less per call than a span.

    python3 perfbench/calibrate.py [--seed 1]

Measures the cost of one span (a wrapped no-op against the bare no-op),
then runs one job of every workload with every public layer function
wrapped and prints each function's call count and mean own cost (span
duration less the wrapper's share inside it).  A function whose own cost
is below the span cost belongs in spans.UNWRAPPED; the list there was
produced with this script.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def span_cost_ns(n: int = 200_000) -> tuple[float, float]:
    """(added cost of one span, part of it that falls inside the span's own
    start and end), both in ns, from a wrapped no-op."""

    def noop():
        return None

    rec = spans.Recorder()
    wrapped = spans._wrap(rec, "calibrate.noop", noop)
    best = {}
    for label, fn in (("bare", noop), ("wrapped", wrapped)):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(n):
                fn()
            runs.append((time.perf_counter_ns() - t0) / n)
        best[label] = min(runs)
    inside = sorted(end - start for _, _, start, end, _, _ in rec.spans)[len(rec.spans) // 2]
    return best["wrapped"] - best["bare"], inside


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    cost, inside = span_cost_ns()
    print(f"span cost {cost:.0f} ns per call, {inside:.0f} ns of it inside the span")
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="calibrate-", dir=out_dir))
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(args.seed, workdir)
            workloads.run_job(wl.invocations)  # warm-up
            rec = spans.Recorder()
            patches = spans.instrument(rec, skip=frozenset())
            try:
                workloads.run_job(wl.invocations)
            finally:
                spans.restore(patches)
            for _, fn_name, start, end, _, _ in rec.spans:
                calls[fn_name] += 1
                total[fn_name] += end - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'function':32s} {'calls':>9s} {'own_ns':>10s}  decision")
    for fn_name in sorted(calls, key=lambda k: total[k] / calls[k]):
        own = total[fn_name] / calls[fn_name] - inside
        verdict = "unwrap" if own < cost else "wrap"
        print(f"{fn_name:32s} {calls[fn_name]:9d} {own:10.0f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
