"""Compiled-engine benchmark: naive executor vs compiled plans.

Standalone script (not a pytest bench) emitting machine-readable
``BENCH_engine.json``: for each (kernel, scheme, grid, threads)
workload it times the naive schedule interpreter, the compiled engine
and the plain vectorized sweep (``reference_sweep``) on identical
initial state, verifies bit-identical results, and records points/sec
plus the compiled/naive speedup.  The three alternate inside every
repeat and each reports its median
(:func:`repro.perf.wallclock.interleaved_medians`), so a shift in
machine speed lands on both sides of the guarded ratio.  Every row
also carries the cold ``build_s`` (lattice + schedule) and
``compile_s`` (schedule -> plan) of its configuration, and
``speedup_vs_sweep``, the compiled engine against the sweep.

Modes:

* default (full): the paper-scale Fig. 8 (Heat-1D, 40000 points,
  64 steps, b=8) and Fig. 10 (Heat-2D, 384x384, 24 steps, b=4)
  workloads plus merged/Life/threaded variants — the committed
  ``BENCH_engine.json`` comes from this mode and is the evidence for
  the >= 3x acceptance bar;
* ``--quick``: a small subset of the same workload keys for CI smoke.
  Quick rows are (by construction) a subset of the full rows, so a
  quick run can be regression-checked against the committed baseline.

Both sets carry ``session-repeat-heat2d``, the request perfbench's
``session-repeat`` workload repeats (heat2d 128², 16 steps, b=4,
merged tess at the default widths), so the warm-path kernels have a
guarded row of their own.

``--check BASELINE.json`` compares the *speedup* of every row whose
key also appears in the baseline and exits 1 if any regressed by more
than ``--tolerance`` (default 20%).  Speedup is a same-machine ratio,
so the check is meaningful on hosts with different absolute throughput.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --quick \
        --out /tmp/bench.json --check BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import Grid, get_stencil, make_lattice
from repro.core.schedules import tess_schedule
from repro.engine import PlanCache
from repro.perf.wallclock import (
    check_regression,
    env_fingerprint,
    interleaved_medians,
    restored,
)
from repro.runtime.schedule import _execute_schedule
from repro.runtime.threadpool import _execute_threaded
from repro.stencils.reference import reference_sweep

SCHEMA = "bench-engine/1"


#: (name, kernel, shape, steps, b, merged, threads, quick)
WORKLOADS = [
    ("fig8-heat1d-quick", "heat1d", (4000,), 16, 4, False, 1, True),
    ("fig10-heat2d-quick", "heat2d", (96, 96), 8, 4, False, 1, True),
    # perfbench's session-repeat request: merged tess, default widths
    ("session-repeat-heat2d", "heat2d", (128, 128), 16, 4, True, 1, True),
    ("fig8-heat1d", "heat1d", (40000,), 64, 8, False, 1, False),
    ("fig10-heat2d", "heat2d", (384, 384), 24, 4, False, 1, False),
    ("fig10-heat2d-merged", "heat2d", (384, 384), 24, 4, True, 1, False),
    ("fig9-life", "life", (256, 256), 16, 4, False, 1, False),
    ("fig10-heat2d-t4", "heat2d", (384, 384), 24, 4, False, 4, False),
]


def bench_workload(name, kernel, shape, steps, b, merged, threads,
                   cache, repeat, warmup):
    spec = get_stencil(kernel)
    t0 = time.perf_counter()
    lat = make_lattice(spec, shape, b)
    sched = tess_schedule(spec, shape, lat, steps, merged=merged)
    build_s = time.perf_counter() - t0
    plan = cache.get(spec, sched, params=(b, bool(merged)))

    # one grid per timed run, so the outputs compared below are distinct
    grid = Grid(spec, shape, init="random", seed=0)
    init = [buf.copy() for buf in grid.buffers]
    g_naive, g_comp, g_sweep = grid, grid.copy(), grid.copy()

    if threads == 1:
        from repro.engine.plan import _execute_plan

        naive_fn = restored(g_naive, init,
                            lambda: _execute_schedule(spec, g_naive, sched))
        comp_fn = restored(g_comp, init,
                           lambda: _execute_plan(plan, g_comp))
    else:
        naive_fn = restored(
            g_naive, init,
            lambda: _execute_threaded(spec, g_naive, sched,
                                      num_threads=threads))
        comp_fn = restored(
            g_comp, init,
            lambda: _execute_threaded(spec, g_comp, sched,
                                      num_threads=threads, plan=plan))
    sweep_fn = restored(g_sweep, init,
                        lambda: reference_sweep(spec, g_sweep, steps))

    (naive_s, naive_out), (comp_s, comp_out), (sweep_s, sweep_out) = \
        interleaved_medians((naive_fn, comp_fn, sweep_fn), repeat, warmup)
    identical = (naive_out.tobytes() == comp_out.tobytes()
                 and sweep_out.tobytes() == comp_out.tobytes())

    points = sched.total_points()
    row = {
        "name": name,
        "kernel": kernel,
        "scheme": sched.scheme,
        "shape": list(shape),
        "steps": steps,
        "b": b,
        "merged": bool(merged),
        "threads": threads,
        "points": int(points),
        "build_s": build_s,
        "compile_s": plan.stats.compile_seconds,
        "naive_s": naive_s,
        "compiled_s": comp_s,
        "sweep_s": sweep_s,
        "naive_pps": points / naive_s if naive_s > 0 else 0.0,
        "compiled_pps": points / comp_s if comp_s > 0 else 0.0,
        "speedup": naive_s / comp_s if comp_s > 0 else 0.0,
        "speedup_vs_sweep": sweep_s / comp_s if comp_s > 0 else 0.0,
        "identical": identical,
        "plan": plan.stats.describe(),
    }
    return row


def _row_key(row):
    return (row["name"], row["threads"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: small workloads only")
    ap.add_argument("--out", default="BENCH_engine.json",
                    help="output JSON path (default: %(default)s)")
    ap.add_argument("--repeat", type=int, default=5,
                    help="interleaved repeats, median reported "
                         "(default: %(default)s)")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare speedups against a baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed speedup regression (default: 0.20)")
    args = ap.parse_args(argv)
    repeat = args.repeat

    cache = PlanCache(capacity=16)
    rows = []
    for name, kernel, shape, steps, b, merged, threads, quick in WORKLOADS:
        if args.quick and not quick:
            continue
        row = bench_workload(name, kernel, shape, steps, b, merged,
                             threads, cache, repeat, warmup=1)
        rows.append(row)
        flag = "" if row["identical"] else "  ** MISMATCH **"
        print(f"{name:24s} threads={threads}  "
              f"build {row['build_s'] * 1e3:7.1f} ms  "
              f"compile {row['compile_s'] * 1e3:7.1f} ms  "
              f"naive {row['naive_s'] * 1e3:9.1f} ms  "
              f"compiled {row['compiled_s'] * 1e3:8.1f} ms  "
              f"sweep {row['sweep_s'] * 1e3:7.1f} ms  "
              f"{row['speedup']:6.1f}x{flag}")

    env = env_fingerprint()
    payload = {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "repeat": repeat,
        "env": env,
        "cache": cache.stats.as_dict(),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({len(rows)} row(s))")

    ok = all(r["identical"] for r in rows)
    if not ok:
        print("FAILED: compiled results are not bit-identical",
              file=sys.stderr)
    if args.check:
        ok = check_regression(rows, args.check, args.tolerance, _row_key,
                              env=env) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
