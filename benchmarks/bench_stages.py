"""Staged-system benchmark: compiled macro-step plans vs per-stage naive.

Standalone script (not a pytest bench) emitting machine-readable
``BENCH_stages.json``.  For each shipped system it times three drivers
on identical initial state and verifies all three land bit-identical:

* ``naive_s`` — the interpreted schedule walk
  (:func:`~repro.runtime.schedule._execute_schedule` over the same
  tess schedule): one :meth:`StagedOperator.apply` call per action,
  re-deriving views and scratch bookkeeping every time.  This is the
  repo's standing "naive executor" column (``BENCH_engine.json`` uses
  the same baseline) and the denominator of the acceptance speedup;
* ``sweep_s`` — the vectorized per-stage full-grid sweep
  (:func:`~repro.stencils.reference.reference_step` in a loop), the
  honesty column: whole-array NumPy with no tiling at all.  On grids
  that fit in cache it can beat tiled execution — the ratio is
  reported, not hidden;
* ``compiled_s`` — the compiled plan (gather/scatter staged batch
  kernels, precomputed index vectors, plan-cache reuse).

A final ``mode="batched"`` row times N independent compiled runs
against one ``run_many`` batch of the same N instances (the staged
many-instances aggregate), alternating the two inside every repeat
and reporting the median of each.

``--check BASELINE.json`` compares the *speedup* of every row whose
key also appears in the baseline and exits 1 if any regressed by more
than ``--tolerance`` (default 25%).  Speedup is a same-machine ratio,
so the check is meaningful on hosts with different absolute throughput.

Usage::

    PYTHONPATH=src python benchmarks/bench_stages.py
    PYTHONPATH=src python benchmarks/bench_stages.py --quick \
        --out /tmp/bench.json --check BENCH_stages.json
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

import numpy as np

from repro import Grid, make_lattice
from repro.api import RunConfig, Session
from repro.core.schedules import tess_schedule
from repro.engine import PlanCache
from repro.engine.plan import _execute_plan
from repro.perf.wallclock import interleaved_medians
from repro.runtime.schedule import _execute_schedule
from repro.stencils.reference import reference_step
from repro.stencils.systems import get_system

SCHEMA = "bench-stages/1"


def env_fingerprint():
    """The measurement environment: enough to spot stale baselines."""
    return {
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "threads_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


#: (name, system, shape, steps, b, quick)
WORKLOADS = [
    ("fig8-fdtd1d-quick", "fdtd1d", (4000,), 16, 4, True),
    ("fdtd2d-quick", "fdtd2d", (64, 64), 8, 4, True),
    ("fig8-fdtd1d", "fdtd1d", (40000,), 64, 8, False),
    ("fdtd2d", "fdtd2d", (192, 192), 24, 4, False),
    ("shallow-water", "shallow_water", (192, 192), 24, 4, False),
    ("gray-scott", "gray_scott", (192, 192), 24, 4, False),
]

#: (name, system, shape, steps, b, n, quick) — loop-of-N vs one batch
BATCH_WORKLOADS = [
    ("fdtd2d-batch8", "fdtd2d", (96, 96), 12, 4, 8, False),
    ("fdtd2d-batch4-quick", "fdtd2d", (48, 48), 8, 4, 4, True),
]


def _min_of_k(run, repeat, warmup):
    for _ in range(warmup):
        run()
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = run()
        dt = time.perf_counter() - t0
        if dt < best:
            best, out = dt, out
    return best, out


def _restored(grid, init, fn):
    def run():
        for dst, src in zip(grid.buffers, init):
            np.copyto(dst, src)
        return fn()

    return run


def _initial_grid(spec, shape):
    grid = Grid(spec, shape, init="random", seed=0)
    if spec.name == "gray_scott":
        # iid-random fields push the explicit-Euler reaction terms to
        # overflow at benchmark scale; use the standard Gray-Scott
        # start instead (u ~ 1 everywhere, a seeded v patch)
        fu, fv = spec.field_index("u"), spec.field_index("v")
        rng = np.random.default_rng(0)
        u = np.ones(shape)
        v = np.zeros(shape)
        sl = tuple(slice(n // 3, 2 * n // 3) for n in shape)
        v[sl] = 0.5 * rng.random(v[sl].shape)
        u -= v
        for parity in (0, 1):
            grid.interior(parity)[fu] = u
            grid.interior(parity)[fv] = v
    return grid


def bench_workload(name, system, shape, steps, b, cache, repeat, warmup):
    spec = get_system(system)
    lat = make_lattice(spec, shape, b)
    sched = tess_schedule(spec, shape, lat, steps)
    plan = cache.get(spec, sched, params=(b,))

    grid = _initial_grid(spec, shape)
    init = [buf.copy() for buf in grid.buffers]

    def sweep():
        for t in range(steps):
            reference_step(spec, grid, t)
        return grid.interior(steps)

    naive_fn = _restored(grid, init,
                         lambda: _execute_schedule(spec, grid, sched))
    sweep_fn = _restored(grid, init, sweep)
    comp_fn = _restored(grid, init, lambda: _execute_plan(plan, grid))

    naive_s, naive_out = _min_of_k(naive_fn, repeat, warmup)
    naive_out = np.array(naive_out, copy=True)
    sweep_s, sweep_out = _min_of_k(sweep_fn, repeat, warmup)
    sweep_out = np.array(sweep_out, copy=True)
    comp_s, comp_out = _min_of_k(comp_fn, repeat, warmup)
    identical = bool(
        naive_out.tobytes() == comp_out.tobytes()
        and sweep_out.tobytes() == comp_out.tobytes()
    )

    points = sched.total_points()
    return {
        "mode": "single",
        "name": name,
        "system": system,
        "stages": len(spec.stages),
        "shape": list(shape),
        "steps": steps,
        "b": b,
        "points": int(points),
        "naive_s": naive_s,
        "sweep_s": sweep_s,
        "compiled_s": comp_s,
        "compiled_pps": points / comp_s if comp_s > 0 else 0.0,
        "speedup": naive_s / comp_s if comp_s > 0 else 0.0,
        "speedup_vs_sweep": sweep_s / comp_s if comp_s > 0 else 0.0,
        "identical": identical,
    }


def bench_batch_workload(name, system, shape, steps, b, n, repeat, warmup):
    session = Session(get_system(system))
    base = RunConfig(shape=shape, steps=steps, b=b, seed=0,
                     backend="compiled")
    batch_cfg = base.with_overrides({"backend": "batched", "batch": n})

    def loop_run():
        return [
            np.array(session.run(
                base.with_overrides({"seed": base.seed + i})).interior,
                copy=True)
            for i in range(n)
        ]

    def batch_run():
        return [np.array(r.interior, copy=True)
                for r in session.run_many(batch_cfg)]

    (loop_s, loop_out), (batch_s, batch_out) = interleaved_medians(
        (loop_run, batch_run), repeat, warmup)
    identical = all(
        a.tobytes() == c.tobytes() for a, c in zip(loop_out, batch_out)
    )
    return {
        "mode": "batched",
        "name": name,
        "system": system,
        "shape": list(shape),
        "steps": steps,
        "b": b,
        "n": n,
        "loop_s": loop_s,
        "batched_s": batch_s,
        "batched_ips": n / batch_s if batch_s > 0 else 0.0,
        "speedup": loop_s / batch_s if batch_s > 0 else 0.0,
        "identical": identical,
    }


def _row_key(row):
    return (row["mode"], row["name"])


def check_regression(rows, baseline_path, tolerance, env=None):
    with open(baseline_path) as fh:
        base = json.load(fh)
    base_env = base.get("env")
    if env is not None and base_env is not None and base_env != env:
        print(f"WARNING: environment fingerprint differs from "
              f"{baseline_path}: baseline {base_env}, current {env} "
              f"(speedup ratios are still compared; absolute numbers "
              f"are not comparable)", file=sys.stderr)
    base_rows = {_row_key(r): r for r in base.get("rows", [])}
    compared, failures = 0, []
    for row in rows:
        ref = base_rows.get(_row_key(row))
        if ref is None:
            continue
        compared += 1
        floor = (1.0 - tolerance) * ref["speedup"]
        if row["speedup"] < floor:
            failures.append(
                f"  {row['name']}: speedup {row['speedup']:.2f}x < "
                f"{floor:.2f}x (baseline {ref['speedup']:.2f}x "
                f"- {tolerance:.0%})")
    if compared == 0:
        print(f"regression check: no rows in common with {baseline_path}",
              file=sys.stderr)
        return False
    if failures:
        print(f"regression check FAILED vs {baseline_path}:",
              file=sys.stderr)
        for f in failures:
            print(f, file=sys.stderr)
        return False
    print(f"regression check OK: {compared} row(s) within "
          f"{tolerance:.0%} of {baseline_path}")
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: small workloads only")
    ap.add_argument("--out", default="BENCH_stages.json",
                    help="output JSON path (default: %(default)s)")
    ap.add_argument("--repeat", type=int, default=None,
                    help="min-of-k repeats (default: 3, quick: 2)")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare speedups against a baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed speedup regression (default: 0.25)")
    args = ap.parse_args(argv)
    repeat = args.repeat or (2 if args.quick else 3)

    cache = PlanCache(capacity=16)
    rows = []
    for name, system, shape, steps, b, quick in WORKLOADS:
        if args.quick and not quick:
            continue
        row = bench_workload(name, system, shape, steps, b, cache,
                             repeat, warmup=1)
        rows.append(row)
        flag = "" if row["identical"] else "  ** MISMATCH **"
        print(f"{name:22s} naive {row['naive_s'] * 1e3:9.1f} ms  "
              f"sweep {row['sweep_s'] * 1e3:8.1f} ms  "
              f"compiled {row['compiled_s'] * 1e3:8.1f} ms  "
              f"{row['speedup']:6.1f}x "
              f"({row['speedup_vs_sweep']:.2f}x vs sweep){flag}")
    for name, system, shape, steps, b, n, quick in BATCH_WORKLOADS:
        if args.quick and not quick:
            continue
        row = bench_batch_workload(name, system, shape, steps, b, n,
                                   repeat, warmup=1)
        rows.append(row)
        flag = "" if row["identical"] else "  ** MISMATCH **"
        print(f"{name:22s} loop  {row['loop_s'] * 1e3:9.1f} ms  "
              f"batched {row['batched_s'] * 1e3:8.1f} ms  "
              f"{row['speedup']:6.1f}x{flag}")

    env = env_fingerprint()
    payload = {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "repeat": repeat,
        "env": env,
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({len(rows)} row(s))")

    ok = all(r["identical"] for r in rows)
    if not ok:
        print("FAILED: results are not bit-identical", file=sys.stderr)
    if args.check:
        ok = check_regression(rows, args.check, args.tolerance,
                              env=env) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
