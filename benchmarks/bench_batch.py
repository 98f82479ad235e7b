"""Batched-backend benchmark: N-instance loop vs one stacked run.

Standalone script (not a pytest bench) emitting machine-readable
``BENCH_batch.json``: for each (kernel, shape, steps, b) workload and
each batch width N it times the full per-request path both ways —

* **loop**: N independent ``Session.run`` calls (``backend="compiled"``,
  seeds ``seed .. seed+N-1``), each paying its own plan-cache lookup,
  grid set-up and per-unit dispatch, exactly like N service jobs
  running back to back (the schedule is built once per configuration,
  not once per call: every call after the first is a cache hit);
* **batched**: one ``Session.run_many`` call (``backend="batched"``,
  ``batch=N``) that runs every plan unit over the ``[N, ...]`` stack in
  a single kernel dispatch.

The two sides alternate inside every repeat and each reports the
median of its repeats, so a shift in machine speed lands on both sides
of the ratio.  Results must be bit-identical per instance; the headline
number is the aggregate instances/sec ratio (``speedup``), plus
``speedup_vs_n1`` — the batched throughput at this N against the same
workload's N=1 loop row.  The loop builds each configuration once, so
the ratio is what batching itself buys: on the committed baseline 1.7x
at N=8 and 1.8x at N=32 on the fig8-class workload, 3.7x for Life at
N=32, and 1.0-1.3x for Heat-2D 96x96, whose per-instance kernels are
already large.

Modes mirror ``bench_engine.py``: default (full) runs the fig8-class
(Heat-1D 4000 points) and fig10-class (Heat-2D 96x96) serving sizes at
N in {1, 8, 32} plus a Life variant — the committed ``BENCH_batch.json``
comes from this mode; ``--quick`` runs a subset of the same row keys
for CI smoke, so a quick run can be regression-checked against the
committed baseline with ``--check``.

The payload also carries an environment fingerprint (numpy version,
CPU count, thread env); ``--check`` warns (never fails) when the
fingerprint differs from the baseline's, so stale-baseline drift is
visible without breaking CI on heterogeneous runners.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py
    PYTHONPATH=src python benchmarks/bench_batch.py --quick \
        --out /tmp/bench.json --check BENCH_batch.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.perf.wallclock import (
    check_regression,
    env_fingerprint,
    interleaved_medians,
)

SCHEMA = "bench-batch/1"

#: (name, kernel, shape, steps, b, Ns, quick)
WORKLOADS = [
    ("fig8-heat1d", "heat1d", (4000,), 16, 4, (1, 8, 32), True),
    ("fig10-heat2d", "heat2d", (96, 96), 8, 4, (1, 8, 32), False),
    ("fig9-life", "life", (64, 64), 8, 4, (1, 32), False),
]

#: which Ns the quick mode runs (a subset of the full rows, so quick
#: runs are checkable against the committed full baseline)
QUICK_NS = (1, 8)


def bench_workload(name, kernel, shape, steps, b, n, repeat, warmup):
    session = Session(get_stencil(kernel))
    base = RunConfig(shape=shape, steps=steps, b=b, seed=0,
                     backend="compiled", engine="compiled")
    batch_cfg = base.with_overrides({"backend": "batched", "batch": n})

    def loop_run():
        outs = []
        for i in range(n):
            cfg = base.with_overrides({"seed": base.seed + i})
            outs.append(np.array(session.run(cfg).interior, copy=True))
        return outs

    def batch_run():
        return [np.array(r.interior, copy=True)
                for r in session.run_many(batch_cfg)]

    (loop_s, loop_out), (batch_s, batch_out) = interleaved_medians(
        (loop_run, batch_run), repeat, warmup)
    identical = all(
        np.array_equal(a, c) and a.tobytes() == c.tobytes()
        for a, c in zip(loop_out, batch_out)
    )
    return {
        "name": name,
        "kernel": kernel,
        "shape": list(shape),
        "steps": steps,
        "b": b,
        "n": n,
        "loop_s": loop_s,
        "batched_s": batch_s,
        "loop_ips": n / loop_s if loop_s > 0 else 0.0,
        "batched_ips": n / batch_s if batch_s > 0 else 0.0,
        "speedup": loop_s / batch_s if batch_s > 0 else 0.0,
        "identical": identical,
    }


def _row_key(row):
    return (row["name"], row["n"])


def _annotate_vs_n1(rows):
    """Attach the acceptance metric: batched instances/sec at this N
    over the same workload's N=1 loop throughput."""
    n1_ips = {r["name"]: r["loop_ips"] for r in rows if r["n"] == 1}
    for row in rows:
        base = n1_ips.get(row["name"])
        row["speedup_vs_n1"] = (
            row["batched_ips"] / base if base else 0.0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: fig8-class workload at small N only")
    ap.add_argument("--out", default="BENCH_batch.json",
                    help="output JSON path (default: %(default)s)")
    ap.add_argument("--repeat", type=int, default=None,
                    help="median-of-k repeats (default: 5)")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare speedups against a baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed speedup regression (default: 0.25)")
    args = ap.parse_args(argv)
    repeat = args.repeat or 5

    rows = []
    for name, kernel, shape, steps, b, ns, quick in WORKLOADS:
        if args.quick and not quick:
            continue
        for n in ns:
            if args.quick and n not in QUICK_NS:
                continue
            row = bench_workload(name, kernel, shape, steps, b, n,
                                 repeat, warmup=1)
            rows.append(row)
            flag = "" if row["identical"] else "  ** MISMATCH **"
            print(f"{name:16s} n={n:3d}  "
                  f"loop {row['loop_s'] * 1e3:9.1f} ms  "
                  f"batched {row['batched_s'] * 1e3:8.1f} ms  "
                  f"{row['speedup']:6.1f}x{flag}")
    _annotate_vs_n1(rows)

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
        print("FAILED: batched results are not bit-identical",
              file=sys.stderr)
    if args.check:
        ok = check_regression(rows, args.check, args.tolerance, _row_key,
                              env=env) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
