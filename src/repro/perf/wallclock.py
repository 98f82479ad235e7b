"""Wall-clock measurement of real (NumPy) schedule execution.

Used by the pytest-benchmark suite and the engine bench: on this
substrate the kernels are vectorised NumPy region updates rather than
compiled C, so absolute numbers are not comparable to the paper's, but
relative costs between schemes on the *same* substrate are still
informative (loop/dispatch overhead per task, cache behaviour of block
traversals, and the compiled engine's speedup over the naive executor).

Measurement discipline for the engine comparisons: ``repeat=k`` runs
the workload ``k`` times after ``warmup`` discarded runs and reports
the **minimum** — the standard estimator for the noise floor of a
deterministic computation (any excess over the minimum is interference,
not work).  The single-shot path (``repeat=1, warmup=0``, the default)
is unchanged for existing callers.

The ``benchmarks/bench_*.py`` scripts share one harness from here:
:func:`interleaved_medians`, :func:`restored`, :func:`env_fingerprint`
and the ``--check`` gate :func:`check_regression`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.schedule import RegionSchedule, _execute_schedule
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


def _timed_runs(run: Callable[[], object], repeat: int,
                warmup: int) -> Tuple[float, object]:
    """Min-of-``repeat`` seconds after ``warmup`` discarded runs."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        run()
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = run()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, out


def interleaved_medians(runs, repeat: int,
                        warmup: int) -> List[Tuple[float, object]]:
    """``(median seconds, last output)`` of each callable in ``runs``.

    For ratios between workloads on a shared, noisy machine: the
    callables alternate inside every repeat, so a shift in machine
    speed (other tenants) lands on both sides of the ratio, and the
    median, unlike the minimum, is not set by one lucky repeat of one
    side.
    """
    for _ in range(warmup):
        for run in runs:
            run()
    times: List[List[float]] = [[] for _ in runs]
    outs: List[object] = [None for _ in runs]
    for _ in range(repeat):
        for i, run in enumerate(runs):
            t0 = time.perf_counter()
            outs[i] = run()
            times[i].append(time.perf_counter() - t0)
    return [(float(np.median(ts)), out) for ts, out in zip(times, outs)]


def restored(grid: Grid, init, fn: Callable[[], object]) -> Callable:
    """``fn`` preceded by copying the buffer pair ``init`` back into
    ``grid``, so every timed repeat runs on the same initial state."""

    def run():
        for dst, src in zip(grid.buffers, init):
            np.copyto(dst, src)
        return fn()

    return run


def env_fingerprint() -> Dict[str, object]:
    """The measurement environment: enough to spot stale baselines."""
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {"numpy": np.__version__, "cpus": os.cpu_count(),
            "threads_env": {k: os.environ[k] for k in threads
                            if k in os.environ}}


def check_regression(rows, baseline_path: str, tolerance: float,
                     row_key: Callable[[dict], tuple],
                     env: Optional[dict] = None) -> bool:
    """The ``--check`` gate: fails when no row matches the baseline by
    ``row_key``, or one's ``speedup`` fell more than ``tolerance`` below
    its baseline row.  A differing ``env`` only warns."""
    with open(baseline_path) as fh:
        base = json.load(fh)
    if env is not None and base.get("env") not in (None, env):
        print(f"WARNING: environment fingerprint differs from "
              f"{baseline_path}: baseline {base['env']}, current {env} "
              f"(speedup ratios are still compared; absolute numbers "
              f"are not comparable)", file=sys.stderr)
    base_rows = {row_key(r): r for r in base.get("rows", [])}
    pairs = [(row, base_rows[row_key(row)]) for row in rows
             if row_key(row) in base_rows]
    keep = 1.0 - tolerance
    failures = [
        f"  {'/'.join(map(str, row_key(row)))}: speedup "
        f"{row['speedup']:.2f}x < {keep * ref['speedup']:.2f}x "
        f"(baseline {ref['speedup']:.2f}x - {tolerance:.0%})"
        for row, ref in pairs if row["speedup"] < keep * ref["speedup"]
    ]
    if not pairs:
        print(f"regression check: no rows in common with {baseline_path}",
              file=sys.stderr)
    elif failures:
        print(f"regression check FAILED vs {baseline_path}:", *failures,
              sep="\n", file=sys.stderr)
    else:
        print(f"regression check OK: {len(pairs)} row(s) within "
              f"{tolerance:.0%} of {baseline_path}")
    return bool(pairs) and not failures


def time_schedule(
    spec: StencilSpec,
    schedule: RegionSchedule,
    seed: int = 0,
    repeat: int = 1,
    warmup: int = 0,
    engine: str = "naive",
) -> Tuple[float, np.ndarray]:
    """Time a schedule on a fresh grid; returns (seconds, final interior).

    ``repeat``/``warmup`` select min-of-k measurement (see module
    docstring); every run starts from the same initial state, restored
    by buffer copy (an identical, negligible cost under either engine),
    so repeats measure identical work.  ``engine="compiled"`` times the
    cached compiled plan's stream (compile time excluded — that is the
    cache's amortised cost); ``"naive"`` times the sequential schedule
    walk (or the overlapped executor for ghost-zone schedules).

    Timing runs the backend engines directly — not through the
    :mod:`repro.api` facade — so measured numbers exclude the facade's
    stats assembly; plans are still obtained via the shared plan cache.
    """
    if engine not in ("naive", "compiled"):
        raise ValueError(f"unknown engine {engine!r}")
    grid = Grid(spec, schedule.shape, init="random", seed=seed)
    if engine == "compiled":
        from repro.engine.cache import get_plan

        plan = get_plan(spec, schedule)
        return time_plan(plan, grid, repeat=repeat, warmup=warmup)
    if schedule.private_tasks:
        from repro.baselines.overlapped import execute_overlapped as runner
    else:
        runner = _execute_schedule
    if repeat == 1 and warmup == 0:
        # single-shot compatibility path: exactly the historical
        # measurement (no restore machinery)
        t0 = time.perf_counter()
        out = runner(spec, grid, schedule)
        return time.perf_counter() - t0, out
    init = [b.copy() for b in grid.buffers]
    run = restored(grid, init, lambda: runner(spec, grid, schedule))
    return _timed_runs(run, repeat, warmup)


def time_plan(plan, grid: Optional[Grid] = None, seed: int = 0,
              repeat: int = 1, warmup: int = 0) -> Tuple[float, np.ndarray]:
    """Time a compiled plan; returns (min seconds, final interior).

    The grid's initial buffer pair is snapshotted once and restored
    (by buffer copy) at the start of every run, so each repeat executes
    the identical computation on warmed scratch arenas.
    """
    from repro.engine.plan import _execute_plan

    if grid is None:
        grid = Grid(plan.spec, plan.shape, init="random", seed=seed)
    init = [b.copy() for b in grid.buffers]
    run = restored(grid, init, lambda: _execute_plan(plan, grid))
    return _timed_runs(run, repeat, warmup)
