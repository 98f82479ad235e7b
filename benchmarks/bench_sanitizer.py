"""Schedule-sanitizer pre-flight overhead.

Measures what ``--sanitize`` costs on the happy path: points/sec of a
threaded ``Session.execute`` run with and without the structural
pre-flight, across growing problem sizes.  Not a paper figure; this
quantifies the engineering trade-off recorded in ``docs/sanitizer.md``.
Three guards:

* on heat1d the guarded run stays within a bounded multiple of the
  plain one;
* the race check compares O(tasks log tasks) task pairs, not the
  quadratic all-pairs count — only pairs whose dilated bounding boxes
  meet, found by a rectangle join keyed by barrier group;
* on heat2d 256² (default tiles, 16 steps, b=4) the pre-flight takes
  less time than the same schedule's 2-thread ``threaded`` execute.
  The pre-flight's cost grows with the rectangle pairs its joins
  compare, and its per-step disjointness proof expands cells for steps
  of many rectangles, so a 1D row alone cannot show it.
"""

import math
import statistics
import time

from repro import Grid, get_stencil, make_lattice
from repro.api import Session
from repro.cli import _build_schedule
from repro.core.schedules import tess_schedule
from repro.runtime import sanitize_schedule

B = 4
STEPS = 8


def _build(n):
    spec = get_stencil("heat1d")
    shape = (n,)
    lat = make_lattice(spec, shape, B)
    sched = tess_schedule(spec, shape, lat, STEPS, merged=True)
    return spec, shape, sched


def test_sanitizer_preflight_overhead(benchmark, capsys):
    """Points/sec with and without the --sanitize pre-flight."""
    spec, shape, sched = _build(4000)
    points = sched.total_points()
    session = Session(spec)

    def run(sanitize):
        grid = Grid(spec, shape, seed=0)
        t0 = time.perf_counter()
        session.execute(grid, sched, backend="threaded", threads=2,
                        sanitize=sanitize)
        return time.perf_counter() - t0

    plain = benchmark.pedantic(lambda: run(False), rounds=1, iterations=1)
    guarded = run(True)
    report = sanitize_schedule(spec, sched)

    with capsys.disabled():
        print("\n[sanitizer] pre-flight overhead, heat1d "
              f"n={shape[0]} steps={STEPS} b={B} "
              f"({len(sched.tasks)} tasks, {report.actions_checked} actions):")
        print(f"  plain     : {points / plain:12.0f} points/s")
        print(f"  --sanitize: {points / guarded:12.0f} points/s "
              f"(pre-flight {report.seconds * 1e3:.1f} ms, "
              f"{report.pairs_checked} pairs checked)")

    assert report.ok, report.describe()
    # the pre-flight may dominate tiny runs, but must stay bounded: the
    # guarded run cannot be more than pre-flight + plain by a wide margin
    assert guarded < plain + 20 * max(report.seconds, 0.05)


def test_race_sweep_is_near_linear(benchmark, capsys):
    """The bbox join compares O(tasks log tasks) pairs, not O(tasks^2)."""
    sizes = (1000, 2000, 4000, 8000)

    def measure():
        rows = []
        for n in sizes:
            spec, _, sched = _build(n)
            rep = sanitize_schedule(spec, sched)
            assert rep.ok, rep.describe()
            ntasks = len(sched.tasks)
            rows.append((n, ntasks, rep.pairs_checked, rep.seconds))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    with capsys.disabled():
        print("\n[sanitizer] race-check scaling (heat1d, "
              f"steps={STEPS}, b={B}):")
        print(f"  {'n':>6} {'tasks':>6} {'pairs':>8} "
              f"{'n log n':>9} {'seconds':>8}")
        for n, ntasks, pairs, secs in rows:
            bound = ntasks * math.log2(max(ntasks, 2))
            print(f"  {n:>6} {ntasks:>6} {pairs:>8} "
                  f"{bound:>9.0f} {secs:>8.3f}")

    # pairs compared bounded by C * tasks * log2(tasks) with a small
    # constant (only task pairs whose dilated bboxes meet are compared,
    # so neighbours dominate)
    for _, ntasks, pairs, _ in rows:
        assert pairs <= 8 * ntasks * math.log2(max(ntasks, 2)), (
            f"race sweep superlinear: {pairs} pairs for {ntasks} tasks")

    # doubling the problem should not quadruple the pair count
    (_, t0, p0, _), (_, t1, p1, _) = rows[0], rows[-1]
    growth = p1 / max(p0, 1)
    task_growth = t1 / max(t0, 1)
    assert growth <= 2.0 * task_growth, (
        f"pair count grew {growth:.1f}x for {task_growth:.1f}x tasks")


def test_preflight_undercuts_a_threaded_run_in_2d(benchmark, capsys):
    """heat2d 256²: pre-flight seconds ÷ 2-thread execute seconds < 1."""
    spec = get_stencil("heat2d")
    shape = (256, 256)
    sched = _build_schedule(spec, shape, 16, "tess", 4)

    def preflight():
        return [sanitize_schedule(spec, sched) for _ in range(3)]

    reports = benchmark.pedantic(preflight, rounds=1, iterations=1)
    assert all(r.ok for r in reports), reports[0].describe()
    assert sched._tasks is None     # the pre-flight read only the table
    session = Session(spec)
    runs = []
    for _ in range(2):
        grid = Grid(spec, shape, seed=0)
        t0 = time.perf_counter()
        session.execute(grid, sched, backend="threaded", threads=2)
        runs.append(time.perf_counter() - t0)
    check = statistics.median(r.seconds for r in reports)
    ratio = check / min(runs)

    with capsys.disabled():
        print(f"\n[sanitizer] heat2d {shape[0]}x{shape[1]} steps=16 b=4 "
              f"({reports[0].actions_checked} actions): pre-flight "
              f"{check:.3f} s, threaded x2 {min(runs):.3f} s, "
              f"ratio {ratio:.2f}")

    assert ratio < 1.0, (
        f"pre-flight {check:.3f} s is not below the threaded run "
        f"{min(runs):.3f} s")
