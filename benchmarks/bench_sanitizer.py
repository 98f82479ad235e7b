"""Schedule-sanitizer pre-flight overhead (ISSUE 2).

Measures what ``--sanitize`` costs on the happy path: points/sec of a
threaded ``Session.execute`` run with and without the structural
pre-flight, across growing problem sizes.  Not a paper figure; this quantifies the
engineering trade-off recorded in ``docs/sanitizer.md`` and guards
the sanitizer's near-linear complexity — the axis-sorted bounding-box
sweep must examine O(tasks log tasks) candidate pairs, not the
quadratic all-pairs count.
"""

import math
import time

from repro import Grid, get_stencil, make_lattice
from repro.api import Session
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
              f"{report.pairs_checked} pairs swept)")

    assert report.ok, report.describe()
    # the pre-flight may dominate tiny runs, but must stay bounded: the
    # guarded run cannot be more than pre-flight + plain by a wide margin
    assert guarded < plain + 20 * max(report.seconds, 0.05)


def test_race_sweep_is_near_linear(benchmark, capsys):
    """The bbox sweep examines O(tasks log tasks) pairs, not O(tasks^2)."""
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
        print("\n[sanitizer] race-sweep scaling (heat1d, "
              f"steps={STEPS}, b={B}):")
        print(f"  {'n':>6} {'tasks':>6} {'pairs':>8} "
              f"{'n log n':>9} {'seconds':>8}")
        for n, ntasks, pairs, secs in rows:
            bound = ntasks * math.log2(max(ntasks, 2))
            print(f"  {n:>6} {ntasks:>6} {pairs:>8} "
                  f"{bound:>9.0f} {secs:>8.3f}")

    # near-linear: pairs swept bounded by C * tasks * log2(tasks) with a
    # small constant (pairs only survive the sweep when bboxes overlap
    # along axis 0, so neighbours dominate)
    for _, ntasks, pairs, _ in rows:
        assert pairs <= 8 * ntasks * math.log2(max(ntasks, 2)), (
            f"race sweep superlinear: {pairs} pairs for {ntasks} tasks")

    # doubling the problem should not quadruple the pair count
    (_, t0, p0, _), (_, t1, p1, _) = rows[0], rows[-1]
    growth = p1 / max(p0, 1)
    task_growth = t1 / max(t0, 1)
    assert growth <= 2.0 * task_growth, (
        f"pair count grew {growth:.1f}x for {task_growth:.1f}x tasks")
