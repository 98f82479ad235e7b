"""The one shared drive loop behind every executor.

Before this module existed the phase/stage/group iteration was written
out four times — sequentially in ``runtime/schedule.py``, with a thread
pool in ``runtime/threadpool.py``, and twice over phase plans in
``core/executor.py`` (plus once more in the distributed simulator).
All of them reduce to two loops:

* :func:`phase_windows` — the time-tiling phase loop: phases of depth
  ``b`` starting at ``t0``, the last one truncated to the remaining
  steps (safe by construction: dropping the top of every time window
  never breaks a dependence);
* :func:`drive_groups` — the barrier-group loop over a
  :class:`~repro.runtime.schedule.RegionSchedule`: groups in ascending
  order with a barrier between them, tasks of one group either run in
  order (``num_threads == 1``) or submitted together to a thread pool
  and joined (the barrier) before the next group starts.  One group of
  it is :func:`run_group` (fail-fast when pooled), which the
  ``resilient`` backend also calls with its checkpoint, guard and
  replay work around each group.

This module deliberately imports nothing from :mod:`repro.runtime`
except the error type, so the runtime modules can import it without a
cycle.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import nullcontext
from typing import Callable, Iterable, Iterator, Tuple

from repro.runtime.errors import ExecutionError

__all__ = ["phase_windows", "run_actions", "drive_groups", "run_group"]

#: ``run_one(group_index, group_id, task_index, task)`` — the per-task
#: body supplied by each executor (serial action walk, or
#: :func:`repro.runtime.threadpool._run_task` for the pooled backends).
TaskRunner = Callable[[int, int, int, object], object]


def phase_windows(t0: int, t_end: int, b: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(phase_start, span)`` for phases of depth ``b``.

    ``span = min(b, t_end - phase_start)`` truncates the final phase
    when the step count is not a multiple of ``b``.
    """
    if b < 1:
        raise ValueError(f"phase depth must be >= 1, got {b}")
    tt = t0
    while tt < t_end:
        yield tt, min(b, t_end - tt)
        tt += b


def run_actions(spec, grid, actions: Iterable) -> int:
    """Apply a task's ``(t, region)`` actions in order; returns points."""
    pts = 0
    for a in actions:
        spec.apply_region(grid.at(a.t), grid.at(a.t + 1), a.region)
        pts += a.points
    return pts


def drive_groups(schedule, run_one: TaskRunner, num_threads: int = 1,
                 budget=None) -> None:
    """Run a schedule's barrier groups in order through ``run_one``.

    Each group runs through :func:`run_group`: in order on this thread
    when ``num_threads <= 1``, else on one thread pool shared by every
    group.

    ``budget`` is the run-level :class:`~repro.runtime.qos.RunBudget`;
    when armed it is checked before each barrier group, so a deadline
    or cancellation stops the drive at the next group boundary with
    every already-started task joined (no worker still writing).
    """
    groups = schedule.groups()
    if budget is not None:
        budget.check(f"{schedule.scheme} drive entry")
    with (ThreadPoolExecutor(max_workers=num_threads) if num_threads > 1
          else nullcontext()) as pool:
        for gi, gid in enumerate(sorted(groups)):
            if budget is not None:
                budget.check(f"group {gid}")
            run_group(pool, schedule.scheme, gi, gid, groups[gid], run_one)


def run_group(pool, scheme: str, gi: int, gid: int, tasks,
              run_one: TaskRunner) -> None:
    """Run one barrier group's tasks and return once all are done.

    Without a ``pool`` the tasks run in their listed order on this
    thread and an exception propagates unchanged.  With one, they are
    submitted together and joined (the barrier); the first failure
    cancels the group's pending tasks, joins the running ones and
    raises :class:`ExecutionError` carrying the scheme/group/task
    context, with the task's own exception as ``__cause__``.
    """
    if pool is None:
        for ti, task in enumerate(tasks):
            run_one(gi, gid, ti, task)
        return
    futures = {
        pool.submit(run_one, gi, gid, ti, task): task
        for ti, task in enumerate(tasks)
    }
    done, pending = wait(futures, return_when=FIRST_EXCEPTION)
    first_exc, failed_task = None, None
    for f in done:
        exc = f.exception()
        if exc is not None and first_exc is None:
            first_exc, failed_task = exc, futures[f]
    if first_exc is not None:
        cancelled = sum(1 for f in pending if f.cancel())
        wait(futures)  # join tasks that were already running
        raise ExecutionError(
            f"task failed ({first_exc}); "
            f"{cancelled} pending task(s) cancelled",
            scheme=scheme,
            group=gid,
            task_label=failed_task.label or None,
        ) from first_exc
