"""Threaded execution of region schedules.

Demonstrates that the barrier-group structure really is parallel:
tasks of one group are submitted to a thread pool together and the
main thread waits (the barrier) before starting the next group.  NumPy
releases the GIL inside the vectorised region updates, so on a
multi-core machine groups genuinely overlap; on a single-core machine
this path exercises exactly the same code and ordering guarantees.

Correctness relies on the schemes' independence guarantees: tasks in
one group touch disjoint regions (tessellation, diamond, skewed), or
overlap only with *identical-value* writes (overlapped tiling), so no
synchronisation beyond the barrier is needed — the paper's
``#pragma omp parallel for``.

Failure semantics are **fail-fast**: on the first task exception the
group's still-pending futures are cancelled, the running ones are
joined, and a structured :class:`~repro.runtime.errors.ExecutionError`
naming the failing task and group is raised.  The ``resilient``
backend runs the same task body (:func:`_run_task`) and adds
checkpoint/replay recovery around each group.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.runtime.errors import DeadlineExceeded, InjectedFault
from repro.runtime.faults import FaultPlan, poison_task_output
from repro.runtime.schedule import (
    RegionSchedule,
    ScheduledTask,
    _check_inputs,
)
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


def _run_task(
    spec: StencilSpec,
    grid: Grid,
    task: ScheduledTask,
    group: int = 0,
    index: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    units=None,
    deadline_s: Optional[float] = None,
    wall=None,
) -> None:
    """One task: stall/crash probes, actions, corrupt probe, deadline.

    ``units`` switches the action loop to the task's precompiled
    allocation-free units (see :mod:`repro.engine.plan`).  An overrun
    of ``deadline_s`` raises :class:`DeadlineExceeded` after the
    actions ran; a stall that outlives the resilient backend's
    whole-run clock ``wall`` raises
    :class:`~repro.runtime.errors.StallTimeoutError`.
    """
    t0 = time.perf_counter()
    if fault_plan is not None:
        f = fault_plan.stall_fault(group, index)
        if f is not None:
            # sleep in slices so a stall that outlives the wall-clock
            # budget surfaces as a structured error, not a hung suite
            end = t0 + f.stall_s
            while (now := time.perf_counter()) < end:
                if wall is not None:
                    wall.check(task.label or f"g{group}t{index}", group, now)
                time.sleep(min(0.02, end - now))
        fault_plan.raise_if_crash(group, index)
    if units is not None:
        from repro.engine.plan import run_units

        run_units(units, grid, spec)
    else:
        for a in task.actions:
            spec.apply_region(grid.at(a.t), grid.at(a.t + 1), a.region)
    if (fault_plan is not None
            and fault_plan.corrupt_fault(group, index) is not None):
        if np.issubdtype(spec.dtype, np.integer):
            # integer grids cannot hold NaN; model as a crash so the
            # failure is loud instead of unrepresentable
            raise InjectedFault("corrupt", group, index)
        poison_task_output(grid, task)
    if deadline_s is not None:
        elapsed = time.perf_counter() - t0
        if elapsed > deadline_s:
            raise DeadlineExceeded(task.label or f"g{group}t{index}",
                                   elapsed, deadline_s)


def _task_runner(spec: StencilSpec, grid: Grid,
                 fault_plan: Optional[FaultPlan], plan,
                 deadline_s: Optional[float] = None, wall=None):
    """The ``run_one`` both pooled backends hand to the group driver."""
    # materialise per-group units on the main thread: the plan's unit
    # cache is lazy and must not be populated from workers
    units = ([plan.task_units(gi) for gi in range(len(plan.group_ids))]
             if plan is not None else None)

    def run_one(gi, gid, ti, task):
        _run_task(spec, grid, task, gid, ti, fault_plan,
                  units[gi][ti] if units is not None else None,
                  deadline_s, wall)

    return run_one


def _execute_threaded(
    spec: StencilSpec,
    grid: Grid,
    schedule: RegionSchedule,
    num_threads: int = 4,
    fault_plan: Optional[FaultPlan] = None,
    plan=None,
    budget=None,
) -> np.ndarray:
    """Pooled barrier-group execution (the ``threaded`` backend's engine).

    Returns the interior at time ``schedule.steps``.  Fail-fast: the
    first task exception cancels the group's pending tasks and raises
    :class:`ExecutionError` carrying the scheme/group/task context.
    ``fault_plan`` is the deterministic injection harness hook (see
    :mod:`repro.runtime.faults`).  ``Session`` runs the sanitizer
    pre-flight (``sanitize=True``) before this is called — the check
    that makes the "tasks of one group are independent" assumption
    above an enforced invariant instead of a convention.

    ``plan`` accepts a :class:`~repro.engine.plan.CompiledPlan` for the
    same schedule: each task then runs its precompiled allocation-free
    units (per-task view, original action order — cross-task fusion is
    never handed to threads, so the barrier-group independence contract
    is untouched).
    """
    _check_inputs(spec, grid, schedule, "threaded", num_threads, plan)
    from repro.api.driver import drive_groups

    drive_groups(schedule, _task_runner(spec, grid, fault_plan, plan),
                 num_threads=num_threads, budget=budget)
    return grid.interior(schedule.steps)
