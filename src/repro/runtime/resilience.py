"""Fault-tolerant schedule execution: checkpoints, retries, guards.

The barrier-group structure that makes tessellated schedules parallel
(tasks of one group are independent — Theorems 3.5/3.6) also gives
them natural *consistency points*: at every barrier the ping-pong
buffer pair is a complete, well-defined state.  This module exploits
that:

* **Checkpointing** — :func:`_execute_resilient` snapshots the buffer
  pair every ``checkpoint_interval`` groups.  A snapshot is all the
  state a restart needs (plus the group index), because schedules are
  deterministic replay: re-running groups ``k..g`` from the group-``k``
  snapshot reproduces the original values bit-for-bit.
* **Per-task retry** — a task that raises is re-run up to
  ``max_task_retries`` times (with exponential backoff).  Re-running a
  whole task is idempotent: its first action reads only values written
  by *previous* groups, and tasks of one group touch disjoint regions
  (or overlap with identical-value writes), so a partial first attempt
  cannot contaminate the retry's inputs.
* **Graceful degradation** — a group whose tasks keep failing in the
  thread pool is restored from the last checkpoint and re-executed;
  the final restart runs the replay *sequentially*, removing the pool
  from the fault surface before the run is declared dead with a
  structured :class:`~repro.runtime.errors.ExecutionError`.
* **Invariant guards** — ``validate_structure()`` pre-flight, plus a
  per-group non-finite sweep over both buffers (float grids).  Silent
  NaN corruption is caught at the next barrier and repaired by
  checkpoint restore, since the snapshot predates the corruption.

Faults are injected deterministically via
:class:`~repro.runtime.faults.FaultPlan`, which is what lets the tests
assert the headline property: *a run with injected transient faults
recovers to results bit-identical to a fault-free run*.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait, FIRST_EXCEPTION
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.runtime.errors import (
    DeadlineExceeded,
    ExecutionError,
    GuardViolation,
    InjectedFault,
    RunCancelled,
    RunDeadlineExceeded,
    StallTimeoutError,
)

#: errors a retry/replay can never recover from: the budget they spent
#: is global (wall clock) or the verdict is the caller's (QoS)
_NON_RETRYABLE = (StallTimeoutError, RunDeadlineExceeded, RunCancelled)
from repro.runtime.faults import FaultPlan, poison_task_output
from repro.runtime.schedule import RegionSchedule, ScheduledTask
from repro.runtime.tracing import ExecutionTrace
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


@dataclass
class ResiliencePolicy:
    """Tunable knobs of the fault-tolerant executor."""

    #: per-task retry budget (0 = fail-fast at task level)
    max_task_retries: int = 2
    #: base backoff before a retry; attempt ``k`` sleeps ``base * 2**k``
    retry_backoff_s: float = 0.0
    #: snapshot the buffers every N successful groups (0 = only the
    #: initial snapshot; restarts then replay from group 0)
    checkpoint_interval: int = 1
    #: restore/restart budget per group before the run is declared dead
    max_group_restarts: int = 2
    #: run the final restart sequentially (degraded mode)
    sequential_fallback: bool = True
    #: sweep both buffers for NaN/Inf after every group (float grids)
    guard_nonfinite: bool = True
    #: soft per-task deadline; overruns count as task failures (None = off)
    task_deadline_s: Optional[float] = None
    #: hard wall-clock budget for the whole execution; once spent, a
    #: stalled worker raises :class:`StallTimeoutError` (not retried,
    #: not replayed) instead of hanging the run forever (None = off)
    wall_deadline_s: Optional[float] = None


@dataclass
class _WallClock:
    """Absolute wall-clock budget shared by every task of one run."""

    start: float
    budget_s: float

    def elapsed(self, now: Optional[float] = None) -> float:
        return (time.perf_counter() if now is None else now) - self.start

    def remaining(self, now: Optional[float] = None) -> float:
        return self.budget_s - self.elapsed(now)

    def expired(self, now: Optional[float] = None) -> bool:
        return self.remaining(now) <= 0


@dataclass
class Checkpoint:
    """Buffer-pair snapshot taken at a barrier (group boundary)."""

    next_index: int  #: index into the sorted group list to resume from
    buffers: Tuple[np.ndarray, np.ndarray]

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.buffers)


@dataclass
class ResilienceReport:
    """What the resilience layer did during one execution."""

    scheme: str = ""
    groups_run: int = 0
    task_retries: int = 0
    checkpoints_taken: int = 0
    checkpoint_bytes: int = 0
    restores: int = 0
    degraded_groups: int = 0
    guard_sweeps: int = 0
    guard_violations: int = 0
    checkpoint_seconds: float = 0.0
    guard_seconds: float = 0.0
    faults_seen: int = 0

    def describe(self) -> str:
        return (
            f"groups={self.groups_run} retries={self.task_retries} "
            f"checkpoints={self.checkpoints_taken} restores={self.restores} "
            f"degraded={self.degraded_groups} "
            f"guard_violations={self.guard_violations} "
            f"overhead={1e3 * (self.checkpoint_seconds + self.guard_seconds):.1f}ms"
        )


def _run_task_with_faults(
    spec: StencilSpec,
    grid: Grid,
    task: ScheduledTask,
    group: int,
    index: int,
    fault_plan: Optional[FaultPlan],
    deadline_s: Optional[float],
    wall: Optional["_WallClock"] = None,
    units=None,
) -> None:
    """One task attempt: stall/crash probes, actions, corrupt probe.

    ``units`` switches the action loop to the task's precompiled
    allocation-free units (see :mod:`repro.engine.plan`); fault probes,
    undo-log discipline and deadlines are unchanged.
    """
    t0 = time.perf_counter()
    if fault_plan is not None:
        f = fault_plan.stall_fault(group, index)
        if f is not None:
            # sleep in slices so a stall that outlives the wall-clock
            # budget surfaces as a structured error, not a hung suite
            end = time.perf_counter() + f.stall_s
            while True:
                now = time.perf_counter()
                if wall is not None and wall.expired(now):
                    raise StallTimeoutError(
                        task.label or f"g{group}t{index}",
                        elapsed_s=wall.elapsed(now),
                        deadline_s=wall.budget_s,
                        group=group,
                    )
                if now >= end:
                    break
                step = min(0.02, end - now)
                if wall is not None:
                    step = min(step, max(wall.remaining(now), 0.001))
                time.sleep(step)
        fault_plan.raise_if_crash(group, index)
    if units is not None:
        from repro.engine.plan import run_units

        run_units(units, grid, spec)
    else:
        for a in task.actions:
            spec.apply_region(grid.at(a.t), grid.at(a.t + 1), a.region)
    if fault_plan is not None:
        f = fault_plan.corrupt_fault(group, index)
        if f is not None:
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


def _snapshot_task_writes(grid: Grid, task: ScheduledTask) -> List[tuple]:
    """Undo log: copies of every region the task will write.

    Re-running a task is *not* idempotent in general: with ping-pong
    buffers, a task spanning time levels ``t..t+k`` writes the
    ``t``-parity buffer at level ``t+2`` inside the region its first
    action reads, so a retry after a partial (or complete) attempt
    would read corrupted input.  Restoring the write footprint first
    makes every retry start from the task's true pre-state.
    """
    halo = grid.spec.halo
    saved = []
    for a in task.actions:
        idx = tuple(slice(lo + h, hi + h)
                    for (lo, hi), h in zip(a.region, halo))
        saved.append((a.t + 1, idx, grid.at(a.t + 1)[idx].copy()))
    return saved


def _restore_task_writes(grid: Grid, saved: List[tuple]) -> None:
    for t, idx, data in saved:
        grid.at(t)[idx] = data


def _attempt_task(
    spec: StencilSpec,
    grid: Grid,
    task: ScheduledTask,
    group: int,
    index: int,
    policy: ResiliencePolicy,
    fault_plan: Optional[FaultPlan],
    report: ResilienceReport,
    trace: Optional[ExecutionTrace],
    wall: Optional[_WallClock] = None,
    units=None,
) -> None:
    """Run one task with the per-task retry/backoff loop."""
    attempts = 1 + max(0, policy.max_task_retries)
    undo = _snapshot_task_writes(grid, task) if attempts > 1 else None
    for attempt in range(attempts):
        try:
            _run_task_with_faults(spec, grid, task, group, index,
                                  fault_plan, policy.task_deadline_s, wall,
                                  units)
            return
        except _NON_RETRYABLE:
            # the budget is global: retrying cannot recover spent time
            raise
        except Exception as exc:
            if isinstance(exc, InjectedFault):
                report.faults_seen += 1
            if attempt + 1 >= attempts:
                raise
            report.task_retries += 1
            if undo is not None:
                _restore_task_writes(grid, undo)
            if trace is not None:
                trace.record_event(
                    "retry", group, label=task.label,
                    detail=f"attempt {attempt + 2}/{attempts}: {exc}",
                )
            backoff = policy.retry_backoff_s * (2 ** attempt)
            if backoff > 0:
                time.sleep(backoff)


def _guard_nonfinite(spec: StencilSpec, grid: Grid, group: int,
                     report: ResilienceReport,
                     trace: Optional[ExecutionTrace]) -> None:
    """Sweep both ping-pong buffers for NaN/Inf after a group."""
    if np.issubdtype(spec.dtype, np.integer):
        return
    t0 = time.perf_counter()
    ok = all(bool(np.isfinite(b).all()) for b in grid.buffers)
    dt = time.perf_counter() - t0
    report.guard_sweeps += 1
    report.guard_seconds += dt
    if trace is not None:
        trace.record_event("guard", group, seconds=dt,
                           detail="nonfinite sweep")
    if not ok:
        report.guard_violations += 1
        raise GuardViolation(
            "non-finite values detected after barrier group",
            group=group,
        )


def _take_checkpoint(grid: Grid, next_index: int,
                     report: ResilienceReport,
                     trace: Optional[ExecutionTrace],
                     group: int) -> Checkpoint:
    t0 = time.perf_counter()
    ckpt = Checkpoint(next_index=next_index,
                      buffers=(grid.buffers[0].copy(), grid.buffers[1].copy()))
    dt = time.perf_counter() - t0
    report.checkpoints_taken += 1
    report.checkpoint_bytes += ckpt.nbytes
    report.checkpoint_seconds += dt
    if trace is not None:
        trace.record_event("checkpoint", group, seconds=dt,
                           detail=f"{ckpt.nbytes} bytes")
    return ckpt


def _restore_checkpoint(grid: Grid, ckpt: Checkpoint,
                        report: ResilienceReport,
                        trace: Optional[ExecutionTrace],
                        group: int) -> None:
    np.copyto(grid.buffers[0], ckpt.buffers[0])
    np.copyto(grid.buffers[1], ckpt.buffers[1])
    report.restores += 1
    if trace is not None:
        trace.record_event("restore", group,
                           detail=f"resume at group index {ckpt.next_index}")


def _execute_resilient(
    spec: StencilSpec,
    grid: Grid,
    schedule: RegionSchedule,
    policy: Optional[ResiliencePolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    num_threads: int = 1,
    trace: Optional[ExecutionTrace] = None,
    plan=None,
    budget=None,
) -> Tuple[np.ndarray, ResilienceReport]:
    """Checkpoint/restart execution (the ``resilient`` backend's engine).

    ``plan`` accepts a :class:`~repro.engine.plan.CompiledPlan` for the
    same schedule: task attempts then run precompiled allocation-free
    units while every resilience mechanism (undo log, retries,
    checkpoints, guards) is unchanged — restarts replay the *compiled*
    ops on restored state, still bit-identical to a fault-free run.

    Returns ``(interior at time schedule.steps, report)``.  Execution
    is deterministic: with transient faults the recovered result is
    bit-identical to a fault-free run, because every restart replays
    the same region applications on the same restored state.

    Raises :class:`ExecutionError` (or :class:`GuardViolation`) once a
    group has exhausted its per-task retries and its
    ``max_group_restarts`` checkpoint restarts — the final restart
    running sequentially when ``policy.sequential_fallback`` is set.
    """
    policy = policy or ResiliencePolicy()
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    if spec.is_periodic:
        raise ValueError("region schedules assume non-periodic boundaries")
    if schedule.private_tasks:
        raise ValueError(
            f"schedule {schedule.scheme!r} needs private task storage; "
            f"resilient execution supports shared-buffer schedules only"
        )
    if grid.shape != schedule.shape:
        raise ValueError(
            f"grid shape {grid.shape} != schedule shape {schedule.shape}"
        )
    if plan is not None:
        if plan.private:
            raise ValueError("ghost-zone plans have no resilient path")
        if (plan.shape != schedule.shape or plan.steps != schedule.steps
                or plan.scheme != schedule.scheme):
            raise ValueError("plan was compiled for a different schedule")
    schedule.validate_structure()  # pre-flight guard on every entry

    groups = schedule.groups()
    gids = sorted(groups)
    report = ResilienceReport(scheme=schedule.scheme)
    wall = (_WallClock(time.perf_counter(), policy.wall_deadline_s)
            if policy.wall_deadline_s is not None else None)
    if budget is not None:
        budget.check(f"{schedule.scheme} resilient entry")
    ckpt = _take_checkpoint(grid, 0, report, trace,
                            gids[0] if gids else 0)
    failures: dict = {}  # group index -> failures so far
    pool = ThreadPoolExecutor(max_workers=num_threads) if num_threads > 1 else None
    try:
        i = 0
        since_ckpt = 0
        while i < len(gids):
            gid = gids[i]
            if budget is not None:
                budget.check(f"group {gid}")
            if wall is not None and wall.expired():
                raise StallTimeoutError(
                    f"group {gid}", elapsed_s=wall.elapsed(),
                    deadline_s=wall.budget_s, group=gid,
                )
            n_failures = failures.get(i, 0)
            sequential = (
                pool is None
                or (policy.sequential_fallback
                    and n_failures >= policy.max_group_restarts)
            )
            try:
                tasks = groups[gid]
                group_units = (plan.task_units(i) if plan is not None
                               else None)
                if sequential or len(tasks) == 1:
                    for ti, task in enumerate(tasks):
                        _attempt_task(spec, grid, task, gid, ti, policy,
                                      fault_plan, report, trace, wall,
                                      group_units[ti] if group_units
                                      else None)
                else:
                    futures = [
                        pool.submit(_attempt_task, spec, grid, task, gid, ti,
                                    policy, fault_plan, report, trace, wall,
                                    group_units[ti] if group_units else None)
                        for ti, task in enumerate(tasks)
                    ]
                    done, pending = wait(futures,
                                         return_when=FIRST_EXCEPTION)
                    first_exc = None
                    for f in done:
                        exc = f.exception()
                        if exc is not None and first_exc is None:
                            first_exc = exc
                    if first_exc is not None:
                        for f in pending:
                            f.cancel()
                        # join still-running tasks before any restore
                        # touches the buffers they may be writing
                        wait(futures)
                        raise first_exc
                if policy.guard_nonfinite:
                    _guard_nonfinite(spec, grid, gid, report, trace)
            except _NON_RETRYABLE:
                raise  # wall-clock budget spent: replaying cannot help
            except Exception as exc:
                failures[i] = n_failures + 1
                if failures[i] > policy.max_group_restarts:
                    if isinstance(exc, GuardViolation):
                        raise
                    raise ExecutionError(
                        f"group failed after {failures[i]} attempt(s) "
                        f"and {report.restores} restore(s): {exc}",
                        scheme=schedule.scheme,
                        group=gid,
                        task_label=getattr(exc, "label", None)
                        or (f"task {exc.task}" if isinstance(exc, InjectedFault)
                            else None),
                        attempts=failures[i],
                    ) from exc
                will_degrade = (
                    policy.sequential_fallback and pool is not None
                    and failures[i] >= policy.max_group_restarts
                )
                if will_degrade:
                    report.degraded_groups += 1
                    if trace is not None:
                        trace.record_event("degrade", gid,
                                           detail="sequential fallback")
                _restore_checkpoint(grid, ckpt, report, trace, gid)
                i = ckpt.next_index
                since_ckpt = 0
                continue
            # group committed
            report.groups_run += 1
            i += 1
            since_ckpt += 1
            if (policy.checkpoint_interval > 0 and i < len(gids)
                    and since_ckpt >= policy.checkpoint_interval):
                ckpt = _take_checkpoint(grid, i, report, trace, gid)
                since_ckpt = 0
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return grid.interior(schedule.steps), report
