"""Fault-tolerant schedule execution: barrier checkpoints and replay.

The barrier-group structure that makes tessellated schedules parallel
(tasks of one group are independent — Theorems 3.5/3.6) also gives
them natural *consistency points*: at every barrier the ping-pong
buffer pair is a complete, well-defined state.  The ``resilient``
backend is the ``threaded`` one — the same task body
(:func:`repro.runtime.threadpool._run_task`) and group driver
(:func:`repro.api.driver.run_group`) — plus its own barrier work:

* **Checkpointing** — :func:`_execute_resilient` snapshots the buffer
  pair every ``checkpoint_interval`` groups.  A snapshot is all the
  state a restart needs (plus the group index), because schedules are
  deterministic replay: re-running groups ``k..g`` from the group-``k``
  snapshot reproduces the original values bit-for-bit.
* **Invariant guards** — ``validate_structure()`` pre-flight, plus a
  per-group non-finite sweep over both buffers (float grids).  Silent
  NaN corruption is caught at the next barrier.
* **Restore and replay** — a group that fails (a task raises or
  overruns its deadline, or the guard trips) restores the last
  checkpoint and replays from it.  The snapshot predates the failure
  and holds the whole buffer pair, so no partial or repeated task
  write can leak into the replay.  The final replay runs
  *sequentially*, removing the pool from the fault surface, before the
  run is declared dead with a structured
  :class:`~repro.runtime.errors.ExecutionError`.

Faults are injected deterministically via
:class:`~repro.runtime.faults.FaultPlan`, which is what lets the tests
assert the headline property: *a run with injected transient faults
recovers to results bit-identical to a fault-free run*.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.runtime.errors import (
    ExecutionError,
    GuardViolation,
    InjectedFault,
    RunCancelled,
    RunDeadlineExceeded,
    StallTimeoutError,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.schedule import RegionSchedule, _check_inputs
from repro.runtime.threadpool import _task_runner
from repro.runtime.tracing import ExecutionTrace
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec

#: errors a replay can never recover from: the budget they spent is
#: global (wall clock) or the verdict is the caller's (QoS)
_NON_RETRYABLE = (StallTimeoutError, RunDeadlineExceeded, RunCancelled)


@dataclass
class ResiliencePolicy:
    """Tunable knobs of the fault-tolerant executor."""

    #: snapshot the buffers every N successful groups (0 = only the
    #: initial snapshot; replays then start from group 0)
    checkpoint_interval: int = 1
    #: replays of one group before the run is declared dead; the last
    #: one runs sequentially
    max_group_restarts: int = 2
    #: soft per-task deadline; an overrun fails the task's group, which
    #: is replayed (None = off)
    task_deadline_s: Optional[float] = None
    #: hard wall-clock budget for the whole execution; once spent, a
    #: stalled worker raises :class:`StallTimeoutError` (not replayed)
    #: instead of hanging the run forever (None = off)
    wall_deadline_s: Optional[float] = None


@dataclass
class _WallClock:
    """Absolute wall-clock budget shared by every task of one run."""

    start: float
    budget_s: float

    def check(self, label: str, group: int,
              now: Optional[float] = None) -> None:
        """Raise :class:`StallTimeoutError` once the budget is spent."""
        elapsed = (time.perf_counter() if now is None else now) - self.start
        if elapsed >= self.budget_s:
            raise StallTimeoutError(label, elapsed_s=elapsed,
                                    deadline_s=self.budget_s, group=group)


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
            f"groups={self.groups_run} "
            f"checkpoints={self.checkpoints_taken} restores={self.restores} "
            f"degraded={self.degraded_groups} "
            f"guard_violations={self.guard_violations} "
            f"overhead={1e3 * (self.checkpoint_seconds + self.guard_seconds):.1f}ms"
        )


def _check_finite(spec: StencilSpec, grid: Grid, group: int,
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

    Returns ``(interior at time schedule.steps, report)``.  ``plan``
    accepts a :class:`~repro.engine.plan.CompiledPlan` for the same
    schedule, whose precompiled units the tasks then run.  With
    transient faults the result is bit-identical to a fault-free run,
    because every replay re-runs the same region applications (or
    compiled ops) on the same restored state.

    Raises :class:`ExecutionError` (or :class:`GuardViolation`) once a
    group has failed ``max_group_restarts + 1`` times, the last attempt
    running sequentially.
    """
    policy = policy or ResiliencePolicy()
    _check_inputs(spec, grid, schedule, "resilient", num_threads, plan)
    schedule.validate_structure()  # pre-flight guard on every entry
    from repro.api.driver import run_group

    groups = schedule.groups()
    gids = sorted(groups)
    report = ResilienceReport(scheme=schedule.scheme)
    wall = (_WallClock(time.perf_counter(), policy.wall_deadline_s)
            if policy.wall_deadline_s is not None else None)
    run_one = _task_runner(spec, grid, fault_plan, plan,
                           policy.task_deadline_s, wall)
    if budget is not None:
        budget.check(f"{schedule.scheme} resilient entry")
    ckpt = _take_checkpoint(grid, 0, report, trace,
                            gids[0] if gids else 0)
    failures: dict = {}  # group index -> failures so far
    with (ThreadPoolExecutor(max_workers=num_threads) if num_threads > 1
          else nullcontext()) as pool:
        i = 0
        since_ckpt = 0
        while i < len(gids):
            gid = gids[i]
            if budget is not None:
                budget.check(f"group {gid}")
            if wall is not None:
                wall.check(f"group {gid}", gid)
            n_failures = failures.get(i, 0)
            sequential = n_failures >= policy.max_group_restarts
            try:
                run_group(None if sequential else pool, schedule.scheme,
                          i, gid, groups[gid], run_one)
                _check_finite(spec, grid, gid, report, trace)
            except Exception as exc:
                # a pooled group wraps its task's error (see run_group);
                # recovery judges the task's own error
                cause = (exc.__cause__ if type(exc) is ExecutionError
                         and exc.__cause__ is not None else exc)
                if isinstance(cause, _NON_RETRYABLE):
                    # the budget is global: replaying cannot help
                    raise cause from None
                if isinstance(cause, InjectedFault):
                    report.faults_seen += 1
                failures[i] = n_failures + 1
                if failures[i] > policy.max_group_restarts:
                    if isinstance(cause, GuardViolation):
                        raise
                    raise ExecutionError(
                        f"group failed after {failures[i]} attempt(s) "
                        f"and {report.restores} restore(s): {cause}",
                        scheme=schedule.scheme,
                        group=gid,
                        task_label=getattr(cause, "label", None)
                        or (f"task {cause.task}"
                            if isinstance(cause, InjectedFault) else None),
                        attempts=failures[i],
                    ) from cause
                if (pool is not None
                        and failures[i] >= policy.max_group_restarts):
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
    return grid.interior(schedule.steps), report
