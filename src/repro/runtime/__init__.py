"""Task-level runtime substrate.

Every tiling scheme in :mod:`repro` — the tessellation and all the
baselines — compiles to the same representation: a
:class:`~repro.runtime.schedule.RegionSchedule`, an ordered list of
tasks, each a sequence of ``(time step, hyper-rectangle)`` actions,
partitioned into *barrier groups* (tasks of one group are mutually
independent and may run concurrently).

On top of that one representation sit:

* a sequential executor (the ``serial`` backend's engine) used for
  correctness validation of every scheme;
* a threaded executor (:mod:`~repro.runtime.threadpool`) demonstrating
  real shared-memory parallel execution (NumPy releases the GIL inside
  region applications);
* the task-graph analysis (:mod:`~repro.runtime.taskgraph`) feeding the
  simulated machine — work, span, concurrency profiles, footprints;
* the resilience layer (:mod:`~repro.runtime.resilience`,
  :mod:`~repro.runtime.faults`, :mod:`~repro.runtime.errors`) —
  deterministic fault injection, barrier-group checkpoint/replay with
  a sequential last replay, and runtime invariant guards.  Barrier
  groups double as consistency points: at every barrier the ping-pong
  pair is a complete state, so a snapshot plus the group index is all
  a restart needs.
* the structural sanitizer (:mod:`~repro.runtime.sanitizer`) — NumPy
  rectangle passes over the schedule table proving tessellation
  (Theorem 3.5), ping-pong dependence legality (Theorem 3.6) and
  intra-group race freedom for any schedule *before* it runs, with
  seeded-bug mutators (:mod:`~repro.runtime.mutations`) as its test
  harness.
"""

from repro.runtime.schedule import (
    RegionAction,
    ScheduledTask,
    RegionSchedule,
    ScheduleTable,
    schedule_stats,
    verify_schedule,
)
from repro.runtime.taskgraph import TaskGraph, TaskNode, build_taskgraph
from repro.runtime.levelize import levelize
from repro.runtime.errors import (
    DeadlineExceeded,
    ExecutionError,
    GhostDivergenceError,
    GuardViolation,
    InjectedFault,
    JobNotFound,
    QueueSaturated,
    SanitizerViolation,
    StallTimeoutError,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.resilience import (
    Checkpoint,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.runtime.sanitizer import (
    SanitizerReport,
    Violation,
    sanitize_distributed_plan,
    sanitize_schedule,
)
from repro.runtime.mutations import (
    MUTATION_KINDS,
    apply_mutation,
    drop_action,
    merge_groups,
    shift_region,
)

__all__ = [
    "RegionAction",
    "ScheduledTask",
    "RegionSchedule",
    "ScheduleTable",
    "schedule_stats",
    "verify_schedule",
    "TaskGraph",
    "TaskNode",
    "build_taskgraph",
    "levelize",
    "DeadlineExceeded",
    "ExecutionError",
    "GhostDivergenceError",
    "GuardViolation",
    "InjectedFault",
    "JobNotFound",
    "QueueSaturated",
    "StallTimeoutError",
    "FaultPlan",
    "FaultSpec",
    "Checkpoint",
    "ResiliencePolicy",
    "ResilienceReport",
    "SanitizerViolation",
    "SanitizerReport",
    "Violation",
    "sanitize_schedule",
    "sanitize_distributed_plan",
    "MUTATION_KINDS",
    "apply_mutation",
    "drop_action",
    "merge_groups",
    "shift_region",
]
