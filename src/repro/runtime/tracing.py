"""Execution tracing for real (NumPy) schedule runs.

Wraps schedule execution with per-task wall-clock measurement so
profiles of the Python substrate can be inspected: time per barrier
group, per scheme, task-size versus cost scatter.  The bench suite
uses it to report where the NumPy dispatch overhead sits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.runtime.schedule import RegionSchedule
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


@dataclass
class TaskTrace:
    group: int
    label: str
    points: int
    actions: int
    seconds: float


@dataclass
class RuntimeEvent:
    """One resilience-layer event (retry, checkpoint, restore, guard…).

    Recorded by :func:`repro.runtime.resilience._execute_resilient`,
    the distributed simulator and the elastic process coordinator
    (:mod:`repro.distributed.elastic`) so traces expose where
    fault-tolerance overhead sits, next to the per-task compute
    timings.  The elastic coordinator adds: ``heartbeat`` (per-rank
    beacon summary), ``retry`` (worker-reported retransmits),
    ``respawn``, ``commit``, ``failure`` (a worker gave up on an
    exchange), ``watchdog`` (liveness verdicts) — and reuses
    ``restore`` for phase abort + checkpoint restore.  The QoS
    fallback chain (:mod:`repro.api.fallback`) adds ``fallback``: one
    event per degradation hop.
    """

    kind: str  #: "retry" | "checkpoint" | "restore" | "degrade" | "guard" | "exchange-fault" | "sanitize" | "violation" | "heartbeat" | "respawn" | "commit" | "failure" | "watchdog" | "fallback"
    group: int
    label: str = ""
    seconds: float = 0.0
    detail: str = ""


@dataclass
class ExecutionTrace:
    scheme: str
    tasks: List[TaskTrace] = field(default_factory=list)
    events: List[RuntimeEvent] = field(default_factory=list)

    def record_event(self, kind: str, group: int, label: str = "",
                     seconds: float = 0.0, detail: str = "") -> None:
        self.events.append(RuntimeEvent(kind=kind, group=group, label=label,
                                        seconds=seconds, detail=detail))

    def event_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def resilience_seconds(self) -> float:
        """Wall-clock attributed to the resilience layer (not compute)."""
        return sum(e.seconds for e in self.events)

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.tasks)

    def group_seconds(self) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for t in self.tasks:
            out[t.group] = out.get(t.group, 0.0) + t.seconds
        return out

    def points_per_second(self) -> float:
        pts = sum(t.points for t in self.tasks)
        s = self.total_seconds
        return pts / s if s > 0 else 0.0

    def overhead_estimate(self) -> Tuple[float, float]:
        """Least-squares fit ``seconds ≈ a + c·points`` per task.

        Returns ``(a, c)``: the per-task overhead and per-point cost of
        this substrate — the real-world analogue of the machine model's
        ``task_overhead_s`` and flop rate.
        """
        if len(self.tasks) < 2:
            return (0.0, 0.0)
        x = np.array([t.points for t in self.tasks], dtype=np.float64)
        y = np.array([t.seconds for t in self.tasks], dtype=np.float64)
        a_mat = np.stack([np.ones_like(x), x], axis=1)
        coef, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
        return float(coef[0]), float(coef[1])


def traced_execute(spec: StencilSpec, grid: Grid,
                   schedule: RegionSchedule) -> Tuple[np.ndarray, ExecutionTrace]:
    """Sequential execution with per-task timing."""
    if spec.is_periodic:
        raise ValueError("region schedules assume non-periodic boundaries")
    if schedule.private_tasks:
        raise ValueError("tracing supports shared-buffer schedules only")
    trace = ExecutionTrace(scheme=schedule.scheme)
    groups = schedule.groups()
    for gid in sorted(groups):
        for task in groups[gid]:
            t0 = time.perf_counter()
            pts = 0
            for a in task.actions:
                spec.apply_region(grid.at(a.t), grid.at(a.t + 1), a.region)
                pts += a.points
            trace.tasks.append(TaskTrace(
                group=gid, label=task.label, points=pts,
                actions=len(task.actions),
                seconds=time.perf_counter() - t0,
            ))
    return grid.interior(schedule.steps), trace
