"""Checkpoint-cadence overhead measurement (ISSUE 1).

Checkpointing at every barrier group minimises replay work after a
failure but pays one buffer-pair copy per group; long intervals
amortise the copies but replay more groups on restore.  This
experiment quantifies the trade-off on the real NumPy substrate:
wall-clock of :func:`~repro.runtime.resilience._execute_resilient`
across cadences, relative to the plain sequential executor, plus the
measured replay cost of one injected late-group fault per cadence.
Replay is the backend's only recovery path, so the cadence prices
every recovered fault (crash, deadline overrun, guard trip).
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

from repro.bench.report import format_table
from repro.core import make_lattice
from repro.core.schedules import tess_schedule
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.resilience import ResiliencePolicy, _execute_resilient
from repro.runtime.schedule import _execute_schedule
from repro.stencils.grid import Grid
from repro.stencils.library import get_stencil


def _time_run(fn, repeats: int = 3) -> Tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def resilience_overhead(
    kernel: str = "heat2d",
    shape: Tuple[int, ...] = (160, 160),
    steps: int = 24,
    b: int = 4,
    cadences: Sequence[int] = (1, 2, 4, 8, 0),
    repeats: int = 3,
) -> str:
    """Table: checkpoint cadence vs overhead and recovery cost."""
    spec = get_stencil(kernel)
    lattice = make_lattice(spec, shape, b)
    sched = tess_schedule(spec, shape, lattice, steps, merged=True)
    groups = sched.num_groups

    base_s, _ = _time_run(
        lambda: _execute_schedule(spec, Grid(spec, shape, seed=0), sched),
        repeats)

    # a transient crash in the last group maximises replay distance
    late = groups - 1
    rows = []
    for cadence in cadences:
        policy = ResiliencePolicy(checkpoint_interval=cadence)

        clean_s, (out, rep) = _time_run(
            lambda: _execute_resilient(
                spec, Grid(spec, shape, seed=0), sched, policy=policy),
            repeats)

        def faulty():
            plan = FaultPlan([FaultSpec("corrupt", group=late, task=0)])
            return _execute_resilient(
                spec, Grid(spec, shape, seed=0), sched, policy=policy,
                fault_plan=plan)

        fault_s, (fout, frep) = _time_run(faulty, repeats)
        rows.append([
            cadence if cadence else "init-only",
            rep.checkpoints_taken,
            f"{clean_s * 1e3:.1f}",
            f"{(clean_s / base_s - 1) * 100:+.1f}%",
            f"{(rep.checkpoint_seconds + rep.guard_seconds) * 1e3:.1f}",
            f"{fault_s * 1e3:.1f}",
            frep.restores,
        ])
    header = (f"checkpoint cadence — {kernel} {shape} x{steps} steps, "
              f"b={b}, {groups} groups; sequential baseline "
              f"{base_s * 1e3:.1f} ms (best of {repeats})")
    table = format_table(
        ["every N groups", "ckpts", "clean ms", "overhead",
         "ckpt+guard ms", "1-fault ms", "restores"],
        rows)
    return f"{header}\n{table}"
