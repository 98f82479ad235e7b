"""Fault-tolerant execution: injected failures, exact recovery.

The barrier groups that make tessellated schedules parallel are also
consistency points: at every barrier the ping-pong pair is a complete
state.  The ``resilient`` backend checkpoints there, and when a task
crashes, overruns its deadline or corrupts the grid it restores the
last checkpoint and replays the group — so a run hit by injected
faults still produces results *bit-identical* to a fault-free run.  The ``distributed`` backend does the same per phase, with a
divergence detector guarding the ghost-band exchanges.

Run: ``PYTHONPATH=src python examples/fault_tolerance.py``
CLI equivalent::

    python -m repro run heat2d --shape 64 64 --steps 12 -b 4 \
        --threads 4 --resilient --inject crash@1/0 --inject corrupt@3
    python -m repro dist heat1d --shape 400 --steps 16 -b 4 --ranks 4 \
        --resilient --inject drop@2/1
"""

import numpy as np

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.runtime import (
    ExecutionError, FaultPlan, FaultSpec, ResiliencePolicy,
)


def main() -> None:
    spec = get_stencil("heat2d")
    session = Session(spec)
    base = RunConfig(shape=(64, 64), steps=12, scheme="tess", b=4)

    ref = session.run(base).interior.copy()

    # -- shared memory: crash + silent corruption + stall ------------
    plan = FaultPlan([
        FaultSpec("crash", group=1, task=0),            # worker dies
        FaultSpec("corrupt", group=3, task=1),          # silent NaNs
        FaultSpec("stall", group=2, task=0, stall_s=0.05),
    ])
    result = session.run(
        base, backend="resilient", threads=4, fault_plan=plan,
        resilience=ResiliencePolicy(task_deadline_s=0.02))
    report = result.stats.resilience
    exact = np.array_equal(ref, result.interior)
    print(f"injected {len(plan.faults)} faults ({plan.describe()})")
    print(f"  {report.describe()}")
    print(f"  recovered bit-identical to fault-free run: {exact}")
    assert exact

    # -- a persistent failure stays loud, not silent -----------------
    dead = FaultPlan([FaultSpec("crash", group=2, task=0, max_hits=10_000)])
    try:
        session.run(base, backend="resilient", threads=4,
                    resilience=ResiliencePolicy(), fault_plan=dead)
    except ExecutionError as e:
        print(f"persistent fault -> structured error: {e}")

    # -- distributed: dropped ghost-band exchange --------------------
    spec1 = get_stencil("heat1d")
    dsession = Session(spec1)
    dist = RunConfig(shape=(400,), steps=16, scheme="tess", b=4,
                     backend="distributed", ranks=4)
    base_out = dsession.run(dist).interior
    dplan = FaultPlan([FaultSpec("drop", group=2, task=1)])
    res = dsession.run(dist, fault_plan=dplan,
                       resilience=ResiliencePolicy())
    exact1 = np.array_equal(base_out, res.interior)
    print(f"distributed: dropped exchange at stage 2 -> "
          f"{res.stats.comm.phase_restarts} phase replay(s), "
          f"recovered bit-identical: {exact1}")
    assert exact1


if __name__ == "__main__":
    main()
