"""Resilience-layer overhead on the real NumPy substrate (ISSUE 1).

Measures the cost of fault tolerance in the happy path — checkpoint
copies and invariant-guard sweeps — across checkpoint cadences, plus
the replay cost of recovering one late injected fault.  Group replay
is the backend's only recovery path, so the cadence prices every
recovered fault; this trade-off is why ``checkpoint_interval`` is a
knob.
Not a paper figure; this quantifies the engineering trade-off recorded
in ``docs/resilience.md``.
"""

import numpy as np

from repro import Grid, get_stencil, make_lattice
from repro.bench.resilience import resilience_overhead
from repro.core.schedules import tess_schedule
from repro.runtime import FaultPlan, FaultSpec, ResiliencePolicy
from repro.runtime.resilience import _execute_resilient
from repro.runtime.schedule import _execute_schedule

SHAPE = (96, 96)
STEPS = 16
B = 4


def test_checkpoint_cadence_overhead(benchmark, capsys):
    out = benchmark.pedantic(
        lambda: resilience_overhead(shape=SHAPE, steps=STEPS, repeats=2),
        rounds=1, iterations=1)
    with capsys.disabled():
        print("\n[resilience] checkpoint cadence trade-off:")
        print(out)
    spec = get_stencil("heat2d")
    lat = make_lattice(spec, SHAPE, B)
    sched = tess_schedule(spec, SHAPE, lat, STEPS, merged=True)
    ref = _execute_schedule(spec, Grid(spec, SHAPE, seed=0), sched).copy()

    # recovery replays deterministically: a late fault with sparse
    # checkpoints still converges to the bit-identical answer
    plan = FaultPlan([FaultSpec("corrupt", group=sched.num_groups - 1,
                                task=0)])
    out2, rep = _execute_resilient(
        spec, Grid(spec, SHAPE, seed=0), sched,
        policy=ResiliencePolicy(checkpoint_interval=0), fault_plan=plan)
    assert np.array_equal(ref, out2)
    assert rep.restores == 1
