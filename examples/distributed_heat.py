#!/usr/bin/env python3
"""Distributed-memory tessellation — §4.1 made concrete.

Partitions a Heat-2D grid into slabs across simulated ranks, runs the
tessellation with real per-stage boundary exchanges (validated against
the single-node reference), repeats the run with one exchange dropped
and recovered by phase replay, prints the communication plan, and
estimates cluster strong scaling with the α–β network model.

Run:  python examples/distributed_heat.py
"""

from repro import get_stencil, make_lattice
from repro.api import RunConfig, Session
from repro.bench.report import format_table
from repro.distributed import (
    ClusterSpec,
    communication_plan,
    simulate_distributed,
)
from repro.runtime import FaultPlan, ResiliencePolicy
from repro.distributed.plan import plan_totals
from repro.machine import paper_machine


def main() -> None:
    spec = get_stencil("heat2d")
    shape = (120, 96)
    steps = 24
    b = 4
    ranks = 4
    session = Session(spec)
    config = RunConfig(shape=shape, steps=steps, scheme="tess", b=b,
                       ranks=ranks, backend="distributed", verify=True)

    # 1. run the real message-passing simulation and verify it
    result = session.run(config)
    assert result.ok
    stats = result.stats.comm
    print(f"{ranks} ranks over {shape}, {steps} steps: verified against "
          f"the single-node reference")
    print(f"exchanges: {stats.messages} messages, "
          f"{stats.bytes_sent / 1024:.1f} KiB moved\n")

    # 2. the same run with rank 1's band dropped at stage 3: the
    # divergence detector catches it, the phase replays from its
    # checkpoint, and the result is bit-identical
    res2 = session.run(config, fault_plan=FaultPlan.parse(["drop@3/1"]),
                       resilience=ResiliencePolicy())
    assert res2.ok and res2.stats.comm.phase_restarts == 1
    assert res2.interior.tobytes() == result.interior.tobytes()
    print(f"drop@3/1 injected: recovered bit-identically "
          f"({res2.stats.comm.describe_resilience()})\n")

    # 3. the analytic per-stage communication plan
    entries = communication_plan(spec, shape, result.lattice, ranks)
    tot = plan_totals(entries)
    print(f"analytic plan: {tot['messages']} point-to-point transfers "
          f"per phase, {tot['total_bytes'] / 1024:.1f} KiB minimum "
          f"volume (stages with traffic: {tot['stages_with_comm']})\n")

    # 4. cluster strong scaling estimate at paper scale
    big_shape = (2400, 2400)
    big_lat = make_lattice(spec, big_shape, 32, core_widths=(1, 128))
    rows = []
    base = None
    for nodes in (1, 2, 4, 8, 16):
        r = simulate_distributed(spec, big_shape, big_lat, 96,
                                 ClusterSpec(nodes, paper_machine()))
        base = base or r.time_s
        rows.append([nodes, f"{r.gstencils:.1f}",
                     f"{r.comm_fraction * 100:.1f}%",
                     f"{base / r.time_s:.2f}x"])
    print("strong scaling, Heat-2D 2400^2 x 96 on 24-core nodes:")
    print(format_table(["nodes", "GStencil/s", "comm share", "speedup"],
                       rows))


if __name__ == "__main__":
    main()
