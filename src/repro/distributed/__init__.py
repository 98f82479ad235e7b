"""Distributed-memory tessellation (the paper's §4.1, built out).

    "For distributed memory computers, the clear tessellation scheme
    also enables us to generate a simple data/computation distribution
    and an efficient data communication plan.  However, this is beyond
    the scope of this paper."

This subpackage builds that plan on the simulated substrate:

* :mod:`~repro.distributed.partition` — slab partitioning of the
  lattice and block→rank ownership;
* :mod:`~repro.distributed.exec` — an executable message-passing
  simulation (per-rank arrays, post-stage boundary-band exchange)
  validated against the naive reference — if the communication plan
  under-exchanged, results would diverge;
* :mod:`~repro.distributed.plan` — the analytic per-stage
  communication-volume plan derived from the real schedules;
* :mod:`~repro.distributed.model` — a cluster cost model
  (per-node machine × latency/bandwidth network) on top of it.

The simulator is the one distributed runtime (see
``docs/distributed.md``); process-level crash containment lives in the
service's worker isolation (:mod:`repro.service.isolation`).
"""

from repro.distributed.partition import SlabPartition, build_ownership
from repro.distributed.exec import CommStats
from repro.distributed.plan import communication_plan, CommPlanEntry
from repro.distributed.model import ClusterSpec, simulate_distributed

__all__ = [
    "SlabPartition",
    "build_ownership",
    "CommStats",
    "communication_plan",
    "CommPlanEntry",
    "ClusterSpec",
    "simulate_distributed",
]
