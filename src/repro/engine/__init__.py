"""Compiled execution engine: compile a schedule once, run it many times.

The tiling layer produces :class:`~repro.runtime.schedule.RegionSchedule`
objects — thousands of small ``(t, rectangle)`` actions.  The naive
executor pays Python dispatch, slice construction and fresh NumPy
temporaries for each one.  This package lowers a schedule into a
:class:`~repro.engine.plan.CompiledPlan` whose run loop has **zero
per-run geometry work**:

* :mod:`repro.engine.plan` — schedule → plan compilation: parity
  resolution, precomputed slices, sanitizer-proven same-step rectangle
  fusion, and batched gather/compute/scatter over flat index arrays;
* :mod:`repro.engine.kernels` — allocation-free ``np.multiply`` /
  ``np.add(out=)`` kernels over per-thread scratch arenas, bit-identical
  to the naive operators;
* :mod:`repro.engine.cache` — an LRU plan cache (with optional on-disk
  tier) so autotune probes, distributed ranks and benchmark repeats
  compile exactly once;
* :mod:`repro.engine.batch` — a batch axis over the same plans: N
  independent instances stacked into one ``[N, ...]`` ping-pong pair,
  every unit applied to the whole batch in one NumPy call (the
  ``batched`` backend's engine).

See ``docs/performance.md`` for architecture and measured speedups.
"""

from repro.engine.batch import BatchGrid, plan_supports_batch, stack_grids
from repro.engine.kernels import ScratchArena, thread_arena
from repro.engine.plan import CompiledPlan, PlanStats, compile_plan
from repro.engine.cache import (
    CacheStats,
    PlanCache,
    default_cache,
    get_plan,
    plan_key,
    spec_signature,
)

__all__ = [
    "BatchGrid",
    "CompiledPlan",
    "PlanStats",
    "compile_plan",
    "plan_supports_batch",
    "stack_grids",
    "ScratchArena",
    "thread_arena",
    "CacheStats",
    "PlanCache",
    "default_cache",
    "get_plan",
    "plan_key",
    "spec_signature",
]
