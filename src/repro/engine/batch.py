"""Batch axis for compiled plans: one plan over N stacked instances.

The serving workload is many *small/medium* independent problem
instances of the same ``(spec, shape, steps, scheme)`` — exactly the
regime where a compiled plan's remaining cost is Python dispatch per
unit, not math (a fig8-class plan is ~32 units covering ~16k actions
for under a millisecond of arithmetic).  This module amortises that
dispatch across the *instance* axis: N grids are stacked into one
``[N, *padded]`` ping-pong pair and every plan unit applies to all N
instances in a single NumPy call (``run_batched`` on the units in
:mod:`repro.engine.plan`; the instance-level analogue of temporal
vectorization, arXiv 2010.04868 / 2103.08825).

Bit-identity is preserved by construction: slice units gain a leading
``slice(None)`` (same per-element float sequence, wider arrays), flat
batch units gather with ``axis=1`` over ``[N, P]`` views (elementwise
arithmetic is layout-independent).  The plan itself is untouched — the
cache key stays independent of N, so one compile serves any batch
width.

Plans the batched lowering cannot prove safe are refused by
:func:`plan_supports_batch`: ghost-zone (private-task) plans snapshot
per-task boxes whose geometry has no batch form, and generic-operator
plans call ``spec.operator.apply`` which only knows single-instance
buffers.  The ``batched`` backend surfaces the refusal as a typed
:class:`~repro.api.backends.BackendUnsupported` before any buffer is
touched.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.kernels import thread_arena
from repro.engine.plan import CompiledPlan
from repro.stencils.grid import Grid
from repro.stencils.operators import (
    GameOfLifeOperator,
    LinearStencilOperator,
)
from repro.stencils.spec import StencilSpec
from repro.stencils.staged import StagedOperator

__all__ = [
    "BatchGrid",
    "plan_supports_batch",
    "stack_grids",
]


class BatchGrid:
    """N stacked ping-pong pairs: ``buffers[p][i]`` is instance ``i``'s
    padded buffer at parity ``p``.

    The stacked buffers are C-contiguous ``[N, *padded]`` arrays, so a
    plan unit's slice prefixed with ``slice(None)`` (or an ``axis=1``
    flat gather over the ``[N, P]`` view) touches every instance in one
    kernel call.
    """

    __slots__ = ("spec", "shape", "n", "buffers")

    def __init__(self, spec: StencilSpec, shape: Sequence[int],
                 buffers: List[np.ndarray]):
        self.spec = spec
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.n = int(buffers[0].shape[0])
        self.buffers = buffers

    def at(self, t: int) -> np.ndarray:
        """Stacked padded buffers holding values at global time ``t``."""
        return self.buffers[t % 2]

    def interior(self, t: int) -> np.ndarray:
        """``[N, *shape]`` interior view at global time ``t``."""
        return self.at(t)[(slice(None),)
                          + self.spec.interior_slices(self.shape)]

    def instance_interior(self, i: int, t: int) -> np.ndarray:
        return self.at(t)[(i,) + self.spec.interior_slices(self.shape)]

    def scatter(self, grids: Sequence[Grid]) -> None:
        """Copy both parities back into the member grids' own buffers."""
        if len(grids) != self.n:
            raise ValueError(
                f"batch holds {self.n} instances, got {len(grids)} grids"
            )
        for p in (0, 1):
            stacked = self.buffers[p]
            for i, grid in enumerate(grids):
                np.copyto(grid.buffers[p], stacked[i])


def stack_grids(spec: StencilSpec, grids: Sequence[Grid]) -> BatchGrid:
    """Stack N member grids into one :class:`BatchGrid` (copies)."""
    if not grids:
        raise ValueError("cannot stack an empty grid list")
    shape = grids[0].shape
    for g in grids:
        if g.shape != shape:
            raise ValueError(
                f"batch members must share one shape; got {g.shape} "
                f"and {shape}"
            )
        if g.spec.dtype != spec.dtype:
            raise ValueError("batch members must share the spec dtype")
    buffers = [
        np.stack([g.buffers[p] for g in grids], axis=0) for p in (0, 1)
    ]
    return BatchGrid(spec, shape, buffers)


def plan_supports_batch(plan: CompiledPlan) -> Optional[str]:
    """Refusal reason when a plan has no batched lowering, else None."""
    if plan.private:
        return ("ghost-zone (private-task) plans have no batched "
                "lowering; run instances individually")
    op = plan.spec.operator
    if not (isinstance(op, GameOfLifeOperator)
            or type(op) is LinearStencilOperator
            or isinstance(op, StagedOperator)):
        return (f"operator {type(op).__name__} has no batched kernel; "
                f"only linear, Game-of-Life and staged operators are "
                f"batchable")
    return None


def _execute_plan_batched(plan: CompiledPlan, bgrid: BatchGrid,
                          budget=None) -> np.ndarray:
    """Run one compiled plan over all stacked instances at once.

    Mirrors :func:`repro.engine.plan._execute_plan` — same budget
    checkpoints at entry and between group streams — but dispatches
    each unit once for the whole batch.  Returns the ``[N, *shape]``
    interior at the plan's final step.
    """
    reason = plan_supports_batch(plan)
    if reason is not None:
        raise ValueError(f"plan cannot run batched: {reason}")
    if bgrid.shape != plan.shape:
        raise ValueError(
            f"batch shape {bgrid.shape} != plan shape {plan.shape}"
        )
    bufs = bgrid.buffers
    if not all(b.flags.c_contiguous for b in bufs):
        raise ValueError("batched plans require C-contiguous buffers")
    n = bgrid.n
    flats = (bufs[0].reshape(n, -1), bufs[1].reshape(n, -1))
    spec = plan.spec
    arena = thread_arena()
    if budget is not None:
        budget.check(f"{plan.scheme} batched plan entry")
    for si, stream in enumerate(plan.streams):
        if budget is not None:
            budget.check(f"batched stream {si}")
        for unit in stream:
            unit.run_batched(bufs, flats, spec, arena)
    return bgrid.interior(plan.steps)
