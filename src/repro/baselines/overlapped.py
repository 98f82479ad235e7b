"""Overlapped (redundant) time tiling — §2.1 "Overlapped tiling".

The ghost-zone technique of the high-performance community: the grid
is cut into hyper-rectangular *cores*; to advance a core ``bt`` steps
without inter-tile communication, each tile also recomputes a halo
that shrinks by one slope per step (an inverted trapezoid per tile).
Tiles of one time tile are fully independent — maximal concurrency —
at the price of redundant computation that grows with ``bt`` and the
surface-to-volume ratio, the trade-off the paper argues against
("the redundant operations may outweigh the performance improvement").

Unlike every other scheme here, overlapped tiles cannot run on the
shared ping-pong buffers: a tile that finishes its ``bt`` steps
overwrites (with time ``tt+2`` values) grid cells a later tile still
needs at time ``tt``.  Real ghost-zone implementations therefore give
each tile *private* storage (GPU shared memory, per-thread scratch);
:func:`execute_overlapped` reproduces that: per time tile, every task
first snapshots its input bounding box, iterates privately, and writes
back only its core.  The generic
:func:`repro.runtime.schedule._execute_schedule` refuses schedules
flagged private.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.runtime.schedule import RegionAction, RegionSchedule
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec, region_is_empty


def overlapped_schedule(
    spec: StencilSpec,
    shape: Sequence[int],
    steps: int,
    tile: Sequence[int],
    bt: int,
) -> RegionSchedule:
    """Time tiles of depth ``bt`` over ``tile``-sized cores.

    At local step ``s`` (global ``tt + s``) a tile updates its core
    dilated by ``(bt - 1 - s)·σ`` per dimension, clipped to the domain;
    the last step produces exactly the core.  One barrier group per
    time tile.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if bt < 1:
        raise ValueError(f"bt must be >= 1, got {bt}")
    shape = tuple(int(n) for n in shape)
    tile = tuple(int(t) for t in tile)
    if len(shape) != spec.ndim or len(tile) != spec.ndim:
        raise ValueError("shape/tile rank mismatch")
    if any(t < 1 for t in tile):
        raise ValueError(f"tile sizes must be >= 1, got {tile}")
    slopes = spec.slopes
    grids = [range(0, n, t) for n, t in zip(shape, tile)]
    sched = RegionSchedule(scheme="overlapped", shape=shape, steps=steps,
                           private_tasks=True, redundant=True)
    group = 0
    tt = 0
    while tt < steps:
        span = min(bt, steps - tt)
        for origin in itertools.product(*grids):
            actions = []
            for s in range(span):
                # dilation measured from the *end of this time tile*:
                # the final step of the tile emits exactly the core
                r = span - 1 - s
                region = tuple(
                    (max(0, o - r * sg), min(n, o + w + r * sg))
                    for o, w, sg, n in zip(origin, tile, slopes, shape)
                )
                if not region_is_empty(region):
                    actions.append(RegionAction(t=tt + s, region=region))
            if actions:
                sched.add(group, actions, label=f"t{tt}:tile{origin}")
        group += 1
        tt += bt
    return sched


def execute_overlapped(spec: StencilSpec, grid: Grid,
                       schedule: RegionSchedule,
                       budget=None) -> "np.ndarray":
    """Ghost-zone execution: snapshot, iterate privately, write back core.

    Per barrier group (one time tile): **pass 1** snapshots every
    task's input box from the shared grid (read-only — safe to run
    concurrently); **pass 2** iterates each task on its private
    ping-pong pair and writes back only the final core region (cores
    are disjoint — safe to run concurrently).  This is exactly the GPU
    ghost-zone / 3.5D-blocking discipline the paper's §2.1 describes.
    """
    if spec.is_periodic:
        raise ValueError("overlapped executor assumes non-periodic boundaries")
    if grid.shape != schedule.shape:
        raise ValueError(
            f"grid shape {grid.shape} != schedule shape {schedule.shape}"
        )
    halo = spec.halo
    groups = schedule.groups()
    if budget is not None:
        budget.check("overlapped entry")
    for gid in sorted(groups):
        if budget is not None:
            budget.check(f"group {gid}")
        tasks = groups[gid]
        snapshots = []
        # pass 1: snapshot inputs at the tile's start time
        for task in tasks:
            if not task.actions:
                snapshots.append(None)
                continue
            t_start = task.actions[0].t
            inbox = task.actions[0].region  # widest region of the task
            pad_shape = tuple(
                (hi - lo) + 2 * h for (lo, hi), h in zip(inbox, halo)
            )
            src = grid.at(t_start)
            src_slices = tuple(
                slice(lo, hi + 2 * h) for (lo, hi), h in zip(inbox, halo)
            )
            # explicit copy: a contiguous slice would otherwise alias
            # the live grid and defeat the snapshot
            buf_a = src[src_slices].copy()
            if buf_a.shape != pad_shape:
                raise AssertionError("snapshot shape mismatch")
            snapshots.append((t_start, inbox, [buf_a, buf_a.copy()]))
        # pass 2: private iteration + core write-back
        for task, snap in zip(tasks, snapshots):
            if snap is None:
                continue
            t_start, inbox, bufs = snap
            offs = tuple(lo for lo, _ in inbox)
            for a in task.actions:
                local = tuple(
                    (lo - o, hi - o) for (lo, hi), o in zip(a.region, offs)
                )
                spec.apply_region(bufs[a.t % 2], bufs[(a.t + 1) % 2], local)
            last = task.actions[-1]
            t_done = last.t + 1
            core = last.region
            dst = grid.at(t_done)
            dst_slices = tuple(
                slice(lo + h, hi + h) for (lo, hi), h in zip(core, halo)
            )
            local_core = tuple(
                slice(lo - o + h, hi - o + h)
                for (lo, hi), o, h in zip(core, offs, halo)
            )
            dst[dst_slices] = bufs[t_done % 2][local_core]
    return grid.interior(schedule.steps)
