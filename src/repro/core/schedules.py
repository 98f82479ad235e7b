"""Tessellation schedules as :class:`~repro.runtime.schedule.RegionSchedule`.

The block executors in :mod:`repro.core.executor` run the tessellation
directly; this module instead *emits* the same work as a flat region
schedule, so the tessellation can be analysed, executed and simulated
through exactly the same machinery as every baseline scheme (threaded
execution, task graphs, the simulated machine).

The schedule is emitted as a rectangle table
(:class:`~repro.runtime.schedule.ScheduleTable`): every stage's
per-step rectangles are computed for all its blocks at once
(:func:`~repro.core.blocks.block_rectangles`), once per lattice level,
and each phase reuses them shifted in time.  No action objects are
made unless a consumer asks for the schedule's object view.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Sequence

import numpy as np

from repro.core.blocks import block_rectangles
from repro.core.profiles import TessLattice
from repro.runtime.schedule import RegionSchedule, ScheduleTable
from repro.stencils.spec import StencilSpec


class _Rows(NamedTuple):
    """Non-empty ``(block, s)`` rectangles, block-major then ``s``."""

    blk: np.ndarray
    s: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def before(self, span: int) -> "_Rows":
        """The rows of phase-local steps ``s < span``."""
        if span >= 1 + int(self.s.max(initial=-1)):
            return self
        keep = self.s < span
        return _Rows(*(col[keep] for col in self))


def _concat(rows: Sequence[_Rows], d: int) -> _Rows:
    if not rows:
        empty = np.zeros(0, dtype=np.int64)
        return _Rows(empty, empty, np.zeros((0, d), np.int64),
                     np.zeros((0, d), np.int64))
    return _Rows(*(np.concatenate(cols) for cols in zip(*rows)))


def _stage_rows(lattice: TessLattice, stage: int, slopes) -> _Rows:
    """Every stage-``stage`` block's rectangles, in block order.

    Blocks come glued set by glued set (``itertools.combinations``
    order), bases in product order — the order of
    :func:`~repro.core.blocks.enumerate_stage_blocks`.
    """
    d, b, shape = lattice.ndim, lattice.b, lattice.shape
    cores = [p.cores for p in lattice.profiles]
    plateaus = [p.plateaus() for p in lattice.profiles]
    out: List[_Rows] = []
    offset = 0
    for glued in itertools.combinations(range(d), stage):
        bases = [plateaus[j] if j in glued else cores[j] for j in range(d)]
        if any(len(c) == 0 for c in bases):
            # an uncut axis never ends a block, an axis without a
            # plateau never glues one: no blocks for this glued set
            continue
        (part,), nblocks = block_rectangles(bases, [glued], b, slopes, shape)
        out.append(_Rows(part[0] + offset, *part[1:]))
        offset += nblocks
    return _concat(out, d)


def _merged_rows(lattice: TessLattice, slopes):
    """The §4.3 merged blocks: ``B_d`` and the next phase's ``B_0`` on
    the same plateau bases (one part each, shared block numbers)."""
    d = lattice.ndim
    bases = [p.plateaus() for p in lattice.profiles]
    parts, _ = block_rectangles(bases, [tuple(range(d)), ()], lattice.b,
                                slopes, lattice.shape)
    return [_Rows(*p) for p in parts]


class _TableBuilder:
    """Appends phases' tasks to a growing rectangle table."""

    def __init__(self, d: int):
        self.d = d
        self.pieces: List[tuple] = []
        self.groups: List[np.ndarray] = []
        self.labels: List[str] = []
        self.ntasks = 0

    def emit(self, rows: _Rows, t: np.ndarray, label: str) -> None:
        """One barrier group: a task per block, if any block has rows."""
        if rows.blk.size == 0:
            return
        first = np.ones(rows.blk.size, dtype=bool)
        first[1:] = rows.blk[1:] != rows.blk[:-1]
        task = np.cumsum(first) - 1
        count = int(task[-1]) + 1
        self.pieces.append((task + self.ntasks, t, rows.lo, rows.hi))
        self.groups.append(np.full(count, len(self.groups), dtype=np.int64))
        self.labels += [label] * count
        self.ntasks += count

    def table(self) -> ScheduleTable:
        d = self.d
        if not self.pieces:
            empty = np.zeros(0, dtype=np.int64)
            return ScheduleTable(task=empty, t=empty,
                                 lo=np.zeros((0, d), np.int64),
                                 hi=np.zeros((0, d), np.int64),
                                 group=empty, label=())
        task, t, lo, hi = (np.concatenate(c) for c in zip(*self.pieces))
        return ScheduleTable(task=task, t=t, lo=lo, hi=hi,
                             group=np.concatenate(self.groups),
                             label=tuple(self.labels))


def tess_schedule(
    spec: StencilSpec,
    shape: Sequence[int],
    lattice: TessLattice,
    steps: int,
    merged: bool = False,
) -> RegionSchedule:
    """Compile ``steps`` time steps of the tessellation to a schedule.

    ``merged=False`` gives the plain §3 structure (one barrier group
    per non-empty stage per phase); ``merged=True`` gives the §4.3
    structure (``B_d``+``B_0`` diamonds fused, alternating lattice
    levels) with one fewer barrier per phase.  The result is built from
    a rectangle table; its :attr:`~RegionSchedule.tasks` view is made
    on first access.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    shape = tuple(int(n) for n in shape)
    name = "tessellation-merged" if merged else "tessellation"
    if any(n == 0 for n in shape):
        # empty interior: nothing to update, a valid empty schedule
        return RegionSchedule(scheme=name, shape=shape, steps=steps)
    if lattice.shape != shape:
        raise ValueError(f"lattice shape {lattice.shape} != {shape}")
    if steps == 0:
        return RegionSchedule(scheme=name, shape=shape, steps=steps)
    b = lattice.b
    d = lattice.ndim
    slopes = tuple(p.sigma for p in lattice.profiles)
    out = _TableBuilder(d)
    if not merged:
        stages = [_stage_rows(lattice, i, slopes) for i in range(d + 1)]
        for tt in range(0, steps, b):
            span = min(b, steps - tt)
            for i, rows in enumerate(stages):
                rows = rows.before(span)
                out.emit(rows, rows.s + tt, f"t{tt}:stage{i}")
        return RegionSchedule.from_table(name, shape, steps, out.table())

    # merged variant
    levels = [lattice, lattice.shifted_to_plateaus()]
    # with uncut axes the lowest active stage is #uncut, not 0; it
    # plays the B_0 role in the merge (its blocks share the plateau
    # bases, and on uncut axes glued/ending dilations both clip to
    # the full extent)
    omin = sum(1 for p in lattice.profiles if not p.cores)
    middle = [[(i, _stage_rows(lv, i, slopes)) for i in range(omin + 1, d)]
              for lv in levels]
    fused = [_merged_rows(lv, slopes) for lv in levels]
    # prologue: the first phase's lowest stage runs unmerged
    rows = _stage_rows(lattice, omin, slopes).before(min(b, steps))
    out.emit(rows, rows.s, f"t0:stage{omin}")
    for phase, tt in enumerate(range(0, steps, b)):
        level = phase % 2
        span = min(b, steps - tt)
        span_next = min(b, max(0, steps - tt - b))
        for i, rows in middle[level]:
            rows = rows.before(span)
            out.emit(rows, rows.s + tt, f"t{tt}:stage{i}")
        # merged B_d + next-phase B_0, same base: per block, B_d's
        # steps at tt + s, then B_0's at tt + b + s
        bd, b0 = fused[level]
        bd = bd.before(span)
        b0 = b0.before(span_next)
        rows = _concat([bd, b0], d)
        t = np.concatenate([bd.s + tt, b0.s + tt + b])
        order = np.lexsort((np.repeat([0, 1], [bd.blk.size, b0.blk.size]),
                            rows.blk))
        out.emit(_Rows(*(col[order] for col in rows)), t[order],
                 f"t{tt}:merged")
    return RegionSchedule.from_table(name, shape, steps, out.table())
