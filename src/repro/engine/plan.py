"""Schedule → plan compilation: run a RegionSchedule with zero
per-run geometry work.

:func:`repro.runtime.schedule._execute_schedule` pays, for every one of
the thousands of small region actions a tiled schedule emits, a
Python-level dispatch through ``spec.apply_region``, fresh slice-tuple
construction per neighbour tap, and one temporary NumPy array per tap.
A :class:`CompiledPlan` hoists all of that to compile time:

* **parity resolution** — each action's ping-pong buffer pair
  (``t % 2`` source, ``(t+1) % 2`` destination) is a precomputed index;
* **precomputed slices** — every ``(action, offset)`` slice tuple is
  built once;
* **same-step fusion** — inside one barrier group, actions at the same
  global step are proven write-disjoint (the Theorem 3.5 disjointness
  half: a pairwise box test for small layers, duplicate flat indices
  for large ones), then greedily fused into maximal rectangles, and
  the small remainder is lowered to **batched** gather/compute/scatter
  updates over flat index arrays (one ufunc dispatch sequence for
  hundreds of actions);
* **allocation-free kernels** — the per-unit update runs through
  :mod:`repro.engine.kernels` into reusable per-thread scratch.

Compilation reads the schedule's rectangle table
(:meth:`~repro.runtime.schedule.RegionSchedule.table`) and does each of
these steps as one array pass over every barrier group at once; it
never touches the schedule's action objects (ghost-zone schedules
excepted).

Execution order inside a group is lowered to ascending global step,
which is a valid interleaving of the group's task orders whenever each
task's actions are non-decreasing in ``t`` (checked at compile time;
groups failing the check, and declared-redundant schedules, fall back
to the original task order with per-action compiled slices).  Reads at
step ``t`` live in the ``t % 2`` buffer while same-step writes land in
the other parity, so same-step units can run in any order once their
writes are disjoint.

Results are bit-identical to ``_execute_schedule`` (or
``execute_overlapped`` for ghost-zone schedules): per grid point, the
exact float operation sequence of the naive operator is preserved —
fusion and batching only change array *layout*, never per-element
arithmetic (see :mod:`repro.engine.kernels`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.rects import (
    chunks,
    flat_indices,
    fuse_layers,
    overlapping_layers,
    ragged_arange,
    run_starts,
)
from repro.engine.kernels import (
    life_batch,
    life_batch_many,
    life_slices,
    linear_batch,
    linear_batch_many,
    linear_slices,
    thread_arena,
)
from repro.runtime.schedule import (
    RegionAction,
    RegionSchedule,
    ScheduleTable,
)
from repro.stencils.grid import Grid
from repro.stencils.operators import (
    GameOfLifeOperator,
    LinearStencilOperator,
)
from repro.stencils.spec import (
    Region,
    StencilSpec,
    clip_region,
    region_is_empty,
)
from repro.stencils.staged import stage_scratch, stage_timings

__all__ = ["CompiledPlan", "PlanStats", "compile_plan"]


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _element_strides(padded_shape: Sequence[int]) -> Tuple[int, ...]:
    """C-order strides of a padded buffer, in elements."""
    d = len(padded_shape)
    strides = [1] * d
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * int(padded_shape[j + 1])
    return tuple(strides)


def _region_slices(region: Region, halo: Sequence[int],
                   offset: Sequence[int]) -> Tuple[slice, ...]:
    return tuple(
        slice(lo + h + o, hi + h + o)
        for (lo, hi), h, o in zip(region, halo, offset)
    )


# ---------------------------------------------------------------------------
# execution units
# ---------------------------------------------------------------------------

_ALL = (slice(None),)


class _LinearSliceOp:
    """One (possibly fused) rectangle of a linear stencil."""

    __slots__ = ("sp", "dp", "t", "region", "out_sl", "in_sls", "coeffs")

    def __init__(self, t, region, out_sl, in_sls, coeffs):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.region = region
        self.out_sl = out_sl
        self.in_sls = in_sls
        self.coeffs = coeffs

    def writes(self):
        return [(self.t, self.region)]

    def run(self, bufs, flats, spec, arena):
        linear_slices(bufs[self.sp], bufs[self.dp], self.out_sl,
                      self.in_sls, self.coeffs, arena)

    def run_batched(self, bufs, flats, spec, arena):
        # the same slice kernel over [N, ...] buffers: a leading
        # slice(None) applies the rectangle to every instance at once
        linear_slices(bufs[self.sp], bufs[self.dp], _ALL + self.out_sl,
                      tuple(_ALL + sl for sl in self.in_sls),
                      self.coeffs, arena)


class _LifeSliceOp:
    """One (possibly fused) rectangle of the Game-of-Life rule."""

    __slots__ = ("sp", "dp", "t", "region", "out_sl", "in_sls", "centre_sl")

    def __init__(self, t, region, out_sl, in_sls, centre_sl):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.region = region
        self.out_sl = out_sl
        self.in_sls = in_sls
        self.centre_sl = centre_sl

    def writes(self):
        return [(self.t, self.region)]

    def run(self, bufs, flats, spec, arena):
        life_slices(bufs[self.sp], bufs[self.dp], self.out_sl,
                    self.in_sls, self.centre_sl, arena)

    def run_batched(self, bufs, flats, spec, arena):
        life_slices(bufs[self.sp], bufs[self.dp], _ALL + self.out_sl,
                    tuple(_ALL + sl for sl in self.in_sls),
                    _ALL + self.centre_sl, arena)


class _GenericSliceOp:
    """Fallback for operators the engine has no specialised kernel for."""

    __slots__ = ("sp", "dp", "t", "region")

    def __init__(self, t, region):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.region = region

    def writes(self):
        return [(self.t, self.region)]

    def run(self, bufs, flats, spec, arena):
        spec.operator.apply(bufs[self.sp], bufs[self.dp], self.region,
                            spec.halo)


def _rect_writes(t: int, lo: np.ndarray, hi: np.ndarray):
    """``[(t, region)]`` of rectangles kept as ``lo``/``hi`` rows."""
    return [(t, region) for region in _regions(lo, hi)]


class _LinearBatch:
    """All small same-step rectangles of one group as one gather/scatter."""

    __slots__ = ("sp", "dp", "t", "lo", "hi", "idx", "off_flats", "coeffs")

    def __init__(self, t, lo, hi, idx, off_flats, coeffs):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.lo = lo
        self.hi = hi
        self.idx = idx
        self.off_flats = off_flats
        self.coeffs = coeffs

    def writes(self):
        return _rect_writes(self.t, self.lo, self.hi)

    def run(self, bufs, flats, spec, arena):
        linear_batch(flats[self.sp], flats[self.dp], self.idx,
                     self.off_flats, self.coeffs, arena)

    def run_batched(self, bufs, flats, spec, arena):
        linear_batch_many(flats[self.sp], flats[self.dp], self.idx,
                          self.off_flats, self.coeffs, arena)


class _LifeBatch:
    __slots__ = ("sp", "dp", "t", "lo", "hi", "idx", "off_flats",
                 "centre_off")

    def __init__(self, t, lo, hi, idx, off_flats, centre_off):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.lo = lo
        self.hi = hi
        self.idx = idx
        self.off_flats = off_flats
        self.centre_off = centre_off

    def writes(self):
        return _rect_writes(self.t, self.lo, self.hi)

    def run(self, bufs, flats, spec, arena):
        life_batch(flats[self.sp], flats[self.dp], self.idx,
                   self.off_flats, self.centre_off, arena)

    def run_batched(self, bufs, flats, spec, arena):
        life_batch_many(flats[self.sp], flats[self.dp], self.idx,
                        self.off_flats, self.centre_off, arena)


class _StagedSliceOp:
    """One rectangle of a staged system: every stage, grown and clipped.

    The grown intermediates go through the calling thread's
    zero-exterior scratch (:func:`repro.stencils.staged.stage_scratch`);
    only ``region`` of each field is copied into the destination
    parity, so a schedule layer's write-disjointness is exactly the
    spatial disjointness of its raw regions, same as a plain spec.
    """

    __slots__ = ("sp", "dp", "t", "region", "stage_ops", "copy_sls",
                 "pad_shape")

    def __init__(self, t, region, stage_ops, copy_sls, pad_shape):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.region = region
        self.stage_ops = stage_ops      # (stage, out_sl, ((new, view_sl),))
        self.copy_sls = copy_sls        # one (field,) + region slice per field
        self.pad_shape = pad_shape

    def writes(self):
        return [(self.t, self.region)]

    def _apply(self, bufs, spec, arena, pre_shape, pre_sl):
        scr = stage_scratch(pre_shape + self.pad_shape, spec.dtype)
        src = bufs[self.sp]
        dst = bufs[self.dp]
        timed = stage_timings.armed
        for stage, out_sl, view_sls in self.stage_ops:
            t0 = time.perf_counter() if timed else 0.0
            views = [
                (scr if new else src)[pre_sl + sl] for new, sl in view_sls
            ]
            stage.apply_stage(scr[pre_sl + out_sl], views, arena)
            if timed:
                stage_timings.record(stage.name, time.perf_counter() - t0)
        for sl in self.copy_sls:
            np.copyto(dst[pre_sl + sl], scr[pre_sl + sl])

    def run(self, bufs, flats, spec, arena):
        self._apply(bufs, spec, arena, (), ())

    def run_batched(self, bufs, flats, spec, arena):
        self._apply(bufs, spec, arena, (bufs[0].shape[0],), _ALL)


class _StagedBatch:
    """All small same-step rectangles of one staged group, gathered.

    Per stage: one position array (union of the rectangles' clipped
    grown regions, in flat spatial-buffer indices), one gather per read
    tap (shift = flat offset + field base), one elementwise
    ``apply_stage`` on the gathered 1-D arrays, one scatter into the
    flat scratch.  Overlapping grown regions scatter duplicate
    positions with *identical* values (the stage output is a pure
    function of the source parity), so the duplicate writes are benign.
    The final per-field copy touches only the raw (pairwise-disjoint)
    rectangles.
    """

    __slots__ = ("sp", "dp", "t", "lo", "hi", "stage_ops", "idx",
                 "num_fields", "field_size", "pad_shape")

    def __init__(self, t, lo, hi, stage_ops, copy_idx, num_fields,
                 field_size, pad_shape):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.lo = lo
        self.hi = hi
        self.stage_ops = stage_ops      # (stage, pos, wshift, ((new, shift),))
        self.idx = copy_idx             # flat spatial indices of the raw rects
        self.num_fields = num_fields
        self.field_size = field_size
        self.pad_shape = pad_shape

    def writes(self):
        return _rect_writes(self.t, self.lo, self.hi)

    def run(self, bufs, flats, spec, arena):
        scr_flat = stage_scratch(self.pad_shape, spec.dtype).reshape(-1)
        src_flat = flats[self.sp]
        dst_flat = flats[self.dp]
        timed = stage_timings.armed
        for stage, pos, wshift, shifts in self.stage_ops:
            t0 = time.perf_counter() if timed else 0.0
            ish = arena.get("sg_idx", pos.size, np.intp)
            gathered = []
            for i, (new, shift) in enumerate(shifts):
                np.add(pos, shift, out=ish)
                g = arena.get(f"sg{i}", pos.size, spec.dtype)
                np.take(scr_flat if new else src_flat, ish, out=g)
                gathered.append(g)
            out = arena.get("sg_out", pos.size, spec.dtype)
            stage.apply_stage(out, gathered, arena)
            np.add(pos, wshift, out=ish)
            scr_flat[ish] = out
            if timed:
                stage_timings.record(stage.name, time.perf_counter() - t0)
        ish = arena.get("sg_idx", self.idx.size, np.intp)
        g = arena.get("sg_copy", self.idx.size, spec.dtype)
        for f in range(self.num_fields):
            np.add(self.idx, f * self.field_size, out=ish)
            np.take(scr_flat, ish, out=g)
            dst_flat[ish] = g

    def run_batched(self, bufs, flats, spec, arena):
        n = bufs[0].shape[0]
        scr2 = stage_scratch((n,) + self.pad_shape, spec.dtype).reshape(n, -1)
        src2 = flats[self.sp]
        dst2 = flats[self.dp]
        timed = stage_timings.armed
        for stage, pos, wshift, shifts in self.stage_ops:
            t0 = time.perf_counter() if timed else 0.0
            ish = arena.get("sg_idx", pos.size, np.intp)
            gathered = []
            for i, (new, shift) in enumerate(shifts):
                np.add(pos, shift, out=ish)
                g = arena.get(f"sgm{i}", n * pos.size,
                              spec.dtype).reshape(n, pos.size)
                np.take(scr2 if new else src2, ish, axis=1, out=g)
                gathered.append(g)
            out = arena.get("sgm_out", n * pos.size,
                            spec.dtype).reshape(n, pos.size)
            stage.apply_stage(out, gathered, arena)
            np.add(pos, wshift, out=ish)
            scr2[:, ish] = out
            if timed:
                stage_timings.record(stage.name, time.perf_counter() - t0)
        ish = arena.get("sg_idx", self.idx.size, np.intp)
        for f in range(self.num_fields):
            np.add(self.idx, f * self.field_size, out=ish)
            dst2[:, ish] = scr2[:, ish]


class _PrivateTask:
    """One ghost-zone task: snapshot box, local steps, core write-back.

    Mirrors :func:`repro.baselines.overlapped.execute_overlapped`
    exactly (same snapshot, same local iteration, same write-back) with
    every slice precomputed.
    """

    __slots__ = ("t_start", "snap_sl", "pad_shape", "local_ops",
                 "wb_parity", "wb_dst_sl", "wb_local_sl", "actions")

    def __init__(self, t_start, snap_sl, pad_shape, local_ops,
                 wb_parity, wb_dst_sl, wb_local_sl, actions):
        self.t_start = t_start
        self.snap_sl = snap_sl
        self.pad_shape = pad_shape
        self.local_ops = local_ops          # (sp, dp, local_region)
        self.wb_parity = wb_parity
        self.wb_dst_sl = wb_dst_sl
        self.wb_local_sl = wb_local_sl
        self.actions = actions              # [(t, region)] for as_schedule

    def snapshot(self, bufs):
        buf_a = bufs[self.t_start % 2][self.snap_sl].copy()
        return [buf_a, buf_a.copy()]

    def iterate(self, pair, spec):
        for sp, dp, local_region in self.local_ops:
            spec.operator.apply(pair[sp], pair[dp], local_region, spec.halo)

    def write_back(self, pair, bufs):
        bufs[self.wb_parity][self.wb_dst_sl] = pair[self.wb_parity][self.wb_local_sl]


class _PrivateGroup:
    """One barrier group of private tasks (two-pass ghost-zone discipline)."""

    __slots__ = ("t", "ptasks")

    def __init__(self, ptasks):
        self.ptasks = ptasks
        self.t = min((pt.t_start for pt in ptasks), default=0)

    def writes(self):
        return [w for pt in self.ptasks for w in pt.actions]

    def run(self, bufs, flats, spec, arena):
        snaps = [pt.snapshot(bufs) for pt in self.ptasks]
        for pt, pair in zip(self.ptasks, snaps):
            pt.iterate(pair, spec)
            pt.write_back(pair, bufs)


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

@dataclass
class PlanStats:
    """What compilation did (consumed by tests, the CLI and the bench)."""

    tasks: int = 0
    actions: int = 0
    groups: int = 0
    stream_units: int = 0
    batches: int = 0
    batched_actions: int = 0
    sliced_actions: int = 0
    fused_actions: int = 0       #: actions removed by rectangle fusion
    fallback_groups: int = 0     #: groups compiled without reordering
    index_bytes: int = 0
    compile_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.stream_units} units ({self.batches} batches covering "
            f"{self.batched_actions} actions, {self.sliced_actions} slice "
            f"ops, {self.fused_actions} fused away) from {self.actions} "
            f"actions / {self.tasks} tasks / {self.groups} groups; "
            f"{self.index_bytes / 1e6:.1f} MB indices, compiled in "
            f"{self.compile_seconds * 1e3:.1f} ms"
        )


@dataclass
class CompiledPlan:
    """A RegionSchedule lowered to prebuilt execution units.

    ``streams[i]`` is the ordered unit list of barrier group
    ``group_ids[i]``; :func:`_execute_plan` runs them in order.  The
    per-task view used by the threaded/resilient executors is compiled
    lazily by :meth:`task_units`.
    """

    scheme: str
    shape: Tuple[int, ...]
    steps: int
    spec: StencilSpec
    group_ids: List[int]
    streams: List[list]
    private: bool
    stats: PlanStats
    schedule: RegionSchedule = field(repr=False)
    _task_units: Dict[int, List[list]] = field(default_factory=dict,
                                               repr=False)

    @property
    def num_groups(self) -> int:
        return len(self.group_ids)

    def __getstate__(self):
        # the per-task unit memo is derived data, rebuilt on demand: a
        # plan pickles the same whichever backends have already run it
        state = dict(self.__dict__)
        state["_task_units"] = {}
        return state

    def task_units(self, group_index: int) -> List[list]:
        """Per-task compiled units of one group (for threaded execution).

        Tasks keep their original action order — no cross-task fusion —
        so the barrier-group independence contract is untouched.  Every
        group's units are read from the schedule's table on first use,
        so this never builds the schedule's object view.
        """
        if not self._task_units:
            self._task_units.update(self._compile_task_units())
        return self._task_units[group_index]

    def _compile_task_units(self) -> Dict[int, List[list]]:
        table = self.schedule.table()
        ctx = _CompileCtx(self.spec, self.shape)
        rows = np.flatnonzero(np.all(table.hi > table.lo, axis=1))
        units = [ctx.slice_unit(step, region) for step, region in
                 zip(table.t[rows].tolist(),
                     _regions(table.lo[rows], table.hi[rows]))]
        bounds = np.searchsorted(table.task[rows],
                                 np.arange(table.num_tasks + 1)).tolist()
        index = {gid: gi for gi, gid in enumerate(self.group_ids)}
        out: Dict[int, List[list]] = {gi: [] for gi in index.values()}
        for k, gid in enumerate(table.group.tolist()):
            out[index[gid]].append(units[bounds[k]:bounds[k + 1]])
        return out

    def as_schedule(self) -> RegionSchedule:
        """Re-express the compiled stream as a RegionSchedule.

        Each same-step layer of each stream becomes one barrier group
        whose tasks are the layer's units, so the sanitizer can prove
        that fusion/batching preserved the exact-tessellation and
        race-freedom invariants (finer barriers are strictly more
        conservative than the original grouping).
        """
        out = RegionSchedule(
            scheme=f"{self.scheme}+compiled", shape=self.shape,
            steps=self.steps, private_tasks=self.private,
            redundant=self.schedule.redundant,
        )
        group = 0
        for stream in self.streams:
            if not stream:
                continue
            if self.private:
                for unit in stream:
                    for pt in unit.ptasks:
                        out.add(group, [RegionAction(t=t, region=r)
                                        for t, r in pt.actions])
                group += 1
                continue
            last_t = None
            for unit in stream:
                if last_t is not None and unit.t != last_t:
                    group += 1
                last_t = unit.t
                out.add(group, [RegionAction(t=t, region=r)
                                for t, r in unit.writes()])
            group += 1
        return out


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

class _CompileCtx:
    """Shared geometry/kernel context of one compilation."""

    def __init__(self, spec: StencilSpec, shape: Sequence[int]):
        self.spec = spec
        self.shape = tuple(int(n) for n in shape)
        self.halo = spec.halo
        self.padded = spec.padded_shape(shape)
        self.strides = _element_strides(self.padded)
        op = spec.operator
        self.kind = "generic"
        if getattr(spec, "is_staged", False):
            self.kind = "staged"
            # regions stay spatial: strides/flat-index math must ignore
            # the leading field axis of the padded buffer
            self.strides = _element_strides(self.padded[1:])
            self.num_fields = len(spec.fields)
            self.field_size = 1
            for n in self.padded[1:]:
                self.field_size *= int(n)
        elif isinstance(op, GameOfLifeOperator):
            self.kind = "life"
            self.neigh_offs = tuple(o for o in op.offsets if o != (0, 0))
            self.neigh_flats = tuple(
                sum(c * st for c, st in zip(o, self.strides))
                for o in self.neigh_offs
            )
            self.centre_flat = 0
        elif type(op) is LinearStencilOperator:
            self.kind = "linear"
            self.coeffs = op.coeffs
            self.offs = op.offsets
            self.off_flats = tuple(
                sum(c * st for c, st in zip(o, self.strides))
                for o in self.offs
            )

    def _grown_regions(self, region: Region):
        """Per-stage clipped grown regions of one raw region."""
        op = self.spec.operator
        return [
            clip_region(
                tuple((lo - gr, hi + gr)
                      for (lo, hi), gr in zip(region, grow)),
                self.shape,
            )
            for grow in op.grow
        ]

    def slice_unit(self, t: int, region: Region):
        if self.kind == "staged":
            op = self.spec.operator
            zero = (0,) * len(region)
            stage_ops = []
            for stage, g in zip(op.stages, self._grown_regions(region)):
                out_sl = ((op.field_index[stage.writes],)
                          + _region_slices(g, self.halo, zero))
                view_sls = tuple(
                    (new, (op.field_index[f],)
                     + _region_slices(g, self.halo, off))
                    for f, off, new in stage.reads
                )
                stage_ops.append((stage, out_sl, view_sls))
            copy_sl = _region_slices(region, self.halo, zero)
            return _StagedSliceOp(
                t, region, tuple(stage_ops),
                tuple((f,) + copy_sl for f in range(self.num_fields)),
                self.padded,
            )
        if self.kind == "linear":
            return _LinearSliceOp(
                t, region,
                _region_slices(region, self.halo, (0,) * len(region)),
                tuple(_region_slices(region, self.halo, o)
                      for o in self.offs),
                self.coeffs,
            )
        if self.kind == "life":
            return _LifeSliceOp(
                t, region,
                _region_slices(region, self.halo, (0, 0)),
                tuple(_region_slices(region, self.halo, o)
                      for o in self.neigh_offs),
                _region_slices(region, self.halo, (0, 0)),
            )
        return _GenericSliceOp(t, region)

    def batch_unit(self, t: int, lo: np.ndarray, hi: np.ndarray,
                   idx: Optional[np.ndarray] = None):
        """One gather/scatter unit over rectangles ``lo``/``hi``.

        ``idx`` is their flat indices when the caller expanded them
        already (linear and Life batches); ``None`` when the operator
        has no batched kernel.
        """
        if self.kind == "staged":
            op = self.spec.operator
            stage_ops = []
            for stage, grow in zip(op.stages, op.grow):
                grow = np.asarray(grow, dtype=np.int64)
                pos = flat_indices(np.maximum(lo - grow, 0),
                                   np.minimum(hi + grow, self.shape),
                                   self.halo, self.strides)
                wshift = op.field_index[stage.writes] * self.field_size
                shifts = tuple(
                    (new,
                     sum(c * st for c, st in zip(off, self.strides))
                     + op.field_index[f] * self.field_size)
                    for f, off, new in stage.reads
                )
                stage_ops.append((stage, pos, wshift, shifts))
            return _StagedBatch(t, lo, hi, tuple(stage_ops),
                                flat_indices(lo, hi, self.halo,
                                             self.strides),
                                self.num_fields, self.field_size,
                                self.padded)
        if self.kind == "linear":
            return _LinearBatch(t, lo, hi, idx, self.off_flats, self.coeffs)
        if self.kind == "life":
            return _LifeBatch(t, lo, hi, idx, self.neigh_flats,
                              self.centre_flat)
        return None


def _regions(lo: np.ndarray, hi: np.ndarray) -> List[Region]:
    """Rows of ``lo``/``hi`` as region tuples of plain ints."""
    return [tuple(zip(a, b)) for a, b in zip(lo.tolist(), hi.tolist())]


def compile_plan(
    spec: StencilSpec,
    schedule: RegionSchedule,
    batch_threshold: int = 4096,
    fuse: bool = True,
) -> CompiledPlan:
    """Lower a schedule to a :class:`CompiledPlan`.

    ``batch_threshold``: rectangles with fewer points are gathered into
    batched flat-index updates; larger ones keep (precompiled) slice
    kernels, which move less memory per point.  ``fuse=False`` disables
    both rectangle fusion and batching (per-action slice ops only) —
    the debugging/fallback configuration.

    Shared-buffer schedules are lowered from :meth:`RegionSchedule.table`
    in a fixed number of array passes over all barrier groups at once:
    drop empty rows; find tasks whose steps go back in time; prove each
    same-step layer write-disjoint; fuse; split small from large
    rectangles; expand the batches' flat indices.
    """
    if spec.is_periodic:
        raise ValueError("compiled plans assume non-periodic boundaries")
    if schedule.private_tasks and getattr(spec, "is_staged", False):
        # _PrivateTask snapshots are spatial-only slices of one buffer;
        # the ghost-zone discipline has no field axis — refuse rather
        # than mis-slice
        raise ValueError(
            "ghost-zone (private-task) schedules do not support staged "
            "systems"
        )
    if len(schedule.shape) != spec.ndim:
        raise ValueError(
            f"schedule rank {len(schedule.shape)} != stencil ndim {spec.ndim}"
        )
    t0 = time.perf_counter()
    ctx = _CompileCtx(spec, schedule.shape)
    if schedule.private_tasks:
        group_ids, streams, stats = _compile_private(ctx, schedule)
    else:
        group_ids, streams, stats = _compile_table(
            ctx, schedule.table(), schedule.redundant, batch_threshold, fuse)
    stats.stream_units = sum(len(s) for s in streams)
    stats.compile_seconds = time.perf_counter() - t0
    return CompiledPlan(
        scheme=schedule.scheme, shape=schedule.shape, steps=schedule.steps,
        spec=spec, group_ids=group_ids, streams=streams,
        private=schedule.private_tasks, stats=stats, schedule=schedule,
    )


def _compile_private(ctx: _CompileCtx, schedule: RegionSchedule):
    """Ghost-zone schedules: one private-task group unit per group."""
    groups = schedule.groups()
    gids = sorted(groups)
    stats = PlanStats(tasks=len(schedule.tasks), groups=len(gids))
    streams: List[list] = []
    for gid in gids:
        ptasks = [_compile_private_task(ctx, task) for task in groups[gid]]
        ptasks = [pt for pt in ptasks if pt is not None]
        stats.actions += sum(len(pt.actions) for pt in ptasks)
        streams.append([_PrivateGroup(ptasks)] if ptasks else [])
    return gids, streams, stats


def _compile_table(ctx: _CompileCtx, table: ScheduleTable, redundant: bool,
                   batch_threshold: int, fuse: bool):
    """Shared-buffer schedules, lowered pass by pass from the table."""
    gids = table.group_widths()[0]
    stats = PlanStats(tasks=table.num_tasks, groups=int(gids.size))
    # pass 1: drop empty rows
    keep = np.flatnonzero(np.all(table.hi > table.lo, axis=1))
    task, t = table.task[keep], table.t[keep]
    lo, hi = table.lo[keep], table.hi[keep]
    gi = np.searchsorted(gids, table.group[task])
    stats.actions = int(keep.size)
    # pass 2: groups that keep their task order — all of them when
    # fusion is off or the scheme recomputes points, else those with a
    # task whose steps go back in time
    fallback = np.full(gids.size, not fuse or redundant)
    back = (task[1:] == task[:-1]) & (t[1:] < t[:-1])
    fallback[gi[1:][back]] = True
    # pass 3: same-step layers of the other groups (schedule order
    # inside each) must be write-disjoint, or their group falls back
    rows = np.flatnonzero(~fallback[gi])
    rows = rows[np.lexsort((t[rows], gi[rows]))]
    starts = run_starts(gi[rows], t[rows])
    sizes = np.diff(np.append(starts, rows.size))
    bad = overlapping_layers(starts, sizes, lo[rows], hi[rows], ctx.halo,
                             ctx.strides)
    fallback[gi[rows[starts[bad]]]] = True
    ok = ~fallback[gi[rows[starts]]]
    starts, sizes = starts[ok], sizes[ok]
    rows = rows[np.repeat(starts, sizes) + ragged_arange(sizes)]
    starts = np.cumsum(sizes) - sizes
    # pass 4: fuse every layer of two or more rectangles
    layer = np.repeat(np.arange(starts.size), sizes)
    flo, fhi = lo[rows], hi[rows]
    multi = sizes[layer] >= 2
    if multi.any():
        fused = fuse_layers(layer[multi], flo[multi], fhi[multi])
        layer, flo, fhi = (np.concatenate((col[~multi], new))
                           for col, new in zip((layer, flo, fhi), fused))
        order = np.argsort(layer, kind="stable")
        layer, flo, fhi = layer[order], flo[order], fhi[order]
    stats.fused_actions = int(rows.size - layer.size)

    streams: List[list] = [[] for _ in range(gids.size)]
    # task-order groups: one compiled slice per non-empty action, in
    # exactly _execute_schedule's interleaving, geometry hoisted
    stats.fallback_groups = int(fallback.sum())
    slow = np.flatnonzero(fallback[gi])
    for g, step, region in zip(gi[slow].tolist(), t[slow].tolist(),
                               _regions(lo[slow], hi[slow])):
        streams[g].append(ctx.slice_unit(step, region))
    stats.sliced_actions = int(slow.size)
    _emit_layers(ctx, streams, stats, layer, flo, fhi,
                 gi[rows[starts]].tolist(), t[rows[starts]].tolist(),
                 batch_threshold)
    return gids.tolist(), streams, stats


def _emit_layers(ctx: _CompileCtx, streams: List[list], stats: PlanStats,
                 layer: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 layer_group: List[int], layer_t: List[int],
                 batch_threshold: int) -> None:
    """Units of the fused layers, appended to their groups' streams.

    Per layer, in step order: a slice unit per rectangle of at least
    ``batch_threshold`` points, then one batch of the smaller ones.
    Without a batched kernel every rectangle is a slice (larges first,
    then smalls, each in fused order).
    """
    nlayers = len(layer_t)
    # pass 5: split small from large rectangles
    small = np.prod(hi - lo, axis=1) < batch_threshold
    batched = small & (ctx.kind in ("linear", "life", "staged"))
    by_size = np.lexsort((small, layer))
    sliced = by_size[~batched[by_size]]
    s_bounds = np.searchsorted(layer[sliced], np.arange(nlayers + 1)).tolist()
    regions = _regions(lo[sliced], hi[sliced])
    rows = np.flatnonzero(batched)
    b_lo, b_hi = lo[rows], hi[rows]
    b_bounds = np.searchsorted(layer[rows], np.arange(nlayers + 1)).tolist()
    # pass 6: expand every linear/Life batch's flat indices at once
    # (staged batches expand their grown regions per stage themselves)
    idx = ({} if ctx.kind == "staged"
           else _batch_indices(ctx, b_lo, b_hi, b_bounds))
    stats.sliced_actions += int(sliced.size)
    for k in range(nlayers):
        stream, step = streams[layer_group[k]], layer_t[k]
        for region in regions[s_bounds[k]:s_bounds[k + 1]]:
            stream.append(ctx.slice_unit(step, region))
        a, z = b_bounds[k], b_bounds[k + 1]
        if z > a:
            batch = ctx.batch_unit(step, b_lo[a:z], b_hi[a:z], idx.get(k))
            stream.append(batch)
            stats.batches += 1
            stats.batched_actions += z - a
            stats.index_bytes += batch.idx.nbytes


def _batch_indices(ctx: _CompileCtx, lo: np.ndarray, hi: np.ndarray,
                   bounds: List[int]) -> Dict[int, np.ndarray]:
    """Flat indices of every batch (rows ``bounds[k]:bounds[k + 1]``),
    expanded in chunks of about :data:`CHUNK` points."""
    csum = np.concatenate(([0], np.cumsum(np.prod(hi - lo, axis=1))))
    has = [k for k in range(len(bounds) - 1) if bounds[k + 1] > bounds[k]]
    weight = np.diff(csum[bounds])[has]
    out: Dict[int, np.ndarray] = {}
    for i, j in chunks(weight):
        a, z = bounds[has[i]], bounds[has[j - 1] + 1]
        flat = flat_indices(lo[a:z], hi[a:z], ctx.halo, ctx.strides)
        out.update(zip(has[i:j], np.split(flat, np.cumsum(weight[i:j])[:-1])))
    return out


def _compile_private_task(ctx: _CompileCtx, task) -> Optional[_PrivateTask]:
    acts = [a for a in task.actions if not region_is_empty(a.region)]
    if not acts:
        return None
    halo = ctx.halo
    t_start = acts[0].t
    inbox = acts[0].region
    offs = tuple(lo for lo, _ in inbox)
    pad_shape = tuple((hi - lo) + 2 * h for (lo, hi), h in zip(inbox, halo))
    snap_sl = tuple(slice(lo, hi + 2 * h)
                    for (lo, hi), h in zip(inbox, halo))
    local_ops = []
    for a in acts:
        local = tuple((lo - o, hi - o)
                      for (lo, hi), o in zip(a.region, offs))
        local_ops.append((a.t % 2, (a.t + 1) % 2, local))
    last = acts[-1]
    t_done = last.t + 1
    core = last.region
    wb_dst_sl = tuple(slice(lo + h, hi + h)
                      for (lo, hi), h in zip(core, halo))
    wb_local_sl = tuple(slice(lo - o + h, hi - o + h)
                        for (lo, hi), o, h in zip(core, offs, halo))
    return _PrivateTask(
        t_start=t_start, snap_sl=snap_sl, pad_shape=pad_shape,
        local_ops=local_ops, wb_parity=t_done % 2, wb_dst_sl=wb_dst_sl,
        wb_local_sl=wb_local_sl,
        actions=[(a.t, a.region) for a in acts],
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _execute_plan(plan: CompiledPlan, grid: Grid,
                  budget=None) -> np.ndarray:
    """Compiled-stream execution (the ``compiled`` backend's engine).

    ``budget`` is the run-level :class:`~repro.runtime.qos.RunBudget`;
    when armed it is checked at entry and between group streams (the
    compiled path's barrier boundaries).
    """
    if grid.shape != plan.shape:
        raise ValueError(
            f"grid shape {grid.shape} != plan shape {plan.shape}"
        )
    bufs = grid.buffers
    if not all(b.flags.c_contiguous for b in bufs):
        raise ValueError("compiled plans require C-contiguous grid buffers")
    flats = (bufs[0].reshape(-1), bufs[1].reshape(-1))
    spec = plan.spec
    arena = thread_arena()
    if budget is not None:
        budget.check(f"{plan.scheme} plan entry")
    for si, stream in enumerate(plan.streams):
        if budget is not None:
            budget.check(f"stream {si}")
        for unit in stream:
            unit.run(bufs, flats, spec, arena)
    return grid.interior(plan.steps)


def run_units(units, grid: Grid, spec: StencilSpec) -> None:
    """Run one task's compiled units (threaded/resilient task body)."""
    bufs = grid.buffers
    flats = (bufs[0].reshape(-1), bufs[1].reshape(-1))
    arena = thread_arena()
    for unit in units:
        unit.run(bufs, flats, spec, arena)
