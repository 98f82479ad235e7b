"""Schedule sanitizer — Theorems 3.5/3.6 as machine-checked invariants.

:func:`repro.runtime.schedule.verify_schedule` validates schedules
*empirically*: it executes them and diffs against the naive reference.
That check is blind to a whole class of structural bugs — an
intra-group write/write race whose interleavings happen to agree, a
dependence violation that reads a stale-but-identical value, a
double-write of the same region — exactly the bugs that are easy to
introduce when stage decompositions are derived by hand.  This module
checks the *structure* instead, with NumPy passes over the schedule's
rectangle table (:meth:`~repro.runtime.schedule.RegionSchedule.table`),
so a table-built schedule never builds its object view here:

* tessellation (Theorem 3.5): every step's regions tile the interior
  exactly once; the disjoint half is the proof
  :func:`~repro.engine.plan.compile_plan` runs,
  :func:`repro.engine.rects.overlapping_layers`, one layer per step;
* dependence legality (Theorem 3.6): reads written by ordered-before
  actions and not yet clobbered in their ping-pong buffer, and no
  conflict between tasks of one barrier group — joins of footprints
  and writes by :func:`repro.engine.rects.intersecting_pairs`;
* ghost-zone (``private_tasks``) schedules: self-contained tasks whose
  write-back cores tile the interior per time tile;
* :func:`sanitize_distributed_plan`: every rank's reads stay inside its
  slab plus the exchanged ghost band, reported *before* execution.

Cost follows the rectangle pairs the joins return, plus one pass over
the grid's points per step of more than ``PAIRWISE_MAX`` rectangles,
whose cells the proof expands as compile does: 0.11 s on heat2d 128²
and 0.49 s on 256², default tiles, 16 steps, b=4 (docs/sanitizer.md).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.engine.rects import (
    chunks,
    intersecting_pairs,
    overlapping_layers,
    ragged_arange,
    run_starts,
)
from repro.runtime.errors import SanitizerViolation
from repro.runtime.schedule import RegionAction, RegionSchedule, ScheduleTable
from repro.stencils.spec import Region, StencilSpec, region_is_empty, region_size

__all__ = [
    "Violation",
    "SanitizerReport",
    "sanitize_schedule",
    "sanitize_distributed_plan",
]


# ---------------------------------------------------------------------------
# half-open hyper-rectangles
# ---------------------------------------------------------------------------

def _subtract(box: Region, covers: Iterable[Region]) -> List[Region]:
    """``box`` minus the union of ``covers``, as disjoint boxes (an
    empty list when they cover it).  Covers go in sorted order, which
    keeps the pieces few when they tile most of ``box``."""
    pieces = [box]
    for cover in sorted(covers):
        nxt: List[Region] = []
        for piece in pieces:
            inter = [(max(lo, clo), min(hi, chi))
                     for (lo, hi), (clo, chi) in zip(piece, cover)]
            if any(hi <= lo for lo, hi in inter):
                nxt.append(piece)
                continue
            cur = list(piece)
            for j, ((lo, hi), (ilo, ihi)) in enumerate(zip(piece, inter)):
                if lo < ilo:
                    nxt.append(tuple(cur[:j] + [(lo, ilo)] + cur[j + 1:]))
                if ihi < hi:
                    nxt.append(tuple(cur[:j] + [(ihi, hi)] + cur[j + 1:]))
                cur[j] = (ilo, ihi)
        pieces = nxt
    return pieces


def _box(lo: np.ndarray, hi: np.ndarray) -> Region:
    """One table row's bounds as a :data:`Region` of Python ints."""
    return tuple(zip(lo.tolist(), hi.tolist()))


def _overlapping_pairs(key: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray) -> Dict[int, Tuple[int, int]]:
    """For every key whose boxes are not pairwise disjoint, one of its
    intersecting pairs ``(i, j)``, ``i < j``."""
    i, j = intersecting_pairs(key, lo, hi, key, lo, hi)
    i, j = i[i < j], j[i < j]
    return dict(zip(key[i].tolist(), zip(i.tolist(), j.tolist())))


# ---------------------------------------------------------------------------
# findings
# ---------------------------------------------------------------------------

#: violation kinds emitted by the sanitizer
KINDS = (
    "structure",            # malformed schedule (rank/range/group errors)
    "out-of-bounds",        # write region outside the interior
    "gap",                  # a step misses part of the interior
    "double-write",         # a step writes a sub-region twice (undeclared)
    "missing-dependence",   # read footprint not written at t-1 before use
    "premature-overwrite",  # an ordered-before write clobbered the inputs
    "race",                 # two tasks of one group conflict in a buffer
    "private-task",         # ghost-zone task is not self-contained
    "ghost-band",           # rank reads beyond its slab + ghost band
)


@dataclass(frozen=True)
class Violation:
    """One structural invariant violation, locating the offender."""

    kind: str
    detail: str
    step: Optional[int] = None
    group: Optional[int] = None
    task: Optional[str] = None
    other_task: Optional[str] = None
    region: Optional[Region] = None

    def describe(self) -> str:
        where = []
        if self.step is not None:
            where.append(f"step {self.step}")
        if self.group is not None:
            where.append(f"group {self.group}")
        if self.task:
            where.append(f"task {self.task!r}")
        if self.other_task:
            where.append(f"vs {self.other_task!r}")
        if self.region is not None:
            where.append(f"region {self.region}")
        loc = ", ".join(where)
        return f"[{self.kind}] {self.detail}" + (f" ({loc})" if loc else "")


@dataclass
class SanitizerReport:
    """Outcome of one sanitizer run (violations + effort counters)."""

    scheme: str
    violations: List[Violation] = field(default_factory=list)
    actions_checked: int = 0
    steps_checked: int = 0
    pairs_checked: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def describe(self) -> str:
        head = (
            f"sanitize {self.scheme}: "
            f"{self.actions_checked} actions, {self.steps_checked} steps, "
            f"{self.pairs_checked} pair checks in {self.seconds * 1e3:.1f} ms"
        )
        if self.ok:
            return head + " — clean"
        lines = [head + f" — {len(self.violations)} violation(s):"]
        lines += ["  " + v.describe() for v in self.violations]
        return "\n".join(lines)

    def raise_if_violations(self) -> None:
        if not self.ok:
            raise SanitizerViolation(self.scheme, self.violations)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

_MAX_VIOLATIONS = 32  # stop collecting once a schedule is clearly broken


def _check_structure(schedule: RegionSchedule, table: ScheduleTable,
                     report: SanitizerReport) -> None:
    """Well-formedness plus write-bounds, task by task.

    Negative groups, steps outside ``[0, steps)`` and inverted ranges
    (``lo > hi``) are ``structure``; non-empty writes outside the
    interior are ``out-of-bounds``.  Empty rows (``lo == hi``) pass.
    """
    late = (table.t < 0) | (table.t >= schedule.steps)
    inverted = ~late & np.any(table.lo > table.hi, axis=1)
    outside = ~late & np.all(table.hi > table.lo, axis=1) & np.any(
        (table.lo < 0) | (table.hi > np.asarray(schedule.shape)), axis=1)
    found = [(k, -1, Violation("structure", "negative barrier group",
                               group=int(table.group[k]),
                               task=table.label[k]))
             for k in np.flatnonzero(table.group < 0).tolist()]
    for i in np.flatnonzero(late | inverted | outside).tolist():
        k, step = int(table.task[i]), int(table.t[i])
        where = dict(step=step, group=int(table.group[k]),
                     task=table.label[k])
        if late[i]:
            v = Violation("structure", f"action at t={step} outside "
                          f"[0, {schedule.steps})", **where)
        else:
            v = Violation(*(("structure", "inverted range (lo > hi)")
                            if inverted[i] else
                            ("out-of-bounds", f"write region exceeds "
                             f"interior {schedule.shape}")),
                          region=_box(table.lo[i], table.hi[i]), **where)
        found.append((k, i, v))
    report.violations += [v for *_, v in sorted(found, key=lambda f: f[:2])]


class _Actions:
    """A table's non-empty rows, in schedule order, with their read
    footprints and which steps' writes are not pairwise disjoint."""

    def __init__(self, spec: StencilSpec, schedule: RegionSchedule,
                 table: ScheduleTable):
        keep = np.flatnonzero(np.all(table.hi > table.lo, axis=1))
        self.size = keep.size
        self.task = table.task[keep].astype(np.int64)
        self.group = table.group[self.task].astype(np.int64)
        self.t = table.t[keep].astype(np.int64)
        self.lo = table.lo[keep].astype(np.int64)
        self.hi = table.hi[keep].astype(np.int64)
        self.slopes = np.asarray(spec.slopes, dtype=np.int64)
        self.flo = np.maximum(self.lo - self.slopes, 0)
        self.fhi = np.minimum(self.hi + self.slopes, schedule.shape)
        self.labels = table.label
        # Theorem 3.5's disjoint half, one layer per step: compile_plan
        # runs the same proof over its (group, step) layers
        by_step = np.argsort(self.t, kind="stable")
        starts = run_starts(self.t[by_step])
        shape = [int(n) for n in schedule.shape]
        self.overlap = np.zeros(schedule.steps, dtype=bool)
        self.overlap[self.t[by_step[starts]]] = overlapping_layers(
            starts, np.diff(np.append(starts, self.size)),
            self.lo[by_step], self.hi[by_step], (0,) * len(shape),
            [math.prod(shape[j + 1:]) for j in range(len(shape))])

    def region(self, i: int) -> Region:
        return _box(self.lo[i], self.hi[i])

    def label(self, i: int) -> str:
        return self.labels[self.task[i]]

    def meet(self, lo, hi, i: int) -> Region:
        """The intersection of box ``[lo, hi)`` with row ``i``'s write."""
        return _box(np.maximum(lo, self.lo[i]), np.minimum(hi, self.hi[i]))

    def before(self, w: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Whether row ``w`` is ordered before row ``a``: an earlier
        group, or an earlier action of the same task."""
        return (self.group[w] < self.group[a]) | (
            (self.task[w] == self.task[a]) & (w < a))


def _check_coverage(acts: _Actions, schedule: RegionSchedule,
                    redundant: bool, report: SanitizerReport) -> None:
    """Theorem 3.5: per step, regions tile the interior exactly once.

    With disjointness and in-bounds writes established, *exactly once*
    reduces to a volume identity (sum of region sizes == interior
    size), so no per-point work is needed.  Redundant schedules skip
    the disjointness requirement and fall back to explicit box
    subtraction for the coverage half.
    """
    interior: Region = tuple((0, int(n)) for n in schedule.shape)
    interior_vol = region_size(interior)
    count = np.bincount(acts.t, minlength=schedule.steps)
    volume = np.bincount(acts.t, minlength=schedule.steps,
                         weights=np.prod(acts.hi - acts.lo, axis=1))
    doubled = np.flatnonzero(acts.overlap[acts.t])
    pairs = {} if redundant else _overlapping_pairs(
        acts.t[doubled], acts.lo[doubled], acts.hi[doubled])

    def holes(t: int) -> List[Region]:
        rows = np.flatnonzero(acts.t == t).tolist()
        return _subtract(interior, map(acts.region, rows)) \
            if interior_vol else []

    for t in range(schedule.steps):
        if len(report.violations) >= _MAX_VIOLATIONS:
            return
        report.steps_checked += 1
        if redundant:
            found = holes(t)
            if found:
                report.add(Violation(
                    "gap", "redundant schedule leaves a step uncovered",
                    step=t, region=found[0]))
            continue
        report.pairs_checked += int(count[t])
        if acts.overlap[t]:
            i, j = (int(doubled[k]) for k in pairs[t])
            report.add(Violation(
                "double-write",
                "two actions write the same sub-region at one step",
                step=t, group=int(acts.group[i]), task=acts.label(i),
                other_task=acts.label(j),
                region=acts.meet(acts.lo[i], acts.hi[i], j)))
        elif volume[t] != interior_vol:
            found = holes(t)
            report.add(Violation(
                "gap",
                f"step covers {int(volume[t])} of {interior_vol} interior "
                f"points",
                step=t, region=found[0] if found else None))


def _check_dependences(acts: _Actions, report: SanitizerReport) -> None:
    """Theorem 3.6 under ping-pong: reads covered, inputs unclobbered.

    An action sees the writes of earlier groups plus the earlier
    actions of its own task — never its group peers, whose order is
    unspecified (peer conflicts are the race check's job).  Findings
    come group by group in barrier order; collection stops between
    groups once :data:`_MAX_VIOLATIONS` is reached.
    """
    if len(report.violations) >= _MAX_VIOLATIONS:
        return
    report.actions_checked += acts.size
    t = acts.t
    # read coverage: the ordered-before writes of step t-1 meeting each
    # footprint; their intersections sum to its volume when it is
    # covered, unless step t-1's writes overlap
    a, w = intersecting_pairs(t, acts.flo, acts.fhi, t + 1, acts.lo,
                              acts.hi)
    keep = acts.before(w, a)
    order = np.lexsort((w[keep], a[keep]))
    a, w = a[keep][order], w[keep][order]
    covered = np.bincount(a, minlength=acts.size, weights=np.prod(
        np.minimum(acts.fhi[a], acts.hi[w])
        - np.maximum(acts.flo[a], acts.lo[w]), axis=1))
    short = (t > 0) & (acts.overlap[t - 1] | (
        covered < np.prod(acts.fhi - acts.flo, axis=1)))
    # premature overwrite: an ordered-before write at a later step of
    # the footprint's parity, one finding per clobbering step.  When no
    # read is short, a clobber at t+3, t+5, … implies one at t+1 (the
    # writes that cover its cells chain down to t+1), so the join over
    # every step of that parity runs only if step t+1 finds one
    for key_a, key_b in ((t + 1, t), (t % 2, (t + 1) % 2)):
        pa, pw = intersecting_pairs(key_a, acts.flo, acts.fhi, key_b,
                                    acts.lo, acts.hi)
        keep = (t[pw] > t[pa]) & acts.before(pw, pa)
        pa, pw = pa[keep], pw[keep]
        if not (pa.size or short.any()):
            break
    order = np.lexsort((pw, t[pw], pa))
    first = order[run_starts(pa[order], t[pw[order]])]
    pa, pw = pa[first], pw[first]

    rows = np.union1d(np.flatnonzero(short), pa)
    prev = None
    for r in rows[np.argsort(acts.group[rows], kind="stable")].tolist():
        g, step, task = int(acts.group[r]), int(t[r]), acts.label(r)
        if g != prev and len(report.violations) >= _MAX_VIOLATIONS:
            return
        prev = g
        lo, hi = np.searchsorted(a, [r, r + 1])
        holes = _subtract(_box(acts.flo[r], acts.fhi[r]), map(
            acts.region, w[lo:hi].tolist())) if short[r] else []
        if holes:
            report.add(Violation(
                "missing-dependence",
                f"read footprint not written at t={step - 1} "
                f"by any earlier group or own action",
                step=step, group=g, task=task, region=holes[0]))
        lo, hi = np.searchsorted(pa, [r, r + 1])
        for i in pw[lo:hi].tolist():
            report.add(Violation(
                "premature-overwrite",
                f"inputs at t={step} already overwritten by a "
                f"step-{int(t[i])} write",
                step=step, group=g, task=task,
                region=acts.meet(acts.flo[r], acts.fhi[r], i)))


def _check_races(acts: _Actions, redundant: bool,
                 report: SanitizerReport) -> None:
    """Tasks of one group must not conflict in either parity buffer.

    A conflict is a same-parity intersection between one task's write
    region and another's write region or read footprint — the pair's
    outcome would depend on interleaving.  Identical-level write/write
    overlaps are tolerated only for declared-redundant schedules
    (duplicate updates write identical values).  Only task pairs whose
    dilated bounding boxes meet are compared, one finding per pair.
    """
    if not acts.size or len(report.violations) >= _MAX_VIOLATIONS:
        return
    starts = run_starts(acts.task)
    size = np.diff(np.append(starts, acts.size))
    group = acts.group[starts]
    # dilated bounding boxes (clipping them to the grid changes no pair)
    box = (np.minimum.reduceat(acts.lo, starts) - acts.slopes,
           np.maximum.reduceat(acts.hi, starts) + acts.slopes)
    p, q = intersecting_pairs(group, *box, group, *box)
    p, q = p[p < q], q[p < q]
    order = np.lexsort((q, p, group[p]))
    p, q = p[order], q[order]
    report.pairs_checked += p.size
    # each task pair's access pairs (a, b): a's write against b's read
    # (steps of opposite parity) or b's write (same parity).  Regions
    # lie inside the grid, so a's write meets b's footprint exactly
    # when b's write meets a's.
    cols = [np.ascontiguousarray(x.T)
            for x in (acts.lo, acts.hi, acts.flo, acts.fhi)]
    hits = [np.zeros((0, 3), dtype=np.int64)]
    for i, j in chunks(size[p] * size[q]):
        n = size[p[i:j]] * size[q[i:j]]
        pair = np.repeat(np.arange(i, j), n)
        local = ragged_arange(n)
        a = starts[p[pair]] + local // size[q[pair]]
        b = starts[q[pair]] + local % size[q[pair]]
        read = (acts.t[a] - acts.t[b]) % 2 == 1
        # declared-redundant schedules may write one step twice
        meet = read | (not redundant) | (acts.t[a] != acts.t[b])
        for lo, hi, flo, fhi in zip(*cols):
            meet &= (np.maximum(lo[a], np.where(read, flo[b], lo[b]))
                     < np.minimum(hi[a], np.where(read, fhi[b], hi[b])))
        hits.append(np.stack((pair, a, b), axis=1)[meet])
    hits = np.concatenate(hits)
    for pair, a, b in hits[run_starts(hits[:, 0])].tolist():
        if len(report.violations) >= _MAX_VIOLATIONS:
            return
        wl, ol = int(acts.t[a]) + 1, int(acts.t[b])
        read = (wl - ol) % 2 == 0
        ol += not read
        other = (acts.flo, acts.fhi) if read else (acts.lo, acts.hi)
        report.add(Violation(
            "race",
            f"unordered tasks conflict in parity-{wl % 2} buffer: write "
            f"of t={wl} meets {'read' if read else 'write'} of t={ol}",
            step=min(wl, ol), group=int(group[p[pair]]),
            task=acts.label(a), other_task=acts.label(b),
            region=acts.meet(other[0][b], other[1][b], a)))


def _check_private_tasks(acts: _Actions, schedule: RegionSchedule,
                         gids: np.ndarray, report: SanitizerReport) -> None:
    """Ghost-zone discipline for ``private_tasks`` schedules.

    Each task iterates on a private snapshot of its first action's
    box, so it must be self-contained: consecutive steps, every region
    inside the snapshot box, every read footprint inside the previous
    step's region.  The shared grid only sees the final write-back
    cores, which must tile the interior exactly once per time tile.
    ``gids`` are the schedule's groups, tasks without rows included.
    """
    interior: Region = tuple((0, int(n)) for n in schedule.shape)
    interior_vol = region_size(interior)
    t, lo, hi = acts.t, acts.lo, acts.hi
    starts = run_starts(acts.task)
    ends = np.append(starts[1:], acts.size)
    first = np.repeat(starts, ends - starts)
    prev = np.arange(acts.size) - 1
    later = prev >= first
    # why a row breaks the discipline: 1 = a skipped step, 2 = outside
    # the snapshot box, 3 = a footprint outside the previous region
    why = np.select([
        later & (t != t[prev] + 1),
        np.any((lo < lo[first]) | (hi > hi[first]), axis=1),
        later & np.any((acts.flo < lo[prev]) | (acts.fhi > hi[prev]),
                       axis=1)], [1, 2, 3])
    bad = np.flatnonzero(why)
    stop = dict(zip(first[bad][::-1].tolist(), bad[::-1].tolist()))
    group = acts.group[starts]
    order = np.argsort(group, kind="stable")
    for gid in gids.tolist():
        if len(report.violations) >= _MAX_VIOLATIONS:
            return
        cores, t_end = [], None
        lo_k, hi_k = np.searchsorted(group[order], [gid, gid + 1])
        for k in order[lo_k:hi_k].tolist():
            report.actions_checked += int(ends[k] - starts[k])
            # a task's first bad row, else its last row: its core
            i = stop.get(int(starts[k]), int(ends[k]) - 1)
            where = dict(step=int(t[i]), group=gid, task=acts.label(i))
            if not why[i]:
                cores.append(i)
                t_end = int(t[i]) if t_end is None else t_end
                if t[i] != t_end:
                    report.add(Violation(
                        "private-task", f"tasks of one time tile end at "
                        f"different steps ({t[i]} != {t_end})", **where))
            elif why[i] == 1:
                report.add(Violation(
                    "private-task", f"non-consecutive steps {t[i - 1]} -> "
                    f"{t[i]} inside one private task", **where))
            elif why[i] == 2:
                report.add(Violation(
                    "private-task", "region escapes the task's snapshot box",
                    region=acts.region(i), **where))
            else:
                report.add(Violation(
                    "private-task", "read footprint escapes the previous "
                    "step's region (stale private values)",
                    region=_subtract(_box(acts.flo[i], acts.fhi[i]),
                                     [acts.region(i - 1)])[0], **where))
        # write-back cores must tile the interior exactly once
        report.steps_checked += 1
        report.pairs_checked += len(cores)
        pair = _overlapping_pairs(np.zeros(len(cores), dtype=np.int64),
                                  lo[cores], hi[cores])
        if pair:
            i, j = (cores[k] for k in pair[0])
            report.add(Violation(
                "double-write", "write-back cores of one time tile overlap",
                step=t_end, group=gid, task=acts.label(i),
                other_task=acts.label(j), region=acts.meet(lo[i], hi[i], j)))
        elif interior_vol and np.prod(hi[cores] - lo[cores], axis=1).sum() \
                != interior_vol:
            holes = _subtract(interior, map(acts.region, cores))
            report.add(Violation(
                "gap", "write-back cores miss part of the interior",
                step=t_end, group=gid, region=holes[0] if holes else None))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def sanitize_schedule(
    spec: StencilSpec,
    schedule: RegionSchedule,
    redundant: Optional[bool] = None,
) -> SanitizerReport:
    """Run every structural check on a schedule; never executes it.

    ``redundant`` overrides the schedule's own
    :attr:`~repro.runtime.schedule.RegionSchedule.redundant` /
    ``private_tasks`` declaration: only declared-redundant schedules
    may write a point twice per step (overlapped tiling), everything
    else must tessellate exactly.  Returns a :class:`SanitizerReport`;
    call :meth:`SanitizerReport.raise_if_violations` to turn findings
    into a structured :class:`~repro.runtime.errors.SanitizerViolation`.
    """
    if spec.is_periodic:
        raise ValueError(
            "region schedules assume non-periodic boundaries; periodic "
            "configurations run through the pointwise executor"
        )
    if len(schedule.shape) != spec.ndim:
        raise ValueError(
            f"schedule rank {len(schedule.shape)} != stencil ndim "
            f"{spec.ndim}"
        )
    if redundant is None:
        redundant = schedule.redundant or schedule.private_tasks
    t0 = time.perf_counter()
    report = SanitizerReport(scheme=schedule.scheme)
    try:
        table = schedule.table()
    except ValueError as exc:   # a region of the wrong rank has no row
        report.add(Violation("structure", str(exc)))
    else:
        _check_structure(schedule, table, report)
    if report.ok:
        acts = _Actions(spec, schedule, table)
        if schedule.private_tasks:
            _check_private_tasks(acts, schedule, table.group_widths()[0],
                                 report)
        else:
            _check_coverage(acts, schedule, redundant, report)
            _check_dependences(acts, report)
            _check_races(acts, redundant, report)
    report.seconds = time.perf_counter() - t0
    return report


def sanitize_distributed_plan(
    spec: StencilSpec,
    lattice,
    steps: int,
    ranks: int,
    axis: int = 0,
    ghost: Optional[int] = None,
) -> SanitizerReport:
    """Sanitize the distributed simulator's rank-local schedules.

    Rebuilds exactly the per-rank block ownership of
    :func:`repro.distributed.exec._execute_distributed`, flattens it to
    one global region schedule (one barrier group per stage, one task
    per owned block) and runs the full structural battery on it — then
    adds the ghost-band check: every read footprint of a rank's blocks
    must lie inside the rank's slab dilated by ``ghost`` along the
    partition axis, because that band is all the stage exchange
    refreshes.  An under-sized ``ghost`` (the ``--ghost`` override) is
    therefore reported *before* execution, naming the rank, stage and
    block, instead of surfacing as numeric divergence mid-run.
    """
    from repro.distributed.partition import SlabPartition, build_ownership

    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    shape = lattice.shape
    part = SlabPartition(shape, ranks, axis=axis)
    slopes = tuple(p.sigma for p in lattice.profiles)
    b = lattice.b
    ghost_required = part.ghost_width(lattice)
    ghost = ghost_required if ghost is None else int(ghost)
    bounds = part.bounds()
    # the one block→rank ownership definition every path shares
    plan, owned = build_ownership(lattice, part)

    sched = RegionSchedule(scheme="distributed", shape=shape, steps=steps)
    rank_of_task: List[int] = []
    group = 0
    for tt in range(0, steps, b):
        span = min(b, steps - tt)
        for si, sp in enumerate(plan.stages):
            tasks = len(rank_of_task)
            for r in range(ranks):
                for blk in owned[r][si]:
                    regions = [(tt + s, blk.region_at(s, b, slopes, shape))
                               for s in range(span)]
                    actions = [RegionAction(t=t, region=region)
                               for t, region in regions
                               if not region_is_empty(region)]
                    if actions:
                        sched.add(group, actions,
                                  label=f"rank{r}:t{tt}:stage{sp.stage}")
                        rank_of_task.append(r)
            group += len(rank_of_task) > tasks  # a stage with tasks

    report = sanitize_schedule(spec, sched)
    report.scheme = f"distributed[{ranks} ranks]"

    # ghost-band reach: a rank's reads must stay inside slab ⊕ ghost
    acts = _Actions(spec, sched, sched.table())
    rank = np.asarray(rank_of_task, dtype=np.int64)[acts.task]
    slab = np.asarray(bounds, dtype=np.int64).reshape(-1, 2)[rank]
    win = np.stack((np.maximum(slab[:, 0] - ghost, 0),
                    np.minimum(slab[:, 1] + ghost, int(shape[axis]))), 1)
    out = np.flatnonzero((acts.flo[:, axis] < win[:, 0])
                         | (acts.fhi[:, axis] > win[:, 1]))
    for i in out[run_starts(acts.task[out])].tolist():
        if len(report.violations) >= _MAX_VIOLATIONS:
            break
        foot = _box(acts.flo[i], acts.fhi[i])
        (lo, hi), (win_lo, win_hi) = slab[i].tolist(), win[i].tolist()
        report.add(Violation(
            "ghost-band",
            f"rank {rank[i]} reads [{foot[axis][0]}, {foot[axis][1]}) "
            f"along axis {axis} but its slab [{lo}, {hi}) + ghost {ghost} "
            f"only covers [{win_lo}, {win_hi})"
            + (f"; required ghost width is {ghost_required}"
               if ghost < ghost_required else ""),
            step=int(acts.t[i]), group=int(acts.group[i]),
            task=acts.label(i), region=foot))
    if ghost < ghost_required and "ghost-band" not in report.kinds():
        # every read fits, but the executor refuses any band below
        # SlabPartition.ghost_width: report that bound, not the reach
        report.add(Violation(
            "ghost-band",
            f"ghost {ghost} is below the band the executor requires "
            f"over {ranks} ranks along axis {axis}; required ghost "
            f"width is {ghost_required}"))
    return report
