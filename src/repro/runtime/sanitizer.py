"""Schedule sanitizer — Theorems 3.5/3.6 as machine-checked invariants.

:func:`repro.runtime.schedule.verify_schedule` validates schedules
*empirically*: it executes them and diffs against the naive reference.
That check is blind to a whole class of structural bugs — an
intra-group write/write race whose interleavings happen to agree, a
dependence violation that reads a stale-but-identical value, a
double-write of the same region — exactly the bugs that are easy to
introduce when stage decompositions are derived by hand.  This module
checks the *structure* instead, with pure interval arithmetic over the
schedule's hyper-rectangles (no numeric execution, cost independent of
the grid's point count):

**Tessellation (Theorem 3.5).**  For every global step ``t`` the
update regions at ``t`` must tile the interior exactly: pairwise
disjoint (unless the schedule is declared *redundant*), inside the
domain, and with total volume equal to the interior — every point
advances exactly once per step, no misses, no double work.

**Dependence legality (Theorem 3.6).**  Under the two-buffer
(ping-pong) discipline an action at step ``t`` reads the
time-``t`` values on its region dilated by the stencil's per-axis
slopes.  The sanitizer requires that read footprint to be fully
written at ``t`` by actions *ordered before* it (an earlier barrier
group, or an earlier action of the same task) — and not to have been
clobbered by an ordered-before write at a later step of the same
buffer parity (the write of step ``t+1`` lands in the buffer holding
the time-``t`` values).

**Intra-group independence.**  Tasks of one barrier group may run in
any interleaving, so any two tasks of a group whose write regions and
read/write footprints intersect *in the same parity buffer* race.
The pairwise test is pruned by a sweep over axis-sorted task bounding
boxes, keeping the check near-linear for the long, thin groups all
schemes here produce.

Ghost-zone (``private_tasks``) schedules get the matching private
discipline instead: each task must be a self-contained trapezoid
(consecutive steps, every footprint inside the previous region, every
region inside the snapshot box) and the final core regions must tile
the interior per time tile.

:func:`sanitize_distributed_plan` extends the same checks to the
distributed simulator's rank-local schedules: every rank's read
footprint must stay inside its slab dilated by the exchanged ghost
band, which catches an under-sized band *before* execution rather
than via numeric divergence.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.errors import SanitizerViolation
from repro.runtime.schedule import RegionSchedule, ScheduledTask
from repro.stencils.spec import Region, StencilSpec, region_is_empty, region_size

__all__ = [
    "Violation",
    "SanitizerReport",
    "sanitize_schedule",
    "sanitize_distributed_plan",
]


# ---------------------------------------------------------------------------
# interval arithmetic on half-open hyper-rectangles
# ---------------------------------------------------------------------------

def _intersect(a: Region, b: Region) -> Optional[Region]:
    """Intersection box, or None when empty."""
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if hi <= lo:
            return None
        out.append((lo, hi))
    return tuple(out)


def _dilate_clip(region: Region, slopes: Sequence[int],
                 shape: Sequence[int]) -> Region:
    """Read footprint: region grown by one slope per axis, clipped."""
    return tuple(
        (max(0, lo - s), min(int(n), hi + s))
        for (lo, hi), s, n in zip(region, slopes, shape)
    )


def _contains(outer: Region, inner: Region) -> bool:
    return all(olo <= ilo and ihi <= ohi
               for (olo, ohi), (ilo, ihi) in zip(outer, inner))


def _subtract_one(box: Region, cover: Region) -> List[Region]:
    """``box`` minus ``cover`` as a list of disjoint boxes."""
    inter = _intersect(box, cover)
    if inter is None:
        return [box]
    out: List[Region] = []
    cur = list(box)
    for j, ((lo, hi), (ilo, ihi)) in enumerate(zip(box, inter)):
        lo, hi = cur[j]
        if lo < ilo:
            piece = list(cur)
            piece[j] = (lo, ilo)
            out.append(tuple(piece))
        if ihi < hi:
            piece = list(cur)
            piece[j] = (ihi, hi)
            out.append(tuple(piece))
        cur[j] = (ilo, ihi)
    return out


def _subtract(box: Region, covers: Iterable[Region]) -> List[Region]:
    """``box`` minus the union of ``covers`` (empty list = covered)."""
    pieces = [box]
    for cover in covers:
        if not pieces:
            return []
        nxt: List[Region] = []
        for p in pieces:
            nxt.extend(_subtract_one(p, cover))
        pieces = nxt
    return pieces


def _find_pairwise_overlap(entries: List[Tuple[Region, int]]):
    """First overlapping pair among boxes, or None.

    ``entries`` are ``(region, tag)``; the sweep sorts by the axis-0
    low edge and only compares boxes whose axis-0 intervals overlap,
    so disjoint tilings are verified in ``O(k log k)`` comparisons.
    """
    order = sorted(range(len(entries)), key=lambda i: entries[i][0][0][0])
    active: List[int] = []
    for i in order:
        r, _ = entries[i]
        lo0 = r[0][0]
        active = [j for j in active if entries[j][0][0][1] > lo0]
        for j in active:
            inter = _intersect(entries[j][0], r)
            if inter is not None:
                return entries[j][1], entries[i][1], inter
        active.append(i)
    return None


class _RegionIndex:
    """Axis-0 interval index for output-sensitive overlap queries.

    Regions are sorted by their axis-0 low edge with a running prefix
    maximum of the high edges, so :meth:`overlapping` visits only the
    candidates whose axis-0 interval can meet the query's — the same
    pruning as :func:`_find_pairwise_overlap`, but incremental, which
    keeps the dependence walk near-linear instead of quadratic in the
    per-step action count.
    """

    __slots__ = ("_items", "_built")

    def __init__(self) -> None:
        self._items: List[Region] = []
        self._built = None

    def add(self, region: Region) -> None:
        self._items.append(region)
        self._built = None

    def overlapping(self, region: Region) -> Iterable[Region]:
        """Regions whose axis-0 interval overlaps ``region``'s."""
        if not self._items:
            return
        if self._built is None:
            items = sorted(self._items, key=lambda r: r[0][0])
            los = [r[0][0] for r in items]
            pmax: List[int] = []
            hi = items[0][0][1]
            for r in items:
                hi = max(hi, r[0][1])
                pmax.append(hi)
            self._built = (los, items, pmax)
        los, items, pmax = self._built
        qlo, qhi = region[0]
        i = bisect_left(los, qhi) - 1
        while i >= 0:
            if pmax[i] <= qlo:      # nothing to the left reaches qlo
                break
            if items[i][0][1] > qlo:
                yield items[i]
            i -= 1


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


def _check_structure(schedule: RegionSchedule,
                     report: SanitizerReport) -> None:
    """Well-formedness plus write-bounds (flags out-of-bounds writes)."""
    d = len(schedule.shape)
    for task in schedule.tasks:
        if task.group < 0:
            report.add(Violation(
                "structure", "negative barrier group",
                group=task.group, task=task.label))
        for a in task.actions:
            if not 0 <= a.t < schedule.steps:
                report.add(Violation(
                    "structure",
                    f"action at t={a.t} outside [0, {schedule.steps})",
                    step=a.t, group=task.group, task=task.label))
                continue
            if len(a.region) != d:
                report.add(Violation(
                    "structure",
                    f"region rank {len(a.region)} != schedule rank {d}",
                    step=a.t, group=task.group, task=task.label))
                continue
            if region_is_empty(a.region):
                continue
            clipped = tuple(
                (max(0, lo), min(int(n), hi))
                for (lo, hi), n in zip(a.region, schedule.shape)
            )
            if clipped != a.region:
                report.add(Violation(
                    "out-of-bounds",
                    f"write region exceeds interior {schedule.shape}",
                    step=a.t, group=task.group, task=task.label,
                    region=a.region))


def _check_coverage(schedule: RegionSchedule, redundant: bool,
                    report: SanitizerReport) -> None:
    """Theorem 3.5: per step, regions tile the interior exactly once.

    With disjointness and in-bounds writes established, *exactly once*
    reduces to a volume identity (sum of region sizes == interior
    size), so no per-point work is needed.  Redundant schedules skip
    the disjointness requirement and fall back to explicit box
    subtraction for the coverage half.
    """
    interior: Region = tuple((0, int(n)) for n in schedule.shape)
    interior_vol = region_size(interior)
    by_step: Dict[int, List[Tuple[Region, int, str]]] = {}
    for task in schedule.tasks:
        for a in task.actions:
            if region_is_empty(a.region):
                continue
            by_step.setdefault(a.t, []).append(
                (a.region, task.group, task.label))
    for t in range(schedule.steps):
        if len(report.violations) >= _MAX_VIOLATIONS:
            return
        report.steps_checked += 1
        entries = by_step.get(t, [])
        if not redundant:
            tagged = [(r, i) for i, (r, _, _) in enumerate(entries)]
            hit = _find_pairwise_overlap(tagged)
            report.pairs_checked += len(entries)
            if hit is not None:
                i, j, inter = hit
                report.add(Violation(
                    "double-write",
                    "two actions write the same sub-region at one step",
                    step=t, group=entries[i][1], task=entries[i][2],
                    other_task=entries[j][2], region=inter))
                continue
            covered = sum(region_size(r) for r, _, _ in entries)
            if covered != interior_vol:
                holes = _subtract(interior, (r for r, _, _ in entries)) \
                    if interior_vol else []
                report.add(Violation(
                    "gap",
                    f"step covers {covered} of {interior_vol} interior "
                    f"points",
                    step=t, region=holes[0] if holes else None))
        else:
            if interior_vol == 0:
                continue
            holes = _subtract(interior, (r for r, _, _ in entries))
            if holes:
                report.add(Violation(
                    "gap", "redundant schedule leaves a step uncovered",
                    step=t, region=holes[0]))


def _check_dependences(spec: StencilSpec, schedule: RegionSchedule,
                       report: SanitizerReport) -> None:
    """Theorem 3.6 under ping-pong: reads covered, inputs unclobbered.

    Groups are walked in barrier order; ``written[t]`` accumulates the
    regions committed by finished groups.  An action sees those plus
    the earlier actions of its own task — never its group peers, whose
    order is unspecified (peer conflicts are the race check's job).
    """
    slopes = spec.slopes
    shape = schedule.shape
    written: Dict[int, _RegionIndex] = {}
    max_step = -1
    groups = schedule.groups()
    for gid in sorted(groups):
        if len(report.violations) >= _MAX_VIOLATIONS:
            return
        pending: List[Tuple[int, Region]] = []
        for task in groups[gid]:
            local: Dict[int, List[Region]] = {}
            for a in task.actions:
                if region_is_empty(a.region):
                    continue
                report.actions_checked += 1
                foot = _dilate_clip(a.region, slopes, shape)
                if a.t > 0 and not region_is_empty(foot):
                    idx = written.get(a.t - 1)
                    cands = list(idx.overlapping(foot)) if idx else []
                    cands += local.get(a.t - 1, [])
                    covers = [r for r in cands
                              if _intersect(r, foot) is not None]
                    holes = _subtract(foot, covers)
                    if holes:
                        report.add(Violation(
                            "missing-dependence",
                            f"read footprint not written at t={a.t - 1} "
                            f"by any earlier group or own action",
                            step=a.t, group=gid, task=task.label,
                            region=holes[0]))
                if not region_is_empty(foot):
                    # writes of step t+1, t+3, … land in the parity
                    # buffer holding this action's time-t inputs
                    s = a.t + 1
                    clobber_max = max(max_step, a.t + 1)
                    while s <= clobber_max:
                        idx = written.get(s)
                        cands = list(idx.overlapping(foot)) if idx else []
                        for r in cands + local.get(s, []):
                            inter = _intersect(r, foot)
                            if inter is not None:
                                report.add(Violation(
                                    "premature-overwrite",
                                    f"inputs at t={a.t} already "
                                    f"overwritten by a step-{s} write",
                                    step=a.t, group=gid, task=task.label,
                                    region=inter))
                                break
                        s += 2
                local.setdefault(a.t, []).append(a.region)
                pending.append((a.t, a.region))
        for t, r in pending:
            written.setdefault(t, _RegionIndex()).add(r)
            max_step = max(max_step, t)


def _task_access_entries(spec: StencilSpec, schedule: RegionSchedule,
                         task: ScheduledTask):
    """Per-parity write regions and read footprints of one task."""
    writes = {0: [], 1: []}
    reads = {0: [], 1: []}
    for a in task.actions:
        if region_is_empty(a.region):
            continue
        writes[(a.t + 1) % 2].append((a.region, a.t + 1))
        foot = _dilate_clip(a.region, spec.slopes, schedule.shape)
        if not region_is_empty(foot):
            reads[a.t % 2].append((foot, a.t))
    return writes, reads


def _check_races(spec: StencilSpec, schedule: RegionSchedule,
                 redundant: bool, report: SanitizerReport) -> None:
    """Tasks of one group must not conflict in either parity buffer.

    A conflict is a same-parity intersection between one task's write
    region and another's write region or read footprint — the pair's
    outcome would depend on interleaving.  Identical-level write/write
    overlaps are tolerated only for declared-redundant schedules
    (duplicate updates write identical values).  Bounding boxes are
    swept along axis 0 so only spatially plausible pairs are compared.
    """
    for gid, tasks in sorted(schedule.groups().items()):
        if len(report.violations) >= _MAX_VIOLATIONS:
            return
        boxes = []
        for ti, task in enumerate(tasks):
            box = task.bounding_box()
            if box is None:
                continue
            foot = _dilate_clip(box, spec.slopes, schedule.shape)
            boxes.append((foot, ti))
        order = sorted(range(len(boxes)), key=lambda i: boxes[i][0][0][0])
        active: List[int] = []
        accesses: Dict[int, tuple] = {}
        for i in order:
            box, ti = boxes[i]
            lo0 = box[0][0]
            active = [j for j in active if boxes[j][0][0][1] > lo0]
            for j in active:
                report.pairs_checked += 1
                tj = boxes[j][1]
                if ti not in accesses:
                    accesses[ti] = _task_access_entries(
                        spec, schedule, tasks[ti])
                if tj not in accesses:
                    accesses[tj] = _task_access_entries(
                        spec, schedule, tasks[tj])
                v = _race_between(tasks[ti], accesses[ti],
                                  tasks[tj], accesses[tj],
                                  gid, redundant)
                if v is not None:
                    report.add(v)
                    if len(report.violations) >= _MAX_VIOLATIONS:
                        return
            active.append(i)


def _race_between(task_a: ScheduledTask, acc_a, task_b: ScheduledTask,
                  acc_b, gid: int, redundant: bool) -> Optional[Violation]:
    writes_a, reads_a = acc_a
    writes_b, reads_b = acc_b
    for parity in (0, 1):
        for (wr, wl), (other, ol), what in (
            *(((w, lw), (r, lr), "read")
              for w, lw in writes_a[parity]
              for r, lr in reads_b[parity]),
            *(((w, lw), (r, lr), "read")
              for w, lw in writes_b[parity]
              for r, lr in reads_a[parity]),
            *(((w, lw), (v, lv), "write")
              for w, lw in writes_a[parity]
              for v, lv in writes_b[parity]),
        ):
            inter = _intersect(wr, other)
            if inter is None:
                continue
            if what == "write" and wl == ol and redundant:
                continue  # declared duplicate recomputation
            return Violation(
                "race",
                f"unordered tasks conflict in parity-{parity} buffer: "
                f"write of t={wl} meets {what} of t={ol}",
                step=min(wl, ol), group=gid, task=task_a.label,
                other_task=task_b.label, region=inter)
    return None


def _check_private_tasks(spec: StencilSpec, schedule: RegionSchedule,
                         report: SanitizerReport) -> None:
    """Ghost-zone discipline for ``private_tasks`` schedules.

    Each task iterates on a private snapshot of its first action's
    box, so it must be self-contained: consecutive steps, every region
    inside the snapshot box, every read footprint inside the previous
    step's region.  The shared grid only sees the final write-back
    cores, which must tile the interior exactly once per time tile.
    """
    interior: Region = tuple((0, int(n)) for n in schedule.shape)
    interior_vol = region_size(interior)
    groups = schedule.groups()
    for gid in sorted(groups):
        if len(report.violations) >= _MAX_VIOLATIONS:
            return
        cores: List[Tuple[Region, int, str]] = []
        t_end = None
        for task in groups[gid]:
            acts = [a for a in task.actions if not region_is_empty(a.region)]
            if not acts:
                continue
            report.actions_checked += len(acts)
            inbox = acts[0].region
            prev = None
            for k, a in enumerate(acts):
                if k and a.t != acts[k - 1].t + 1:
                    report.add(Violation(
                        "private-task",
                        f"non-consecutive steps {acts[k - 1].t} -> {a.t} "
                        f"inside one private task",
                        step=a.t, group=gid, task=task.label))
                    break
                if not _contains(inbox, a.region):
                    report.add(Violation(
                        "private-task",
                        "region escapes the task's snapshot box",
                        step=a.t, group=gid, task=task.label,
                        region=a.region))
                    break
                if prev is not None:
                    foot = _dilate_clip(a.region, spec.slopes,
                                        schedule.shape)
                    holes = _subtract(foot, [prev])
                    if holes:
                        report.add(Violation(
                            "private-task",
                            "read footprint escapes the previous step's "
                            "region (stale private values)",
                            step=a.t, group=gid, task=task.label,
                            region=holes[0]))
                        break
                prev = a.region
            else:
                cores.append((acts[-1].region, gid, task.label))
                if t_end is None:
                    t_end = acts[-1].t
                elif acts[-1].t != t_end:
                    report.add(Violation(
                        "private-task",
                        f"tasks of one time tile end at different steps "
                        f"({acts[-1].t} != {t_end})",
                        step=acts[-1].t, group=gid, task=task.label))
        # write-back cores must tile the interior exactly once
        report.steps_checked += 1
        tagged = [(r, i) for i, (r, _, _) in enumerate(cores)]
        hit = _find_pairwise_overlap(tagged)
        report.pairs_checked += len(cores)
        if hit is not None:
            i, j, inter = hit
            report.add(Violation(
                "double-write", "write-back cores of one time tile overlap",
                step=t_end, group=gid, task=cores[i][2],
                other_task=cores[j][2], region=inter))
        elif interior_vol and sum(region_size(r) for r, _, _ in cores) \
                != interior_vol:
            holes = _subtract(interior, (r for r, _, _ in cores))
            report.add(Violation(
                "gap", "write-back cores miss part of the interior",
                step=t_end, group=gid,
                region=holes[0] if holes else None))


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
    _check_structure(schedule, report)
    if report.ok:
        if schedule.private_tasks:
            _check_private_tasks(spec, schedule, report)
        else:
            _check_coverage(schedule, redundant, report)
            _check_dependences(spec, schedule, report)
            _check_races(spec, schedule, redundant, report)
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

    from repro.runtime.schedule import RegionAction

    sched = RegionSchedule(scheme="distributed", shape=shape, steps=steps)
    rank_of_task: List[int] = []
    group = 0
    tt = 0
    while tt < steps:
        span = min(b, steps - tt)
        for si, sp in enumerate(plan.stages):
            emitted = False
            for r in range(ranks):
                for blk in owned[r][si]:
                    actions = []
                    for s in range(span):
                        region = blk.region_at(s, b, slopes, shape)
                        if not region_is_empty(region):
                            actions.append(RegionAction(t=tt + s,
                                                        region=region))
                    if actions:
                        sched.add(group, actions,
                                  label=f"rank{r}:t{tt}:stage{sp.stage}")
                        rank_of_task.append(r)
                        emitted = True
            if emitted:
                group += 1
        tt += b

    report = sanitize_schedule(spec, sched)
    report.scheme = f"distributed[{ranks} ranks]"

    # ghost-band reach: a rank's reads must stay inside slab ⊕ ghost
    n_axis = int(shape[axis])
    for task, r in zip(sched.tasks, rank_of_task):
        if len(report.violations) >= _MAX_VIOLATIONS:
            break
        lo, hi = bounds[r]
        win_lo, win_hi = max(0, lo - ghost), min(n_axis, hi + ghost)
        for a in task.actions:
            foot = _dilate_clip(a.region, spec.slopes, shape)
            flo, fhi = foot[axis]
            if flo < win_lo or fhi > win_hi:
                report.add(Violation(
                    "ghost-band",
                    f"rank {r} reads [{flo}, {fhi}) along axis {axis} "
                    f"but its slab [{lo}, {hi}) + ghost {ghost} only "
                    f"covers [{win_lo}, {win_hi})"
                    + (f"; required ghost width is {ghost_required}"
                       if ghost < ghost_required else ""),
                    step=a.t, group=task.group, task=task.label,
                    region=foot))
                break
    return report
