"""Region schedules — the common currency of all tiling schemes.

A :class:`RegionSchedule` is a flattened tiling: an ordered list of
:class:`ScheduledTask`, each performing a sequence of
``(global time step t, hyper-rectangle)`` updates (advance every point
of the rectangle from time ``t`` to ``t+1``), annotated with a
*barrier group*.  Semantics:

* groups execute in ascending order with a barrier between groups;
* tasks inside one group are independent and may execute in any order
  or concurrently;
* actions inside one task execute in their listed order.

A schedule is *valid* for ``T`` steps if executing it (in any
group/task-order-respecting interleaving) advances every interior
point from time 0 to time ``T`` while respecting the stencil's
dependences with the two-buffer (ping-pong) discipline.  Validity is
established empirically against the naive reference by
:func:`verify_schedule`; schemes with redundant computation (overlapped
tiling) remain valid because duplicate updates write identical values.

Two representations, one schedule:

* a :class:`ScheduleTable` — integer arrays with one row per action in
  schedule order (owning task, step, rectangle ``lo``/``hi``) plus each
  task's group and label.  The tessellation builder emits it directly
  and :func:`schedule_stats` and the compiled engine read only it;
* the object view — :attr:`RegionSchedule.tasks`, a list of
  :class:`ScheduledTask`.  Schemes built with :meth:`RegionSchedule.add`
  keep it as their state; for a table-built schedule it is derived
  data, built once (thread-safely) the first time a consumer asks for
  it — the sanitizer, the naive walkers, threads — and never pickled.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.stencils.grid import Grid
from repro.stencils.reference import reference_sweep
from repro.stencils.spec import (
    Region,
    StencilSpec,
    region_is_empty,
    region_size,
)


@dataclass(frozen=True, slots=True)
class RegionAction:
    """One vectorised update: rectangle ``region`` at global step ``t``."""

    t: int
    region: Region

    @property
    def points(self) -> int:
        return region_size(self.region)


@dataclass(slots=True)
class ScheduledTask:
    """A unit of parallel work: ordered actions plus a barrier group."""

    group: int
    actions: List[RegionAction]
    label: str = ""

    @property
    def points(self) -> int:
        """Total point-updates (includes redundant recomputation)."""
        return sum(a.points for a in self.actions)

    @property
    def time_range(self) -> Tuple[int, int]:
        ts = [a.t for a in self.actions]
        return (min(ts), max(ts) + 1) if ts else (0, 0)

    def bounding_box(self) -> Optional[Region]:
        """Union bounding box of all action rectangles (None if empty)."""
        boxes = [a.region for a in self.actions if not region_is_empty(a.region)]
        if not boxes:
            return None
        d = len(boxes[0])
        return tuple(
            (min(b[j][0] for b in boxes), max(b[j][1] for b in boxes))
            for j in range(d)
        )

    def footprint_points(self) -> int:
        """Distinct grid points in the task's bounding box.

        Used by the machine model as the task's resident working set;
        an upper bound on distinct points touched, tight for the
        trapezoid/diamond/rectangle tasks all schemes here produce.
        """
        box = self.bounding_box()
        return region_size(box) if box is not None else 0


@dataclass(frozen=True, eq=False)
class ScheduleTable:
    """A schedule's actions as integer arrays, one row per action.

    Rows are in schedule order (task by task, each task's actions in
    order): ``task[i]`` is the owning task's index (non-decreasing),
    ``t[i]`` the global step, ``lo[i]``/``hi[i]`` the rectangle's
    per-axis bounds.  ``group`` and ``label`` are per task, so tasks
    without actions still appear.  The arrays are read-only.
    """

    task: np.ndarray
    t: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    group: np.ndarray
    label: Tuple[str, ...]

    def __post_init__(self):
        n = len(self.t)
        if (len(self.task) != n or self.lo.shape != self.hi.shape
                or self.lo.shape[0] != n
                or len(self.label) != len(self.group)):
            raise ValueError("schedule table columns disagree in length")
        for arr in (self.task, self.t, self.lo, self.hi, self.group):
            arr.setflags(write=False)

    @property
    def num_tasks(self) -> int:
        return len(self.group)

    def points(self) -> np.ndarray:
        """Point count of every row's rectangle (0 when empty)."""
        ext = np.maximum(self.hi - self.lo, 0)
        return np.prod(ext, axis=1, dtype=np.int64)

    def task_bounds(self) -> np.ndarray:
        """``rows[k]:rows[k + 1]`` are task ``k``'s rows."""
        return np.searchsorted(self.task, np.arange(self.num_tasks + 1))

    def group_widths(self) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct group ids, ascending, and each one's task count."""
        # sort-based, not np.unique: that drags numpy.ma into every run
        g = np.sort(self.group)
        starts = np.flatnonzero(np.diff(g, prepend=g[:1] - 1))
        return g[starts], np.diff(np.append(starts, g.size))


def _table_from_tasks(tasks: Sequence[ScheduledTask], d: int) -> ScheduleTable:
    """One pass over the object view (not cached: ``add`` may follow)."""
    counts = [len(task.actions) for task in tasks]
    ts = [a.t for task in tasks for a in task.actions]
    boxes = np.array([a.region for task in tasks for a in task.actions],
                     dtype=np.int64).reshape(len(ts), d, 2)
    return ScheduleTable(
        task=np.repeat(np.arange(len(tasks), dtype=np.int64), counts),
        t=np.array(ts, dtype=np.int64),
        lo=boxes[:, :, 0], hi=boxes[:, :, 1],
        group=np.array([task.group for task in tasks], dtype=np.int64),
        label=tuple(task.label for task in tasks),
    )


class _TaskView(list):
    """The object view of a table-built schedule: derived, read-only."""

    def _read_only(self, *args, **kwargs):
        raise TypeError(
            "the tasks of a table-built schedule are a read-only view; "
            "copy them into a schedule built with add() to change them"
        )

    append = extend = insert = remove = pop = clear = _read_only
    sort = reverse = __setitem__ = __delitem__ = _read_only
    __iadd__ = __imul__ = _read_only


def _tasks_from_table(table: ScheduleTable) -> _TaskView:
    t, lo, hi = table.t.tolist(), table.lo.tolist(), table.hi.tolist()
    bounds = table.task_bounds().tolist()
    return _TaskView(
        ScheduledTask(
            group=g, label=label,
            actions=[RegionAction(t=t[i], region=tuple(zip(lo[i], hi[i])))
                     for i in range(bounds[k], bounds[k + 1])],
        )
        for k, (g, label) in enumerate(zip(table.group.tolist(),
                                            table.label))
    )


#: guards the one-time build of table-built schedules' object views
_VIEW_LOCK = threading.Lock()


@dataclass(eq=False)
class RegionSchedule:
    """A complete tiling of ``steps`` time steps of one grid.

    Built either task by task with :meth:`add` (the object view is the
    state) or whole with :meth:`from_table` (the table is the state and
    :attr:`tasks` is a view built on first access).
    """

    scheme: str
    shape: Tuple[int, ...]
    steps: int
    #: True for ghost-zone schemes whose tasks need private storage
    #: (see repro.baselines.overlapped); _execute_schedule refuses them.
    private_tasks: bool = False
    #: Explicit declaration that the scheme recomputes points
    #: (overlapped tiling): the sanitizer only tolerates a point being
    #: written twice per step when this is set — duplicate updates of
    #: undeclared schemes are flagged even though they would pass the
    #: empirical check by writing identical values.
    redundant: bool = False
    #: Relative cost of one inter-group synchronisation (1.0 = a full
    #: OpenMP-style barrier; MWD-style intra-group wavefront syncs are
    #: cheaper).  Consumed by the machine model.
    group_sync_cost: float = 1.0
    #: Relative per-task dispatch cost (1.0 = OpenMP static chunk).
    #: Runtimes with dynamic blocking / recursive descent / work
    #: stealing (Pochoir's Cilk) pay more per task.  Consumed by the
    #: machine model.
    task_overhead_factor: float = 1.0
    _tasks: Optional[List[ScheduledTask]] = field(default_factory=list,
                                                  repr=False)
    _table: Optional[ScheduleTable] = field(default=None, repr=False)

    @classmethod
    def from_table(cls, scheme: str, shape: Tuple[int, ...], steps: int,
                   table: ScheduleTable, **flags) -> "RegionSchedule":
        """A schedule whose state is ``table``; :attr:`tasks` is a view."""
        if table.lo.shape[1:] != (len(shape),):
            raise ValueError(
                f"table rank {table.lo.shape[1:]} != shape rank {len(shape)}"
            )
        return cls(scheme, shape, steps, _tasks=None, _table=table, **flags)

    def __getstate__(self):
        # the object view of a table-built schedule is derived data: a
        # schedule pickles the same whether or not a consumer built it
        state = dict(self.__dict__)
        if state["_table"] is not None:
            state["_tasks"] = None
        return state

    def __setstate__(self, state):
        if "tasks" in state:    # pickled before the table existed
            state["_tasks"] = state.pop("tasks")
            state["_table"] = None
        self.__dict__.update(state)

    @property
    def tasks(self) -> List[ScheduledTask]:
        tasks = self._tasks
        if tasks is None:
            with _VIEW_LOCK:
                tasks = self._tasks
                if tasks is None:
                    tasks = self._tasks = _tasks_from_table(self._table)
        return tasks

    def table(self) -> ScheduleTable:
        """The schedule as a :class:`ScheduleTable`.

        A table-built schedule returns its state; an ``add``-built one
        derives a fresh table in one pass over its tasks.
        """
        if self._table is not None:
            return self._table
        return _table_from_tasks(self._tasks, len(self.shape))

    def add(self, group: int, actions: Iterable[RegionAction],
            label: str = "") -> ScheduledTask:
        if self._table is not None:
            raise ValueError(
                f"schedule {self.scheme!r} was built from a table; add() "
                f"only extends schedules built task by task"
            )
        task = ScheduledTask(group=group, actions=list(actions), label=label)
        self._tasks.append(task)
        return task

    @property
    def num_groups(self) -> int:
        return 1 + int(self.table().group.max(initial=-1))

    def groups(self) -> Dict[int, List[ScheduledTask]]:
        out: Dict[int, List[ScheduledTask]] = {}
        for t in self.tasks:
            out.setdefault(t.group, []).append(t)
        return out

    def total_points(self) -> int:
        return int(self.table().points().sum())

    def validate_structure(self) -> None:
        """Cheap structural checks (groups ordered, actions in range)."""
        for task in self.tasks:
            if task.group < 0:
                raise ValueError(f"negative barrier group in {task.label!r}")
            for a in task.actions:
                if not 0 <= a.t < self.steps:
                    raise ValueError(
                        f"action at t={a.t} outside [0, {self.steps}) in "
                        f"{task.label!r}"
                    )
                if len(a.region) != len(self.shape):
                    raise ValueError(
                        f"region rank mismatch in {task.label!r}"
                    )


def _execute_schedule(spec: StencilSpec, grid: Grid,
                      schedule: RegionSchedule, budget=None) -> np.ndarray:
    """Sequential schedule walk (the ``serial`` backend's engine)."""
    from repro.api.driver import drive_groups, run_actions

    if spec.is_periodic:
        raise ValueError("region schedules assume non-periodic boundaries")
    if schedule.private_tasks:
        raise ValueError(
            f"schedule {schedule.scheme!r} needs private task storage; "
            f"use its dedicated executor (execute_overlapped)"
        )
    if grid.shape != schedule.shape:
        raise ValueError(
            f"grid shape {grid.shape} != schedule shape {schedule.shape}"
        )
    drive_groups(
        schedule,
        lambda gi, gid, ti, task: run_actions(spec, grid, task.actions),
        budget=budget,
    )
    return grid.interior(schedule.steps)


def verify_schedule(spec: StencilSpec, schedule: RegionSchedule,
                    seed: int = 0, sanitize: bool = False) -> bool:
    """Check a schedule against the naive reference on a random grid.

    Bitwise, for every dtype: dtype, shape and ``tobytes()`` must match
    the sweep's, so one flipped ulp fails.

    With ``sanitize=True`` the structural sanitizer
    (:func:`repro.runtime.sanitizer.sanitize_schedule`) runs first and
    raises :class:`~repro.runtime.errors.SanitizerViolation` on any
    finding — catching races and dependence bugs the numeric diff is
    blind to (e.g. double writes of identical values).
    """
    if sanitize:
        from repro.runtime.sanitizer import sanitize_schedule

        sanitize_schedule(spec, schedule).raise_if_violations()
    g_ref = Grid(spec, schedule.shape, init="random", seed=seed)
    g_sch = g_ref.copy()
    ref = reference_sweep(spec, g_ref, schedule.steps)
    if schedule.private_tasks:
        # ghost-zone schemes bring their own executor
        from repro.baselines.overlapped import execute_overlapped

        out = execute_overlapped(spec, g_sch, schedule)
    else:
        out = _execute_schedule(spec, g_sch, schedule)
    return (ref.dtype == out.dtype and ref.shape == out.shape
            and ref.tobytes() == out.tobytes())


def schedule_stats(schedule: RegionSchedule) -> Dict[str, float]:
    """Summary statistics used by the bench harness and the tests.

    Read from the schedule's table, so a table-built schedule never
    builds its object view here.
    """
    table = schedule.table()
    csum = np.concatenate(([0], np.cumsum(table.points())))
    bounds = table.task_bounds()
    sizes = csum[bounds[1:]] - csum[bounds[:-1]]
    widths = table.group_widths()[1]
    interior = 1
    for n in schedule.shape:
        interior *= n
    required = interior * schedule.steps
    total = int(csum[-1])
    return {
        "scheme": schedule.scheme,
        "tasks": int(sizes.size),
        "groups": int(widths.size),
        "total_point_updates": total,
        "required_point_updates": required,
        "redundancy": (total / required - 1.0) if required else 0.0,
        "max_group_width": int(widths.max(initial=0)),
        "mean_group_width": float(np.mean(widths)) if widths.size else 0.0,
        "mean_task_points": float(np.mean(sizes)) if sizes.size else 0.0,
        "min_task_points": int(sizes.min()) if sizes.size else 0,
        "max_task_points": int(sizes.max(initial=0)),
    }
