"""Seeded schedule mutations — the sanitizer's test harness.

Each mutator takes a known-good :class:`RegionSchedule` and returns a
*deep-copied* schedule with exactly one structural bug planted, of the
kind the sanitizer (:mod:`repro.runtime.sanitizer`) must catch:

* :func:`drop_action` — delete one action from one task: a
  tessellation **gap** (some points never advance past step ``t``) and
  usually a downstream **missing-dependence** hole;
* :func:`shift_region` — translate one action's rectangle by one cell
  along one axis: simultaneously a gap and a **double-write** (or an
  **out-of-bounds** write when it crosses the domain edge);
* :func:`merge_groups` — renumber barrier group ``g+1`` into ``g``:
  tasks that were dependence-ordered now run concurrently, an
  intra-group **race** (and/or missing dependence, since the merged
  producers no longer commit before the consumers read).

The CLI's ``--mutate kind@group[/task]`` flag (mirroring the fault
injector's ``--inject`` syntax) parses to these via
:func:`apply_mutation`; the fourth seeded-bug kind of the issue — an
undersized ghost band — lives on the distributed path (``dist
--ghost N --sanitize``), not here, because ghost width is an executor
parameter rather than schedule structure.

Mutators never modify their input: schedules are shared between the
clean and mutated halves of every A/B test.  The copy is always built
task by task (:meth:`RegionSchedule.add`), so the planted bug edits the
copy's own state — a table-built schedule's tasks are a derived view
that never feeds back into its table.
"""

from __future__ import annotations

import re

from repro.runtime.schedule import RegionSchedule

#: mutation kinds accepted by :func:`apply_mutation`
MUTATION_KINDS = ("drop-action", "shift-region", "merge-groups")


def _copy_schedule(schedule: RegionSchedule) -> RegionSchedule:
    out = RegionSchedule(
        schedule.scheme, schedule.shape, schedule.steps,
        private_tasks=schedule.private_tasks, redundant=schedule.redundant,
        group_sync_cost=schedule.group_sync_cost,
        task_overhead_factor=schedule.task_overhead_factor,
    )
    for task in schedule.tasks:    # actions are frozen: share them
        out.add(task.group, task.actions, label=task.label)
    return out


def _pick_task(schedule: RegionSchedule, group: int, task: int):
    tasks = [t for t in schedule.tasks if t.group == group]
    if not tasks:
        raise ValueError(
            f"no tasks in barrier group {group} "
            f"(schedule has {schedule.num_groups} group(s))"
        )
    if not 0 <= task < len(tasks):
        raise ValueError(
            f"task index {task} out of range for group {group} "
            f"({len(tasks)} task(s))"
        )
    return tasks[task]


def drop_action(schedule: RegionSchedule, group: int = 0, task: int = 0,
                action: int = -1) -> RegionSchedule:
    """Delete one action of one task (default: the task's last)."""
    mutated = _copy_schedule(schedule)
    tgt = _pick_task(mutated, group, task)
    if not tgt.actions:
        raise ValueError(f"task {tgt.label!r} has no actions to drop")
    del tgt.actions[action]
    return mutated


def shift_region(schedule: RegionSchedule, group: int = 0, task: int = 0,
                 action: int = 0, axis: int = 0,
                 delta: int = 1) -> RegionSchedule:
    """Translate one action's region by ``delta`` cells along ``axis``."""
    mutated = _copy_schedule(schedule)
    tgt = _pick_task(mutated, group, task)
    if not tgt.actions:
        raise ValueError(f"task {tgt.label!r} has no actions to shift")
    a = tgt.actions[action]
    if not 0 <= axis < len(a.region):
        raise ValueError(f"axis {axis} out of range for rank {len(a.region)}")
    region = tuple(
        (lo + delta, hi + delta) if j == axis else (lo, hi)
        for j, (lo, hi) in enumerate(a.region)
    )
    tgt.actions[action] = type(a)(t=a.t, region=region)
    return mutated


def merge_groups(schedule: RegionSchedule, group: int = 0) -> RegionSchedule:
    """Collapse barrier group ``group + 1`` into ``group``.

    Every task of every later group slides down by one, removing the
    barrier between ``group`` and its successor.
    """
    mutated = _copy_schedule(schedule)
    gids = sorted({t.group for t in mutated.tasks})
    if group not in gids:
        raise ValueError(f"no barrier group {group} in schedule")
    later = [g for g in gids if g > group]
    if not later:
        raise ValueError(
            f"group {group} is the last barrier group; nothing to merge"
        )
    for t in mutated.tasks:
        if t.group > group:
            t.group -= 1
    return mutated


_SPEC_RE = re.compile(r"^(?P<kind>[a-z-]+)@(?P<group>\d+)(?:/(?P<task>\d+))?$")


def apply_mutation(schedule: RegionSchedule, spec: str) -> RegionSchedule:
    """Apply a ``kind@group[/task]`` mutation spec to a schedule copy.

    Mirrors the fault injector's ``--inject kind@group[/task]`` syntax;
    ``kind`` is one of :data:`MUTATION_KINDS`.
    """
    m = _SPEC_RE.match(spec.strip())
    if m is None:
        raise ValueError(
            f"bad mutation spec {spec!r}; expected kind@group[/task] with "
            f"kind in {MUTATION_KINDS}"
        )
    kind = m.group("kind")
    group = int(m.group("group"))
    task = int(m.group("task") or 0)
    if kind == "drop-action":
        return drop_action(schedule, group=group, task=task)
    if kind == "shift-region":
        return shift_region(schedule, group=group, task=task)
    if kind == "merge-groups":
        return merge_groups(schedule, group=group)
    raise ValueError(
        f"unknown mutation kind {kind!r}; expected one of {MUTATION_KINDS}"
    )
