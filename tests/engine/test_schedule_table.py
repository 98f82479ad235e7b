"""The rectangle table and the object view of a schedule agree.

The tessellation builder emits a :class:`ScheduleTable` with array
arithmetic and never makes action objects; the view is built on first
access.  These tests pin that down:

* the view equals a scalar re-derivation through
  :meth:`TessBlock.region_at` (the per-block loop the table replaced);
* a table-built schedule and the same tasks re-added one by one with
  ``add()`` compile to identical plans and equal ``schedule_stats``;
* the view is built once, also under concurrent first access, and is
  left out of pickles; ``add()`` on a table-built schedule raises;
* mutations copy into an object-built schedule, so a cached entry is
  never changed and the mutated copy still fails the sanitizer.
"""

from __future__ import annotations

import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.core import make_lattice
from repro.core.blocks import TessBlock, build_phase_plan
from repro.core.profiles import AxisProfile, TessLattice
from repro.core.schedules import tess_schedule
from repro.engine.cache import PlanCache
from repro.engine.plan import compile_plan
from repro.runtime.schedule import (
    RegionAction,
    RegionSchedule,
    schedule_stats,
)
from repro.stencils.spec import region_is_empty

from tests.engine.test_golden_digests import plan_digest

pytestmark = pytest.mark.engine


# -- the scalar reference: one region_at call per (block, s) ---------------

def _block_actions(block, b, slopes, shape, tt, span):
    out = []
    for s in range(span):
        region = block.region_at(s, b, slopes, shape)
        if not region_is_empty(region):
            out.append((tt + s, region))
    return out


def scalar_tasks(lattice, steps, merged):
    """``[(group, label, [(t, region)])]`` of ``tess_schedule``, derived
    block by block with :meth:`TessBlock.region_at`."""
    b, d, shape = lattice.b, lattice.ndim, lattice.shape
    slopes = tuple(p.sigma for p in lattice.profiles)
    tasks, group = [], 0

    def emit(blocks_actions, label):
        nonlocal group
        added = [(group, label, acts) for acts in blocks_actions if acts]
        tasks.extend(added)
        group += bool(added)

    if not merged:
        plan = build_phase_plan(lattice, slopes)
        for tt in range(0, steps, b):
            span = min(b, steps - tt)
            for sp in plan.stages:
                emit([_block_actions(blk, b, slopes, shape, tt, span)
                      for blk in sp.blocks], f"t{tt}:stage{sp.stage}")
        return tasks
    levels = [lattice, lattice.shifted_to_plateaus()]
    plans = [build_phase_plan(lv, slopes) for lv in levels]
    omin = sum(1 for p in lattice.profiles if not p.cores)
    emit([_block_actions(blk, b, slopes, shape, 0, min(b, steps))
          for blk in plans[0].stages[omin].blocks], f"t0:stage{omin}")
    for phase, tt in enumerate(range(0, steps, b)):
        level = phase % 2
        span = min(b, steps - tt)
        span_next = min(b, max(0, steps - tt - b))
        for sp in plans[level].stages[omin + 1:d]:
            emit([_block_actions(blk, b, slopes, shape, tt, span)
                  for blk in sp.blocks], f"t{tt}:stage{sp.stage}")
        fused = []
        plats = [p.plateaus() for p in levels[level].profiles]
        for base in itertools.product(*plats):
            bd = TessBlock(stage=d, glued=tuple(range(d)), base=base)
            acts = _block_actions(bd, b, slopes, shape, tt, span)
            b0 = TessBlock(stage=0, glued=(), base=base)
            acts += _block_actions(b0, b, slopes, shape, tt + b, span_next)
            fused.append(acts)
        emit(fused, f"t{tt}:merged")
    return tasks


def _view(sched):
    return [(task.group, task.label, [(a.t, a.region) for a in task.actions])
            for task in sched.tasks]


def _readded(sched):
    """The same tasks, re-added one by one (an object-built schedule)."""
    out = RegionSchedule(sched.scheme, sched.shape, sched.steps)
    for task in sched.tasks:
        out.add(task.group, task.actions, label=task.label)
    return out


# -- lattices ----------------------------------------------------------------

KINDS = ("uniform", "coarse", "uncut", "stretched")


def _lattice(spec, shape, b, kind):
    if kind == "uniform":
        return make_lattice(spec, shape, b)
    if kind == "coarse":
        return make_lattice(spec, shape, b,
                            core_widths=tuple(2 + j for j in range(spec.ndim)))
    if kind == "uncut":
        return make_lattice(spec, shape, b, uncut_dims=(spec.ndim - 1,))
    return TessLattice(tuple(
        AxisProfile.stretched(n, b, sigma=sg)
        for n, sg in zip(shape, spec.slopes)))


cases = st.tuples(
    st.sampled_from(("heat1d", "heat2d", "heat3d", "life", "1d5p")),
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=5),          # b
    st.integers(min_value=0, max_value=11),         # steps
    st.booleans(),                                  # merged
    st.data(),
)


@given(cases)
@settings(max_examples=60, deadline=None)
def test_table_matches_scalar_derivation(case):
    kernel, kind, b, steps, merged, data = case
    spec = get_stencil(kernel)
    d = spec.ndim
    top = {1: 70, 2: 30, 3: 14}[d]
    shape = tuple(data.draw(st.integers(min_value=5, max_value=top))
                  for _ in range(d))
    if kind == "uncut" and d == 1:
        kind = "coarse"
    merged = merged and kind != "stretched"   # merging needs periodic cores
    lattice = _lattice(spec, shape, b, kind)
    sched = tess_schedule(spec, shape, lattice, steps, merged=merged)

    assert _view(sched) == scalar_tasks(lattice, steps, merged)
    for task in sched.tasks:                # plain Python ints throughout
        for a in task.actions:
            assert type(a.t) is int
            assert all(type(v) is int for iv in a.region for v in iv)

    objects = _readded(sched)
    assert schedule_stats(objects) == schedule_stats(sched)
    for opts in ({}, {"fuse": False}, {"batch_threshold": 0}):
        assert plan_digest(compile_plan(spec, objects, **opts)) == \
            plan_digest(compile_plan(spec, sched, **opts))


# -- the view: once, thread-safe, derived ------------------------------------

def _tess(shape=(40, 36), steps=9, b=4):
    spec = get_stencil("heat2d")
    return spec, tess_schedule(spec, shape, make_lattice(spec, shape, b),
                               steps, merged=True)


def test_view_is_built_once_under_concurrent_access():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)             # switch threads mid-build
    try:
        for _ in range(10):                 # a lost race shows in most
            _, sched = _tess()
            assert sched._tasks is None     # nothing built yet
            barrier = threading.Barrier(4)
            got = []

            def read():
                barrier.wait(timeout=10)
                got.append(sched.tasks)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 4 and all(view is got[0] for view in got)
            assert sched.tasks is got[0]
    finally:
        sys.setswitchinterval(interval)


def test_view_is_read_only_and_table_built_schedules_refuse_add():
    _, sched = _tess()
    with pytest.raises(TypeError):
        sched.tasks.append(sched.tasks[0])
    with pytest.raises(ValueError):
        sched.add(0, [RegionAction(0, ((0, 1), (0, 1)))])


def test_view_is_left_out_of_pickles():
    _, sched = _tess()
    before = pickle.dumps(sched, protocol=pickle.HIGHEST_PROTOCOL)
    view = _view(sched)                     # builds the view
    assert pickle.dumps(sched, protocol=pickle.HIGHEST_PROTOCOL) == before
    clone = pickle.loads(before)
    assert clone._tasks is None and _view(clone) == view


def test_add_built_schedules_derive_a_fresh_table():
    spec, sched = _tess()
    objects = _readded(sched)
    first = objects.table()
    assert first is not objects.table()     # derived, not cached
    objects.add(99, [RegionAction(0, ((0, 2), (0, 2)))], label="extra")
    grown = objects.table()
    assert grown.num_tasks == first.num_tasks + 1
    assert grown.label[-1] == "extra" and int(grown.group[-1]) == 99
    table = sched.table()
    for col in ("task", "t", "lo", "hi", "group"):
        assert np.array_equal(getattr(first, col), getattr(table, col))
    assert first.label == table.label


def test_stats_and_compile_never_build_the_view():
    spec, sched = _tess()
    schedule_stats(sched)
    plan = compile_plan(spec, sched)
    for gi in range(plan.num_groups):
        plan.task_units(gi)
    assert sched._tasks is None


# -- mutations copy, never touch the cached table ----------------------------

def test_mutation_leaves_the_cached_entry_untouched():
    from repro.runtime.errors import SanitizerViolation
    from repro.runtime.mutations import apply_mutation
    from repro.runtime.sanitizer import sanitize_schedule

    session = Session(get_stencil("heat2d"), cache=PlanCache())
    clean = RunConfig(shape=(32, 32), steps=8, b=4, backend="compiled",
                      verify=True)
    warm = session.run(clean)
    entry_schedule = warm.plan.schedule
    table = entry_schedule.table()
    before = pickle.dumps(entry_schedule, protocol=pickle.HIGHEST_PROTOCOL)
    view = _view(entry_schedule)

    mutations = ("drop-action@0", "shift-region@1", "merge-groups@0")
    for mutation in mutations:
        with pytest.raises(SanitizerViolation):
            session.run(clean, mutations=(mutation,), sanitize=True)
    # mutating the cached schedule itself yields an object-built copy
    # whose table carries the planted bug
    for mutation in mutations:
        mutated = apply_mutation(entry_schedule, mutation)
        assert not sanitize_schedule(session.spec, mutated).ok
        assert plan_digest(compile_plan(session.spec, mutated)) != \
            plan_digest(warm.plan)
    dropped = apply_mutation(entry_schedule, "drop-action@0")
    assert dropped.table().t.size == table.t.size - 1

    assert entry_schedule.table() is table
    assert pickle.dumps(entry_schedule,
                        protocol=pickle.HIGHEST_PROTOCOL) == before
    assert _view(entry_schedule) == view
    again = session.run(clean, seed=5)
    assert again.plan is warm.plan and again.stats.verified is True
