"""Plans are stored at 32 bits: the table, batch indices and bounds.

A schedule's :class:`~repro.runtime.schedule.ScheduleTable` columns are
int32, and so are the flat index arrays of every compiled batch
(``idx``, a staged batch's per-stage positions) whenever the buffer's
flat extent — padded points × fields — is below 2**31.  Past it the
indices fall back to ``np.intp``; that case is compiled here, never
executed, so no 20 GB grid is allocated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig
from repro.api.builder import ScheduleBuilder
from repro.engine.plan import compile_plan
from repro.engine.rects import index_dtype
from repro.runtime.schedule import (
    RegionAction,
    RegionSchedule,
    ScheduleTable,
    table_column,
)

pytestmark = pytest.mark.engine

COLUMNS = ("task", "t", "lo", "hi", "group")


def _built(spec, scheme, shape, steps=8):
    config = RunConfig(scheme=scheme, shape=shape, steps=steps,
                       b=4).normalized()
    return ScheduleBuilder().build(spec, config).schedule


def _batches(plan):
    return [u for stream in plan.streams for u in stream
            if hasattr(u, "idx")]


@pytest.mark.parametrize("scheme", ["tess", "tess-unmerged", "diamond",
                                    "pochoir"])
def test_table_columns_are_int32(scheme):
    # tess builds its table directly; the others derive it from tasks
    table = _built(get_stencil("heat2d"), scheme, (40, 36)).table()
    assert table.task.size > 0
    for name in COLUMNS:
        assert getattr(table, name).dtype == np.int32, name


def test_empty_table_is_int32():
    table = RegionSchedule("empty", (5, 4), 3).table()
    for name in COLUMNS:
        assert getattr(table, name).dtype == np.int32, name


def test_a_value_outside_int32_raises_where_the_table_is_built():
    sched = RegionSchedule("huge", (2 ** 31 + 8,), 1)
    sched.add(0, [RegionAction(0, ((2 ** 31, 2 ** 31 + 4),))])
    with pytest.raises(ValueError, match="outside int32"):
        sched.table()
    with pytest.raises(ValueError, match="'t'"):
        table_column([0, 2 ** 31], "t")
    wide = np.array([[0, 2 ** 31]], dtype=np.int64)
    with pytest.raises(ValueError, match="'lo'"):
        ScheduleTable(task=np.zeros(1, np.int64), t=np.zeros(1, np.int64),
                      lo=wide, hi=wide, group=np.zeros(1, np.int64),
                      label=("x",))


def test_other_integer_columns_are_narrowed():
    table = ScheduleTable(task=np.zeros(1, np.int64),
                          t=np.zeros(1, np.int64),
                          lo=np.zeros((1, 2), np.int64),
                          hi=np.ones((1, 2), np.int64),
                          group=np.zeros(1, np.int64), label=("x",))
    for name in COLUMNS:
        col = getattr(table, name)
        assert col.dtype == np.int32 and not col.flags.writeable, name


@pytest.mark.parametrize("kernel", ["heat1d", "heat2d", "heat3d", "life"])
def test_batch_indices_and_bounds_are_int32(kernel):
    spec = get_stencil(kernel)
    shape = {1: (603,), 2: (70, 66), 3: (20, 18, 17)}[spec.ndim]
    plan = compile_plan(spec, _built(spec, "tess", shape))
    batches = _batches(plan)
    assert batches
    for unit in batches:
        assert unit.idx.dtype == np.int32
        assert unit.lo.dtype == np.int32 and unit.hi.dtype == np.int32
        assert unit.base == min(0, *unit.off_flats)


@pytest.mark.parametrize("system", ["fdtd1d", "fdtd2d", "gray_scott",
                                    "shallow_water"])
def test_staged_positions_are_int32(system):
    spec = get_stencil(system)
    shape = {1: (203,), 2: (40, 36)}[spec.ndim]
    plan = compile_plan(spec, _built(spec, "tess", shape))
    batches = _batches(plan)
    assert batches
    for unit in batches:
        assert unit.idx.dtype == np.int32
        assert unit.lo.dtype == np.int32 and unit.hi.dtype == np.int32
        for _, pos, _, _ in unit.stage_ops:
            assert pos.dtype == np.int32


def test_index_dtype_boundary():
    assert index_dtype(2 ** 31 - 1) == np.int32
    assert index_dtype(2 ** 31) == np.intp


# -- the intp fallback, compiled but never executed ----------------------

def _small_rects_past_2_31(n):
    """Eight small rectangles in one layer, four of them near the far
    corner of an ``n``² grid, so their flat indices pass 2**31."""
    sched = RegionSchedule("handmade-far", (n, n), 1)
    for i, (r, c) in enumerate([(0, 0), (10, 20), (300, 7), (n - 40, 3),
                                (n - 9, n - 12), (n - 20, n - 30),
                                (n - 4, n - 4), (n // 2, n - 9)]):
        sched.add(0, [RegionAction(0, ((r, r + 3 + i % 2),
                                       (c, c + 2 + i % 3)))])
    return sched


def _expected_flat(regions, halo, padded):
    """The int64 formula: C-order cell by cell, rectangle by rectangle."""
    strides = np.cumprod((1,) + tuple(padded[:0:-1]))[::-1].astype(np.int64)
    out = []
    for region in regions:
        axes = [np.arange(lo, hi, dtype=np.int64) + h
                for (lo, hi), h in zip(region, halo)]
        grid = np.meshgrid(*axes, indexing="ij")
        out.append(sum(g * s for g, s in zip(grid, strides)).ravel())
    return np.concatenate(out)


def test_linear_indices_past_2_31_fall_back_to_intp():
    spec = get_stencil("heat2d")
    n = 50_000
    sched = _small_rects_past_2_31(n)
    plan = compile_plan(spec, sched)
    (unit,) = _batches(plan)
    assert unit.idx.dtype == np.intp
    assert int(unit.idx.max()) >= 2 ** 31
    regions = [r for _, r in unit.writes()]
    expected = _expected_flat(regions, spec.halo, spec.padded_shape((n, n)))
    assert np.array_equal(unit.idx.astype(np.int64), expected)


def test_staged_extent_counts_fields():
    # 30000² spatial padded points fit in int32; times 3 fields they
    # do not, and a staged batch's field shifts must still index
    spec = get_stencil("fdtd2d")
    n = 30_000
    padded = spec.padded_shape((n, n))
    assert int(np.prod(padded[1:])) < 2 ** 31 <= int(np.prod(padded))
    plan = compile_plan(spec, _small_rects_past_2_31(n))
    (unit,) = _batches(plan)
    assert unit.idx.dtype == np.intp
    for _, pos, _, _ in unit.stage_ops:
        assert pos.dtype == np.intp
    regions = [r for _, r in unit.writes()]
    expected = _expected_flat(regions, spec.halo, padded[1:])
    assert np.array_equal(unit.idx.astype(np.int64), expected)
