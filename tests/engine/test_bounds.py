"""Bounds-proven batch gathers.

The batch kernels gather with ``take(..., mode="clip")``, which neither
raises nor buffers, because :func:`repro.engine.plan.check_bounds`
proves every batch index in bounds once per plan: at compile time and
whenever the plan cache loads a plan from disk.  The engine entry
points refuse buffers of any other layout.  These tests pin each half:
a plan that would reach outside its buffer is refused before a buffer
is written, and a warm run allocates (almost) nothing.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.engine.batch import _execute_plan_batched, stack_grids
from repro.engine.cache import PLAN_FORMAT, PlanCache
from repro.engine.plan import (
    _execute_plan,
    _LinearBatch,
    check_bounds,
    compile_plan,
)
from repro.runtime.mutations import shift_region
from repro.stencils import Grid
from repro.stencils.reference import reference_sweep

pytestmark = pytest.mark.engine

CFG = RunConfig(shape=(32, 32), steps=8, b=4, backend="compiled")


def _schedule(kernel="heat2d", config=CFG):
    return Session(get_stencil(kernel)).build(config).schedule


def _snapshot(grid):
    return [buf.tobytes() for buf in grid.buffers]


# -- the proof ---------------------------------------------------------

def test_every_compiled_plan_passes_the_proof():
    for kernel in ("heat2d", "life", "fdtd2d"):
        spec = get_stencil(kernel)
        plan = compile_plan(spec, _schedule(kernel))
        assert plan.stats.batches > 0
        check_bounds(plan)  # compile_plan ran it already; idempotent


def test_out_of_buffer_unit_is_refused_at_compile_time():
    """An action shifted far past the grid lowers to a batch whose
    indices leave the padded buffer: compile_plan refuses it with a
    ValueError naming the unit's group and step."""
    spec = get_stencil("heat2d")
    bad = shift_region(_schedule(), delta=1000)
    with pytest.raises(ValueError, match=r"group \d+, step \d+ .*outside"):
        compile_plan(spec, bad)


def test_refused_plan_writes_no_buffer():
    spec = get_stencil("heat2d")
    bad = shift_region(_schedule(), delta=1000)
    grid = Grid(spec, (32, 32), init="random", seed=4)
    before = _snapshot(grid)
    with pytest.raises(ValueError, match="outside the padded buffer"):
        Session(spec, cache=PlanCache()).execute(grid, bad, config=CFG)
    assert _snapshot(grid) == before


def test_widening_base_past_a_tap_is_refused():
    """``base`` must not exceed the most negative shift: a larger one
    would start a tap's view before the buffer."""
    spec = get_stencil("heat2d")
    plan = compile_plan(spec, _schedule())
    unit = next(u for s in plan.streams for u in s
                if isinstance(u, _LinearBatch))
    unit.base = 1
    with pytest.raises(ValueError, match="outside the padded buffer"):
        check_bounds(plan)


def _tamper_disk_record(path, spec):
    """Rewrite a disk record with one batch's indices pushed past the
    buffer, as rotted bits would, keeping the format tag and key."""
    with open(path, "rb") as fh:
        tag = pickle.load(fh)
        key, plan = pickle.load(fh)
    extent = int(np.prod(spec.padded_shape(plan.shape)))
    unit = next(u for s in plan.streams for u in s
                if isinstance(u, _LinearBatch))
    unit.idx = unit.idx.astype(np.int64) + extent
    with open(path, "wb") as fh:
        pickle.dump(tag, fh)
        pickle.dump((key, plan), fh)


def test_tampered_disk_record_is_quarantined_and_recompiled(tmp_path):
    spec = get_stencil("heat2d")
    Session(spec, cache=PlanCache(disk_dir=str(tmp_path))).run(CFG)
    (path,) = tmp_path.glob("plan-*.pkl")
    _tamper_disk_record(path, spec)

    cache = PlanCache(disk_dir=str(tmp_path))
    result = Session(spec, cache=cache).run(CFG, verify=True)
    assert cache.stats.disk_corrupt == 1
    assert cache.stats.disk_hits == 0
    assert cache.stats.misses == 1
    assert path.with_suffix(".pkl.corrupt").exists()
    assert result.stats.verified is True
    ref = reference_sweep(spec, Grid(spec, CFG.shape, init="random",
                                     seed=CFG.seed), CFG.steps)
    assert result.interior.tobytes() == ref.tobytes()
    # the recompiled plan was re-stored in the current format
    with open(path, "rb") as fh:
        assert pickle.load(fh) == PLAN_FORMAT


# -- the run-time layout guard -----------------------------------------

@pytest.mark.parametrize("plan_kernel,grid_kernel",
                         [("heat1d", "1d5p"), ("1d5p", "heat1d")])
def test_execute_refuses_a_foreign_layout(plan_kernel, grid_kernel):
    """Same interior shape, other halo: the buffers are not the layout
    the proof assumed, so the engine refuses before writing."""
    config = RunConfig(shape=(64,), steps=8, b=4)
    plan = compile_plan(get_stencil(plan_kernel),
                        _schedule(plan_kernel, config))
    grid = Grid(get_stencil(grid_kernel), (64,), init="random", seed=2)
    before = _snapshot(grid)
    with pytest.raises(ValueError, match="buffers of shape"):
        _execute_plan(plan, grid)
    assert _snapshot(grid) == before


@pytest.mark.parametrize("plan_kernel,grid_kernel",
                         [("heat1d", "1d5p"), ("1d5p", "heat1d")])
def test_batched_execute_refuses_a_foreign_layout(plan_kernel, grid_kernel):
    config = RunConfig(shape=(64,), steps=8, b=4)
    plan = compile_plan(get_stencil(plan_kernel),
                        _schedule(plan_kernel, config))
    gspec = get_stencil(grid_kernel)
    bgrid = stack_grids(gspec, [Grid(gspec, (64,), init="random", seed=i)
                                for i in range(3)])
    before = [buf.tobytes() for buf in bgrid.buffers]
    with pytest.raises(ValueError, match="buffers of shape"):
        _execute_plan_batched(plan, bgrid)
    assert [buf.tobytes() for buf in bgrid.buffers] == before


def test_execute_refuses_a_foreign_dtype():
    spec = get_stencil("heat1d")
    plan = compile_plan(spec, _schedule("heat1d", RunConfig(
        shape=(64,), steps=8, b=4)))
    grid = Grid(spec, (64,), init="random", seed=2)
    grid.buffers = [buf.astype(np.float32) for buf in grid.buffers]
    with pytest.raises(ValueError, match="float64 buffers"):
        _execute_plan(plan, grid)


# -- allocation-free warm runs -----------------------------------------

@pytest.mark.parametrize("kernel,shape", [
    ("heat2d", (128, 128)),   # the session-repeat configuration
    ("life", (80, 90)),
    ("fdtd2d", (64, 64)),
])
def test_warm_execute_allocates_under_8kb(kernel, shape):
    """A warm compiled run allocates no per-gather temporary: at 16
    steps and b=4 the buffered ``mode="raise"`` gathers peaked at
    36-102 KB here, the proven ``clip`` gathers at 1.5-5 KB."""
    spec = get_stencil(kernel)
    config = RunConfig(shape=shape, steps=16, b=4, backend="compiled")
    plan = Session(spec, cache=PlanCache()).run(config).plan
    assert plan.stats.batches > 0
    grid = Grid(spec, shape, init="random", seed=1)
    _execute_plan(plan, grid)  # grow this thread's scratch arena
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _execute_plan(plan, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024
