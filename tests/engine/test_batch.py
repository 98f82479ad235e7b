"""The batched backend's contract: N stacked instances, bit-identical.

``Session.run_many`` over N independent instances must produce exactly
the arrays N independent ``backend="compiled"`` runs produce — the
batch axis only changes array traversal (one kernel dispatch serves
the whole stack), never per-point float operation order.  Both
lowering paths (slice ops for large rectangles, flat-index gather
batches for small ones) are pinned, plus the refusal surface and the
``batched_hits`` cache counter's wire format.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Grid, get_stencil
from repro.api import RunConfig, Session
from repro.api.backends import BackendUnsupported
from repro.engine import BatchGrid, plan_supports_batch, stack_grids
from repro.engine.cache import CacheStats

pytestmark = pytest.mark.engine


def _solo_interiors(session, config, n):
    out = []
    for i in range(n):
        cfg = config.with_overrides(
            {"backend": "compiled", "engine": "compiled", "batch": 1,
             "seed": config.seed + i})
        out.append(session.run(cfg).interior.copy())
    return out


def _assert_batch_matches(kernel, shape, scheme, steps, n, *, b=4,
                          seed=3):
    session = Session(get_stencil(kernel))
    config = RunConfig(shape=shape, steps=steps, scheme=scheme, b=b,
                       seed=seed, backend="batched")
    results = session.run_many(config, batch=n)
    solo = _solo_interiors(session, config.normalized(), n)
    assert len(results) == n
    for i, (res, ref) in enumerate(zip(results, solo)):
        assert np.array_equal(res.interior, ref), (
            f"instance {i} of {kernel}/{scheme} batch diverged")
        assert res.interior.tobytes() == ref.tobytes()


# -- bit-identity across the matrix -----------------------------------

@pytest.mark.parametrize("kernel,shape", [
    ("heat1d", (128,)),
    ("heat2d", (24, 24)),
    ("heat2d", (19, 23)),  # stretched: per-axis widths differ
    ("life", (20, 20)),
])
@pytest.mark.parametrize("scheme", ["tess", "diamond", "mwd"])
def test_batch_bit_identical(kernel, shape, scheme):
    _assert_batch_matches(kernel, shape, scheme, steps=8, n=3)


def test_batch_zero_steps():
    _assert_batch_matches("heat1d", (64,), "tess", steps=0, n=4)


def test_batch_slice_path():
    # batch_threshold=1 forces every fused rectangle onto the slice
    # lowering; the flat-index default covers the gather path
    from repro.engine.batch import _execute_plan_batched

    session = Session(get_stencil("heat2d"))
    config = RunConfig(shape=(24, 24), steps=6, scheme="tess", b=4,
                       seed=3).normalized()
    built = session.build(config)
    plan = session.lower(built.schedule, built.params, batch_threshold=1,
                         batched=True)
    assert plan.stats.batches == 0
    assert plan.stats.sliced_actions == 268
    grids = [Grid(session.spec, (24, 24), init="random", seed=3 + i)
             for i in range(3)]
    out = _execute_plan_batched(plan, stack_grids(session.spec, grids))
    solo = _solo_interiors(session, config, 3)
    for i, ref in enumerate(solo):
        assert (out[i].dtype == ref.dtype and out[i].shape == ref.shape
                and out[i].tobytes() == ref.tobytes()), (
            f"instance {i} of the slice-lowered batch diverged")


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    steps=st.integers(min_value=0, max_value=10),
    size=st.integers(min_value=33, max_value=90),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batch_property_heat1d(n, steps, size, seed):
    """Any (N, steps, shape, seed): run_many == N compiled runs."""
    _assert_batch_matches("heat1d", (size,), "tess", steps=steps, n=n,
                          seed=seed)


# -- refusal surface --------------------------------------------------

def test_batched_refuses_overlapped():
    session = Session(get_stencil("heat1d"))
    with pytest.raises(BackendUnsupported):
        session.run(RunConfig(shape=(64,), steps=4, scheme="overlapped",
                              backend="batched"))


def test_batched_refuses_naive_engine():
    session = Session(get_stencil("heat1d"))
    with pytest.raises(BackendUnsupported):
        session.run(RunConfig(shape=(64,), steps=4, backend="batched",
                              engine="naive"))


def test_run_many_rejects_other_backends():
    session = Session(get_stencil("heat1d"))
    with pytest.raises(ValueError):
        session.run_many(RunConfig(shape=(64,), steps=4,
                                   backend="threaded"), batch=2)


def test_stack_grids_rejects_mixed_shapes():
    spec = get_stencil("heat1d")
    g1 = Grid(spec, (32,), init="random", seed=0)
    g2 = Grid(spec, (48,), init="random", seed=1)
    with pytest.raises(ValueError):
        stack_grids(spec, [g1, g2])


def test_plan_supports_batch_accepts_linear_plans():
    from repro.engine import compile_plan

    session = Session(get_stencil("heat1d"))
    built = session.build(RunConfig(shape=(128,), steps=8, b=4), (128,))
    assert plan_supports_batch(
        compile_plan(session.spec, built.schedule)) is None


# -- BatchGrid mechanics ----------------------------------------------

def test_batchgrid_scatter_roundtrip():
    spec = get_stencil("heat1d")
    grids = [Grid(spec, (40,), init="random", seed=i) for i in range(3)]
    before = [[b.copy() for b in g.buffers] for g in grids]
    bgrid = stack_grids(spec, grids)
    assert isinstance(bgrid, BatchGrid)
    assert bgrid.n == 3
    for i in range(3):
        assert np.array_equal(bgrid.instance_interior(i, 0),
                              grids[i].interior(0))
    bgrid.buffers[0] += 1.0
    bgrid.scatter(grids)
    for g, pair in zip(grids, before):
        assert np.array_equal(g.buffers[0], pair[0] + 1.0)
        assert np.array_equal(g.buffers[1], pair[1])


@pytest.mark.parametrize("dtype", [np.float64, np.uint8])
@pytest.mark.parametrize("shift", [0, 3])
def test_put_many_matches_the_2d_scatter(dtype, shift):
    """The instance-by-instance scatter writes what ``flat[:, shift:][:,
    ish] = vals`` writes, and nothing else."""
    from repro.engine.kernels import put_many

    rng = np.random.default_rng(shift)
    ish = rng.permutation(97)[:60].astype(np.intp)
    vals = rng.integers(0, 200, size=(4, 60)).astype(dtype)
    want = rng.integers(0, 200, size=(4, 100)).astype(dtype)
    got = want.copy()
    want[:, shift:][:, ish] = vals
    put_many(got, ish, shift, vals)
    assert np.array_equal(got, want)


# -- cache amortisation counter ---------------------------------------

def test_batched_hits_counter_and_wire_format():
    session = Session(get_stencil("heat1d"))
    cfg = RunConfig(shape=(64,), steps=6, backend="batched", batch=2)
    session.run_many(cfg)
    first = session.run_many(cfg)[0]
    cache = first.stats.cache
    assert cache is not None
    data = cache.as_dict()
    assert "batched_hits" in data
    # round trip through the JSON wire format both ways
    assert CacheStats(**data).batched_hits == data["batched_hits"]
    legacy = dict(data)
    legacy.pop("batched_hits")  # pre-1.7 server payload
    assert CacheStats(**legacy).batched_hits == 0


def test_batched_hits_counts_amortised_lookups():
    from repro.engine.cache import PlanCache

    cache = PlanCache(capacity=4)
    session = Session(get_stencil("heat1d"))
    spec = session.spec
    sched = session.build(RunConfig(shape=(64,), steps=4, b=4),
                          (64,)).schedule
    cache.get(spec, sched)
    assert cache.stats.batched_hits == 0
    cache.get(spec, sched, batched=True)
    assert cache.stats.hits == 1
    assert cache.stats.batched_hits == 1
    cache.get(spec, sched)
    assert cache.stats.hits == 2
    assert cache.stats.batched_hits == 1
