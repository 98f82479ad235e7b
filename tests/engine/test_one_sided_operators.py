"""Linear operators without a negative (or without a centre) tap.

A batch gathers tap ``k`` from ``flat_src[off_k - base:]`` at the
indices widened once by ``base = min(0, *offsets)``.  The clamp at 0
matters when every offset is positive: without it the scatter view
``flat_dst[-base:]`` would start past the buffer's end.  These
operators run through the compiled, batched and threaded backends and
must match ``reference_sweep`` bit for bit.
"""

from __future__ import annotations

import pytest

from repro import Grid
from repro.api import RunConfig, Session
from repro.stencils.operators import LinearStencilOperator
from repro.stencils.reference import reference_sweep
from repro.stencils.spec import StencilSpec

pytestmark = pytest.mark.engine

OPERATORS = {
    "right-only": (((1,), (2,)), (0.625, 0.375)),
    "no-centre-1d": (((-1,), (1,)), (0.5, 0.5)),
    "star-no-centre-2d": (((-1, 0), (1, 0), (0, -1), (0, 1)),
                          (0.25, 0.3125, 0.1875, 0.25)),
}
SHAPES = {1: (203,), 2: (37, 29)}
STEPS = 9
SEED = 11


def _spec(name):
    offsets, coeffs = OPERATORS[name]
    ndim = len(offsets[0])
    return StencilSpec(name, ndim, LinearStencilOperator(offsets, coeffs),
                       shape="custom")


def _reference(spec, shape, seed):
    grid = Grid(spec, shape, init="random", seed=seed)
    return reference_sweep(spec, grid, STEPS)


def _same_bytes(out, ref):
    return (out.dtype == ref.dtype and out.shape == ref.shape
            and out.tobytes() == ref.tobytes())


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("backend,threads", [("compiled", 1),
                                             ("threaded", 2)])
def test_single_instance_matches_sweep(name, backend, threads):
    spec = _spec(name)
    shape = SHAPES[spec.ndim]
    config = RunConfig(shape=shape, steps=STEPS, b=4, seed=SEED,
                       backend=backend, engine="compiled", threads=threads)
    result = Session(spec).run(config)
    if backend == "compiled":
        # the gather path, not only slices, ran
        assert result.plan.stats.batches > 0
    assert _same_bytes(result.interior, _reference(spec, shape, SEED))


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_batched_instances_match_sweep(name):
    spec = _spec(name)
    shape = SHAPES[spec.ndim]
    config = RunConfig(shape=shape, steps=STEPS, b=4, seed=SEED,
                       backend="batched", engine="compiled")
    results = Session(spec).run_many(config, batch=3)
    assert len(results) == 3
    assert results[0].plan.stats.batches > 0
    for i, res in enumerate(results):
        assert _same_bytes(res.interior, _reference(spec, shape, SEED + i))
