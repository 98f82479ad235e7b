"""What a cached plan holds, in bytes.

* ``PlanStats.index_bytes`` counts every index array a unit holds: a
  batch's ``idx`` and, for a staged batch, each stage's positions.
* The resident array bytes of one cache entry — every array its units
  hold plus its schedule's table — stay at most 55% of what 3.0.0 held,
  which kept the table and every flat index at 64 bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig
from repro.api.builder import ScheduleBuilder
from repro.engine.cache import PlanCache

from tests.engine.test_golden_digests import index_arrays

pytestmark = pytest.mark.engine

#: resident bytes per entry at 3.0.0, measured with :func:`resident_bytes`
BYTES_3_0_0 = {
    ("heat2d", (128, 128), 16): 3_498_712,
    ("life", (84, 84), 16): 1_521_512,
    ("fdtd2d", (64, 64), 8): 1_241_264,
}
#: the share of those bytes an entry may hold now
MAX_SHARE = 0.55


def _cached_plan(name, shape, steps):
    spec = get_stencil(name)
    config = RunConfig(shape=shape, steps=steps, b=4).normalized()
    built = ScheduleBuilder().build(spec, config)
    return PlanCache().get(spec, built.schedule, params=built.params)


def _arrays(x, out):
    if isinstance(x, np.ndarray):
        out.append(x)
    elif isinstance(x, (tuple, list)):
        for e in x:
            _arrays(e, out)


def _owner(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def resident_bytes(plan) -> int:
    """Bytes of the distinct arrays a cached plan keeps alive: every
    array its units hold (bounds, indices, positions) and its table."""
    found = []
    for stream in plan.streams:
        for unit in stream:
            for slot in type(unit).__slots__:
                _arrays(getattr(unit, slot, None), found)
    table = plan.schedule.table()
    found += [table.task, table.t, table.lo, table.hi, table.group]
    owners = {id(o): o for o in map(_owner, found)}
    return sum(o.nbytes for o in owners.values())


@pytest.mark.parametrize("name,shape,steps", [
    ("heat2d", (128, 128), 16),
    ("life", (84, 84), 16),
    ("fdtd1d", (400,), 8),
    ("fdtd2d", (64, 64), 8),
    ("shallow_water", (96, 96), 8),
    ("gray_scott", (96, 96), 8),
])
def test_index_bytes_counts_every_index_array(name, shape, steps):
    plan = _cached_plan(name, shape, steps)
    held = sum(a.nbytes for stream in plan.streams for unit in stream
               for a in index_arrays(unit))
    assert plan.stats.batches > 0
    assert plan.stats.index_bytes == held


@pytest.mark.parametrize("key", sorted(BYTES_3_0_0), ids=lambda k: k[0])
def test_cache_entry_bytes_at_most_55_percent_of_3_0_0(key):
    plan = _cached_plan(*key)
    assert resident_bytes(plan) <= MAX_SHARE * BYTES_3_0_0[key]
