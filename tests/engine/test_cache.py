"""Plan cache: LRU behaviour, disk tier and autotune reuse.

The acceptance-criteria assertion lives here: the second autotune probe
of identical parameters is a plan-cache *hit* (observable on
``cache.stats``).
"""

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice
from repro.baselines import naive_schedule
from repro.core.schedules import tess_schedule
from repro.engine import (
    PlanCache,
    compile_plan,
    plan_key,
    spec_signature,
)
from repro.engine.plan import _execute_plan

pytestmark = pytest.mark.engine


def _sched(spec, shape=(128,), b=4, steps=8, merged=False):
    lat = make_lattice(spec, shape, b)
    return tess_schedule(spec, shape, lat, steps, merged=merged)


# -- keys ------------------------------------------------------------

def test_spec_signature_distinguishes_operators():
    heat = get_stencil("heat1d")
    five = get_stencil("1d5p")
    life = get_stencil("life")
    sigs = {spec_signature(heat), spec_signature(five),
            spec_signature(life)}
    assert len(sigs) == 3
    # same kernel fetched twice -> same signature
    assert spec_signature(heat) == spec_signature(get_stencil("heat1d"))


def test_plan_key_separates_params_and_options():
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    k0 = plan_key(spec, sched)
    assert k0 == plan_key(spec, sched)
    assert k0 != plan_key(spec, sched, params=(4,))
    assert k0 != plan_key(spec, sched, fuse=False)
    assert k0 != plan_key(spec, sched, batch_threshold=0)


# -- in-memory LRU ---------------------------------------------------

def test_hit_miss_counters_and_identity():
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    cache = PlanCache(capacity=4)
    p1 = cache.get(spec, sched)
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    p2 = cache.get(spec, sched)
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert p1 is p2
    # a structurally identical schedule rebuilt from the same params
    # also hits: the key is parametric, not object identity
    cache.get(spec, _sched(spec))
    assert cache.stats.hits == 2
    assert cache.stats.compile_seconds > 0


def test_lru_eviction_order():
    spec = get_stencil("heat1d")
    cache = PlanCache(capacity=2)
    s_a = _sched(spec, steps=4)
    s_b = _sched(spec, steps=6)
    s_c = _sched(spec, steps=8)
    cache.get(spec, s_a)
    cache.get(spec, s_b)
    cache.get(spec, s_a)          # refresh A; B is now least-recent
    cache.get(spec, s_c)          # evicts B
    assert cache.stats.evictions == 1
    assert len(cache) == 2
    hits = cache.stats.hits
    cache.get(spec, s_a)
    cache.get(spec, s_c)
    assert cache.stats.hits == hits + 2
    cache.get(spec, s_b)          # really gone -> recompiled
    assert cache.stats.misses == 4


def test_cached_plan_still_correct():
    spec = get_stencil("heat2d")
    sched = _sched(spec, shape=(40, 40), b=4, steps=8)
    cache = PlanCache()
    plan = cache.get(spec, sched)
    plan2 = cache.get(spec, sched)
    g = Grid(spec, (40, 40), init="random", seed=3)
    g2 = g.copy()
    from repro.runtime.schedule import _execute_schedule
    ref = _execute_schedule(spec, g, sched)
    assert np.array_equal(ref, _execute_plan(plan2, g2))
    assert plan is plan2


# -- disk tier -------------------------------------------------------

def test_disk_tier_round_trip(tmp_path):
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    c1 = PlanCache(capacity=4, disk_dir=str(tmp_path))
    c1.get(spec, sched)
    assert c1.stats.disk_stores == 1
    assert list(tmp_path.glob("plan-*.pkl"))

    # a fresh cache (new process, conceptually) loads from disk
    c2 = PlanCache(capacity=4, disk_dir=str(tmp_path))
    plan = c2.get(spec, sched)
    assert c2.stats.disk_hits == 1
    assert c2.stats.misses == 0
    g = Grid(spec, (128,), init="random", seed=5)
    g2 = g.copy()
    from repro.runtime.schedule import _execute_schedule
    assert np.array_equal(_execute_schedule(spec, g, sched),
                          _execute_plan(plan, g2))


def test_disk_corruption_is_a_miss(tmp_path):
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    c1 = PlanCache(disk_dir=str(tmp_path))
    c1.get(spec, sched)
    (path,) = tmp_path.glob("plan-*.pkl")
    path.write_bytes(b"not a pickle")
    c2 = PlanCache(disk_dir=str(tmp_path))
    c2.get(spec, sched)
    assert c2.stats.disk_hits == 0
    assert c2.stats.misses == 1
    assert c2.stats.disk_corrupt == 1
    # the corrupted bytes were quarantined, then the recompiled plan
    # re-stored under the original name ...
    assert path.with_suffix(".pkl.corrupt").exists()
    assert c2.stats.disk_stores == 1
    # ... so the next lookup is a healthy disk hit, not a re-corruption
    c3 = PlanCache(disk_dir=str(tmp_path))
    c3.get(spec, sched)
    assert c3.stats.disk_corrupt == 0
    assert c3.stats.disk_hits == 1


def test_disk_truncated_pickle_is_quarantined(tmp_path):
    """A crashed writer leaves a prefix of a valid pickle: same verdict."""
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    c1 = PlanCache(disk_dir=str(tmp_path))
    c1.get(spec, sched)
    (path,) = tmp_path.glob("plan-*.pkl")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    c2 = PlanCache(disk_dir=str(tmp_path))
    plan = c2.get(spec, sched)
    assert plan is not None
    assert c2.stats.disk_corrupt == 1
    assert c2.stats.misses == 1
    assert path.with_suffix(".pkl.corrupt").exists()
    # the recompiled plan was re-stored under the original name
    assert c2.stats.disk_stores == 1


def test_disk_wrong_key_is_plain_miss_not_corruption(tmp_path):
    """A healthy pickle of the wrong entry (hash collision, foreign
    file) is a miss but NOT corruption — it is not quarantined."""
    import pickle

    from repro.engine.cache import PLAN_FORMAT

    spec = get_stencil("heat1d")
    sched_a = _sched(spec, steps=4)
    sched_b = _sched(spec, steps=8)
    c1 = PlanCache(disk_dir=str(tmp_path))
    c1.get(spec, sched_a)
    plan_b = compile_plan(spec, sched_b)
    (path,) = tmp_path.glob("plan-*.pkl")
    with open(path, "wb") as fh:
        pickle.dump(PLAN_FORMAT, fh)    # the current format, wrong key
        pickle.dump((plan_key(spec, sched_b), plan_b), fh)
    c2 = PlanCache(disk_dir=str(tmp_path))
    c2.get(spec, sched_a)
    assert c2.stats.disk_corrupt == 0
    assert c2.stats.disk_hits == 0
    assert c2.stats.misses == 1
    assert path.exists()  # healthy file left alone (then overwritten)


@pytest.mark.parametrize("tag", [None, "repro-plan/1"],
                         ids=["untagged-3.0.0", "other-tag"])
def test_disk_record_of_another_format_is_plain_miss(tmp_path, tag):
    """A record of another plan format — 3.0.0's untagged ``(key,
    plan)`` or another tag — is a plain miss, not corruption; the
    recompile overwrites it in the current format."""
    import pickle

    from repro.engine.cache import PLAN_FORMAT

    spec = get_stencil("heat1d")
    sched = _sched(spec)
    c1 = PlanCache(disk_dir=str(tmp_path))
    c1.get(spec, sched)
    (path,) = tmp_path.glob("plan-*.pkl")
    with open(path, "wb") as fh:
        if tag is not None:
            pickle.dump(tag, fh)
        pickle.dump((plan_key(spec, sched), compile_plan(spec, sched)), fh)
    c2 = PlanCache(disk_dir=str(tmp_path))
    c2.get(spec, sched)
    assert c2.stats.disk_hits == 0
    assert c2.stats.misses == 1
    assert c2.stats.disk_corrupt == 0
    assert not path.with_suffix(".pkl.corrupt").exists()
    assert c2.stats.disk_stores == 1
    with open(path, "rb") as fh:
        assert pickle.load(fh) == PLAN_FORMAT
    c3 = PlanCache(disk_dir=str(tmp_path))
    c3.get(spec, sched)
    assert c3.stats.disk_hits == 1


def test_cache_stats_dict_round_trips_disk_corrupt():
    """cache_delta reconstructs CacheStats from as_dict keys; the new
    counter must survive the round trip."""
    from repro.api import cache_delta
    from repro.engine.cache import CacheStats

    before = CacheStats().as_dict()
    after = CacheStats(disk_corrupt=2, misses=3).as_dict()
    delta = cache_delta(before, after)
    assert delta.disk_corrupt == 2
    assert delta.misses == 3
    st = CacheStats(disk_corrupt=1)
    st.reset()
    assert st.disk_corrupt == 0


# -- autotune: second probe of identical params hits -----------------

def test_autotune_second_probe_hits_cache():
    from repro.autotune import grid_search

    spec = get_stencil("heat1d")
    cache = PlanCache(capacity=64)
    kw = dict(machine=None, cores=1, objective="wallclock", cache=cache,
              repeat=1, depths=[2, 4], width_factors=(1, 2))
    first = grid_search(spec, (512,), 16, **kw)
    assert first and all(r.measured for r in first)
    probes = cache.stats.misses
    assert probes == len(first)
    assert cache.stats.hits == 0

    # identical sweep: every probe is now a hit, nothing recompiles
    second = grid_search(spec, (512,), 16, **kw)
    assert len(second) == len(first)
    assert cache.stats.misses == probes
    assert cache.stats.hits == probes


def test_tune_tessellation_wallclock_uses_cache():
    from repro.autotune import tune_tessellation

    spec = get_stencil("heat1d")
    cache = PlanCache(capacity=64)
    best = tune_tessellation(spec, (512,), 16, machine=None, cores=1,
                             objective="wallclock", cache=cache, repeat=1)
    assert best.measured and best.time_s > 0
    # coordinate descent revisits the coarse winner -> at least one hit
    assert cache.stats.hits >= 1
