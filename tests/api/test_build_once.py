"""Build once per configuration: the config-keyed plan-cache path.

A compiled run's schedule, plan and schedule stats are a pure function
of its configuration, so ``Session.run`` looks the plan cache up before
building.  The differential net under that shortcut:

* verification is bitwise, so one flipped ulp fails a run;
* the key derived from a configuration equals the key of the schedule
  the build would produce, a warm hit gives the same bytes as a cold
  build, and configurations differing in any key field never share an
  entry;
* one warm entry serves every compiled backend, and concurrent callers,
  without any of them changing the shared schedule, plan or stats.
"""

import pickle
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.api.backends import BackendOutcome, CompiledBackend
from repro.api.builder import SCHEMES
from repro.engine.cache import PlanCache, plan_key
from repro.stencils import Grid, heat2d
from repro.stencils.reference import reference_sweep

pytestmark = [pytest.mark.api, pytest.mark.engine]


# -- bitwise verification ------------------------------------------------

def _nudge_one_value(monkeypatch, step):
    """Make the compiled backend move one interior value by ``step``."""
    execute = CompiledBackend.execute

    def nudged(self, ctx):
        out = np.array(execute(self, ctx).interior, copy=True)
        mid = tuple(n // 2 for n in out.shape)
        out[mid] = step(out[mid])
        return BackendOutcome(interior=out)

    monkeypatch.setattr(CompiledBackend, "execute", nudged)


def _verified(spec):
    cfg = RunConfig(shape=(24, 24), steps=6, b=3, backend="compiled",
                    verify=True)
    return Session(spec, cache=PlanCache()).run(cfg).stats.verified


def test_clean_run_verifies_bitwise():
    assert _verified(heat2d()) is True
    assert _verified(get_stencil("life")) is True


def test_one_ulp_fails_verification(monkeypatch):
    _nudge_one_value(monkeypatch, lambda v: np.nextafter(v, np.inf))
    assert _verified(heat2d()) is False


def test_one_ulp_is_inside_the_old_tolerance():
    """The nudge above is invisible to ``allclose(rtol=1e-11)``: the
    test has teeth only because verification is now bitwise."""
    spec = heat2d()
    grid = Grid(spec, (24, 24), init="random", seed=0)
    ref = reference_sweep(spec, grid, 6)
    nudged = ref.copy()
    nudged[12, 12] = np.nextafter(nudged[12, 12], np.inf)
    assert np.allclose(ref, nudged, rtol=1e-11, atol=1e-12)
    assert ref.tobytes() != nudged.tobytes()


def test_flipped_cell_fails_verification(monkeypatch):
    _nudge_one_value(monkeypatch, lambda v: 1 - v)
    assert _verified(get_stencil("life")) is False


# -- cache-key soundness ---------------------------------------------------

#: kernels by dimension; ``fdtd1d`` is a staged two-field system
KERNELS = {"heat1d": 1, "fdtd1d": 1, "heat2d": 2, "life": 2}
SHAPES = {
    1: [(0,), (1,), (7,), (33,)],
    2: [(0, 9), (5, 33), (12, 12), (1, 1)],
}
MUTATIONS = [(), ("drop-action@0",), ("merge-groups@0",),
             ("shift-region@1/0",)]


@st.composite
def run_configs(draw, kernel=None):
    kernel = kernel or draw(st.sampled_from(sorted(KERNELS)))
    shape = draw(st.sampled_from(SHAPES[KERNELS[kernel]]))
    cfg = RunConfig(
        shape=shape,
        steps=draw(st.sampled_from([0, 1, 5, 9])),
        b=draw(st.integers(1, 4)),
        scheme=draw(st.sampled_from(SCHEMES)),
        mutations=draw(st.sampled_from(MUTATIONS)),
        backend="compiled",
        seed=draw(st.integers(0, 3)),
    )
    return kernel, cfg


def _run(session, cfg):
    """``(interior bytes, stats)`` or the type of the error raised."""
    try:
        result = session.run(cfg)
    except Exception as exc:  # compared by type between cold and warm
        return type(exc), None
    return result.interior.tobytes(), result.stats


def _cold(kernel, cfg):
    return _run(Session(get_stencil(kernel), cache=PlanCache()), cfg)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(run_configs())
def test_config_key_is_the_built_schedule_key(case):
    kernel, cfg = case
    session = Session(get_stencil(kernel), cache=PlanCache())
    cfg = cfg.normalized()
    try:
        built = session.build(cfg)
    except Exception:
        return  # refused before any key matters
    assert session.builder.plan_key(session.spec, cfg, cfg.shape) == \
        plan_key(session.spec, built.schedule, built.params)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(run_configs())
def test_warm_hit_matches_cold_build(case):
    kernel, cfg = case
    cold, cold_stats = _cold(kernel, cfg)
    session = Session(get_stencil(kernel), cache=PlanCache())
    fill, _ = _run(session, cfg)
    warm, warm_stats = _run(session, cfg)
    assert fill == cold and warm == cold
    if warm_stats is not None:
        assert warm_stats.cache_hits == 1
        assert warm_stats.plan_compiles == 0
        assert warm_stats.schedule == cold_stats.schedule
        assert warm_stats.phases["build"] > 0


FIELDS = ["kernel", "shape", "steps", "b", "scheme", "mutations"]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(run_configs(), st.sampled_from(FIELDS), st.data())
def test_configs_differing_in_a_key_field_never_share(case, field, data):
    kernel, cfg = case
    other_kernel, other = data.draw(run_configs(
        kernel=None if field == "kernel" else kernel))
    if field == "kernel":
        assume(other_kernel != kernel
               and KERNELS[other_kernel] == KERNELS[kernel])
        other = cfg.with_overrides({"seed": other.seed})
    else:
        value = getattr(other, field)
        assume(value != getattr(cfg, field))
        other = cfg.with_overrides({field: value})

    cache = PlanCache()
    first = Session(get_stencil(kernel), cache=cache)
    second = Session(get_stencil(other_kernel), cache=cache)
    a, b = cfg.normalized(), other.normalized()
    assert first.builder.plan_key(first.spec, a, a.shape) != \
        second.builder.plan_key(second.spec, b, b.shape)

    _run(first, cfg)  # fills (and describes) the first entry
    got, stats = _run(second, other)
    assert got == _cold(other_kernel, other)[0]
    if stats is not None:
        assert stats.cache_hits == 0


# -- checks a hit still runs ----------------------------------------------

WARM = RunConfig(shape=(32, 32), steps=8, b=4, backend="compiled")


def test_hit_still_sanitizes():
    from repro.runtime.errors import SanitizerViolation

    session = Session(heat2d(), cache=PlanCache())
    mutated = WARM.with_overrides({"mutations": ("drop-action@0",)})
    session.run(mutated)  # fills the entry without a sanitizer pass
    with pytest.raises(SanitizerViolation):
        session.run(mutated, sanitize=True)
    clean = session.run(WARM, sanitize=True)
    warm = session.run(WARM, sanitize=True)
    assert warm.stats.cache_hits == 1
    assert warm.sanitizer is not None and not warm.sanitizer.violations
    assert "sanitize" in warm.stats.phases
    assert clean.stats.schedule == warm.stats.schedule


def test_hit_still_admits_before_allocating():
    from repro.runtime.qos import AdmissionRejected, QoSPolicy

    session = Session(heat2d(), cache=PlanCache())
    session.run(WARM)
    hits = session.cache.stats.hits
    with pytest.raises(AdmissionRejected):
        session.run(WARM, qos=QoSPolicy(max_memory_bytes=1))
    assert session.cache.stats.hits == hits  # refused before the lookup


# -- one warm entry, every consumer ----------------------------------------

def _pickles(plan):
    return (pickle.dumps(plan.schedule, protocol=pickle.HIGHEST_PROTOCOL),
            pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL))


def test_one_entry_serves_every_backend_unchanged():
    spec = heat2d()
    session = Session(spec, cache=PlanCache())
    base = RunConfig(shape=(32, 32), steps=8, b=4, engine="compiled",
                     backend="compiled", verify=True)
    warm = session.run(base)
    plan = warm.plan
    before = _pickles(plan)
    summary = dict(warm.stats.schedule)
    # callers scribbling on their stats must not reach the shared copy
    warm.stats.schedule["tasks"] = -1
    hit = session.run(base, seed=1)
    assert hit.stats.schedule == summary
    hit.stats.schedule["tasks"] = -2

    runs = [
        hit,
        session.run(base, backend="batched", batch=3, seed=2),
        session.run(base, backend="threaded", threads=2, seed=3),
        session.run(base, backend="resilient", threads=2, seed=4),
    ]
    for result in runs:
        assert result.plan is plan and result.schedule is plan.schedule
        assert result.stats.verified is True
        assert result.stats.cache_hits == 1
        assert result.stats.plan_compiles == 0
    for result in runs[1:]:
        assert result.stats.schedule == summary
    assert runs[1].stats.cache.batched_hits == 1

    results, errors = {}, []

    def call(seed):
        try:
            res = session.run(base, seed=seed,
                              backend=("compiled", "threaded")[seed % 2],
                              threads=2)
            results[seed] = res
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(10 + i,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for seed, res in results.items():
        assert res.plan is plan and res.stats.verified is True
        grid = Grid(spec, (32, 32), init="random", seed=seed)
        assert res.interior.tobytes() == \
            reference_sweep(spec, grid, 8).tobytes()
    assert _pickles(plan) == before
    assert len(session.cache) == 1
