"""The one stats schema — and the compile-counter double-counting fix.

Historically each executor family reported its own stats object and a
resilient run that retried or restarted a group could recount the
plan-cache counters on every replay.  The facade compiles the plan
exactly once, *before* execution, so:

* ``RunStats.plan_compiles`` is the per-run plan-cache delta (local
  backends) or the rank-side tally (distributed backends), never both;
* retries/restores replay the already-compiled plan and must not bump
  either counter.
"""

import numpy as np
import pytest

from repro.api import RunConfig, Session
from repro.engine.cache import PlanCache
from repro.runtime import FaultPlan, FaultSpec, ResiliencePolicy
from repro.stencils import heat1d, heat2d

pytestmark = [pytest.mark.api, pytest.mark.engine]


def _resilient_config(fault_plan=None):
    return RunConfig(shape=(48, 48), steps=8, scheme="tess", b=4,
                     backend="resilient", engine="compiled", threads=2,
                     resilience=ResiliencePolicy(), fault_plan=fault_plan,
                     verify=True)


class TestNoDoubleCounting:
    def test_crash_retry_compiles_once(self):
        """Regression: an injected crash forces a group replay, but the
        plan was compiled before execution — the replay reruns it, so
        the compile counter stays at one."""
        session = Session(heat2d(), cache=PlanCache())
        plan = FaultPlan([FaultSpec("crash", group=1, task=0)])
        result = session.run(_resilient_config(plan))

        assert result.stats.resilience.restores >= 1  # fault fired
        assert result.ok  # and was recovered from
        assert result.stats.plan_compiles == 1
        assert result.stats.cache_hits == 0
        assert result.stats.cache.misses == 1
        assert result.stats.cache.hits == 0

    def test_restore_replay_compiles_once(self):
        """A corruption restore replays a whole group — still one
        compile."""
        session = Session(heat2d(), cache=PlanCache())
        plan = FaultPlan([FaultSpec("corrupt", group=2, task=0)])
        result = session.run(_resilient_config(plan))

        assert result.stats.resilience.restores >= 1
        assert result.ok
        assert result.stats.plan_compiles == 1

    def test_second_run_is_a_cache_hit(self):
        """Identical config through the same session: zero compiles,
        one hit — the per-run delta, not the cache's lifetime tally."""
        session = Session(heat2d(), cache=PlanCache())
        plan = FaultPlan([FaultSpec("crash", group=1, task=0)])
        first = session.run(_resilient_config(plan))
        second = session.run(_resilient_config(plan))

        assert first.stats.plan_compiles == 1
        assert second.stats.plan_compiles == 0
        assert second.stats.cache_hits == 1
        assert np.array_equal(first.interior, second.interior)

    def test_phase_replay_does_not_recount(self):
        """Distributed: a dropped exchange forces a phase replay; the
        compile tally must match the fault-free run exactly."""
        session = Session(heat1d())
        base = RunConfig(shape=(200,), steps=8, scheme="tess", b=4,
                         backend="distributed", ranks=4, verify=True)
        clean = session.run(base)
        replayed = session.run(
            base, fault_plan=FaultPlan([FaultSpec("drop", group=2, task=1)]),
            resilience=ResiliencePolicy())

        assert replayed.stats.comm.phase_restarts >= 1
        assert replayed.stats.plan_compiles == clean.stats.plan_compiles
        assert np.array_equal(clean.interior, replayed.interior)

    def test_prebuilt_plan_counts_zero(self):
        """A plan handed in explicitly was not compiled by this run."""
        session = Session(heat2d(), cache=PlanCache())
        cfg = RunConfig(shape=(32, 32), steps=8, scheme="tess", b=4,
                        backend="compiled", engine="compiled").normalized()
        built = session.build(cfg)
        plan = session.lower(built.schedule, built.params)
        from repro.stencils import Grid

        result = session.execute(Grid(heat2d(), (32, 32), seed=0),
                                 config=cfg, plan=plan)
        assert result.stats.plan_compiles == 0
        assert result.stats.cache_hits == 0


class TestOneSchema:
    """Every backend family fills the same RunStats shape."""

    def test_local_run_blocks(self):
        result = Session(heat2d()).run(
            RunConfig(shape=(32, 32), steps=8, scheme="tess", b=4,
                      backend="serial", verify=True))
        st = result.stats
        assert st.comm is None and st.resilience is None
        assert st.verified is True
        assert set(st.phases) >= {"build", "execute", "verify"}
        assert st.points == 32 * 32 * 8

    def test_resilient_run_blocks(self):
        result = Session(heat2d()).run(_resilient_config())
        st = result.stats
        assert st.resilience is not None and st.comm is None
        assert st.cache is not None  # engine=compiled lowered a plan
        assert "lower" in st.phases

    def test_distributed_run_blocks(self):
        result = Session(heat1d()).run(
            RunConfig(shape=(200,), steps=8, scheme="tess", b=4,
                      backend="distributed", ranks=4))
        st = result.stats
        assert st.comm is not None and st.resilience is None
        assert st.comm.messages > 0

    @pytest.mark.parametrize("backend", ["serial", "compiled", "threaded",
                                         "baseline:pointwise"])
    def test_as_dict_is_uniform(self, backend):
        result = Session(heat2d()).run(
            RunConfig(shape=(32, 32), steps=4, scheme="tess", b=4,
                      backend=backend, verify=True))
        d = result.stats.as_dict()
        assert {"backend", "scheme", "engine", "shape", "steps", "phases",
                "schedule", "events", "comm", "resilience", "cache",
                "plan_compiles", "cache_hits", "verified"} <= set(d)
        assert d["backend"] == backend
        assert d["verified"] is True

    def test_describe_mentions_counters(self):
        session = Session(heat2d(), cache=PlanCache())
        result = session.run(
            RunConfig(shape=(32, 32), steps=8, scheme="tess", b=4,
                      backend="compiled"))
        line = result.stats.describe()
        assert "plan_compiles=1" in line
        assert "backend=compiled" in line
