"""Session pipeline: staging, artifact reuse, verification, errors."""

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig, Session, execute, run
from repro.api.backends import BackendUnsupported, get_backend
from repro.engine.cache import PlanCache
from repro.runtime.mutations import drop_action
from repro.stencils import Grid, heat1d, heat2d, reference_sweep

pytestmark = pytest.mark.api


class TestPipelineStages:
    def test_build_returns_artifacts(self):
        session = Session(heat2d())
        built = session.build(RunConfig(shape=(32, 32), steps=8,
                                        scheme="tess", b=4))
        assert built.schedule.steps == 8
        assert built.lattice is not None
        assert built.params == RunConfig(b=4).tile_params()

    def test_execute_reuses_prebuilt_schedule(self):
        """Session.execute on a prebuilt schedule matches Session.run
        and records the schedule's own scheme/shape/steps in the
        stats, whatever the config said."""
        spec = heat2d()
        session = Session(spec)
        cfg = RunConfig(shape=(32, 32), steps=8, scheme="tess", b=4)
        built = session.build(cfg)
        result = session.execute(Grid(spec, (32, 32), seed=0),
                                 built.schedule,
                                 config=RunConfig(steps=999, scheme="naive"))
        ref = session.run(cfg).interior
        assert np.array_equal(ref, result.interior)
        assert result.stats.scheme == built.schedule.scheme
        assert result.stats.steps == 8

    def test_lower_goes_through_the_cache(self):
        from repro.engine.cache import PlanCache

        session = Session(heat2d(), cache=PlanCache())
        built = session.build(RunConfig(shape=(32, 32), steps=8, b=4))
        plan1 = session.lower(built.schedule, built.params)
        plan2 = session.lower(built.schedule, built.params)
        assert plan1 is plan2
        assert session.cache.stats.misses == 1
        assert session.cache.stats.hits == 1

    def test_default_shape_used_when_unset(self):
        result = Session(heat1d()).run(RunConfig(steps=4, b=4))
        assert result.stats.shape == Session(heat1d()).default_shape()


class TestVerification:
    def test_ok_requires_verify(self):
        result = Session(heat2d()).run(
            RunConfig(shape=(24, 24), steps=4, b=4))
        assert result.stats.verified is None
        with pytest.raises(ValueError, match="verify"):
            result.ok

    def test_verify_checks_against_reference(self):
        spec = heat2d()
        result = Session(spec).run(
            RunConfig(shape=(24, 24), steps=4, b=4, verify=True))
        assert result.ok
        ref = reference_sweep(spec, Grid(spec, (24, 24), seed=0), 4)
        assert np.array_equal(ref, result.interior)


class TestSanitize:
    def test_clean_schedule_reports(self):
        result = Session(heat2d()).run(
            RunConfig(shape=(32, 32), steps=8, b=4, sanitize=True))
        assert result.sanitizer is not None
        assert not result.sanitizer.violations
        assert "sanitize" in result.stats.phases

    def test_mutated_schedule_raises(self):
        from repro.runtime.errors import SanitizerViolation

        with pytest.raises(SanitizerViolation):
            Session(heat2d()).run(
                RunConfig(shape=(32, 32), steps=8, b=4, sanitize=True,
                          mutations=("drop-action@0",)))


class TestErrors:
    def test_unknown_backend_lists_registry(self):
        with pytest.raises(ValueError, match="registered backends"):
            get_backend("gpu")

    def test_unsupported_cell_is_typed(self):
        with pytest.raises(BackendUnsupported) as excinfo:
            Session(heat1d()).run(
                RunConfig(shape=(48,), steps=4, b=4, scheme="diamond",
                          backend="distributed"))
        assert excinfo.value.backend == "distributed"

    def test_engine_compiled_on_plan_blind_backend(self):
        """A backend that cannot consume a plan refuses engine=compiled
        instead of silently ignoring the lowering."""
        with pytest.raises(BackendUnsupported):
            Session(heat1d()).run(
                RunConfig(shape=(48,), steps=4, b=4, scheme="tess",
                          backend="baseline:pointwise", engine="compiled"))


class TestForeignGrid:
    """A caller's grid laid out for another spec (same interior, other
    halo) is refused before any buffer is touched, on every backend:
    a heat1d plan on a 1d5p grid used to run silently wrong, a 1d5p
    plan on a heat1d grid to fail half-way through the run."""

    PAIRS = [("heat1d", "1d5p"), ("1d5p", "heat1d")]

    @staticmethod
    def _grids(kernel, n=1):
        spec = get_stencil(kernel)
        return [Grid(spec, (64,), init="random", seed=i) for i in range(n)]

    @staticmethod
    def _snapshot(grids):
        return [buf.tobytes() for g in grids for buf in g.buffers]

    @pytest.mark.parametrize("backend", ["compiled", "serial", "batched"])
    @pytest.mark.parametrize("session_kernel,grid_kernel", PAIRS)
    def test_run_refuses(self, session_kernel, grid_kernel, backend):
        grids = self._grids(grid_kernel)
        before = self._snapshot(grids)
        with pytest.raises(ValueError, match="grid buffers"):
            Session(get_stencil(session_kernel)).run(
                RunConfig(steps=8, b=4, backend=backend), grid=grids[0])
        assert self._snapshot(grids) == before

    @pytest.mark.parametrize("backend", ["compiled", "serial"])
    @pytest.mark.parametrize("session_kernel,grid_kernel", PAIRS)
    def test_execute_refuses(self, session_kernel, grid_kernel, backend):
        session = Session(get_stencil(session_kernel))
        sched = session.build(RunConfig(shape=(64,), steps=8,
                                        b=4)).schedule
        grids = self._grids(grid_kernel)
        before = self._snapshot(grids)
        with pytest.raises(ValueError, match="grid buffers"):
            session.execute(grids[0], sched, backend=backend)
        assert self._snapshot(grids) == before

    @pytest.mark.parametrize("session_kernel,grid_kernel", PAIRS)
    def test_run_many_refuses(self, session_kernel, grid_kernel):
        grids = self._grids(grid_kernel, n=3)
        before = self._snapshot(grids)
        with pytest.raises(ValueError, match="grid buffers"):
            Session(get_stencil(session_kernel)).run_many(
                RunConfig(steps=8, b=4), grids=grids)
        assert self._snapshot(grids) == before


class TestCallerScheduleKey:
    """A caller's schedule is keyed by its content, so it never shares
    a plan-cache entry with a configuration's own build."""

    CFG = RunConfig(shape=(32, 32), steps=8, b=4, backend="compiled")

    def test_mutated_schedule_does_not_poison_the_config(self):
        cache = PlanCache()
        spec = heat2d()
        sched = Session(spec, cache=cache).build(self.CFG).schedule
        Session(spec, cache=cache).execute(
            Grid(spec, (32, 32), seed=3), drop_action(sched),
            config=self.CFG)
        result = Session(spec, cache=cache).run(self.CFG, verify=True)
        assert result.stats.verified is True
        assert result.stats.cache_hits == 0
        ref = reference_sweep(spec, Grid(spec, (32, 32), init="random",
                                         seed=self.CFG.seed),
                              self.CFG.steps)
        assert result.interior.tobytes() == ref.tobytes()

    def test_same_caller_schedule_hits(self):
        cache = PlanCache()
        spec = heat2d()
        sched = Session(spec, cache=cache).build(self.CFG).schedule
        first = Session(spec, cache=cache).execute(
            Grid(spec, (32, 32), seed=3), sched, config=self.CFG)
        second = Session(spec, cache=cache).execute(
            Grid(spec, (32, 32), seed=3), sched, config=self.CFG)
        assert first.stats.plan_compiles == 1
        assert second.stats.cache_hits == 1
        assert second.plan is first.plan
        # Session.lower without params keys by content as well
        assert Session(spec, cache=cache).lower(sched) is first.plan
        assert cache.stats.hits == 2

    def test_build_params_keep_the_config_key(self):
        """The CLI passes the build's params: that run shares the
        configuration's entry, as before."""
        cache = PlanCache()
        spec = heat2d()
        session = Session(spec, cache=cache)
        built = session.build(self.CFG)
        session.execute(Grid(spec, (32, 32), seed=3), built.schedule,
                        config=self.CFG, params=built.params)
        assert session.run(self.CFG).stats.cache_hits == 1


class TestEngineResolution:
    def test_auto_is_naive_for_serial(self):
        result = Session(heat2d()).run(
            RunConfig(shape=(24, 24), steps=4, b=4, backend="serial"))
        assert result.stats.engine == "naive"
        assert result.plan is None

    def test_auto_is_compiled_for_compiled(self):
        result = Session(heat2d()).run(
            RunConfig(shape=(24, 24), steps=4, b=4, backend="compiled"))
        assert result.stats.engine == "compiled"
        assert result.plan is not None

    def test_explicit_compiled_on_serial(self):
        """serial consumes a plan when asked — same bits, engine
        recorded as compiled."""
        session = Session(heat2d())
        naive = session.run(
            RunConfig(shape=(24, 24), steps=4, b=4, backend="serial"))
        lowered = session.run(
            RunConfig(shape=(24, 24), steps=4, b=4, backend="serial",
                      engine="compiled"))
        assert lowered.stats.engine == "compiled"
        assert np.array_equal(naive.interior, lowered.interior)


class TestModuleLevelHelpers:
    def test_run_overrides(self):
        result = run(heat2d(), shape=(24, 24), steps=4, b=4, verify=True)
        assert result.ok

    def test_execute_prebuilt(self):
        spec = heat2d()
        session = Session(spec)
        built = session.build(RunConfig(shape=(24, 24), steps=4, b=4))
        result = execute(spec, Grid(spec, (24, 24), seed=0), built.schedule)
        ref = session.run(RunConfig(shape=(24, 24), steps=4, b=4)).interior
        assert np.array_equal(ref, result.interior)
