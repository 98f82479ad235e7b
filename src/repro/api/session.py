"""Session — the one pipeline every execution path flows through.

::

    StencilSpec --ScheduleBuilder--> RegionSchedule
                --engine lowering--> CompiledPlan   (optional)
                --Backend.execute--> interior + RunStats

A :class:`Session` binds a stencil spec to a plan cache and a schedule
builder and exposes the pipeline at three levels:

* :meth:`Session.run` — everything from a :class:`RunConfig` (build,
  sanitize, lower, execute, verify);
* :meth:`Session.execute` — run prebuilt artifacts (schedule, lattice,
  plan) through a backend;
* :meth:`Session.build` / :meth:`Session.lower` — the individual
  stages, for callers (autotuner, benchmarks) that reuse artifacts
  across many runs.

Module-level :func:`run` / :func:`execute` are one-shot conveniences
that create a throwaway session.

The session is the only way into an executor and the only place the
sanitizer pre-flight runs (:meth:`Session._sanitize`).

Build once per configuration: a run that lowers to a compiled plan
first looks its configuration up in the plan cache
(:meth:`ScheduleBuilder.plan_key`, :meth:`PlanCache.lookup`).  A hit
supplies the schedule, plan, lattice and schedule stats that the run
which filled the entry built; nothing is rebuilt.  A miss builds and
lowers, and the lowering records the stats for the next run.

Stats discipline: the compiled plan for one run is obtained **once**,
before execution, through the session's plan cache.  Retries and
restarts inside the resilient backend replay the already-compiled
plan, so ``RunStats.plan_compiles`` counts each compile exactly once
— the local backends report the per-run cache delta, the distributed
backends report the rank-side tally from ``CommStats``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.api.backends import (
    Backend,
    BackendUnsupported,
    ExecutionContext,
    get_backend,
)
from repro.api.builder import BuiltSchedule, ScheduleBuilder
from repro.api.config import RunConfig
from repro.api.stats import RunResult, RunStats, cache_delta
from repro.engine.cache import CacheStats
from repro.runtime.schedule import schedule_stats
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec

__all__ = ["Session", "run", "execute"]


class Session:
    """A stencil spec bound to a plan cache and a schedule builder."""

    def __init__(self, spec: StencilSpec, *, cache=None,
                 builder: Optional[ScheduleBuilder] = None):
        from repro.stencils.staged import canonical_spec

        # a trivial 1-stage staged wrapper IS its plain spec: unwrap at
        # the session boundary so plans, cache keys and stats are
        # identical and no drive-loop path ever forks on "staged"
        self.spec = canonical_spec(spec)
        if cache is None:
            from repro.engine.cache import default_cache

            cache = default_cache()
        self.cache = cache
        self.builder = builder or ScheduleBuilder()

    # -- individual pipeline stages -----------------------------------

    def default_shape(self) -> Tuple[int, ...]:
        return self.builder.default_shape(self.spec)

    def build(self, config: RunConfig,
              shape: Optional[Tuple[int, ...]] = None) -> BuiltSchedule:
        """Stage 1: RunConfig -> RegionSchedule (+ lattice)."""
        return self.builder.build(self.spec, config.normalized(), shape)

    def lower(self, schedule, params: Tuple = (), *,
              batch_threshold: int = 4096, fuse: bool = True,
              batched: bool = False):
        """Stage 2: RegionSchedule -> CompiledPlan, via the plan cache.

        ``batched=True`` marks the lookup as serving a many-instances
        run (same plan, same key — only the cache's ``batched_hits``
        amortisation counter moves).
        """
        return self.cache.get(self.spec, schedule, params=params,
                              batch_threshold=batch_threshold, fuse=fuse,
                              batched=batched)

    # -- the pipeline -------------------------------------------------

    def run(self, config: Optional[RunConfig] = None, *,
            grid: Optional[Grid] = None, **overrides) -> RunResult:
        """Run the full pipeline from a configuration."""
        config = (config or RunConfig()).with_overrides(overrides)
        return self._pipeline(config.normalized(), grid=grid)

    def run_many(self, config: Optional[RunConfig] = None, *,
                 grids=None, **overrides):
        """Run N independent instances as one stacked batch.

        The many-instances front door of the ``batched`` backend: the
        members either come in as ``grids`` (all sharing one shape) or
        are created from ``config.batch`` with instance ``i`` seeded
        ``seed + i``.  One plan lookup, one schedule walk, one kernel
        dispatch per unit serve the whole batch; returns one
        :class:`~repro.api.stats.RunResult` per instance, each
        bit-identical to an independent ``backend="compiled"`` run of
        that instance.  With ``verify=True`` every member (not just the
        first) is checked against the naive sweep.
        """
        from dataclasses import replace as _replace

        config = (config or RunConfig()).with_overrides(overrides)
        config = config.normalized()
        if config.backend not in ("batched", "serial"):
            raise ValueError(
                f"run_many runs backend 'batched', got {config.backend!r}"
            )
        config = _replace(config, backend="batched")
        if grids is not None:
            grids = list(grids)
            if not grids:
                raise ValueError("run_many needs at least one grid")
            config = _replace(config, batch=len(grids),
                              shape=grids[0].shape)
        shape = config.shape or self.default_shape()
        config = _replace(config, shape=tuple(shape))
        if grids is None:
            grids = [
                Grid(self.spec, tuple(shape), init="random",
                     seed=config.seed + i)
                for i in range(config.batch)
            ]
        snapshots = ([g.copy() for g in grids] if config.verify
                     else None)
        # no fallback dispatch here: a degraded hop onto a
        # single-instance backend could not produce per-member results
        result = self._pipeline_once(config, grid=grids[0],
                                     batch_grids=grids)
        results = []
        for i, g in enumerate(grids):
            interior = g.interior(config.steps)
            verified = result.stats.verified
            if config.verify and i > 0:
                verified = self._verify(snapshots[i], interior,
                                        config.steps)
            stats = (result.stats if i == 0 else
                     _replace(result.stats, verified=verified))
            results.append(RunResult(
                interior=interior, stats=stats, config=config, grid=g,
                schedule=result.schedule, lattice=result.lattice,
                plan=result.plan, sanitizer=result.sanitizer,
            ))
        return results

    def execute(self, grid: Grid, schedule=None, *,
                config: Optional[RunConfig] = None, lattice=None,
                plan=None, params: Optional[Tuple] = None,
                **overrides) -> RunResult:
        """Run prebuilt artifacts through a backend.

        When ``schedule`` is given, its scheme/shape/steps override the
        configuration's so the stats always describe what actually ran.
        """
        config = (config or RunConfig()).with_overrides(overrides)
        return self._pipeline(config.normalized(), grid=grid,
                              schedule=schedule, lattice=lattice,
                              plan=plan, params=params)

    # -- internals ----------------------------------------------------

    def _pipeline(self, config: RunConfig, *, grid=None, schedule=None,
                  lattice=None, plan=None,
                  params: Optional[Tuple] = None) -> RunResult:
        """Dispatch one run: straight through, or via the QoS fallback
        chain when the config carries one.  ``config.qos is None`` takes
        the exact pre-QoS code path (zero-overhead default)."""
        qos = config.qos
        if qos is not None and qos.fallback:
            from repro.api.fallback import run_with_fallback

            return run_with_fallback(self, config, grid=grid,
                                     schedule=schedule, lattice=lattice,
                                     plan=plan, params=params)
        return self._pipeline_once(config, grid=grid, schedule=schedule,
                                   lattice=lattice, plan=plan,
                                   params=params)

    def _pipeline_once(self, config: RunConfig, *, grid=None,
                       schedule=None, lattice=None, plan=None,
                       params: Optional[Tuple] = None,
                       batch_grids=None) -> RunResult:
        spec = self.spec
        backend = get_backend(config.backend)
        phases: Dict[str, float] = {}

        if schedule is not None:
            config = replace(config, scheme=schedule.scheme,
                             shape=tuple(schedule.shape),
                             steps=schedule.steps)
        if plan is not None and schedule is None and backend.kind == "schedule":
            config = replace(config, scheme=plan.scheme,
                             shape=tuple(plan.shape), steps=plan.steps)

        shape = config.shape
        if shape is None:
            shape = grid.shape if grid is not None else self.default_shape()
            config = replace(config, shape=tuple(shape))

        # admit + arm the QoS budget ------------------------------------
        budget = None
        if config.qos is not None:
            from repro.runtime.qos import RunBudget, admit

            admit(spec, tuple(shape), config)  # before any allocation
            # armed here so build/lower time counts against the
            # deadline; each fallback hop re-enters and re-arms
            budget = RunBudget.from_policy(config.qos)

        # build, or find the whole build in the plan cache --------------
        engine = self._resolve_engine(config, backend)
        need_schedule = backend.kind == "schedule" and schedule is None \
            and plan is None
        need_lattice = backend.kind == "lattice" and lattice is None
        sched_stats = delta = None
        by_config = (need_schedule and engine == "compiled"
                     and params is None)
        if by_config:
            # a compiled run's schedule, plan and stats are a pure
            # function of the configuration: look them up before
            # building anything
            t0 = time.perf_counter()
            batched = backend.name == "batched"
            entry = self.cache.lookup(
                self.builder.plan_key(spec, config, shape), batched=batched)
            if entry is not None:
                plan, lattice = entry.plan, entry.lattice
                schedule = plan.schedule
                sched_stats = dict(entry.schedule_stats)
                delta = CacheStats(hits=1, batched_hits=int(batched))
                need_schedule = False
                phases["build"] = time.perf_counter() - t0
                phases["lower"] = 0.0  # the plan came with the lookup
        if need_schedule or need_lattice:
            t0 = time.perf_counter()
            if need_schedule:
                built = self.builder.build(spec, config, shape)
                schedule, lattice = built.schedule, built.lattice
                if params is None:
                    params = built.params
            else:
                lattice = self.builder.lattice(spec, shape, config)
            phases["build"] = time.perf_counter() - t0

        reason = backend.supports(spec, config, schedule)
        if reason is not None:
            raise BackendUnsupported(backend.name, reason)

        trace = config.trace
        if trace is None and backend.name in ("resilient", "distributed",
                                              "elastic"):
            from repro.runtime.tracing import ExecutionTrace

            trace = ExecutionTrace(scheme=config.scheme)

        # sanitize ------------------------------------------------------
        sanitizer_report = None
        if config.sanitize and (schedule is not None
                                or backend.kind == "lattice"):
            t0 = time.perf_counter()
            sanitizer_report = self._sanitize(config, backend, schedule,
                                              lattice, trace)
            phases["sanitize"] = time.perf_counter() - t0
            sanitizer_report.raise_if_violations()

        if grid is None:
            grid = Grid(spec, tuple(shape), init="random", seed=config.seed)
        if (backend.name == "batched" and batch_grids is None
                and config.batch > 1):
            # config-driven batch: instance 0 is the caller's grid,
            # further members seed deterministically with seed + i
            batch_grids = [grid] + [
                Grid(spec, tuple(shape), init="random",
                     seed=config.seed + i)
                for i in range(1, config.batch)
            ]

        # lower ---------------------------------------------------------
        if engine == "compiled" and plan is None:
            if by_config:
                # describe the entry so the next run with this config
                # finds the whole build through lookup()
                sched_stats = schedule_stats(schedule)
            t0 = time.perf_counter()
            before = self.cache.stats.as_dict()
            plan = self.cache.get(
                spec, schedule,
                params if params is not None else config.tile_params(),
                batched=backend.name == "batched",
                lattice=lattice, schedule_stats=sched_stats)
            delta = cache_delta(before, self.cache.stats.as_dict())
            phases["lower"] = time.perf_counter() - t0

        # execute -------------------------------------------------------
        snapshot = grid.copy() if config.verify else None
        ctx = ExecutionContext(spec=spec, grid=grid, config=config,
                               schedule=schedule, lattice=lattice,
                               plan=plan, trace=trace, budget=budget,
                               batch_grids=batch_grids)
        stage_seconds: Dict[str, float] = {}
        t0 = time.perf_counter()
        if spec.is_staged:
            from repro.stencils.staged import stage_timings

            stage_timings.arm()
            try:
                outcome = backend.execute(ctx)
            finally:
                stage_seconds = stage_timings.disarm()
        else:
            outcome = backend.execute(ctx)
        phases["execute"] = time.perf_counter() - t0

        # verify --------------------------------------------------------
        verified = None
        if config.verify:
            t0 = time.perf_counter()
            verified = self._verify(snapshot, outcome.interior, config.steps)
            phases["verify"] = time.perf_counter() - t0

        if sched_stats is None and schedule is not None:
            sched_stats = schedule_stats(schedule)
        stats = self._assemble_stats(config, backend, engine, sched_stats,
                                     phases, trace, outcome, delta,
                                     plan, verified)
        stats.stages = stage_seconds
        return RunResult(interior=outcome.interior, stats=stats,
                         config=config, grid=grid, schedule=schedule,
                         lattice=lattice, plan=plan,
                         sanitizer=sanitizer_report)

    def _sanitize(self, config: RunConfig, backend: Backend, schedule,
                  lattice, trace):
        """The pre-flight (Theorems 3.5/3.6): the built schedule, or for
        lattice backends the rank-local plan with its ghost band.  The
        trace gets one ``sanitize`` event plus one per violation."""
        from repro.runtime import sanitizer

        if backend.kind == "lattice":
            report = sanitizer.sanitize_distributed_plan(
                self.spec, lattice, config.steps, config.ranks,
                axis=config.axis, ghost=config.ghost)
        else:
            report = sanitizer.sanitize_schedule(self.spec, schedule)
        if trace is not None:
            trace.record_event(
                "sanitize", 0, seconds=report.seconds,
                detail=f"{len(report.violations)} violation(s), "
                       f"{report.actions_checked} action(s)")
            for v in report.violations:
                trace.record_event(
                    "violation", v.group if v.group is not None else -1,
                    label=v.task or "", detail=v.describe())
        return report

    @staticmethod
    def _resolve_engine(config: RunConfig, backend: Backend) -> str:
        if config.engine == "auto":
            return ("compiled" if backend.name in ("compiled", "batched")
                    else "naive")
        return config.engine

    def _verify(self, snapshot: Grid, interior: np.ndarray,
                steps: int) -> bool:
        from repro.stencils.reference import reference_sweep

        # bitwise, for every dtype: each backend promises bit-identity
        # with the sweep, so one flipped ulp is a failed run
        ref = reference_sweep(self.spec, snapshot, steps)
        return (ref.dtype == interior.dtype
                and ref.shape == interior.shape
                and ref.tobytes() == interior.tobytes())

    def _assemble_stats(self, config, backend, engine, sched_stats,
                        phases, trace, outcome, delta, plan,
                        verified) -> RunStats:
        stats = RunStats(
            backend=backend.name,
            scheme=config.scheme,
            engine=engine if plan is not None else "naive",
            shape=tuple(config.shape or ()),
            steps=config.steps,
            phases=phases,
            events=list(trace.events) if trace is not None else [],
            comm=outcome.comm,
            resilience=outcome.resilience,
            cache=delta,
            verified=verified,
        )
        if sched_stats is not None:
            stats.schedule = sched_stats
        if outcome.comm is not None:
            # rank-side compiles are the authoritative tally: the local
            # cache never saw these plans
            stats.plan_compiles = int(outcome.comm.plan_compiles)
        elif delta is not None:
            stats.plan_compiles = int(delta.misses)
            stats.cache_hits = int(delta.hits)
        return stats


def run(spec: StencilSpec, config: Optional[RunConfig] = None,
        **overrides) -> RunResult:
    """One-shot pipeline run: ``run(spec, shape=..., backend=...)``."""
    return Session(spec).run(config, **overrides)


def execute(spec: StencilSpec, grid: Grid, schedule=None,
            **kwargs) -> RunResult:
    """One-shot execution of prebuilt artifacts (see Session.execute)."""
    return Session(spec).execute(grid, schedule, **kwargs)
