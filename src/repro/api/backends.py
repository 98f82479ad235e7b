"""Backend protocol + registry: the last stage of the pipeline.

A *backend* consumes the pipeline's artifacts (grid, schedule or
lattice, optionally a compiled plan) and produces the final interior
plus whatever counter block its family maintains.  All backends are
interchangeable behind :class:`Backend`; the registry maps canonical
names (plus the aliases in :data:`repro.api.config.BACKEND_ALIASES`)
to singleton instances:

================== =================================================
``serial``          sequential schedule walker (the validation path)
``compiled``        compiled-plan stream (:mod:`repro.engine`)
``batched``         one compiled plan over N stacked instances
``threaded``        barrier-group thread pool, fail-fast
``resilient``       checkpoint/restart + retries + guards
``distributed``     in-process rank simulator with band exchanges
``baseline:pointwise``  mask-oracle lattice executor (periodic OK)
``baseline:overlapped`` ghost-zone executor for private-task schedules
================== =================================================

Every backend implements :meth:`Backend.supports` so an unsupported
``backend x scheme`` cell fails with a typed
:class:`BackendUnsupported` *before* touching a buffer — the parity
matrix test relies on the refusal being loud and structured, never a
silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "Backend",
    "BackendOutcome",
    "BackendUnsupported",
    "ExecutionContext",
    "backend_names",
    "get_backend",
    "register_backend",
]


class BackendUnsupported(ValueError):
    """A backend was asked for a configuration it cannot execute."""

    def __init__(self, backend: str, reason: str):
        super().__init__(f"backend {backend!r} cannot run this "
                         f"configuration: {reason}")
        self.backend = backend
        self.reason = reason


@dataclass
class ExecutionContext:
    """Everything a backend may consume for one run."""

    spec: object
    grid: object
    config: object  #: normalised RunConfig
    schedule: object = None
    lattice: object = None
    plan: object = None  #: CompiledPlan when the engine lowered one
    trace: object = None  #: ExecutionTrace collecting runtime events
    #: armed RunBudget when the config carries a QoSPolicy with a
    #: deadline or cancel token; None keeps the pre-QoS code path
    budget: object = None
    #: Sequence[Grid] for a batched (many-instances) run; ``grid`` is
    #: then the first member.  None for every single-instance backend
    batch_grids: object = None


@dataclass
class BackendOutcome:
    """What a backend hands back to the session."""

    interior: np.ndarray
    comm: object = None  #: CommStats (distributed family)
    resilience: object = None  #: ResilienceReport (resilient backend)


class Backend:
    """One execution strategy behind the unified pipeline."""

    name: str = ""
    #: "schedule" backends consume a RegionSchedule; "lattice" backends
    #: walk the tessellation lattice directly
    kind: str = "schedule"
    #: whether an engine-lowered CompiledPlan is consumed when present
    consumes_plan: bool = False
    #: schemes this backend can run (None = any region schedule)
    schemes: Optional[frozenset] = None
    handles_private: bool = False
    handles_periodic: bool = False

    def supports(self, spec, config, schedule=None) -> Optional[str]:
        """Return a refusal reason, or None when the cell is runnable."""
        if spec.is_periodic and not self.handles_periodic:
            return ("periodic boundaries are only supported by "
                    "'baseline:pointwise'; every other backend assumes "
                    "Dirichlet halos")
        if getattr(spec, "is_staged", False) and self.kind == "lattice":
            return ("lattice executors walk single-field buffers; staged "
                    "systems run on the schedule backends (serial, "
                    "compiled, batched, threaded, resilient)")
        if self.kind == "lattice" and config.mutations:
            return ("lattice executors walk the lattice, not a built "
                    "schedule, so planted schedule mutations would be "
                    "dropped; use a schedule backend")
        if self.schemes is not None and config.scheme not in self.schemes:
            return (f"scheme {config.scheme!r} not supported "
                    f"(supports: {sorted(self.schemes)})")
        if (schedule is not None and schedule.private_tasks
                and not self.handles_private):
            return (f"schedule {schedule.scheme!r} needs private task "
                    f"storage; use backend 'baseline:overlapped' or "
                    f"'compiled'")
        if config.engine == "compiled" and not self.consumes_plan:
            return "this backend cannot consume a compiled plan"
        return None

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Backend {self.name!r} kind={self.kind}>"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, name: Optional[str] = None) -> Backend:
    """Register a backend instance under its canonical name."""
    key = (name or backend.name).strip().lower()
    if not key:
        raise ValueError("backend must have a name")
    _REGISTRY[key] = backend
    return backend


def backend_names() -> List[str]:
    """Sorted canonical names of every registered backend."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> Backend:
    """Resolve a (possibly aliased) backend name to its instance."""
    from repro.api.config import normalize_backend

    key = normalize_backend(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{backend_names()}"
        ) from None


# ---------------------------------------------------------------------------
# schedule-consuming backends
# ---------------------------------------------------------------------------


class SerialBackend(Backend):
    """Sequential schedule walker — the correctness-validation path."""

    name = "serial"
    consumes_plan = True  # a prebuilt plan runs as a sequential stream

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        if ctx.plan is not None:
            from repro.engine.plan import _execute_plan

            out = _execute_plan(ctx.plan, ctx.grid, budget=ctx.budget)
        else:
            from repro.runtime.schedule import _execute_schedule

            out = _execute_schedule(ctx.spec, ctx.grid, ctx.schedule,
                                    budget=ctx.budget)
        return BackendOutcome(interior=out)


class CompiledBackend(Backend):
    """Compiled-plan stream runner (:mod:`repro.engine`)."""

    name = "compiled"
    consumes_plan = True
    handles_private = True  # ghost-zone plans carry private storage

    def supports(self, spec, config, schedule=None) -> Optional[str]:
        if spec.is_periodic:
            return "compiled plans assume non-periodic boundaries"
        if getattr(spec, "is_staged", False) and (
                config.scheme == "overlapped"
                or (schedule is not None and schedule.private_tasks)):
            return ("ghost-zone (private-task) plans do not support "
                    "staged systems")
        return None

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        from repro.engine.plan import _execute_plan

        out = _execute_plan(ctx.plan, ctx.grid, budget=ctx.budget)
        return BackendOutcome(interior=out)


class BatchedBackend(Backend):
    """One compiled plan over N stacked instances (:mod:`repro.engine.batch`).

    The throughput backend of the serving story: N independent
    instances of the same ``(spec, shape, steps, scheme)`` are stacked
    into one ``[N, ...]`` ping-pong pair and every plan unit runs once
    for the whole batch, amortising plan lookup and Python dispatch.
    Bit-identical per instance to ``backend="compiled"`` — the batch
    axis only widens the arrays (see ``docs/performance.md``).
    """

    name = "batched"
    consumes_plan = True

    def supports(self, spec, config, schedule=None) -> Optional[str]:
        if spec.is_periodic:
            return "compiled plans assume non-periodic boundaries"
        if config.scheme == "overlapped" or (
                schedule is not None and schedule.private_tasks):
            return ("ghost-zone (private-task) schedules have no "
                    "batched lowering; use backend 'compiled'")
        if config.engine == "naive":
            return ("the batched backend runs compiled plans only; "
                    "use engine 'auto' or 'compiled'")
        from repro.stencils.operators import (
            GameOfLifeOperator,
            LinearStencilOperator,
        )
        from repro.stencils.staged import StagedOperator

        op = spec.operator
        if not (isinstance(op, GameOfLifeOperator)
                or type(op) is LinearStencilOperator
                or isinstance(op, StagedOperator)):
            return (f"operator {type(op).__name__} has no batched "
                    f"kernel; only linear, Game-of-Life and staged "
                    f"operators are batchable")
        return None

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        from repro.engine.batch import _execute_plan_batched, stack_grids

        grids = (list(ctx.batch_grids) if ctx.batch_grids is not None
                 else [ctx.grid])
        bgrid = stack_grids(ctx.spec, grids)
        _execute_plan_batched(bgrid=bgrid, plan=ctx.plan, budget=ctx.budget)
        # both parities go back so member grids are checkpointable and
        # per-instance interiors alias their own buffers, exactly as a
        # single-instance run would leave them
        bgrid.scatter(grids)
        return BackendOutcome(
            interior=grids[0].interior(ctx.config.steps))


class ThreadedBackend(Backend):
    """Fail-fast barrier-group thread pool."""

    name = "threaded"
    consumes_plan = True

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        from repro.runtime.threadpool import _execute_threaded

        cfg = ctx.config
        out = _execute_threaded(
            ctx.spec, ctx.grid, ctx.schedule,
            num_threads=max(1, cfg.threads),
            fault_plan=cfg.fault_plan,
            plan=ctx.plan,
            budget=ctx.budget,
        )
        return BackendOutcome(interior=out)


class ResilientBackend(Backend):
    """The threaded executor plus barrier checkpoints, guards and replay."""

    name = "resilient"
    consumes_plan = True

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        from repro.runtime.resilience import _execute_resilient

        cfg = ctx.config
        out, report = _execute_resilient(
            ctx.spec, ctx.grid, ctx.schedule,
            policy=cfg.resilience,
            fault_plan=cfg.fault_plan,
            num_threads=max(1, cfg.threads),
            trace=ctx.trace,
            plan=ctx.plan,
            budget=ctx.budget,
        )
        return BackendOutcome(interior=out, resilience=report)


class OverlappedBackend(Backend):
    """Ghost-zone executor for private-task (overlapped) schedules."""

    name = "baseline:overlapped"
    handles_private = True

    def supports(self, spec, config, schedule=None) -> Optional[str]:
        if spec.is_periodic:
            return "region schedules assume non-periodic boundaries"
        if getattr(spec, "is_staged", False):
            return ("the ghost-zone discipline snapshots single-field "
                    "boxes; staged systems are not supported")
        if schedule is not None and not schedule.private_tasks:
            return ("the overlapped executor needs a private-task "
                    "(ghost-zone) schedule; use backend 'serial'")
        if config.scheme != "overlapped" and schedule is None:
            return "supports the 'overlapped' scheme only"
        if config.engine == "compiled":
            return "use backend 'compiled' for ghost-zone plans"
        return None

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        from repro.baselines.overlapped import execute_overlapped

        out = execute_overlapped(ctx.spec, ctx.grid, ctx.schedule,
                                 budget=ctx.budget)
        return BackendOutcome(interior=out)


# ---------------------------------------------------------------------------
# lattice-walking and distributed backends
# ---------------------------------------------------------------------------

class PointwiseBackend(Backend):
    """Mask-oracle tessellation executor (the only periodic-capable one)."""

    name = "baseline:pointwise"
    kind = "lattice"
    schemes = frozenset({"tess", "tess-unmerged"})
    handles_periodic = True

    def supports(self, spec, config, schedule=None) -> Optional[str]:
        if config.sanitize:
            return ("no sanitizer pre-flight: this baseline walks the "
                    "lattice without the schedule the sanitizer checks; "
                    "use a schedule backend or 'distributed'")
        return super().supports(spec, config, schedule)

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        from repro.core.pointwise import run_pointwise

        out = run_pointwise(ctx.spec, ctx.grid, ctx.lattice,
                            ctx.config.steps, budget=ctx.budget)
        return BackendOutcome(interior=out)


class DistributedBackend(Backend):
    """In-process rank simulator with boundary-band exchanges."""

    name = "distributed"
    kind = "lattice"
    schemes = frozenset({"tess"})

    def execute(self, ctx: ExecutionContext) -> BackendOutcome:
        from repro.distributed.exec import _execute_distributed

        cfg = ctx.config
        out, stats = _execute_distributed(
            ctx.spec, ctx.grid, ctx.lattice, cfg.steps, cfg.ranks,
            axis=cfg.axis,
            fault_plan=cfg.fault_plan,
            check_divergence=cfg.check_divergence or cfg.resilient,
            resilient=cfg.resilient,
            max_phase_restarts=cfg.max_phase_restarts,
            ghost_override=cfg.ghost,
            trace=ctx.trace,
            budget=ctx.budget,
        )
        return BackendOutcome(interior=out, comm=stats)


for _backend in (
    SerialBackend(), CompiledBackend(), BatchedBackend(),
    ThreadedBackend(), ResilientBackend(), DistributedBackend(),
    PointwiseBackend(), OverlappedBackend(),
):
    register_backend(_backend)
