"""The unified execution API: one pipeline, many backends.

Everything in :mod:`repro` executes through the same spine::

    StencilSpec -> ScheduleBuilder -> CompiledPlan (optional) -> Backend

Entry points:

* :func:`run` / :class:`Session` — the facade (build, sanitize, lower,
  execute, verify) returning a :class:`RunResult` with the unified
  :class:`RunStats` schema;
* :class:`RunConfig` — every knob of a run in one dataclass;
* the backend registry (:func:`get_backend`, :func:`backend_names`,
  :func:`register_backend`) — ``serial``, ``compiled``, ``threaded``,
  ``resilient``, ``distributed``, ``elastic`` and the ``baseline:*``
  family behind one :class:`Backend` protocol.

See ``docs/architecture.md`` for the full pipeline diagram and schema
reference.  :class:`Session` is the only way into an executor: the
eight 1.x entry points (``execute_schedule``, ``run_blocked``, ...)
were removed in 2.0.0 (``docs/CHANGELOG.md`` maps each to its
:func:`run` call).
"""

from repro.api.backends import (
    Backend,
    BackendOutcome,
    BackendUnsupported,
    ExecutionContext,
    backend_names,
    get_backend,
    register_backend,
)
from repro.api.builder import SCHEMES, BuiltSchedule, ScheduleBuilder
from repro.api.config import (
    BACKEND_ALIASES,
    ENGINE_ALIASES,
    RunConfig,
    normalize_backend,
    normalize_engine,
)
from repro.api.driver import drive_groups, phase_windows, run_actions
from repro.api.fallback import run_with_fallback
from repro.api.session import Session, execute, run
from repro.api.stats import RunResult, RunStats, cache_delta
from repro.runtime.qos import (
    AdmissionRejected,
    CancelToken,
    QoSPolicy,
    RunBudget,
)

__all__ = [
    "AdmissionRejected",
    "BACKEND_ALIASES",
    "Backend",
    "BackendOutcome",
    "BackendUnsupported",
    "BuiltSchedule",
    "CancelToken",
    "ENGINE_ALIASES",
    "ExecutionContext",
    "QoSPolicy",
    "RunBudget",
    "RunConfig",
    "RunResult",
    "RunStats",
    "SCHEMES",
    "ScheduleBuilder",
    "Session",
    "backend_names",
    "cache_delta",
    "drive_groups",
    "execute",
    "get_backend",
    "normalize_backend",
    "normalize_engine",
    "phase_windows",
    "register_backend",
    "run",
    "run_actions",
    "run_with_fallback",
]
