"""RunConfig — the one flag set of the unified execution pipeline.

Every knob of a run (scheme and tile parameters, engine selection,
thread count, sanitizer pre-flight, resilience policy, fault plan,
distributed topology) lives here once.  The CLI, the autotuner, the
bench harness and the examples all build a :class:`RunConfig` and hand
it to :func:`repro.api.run` / :class:`repro.api.Session`.

Backend and engine names are normalised through alias tables so the
historical spellings (``threadpool``, ``--objective wallclock``, ...)
keep working while the canonical pair is ``backend``/``engine``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "RunConfig",
    "BACKEND_ALIASES",
    "ENGINE_ALIASES",
    "normalize_backend",
    "normalize_engine",
]


#: historical / convenience spellings -> canonical backend names
BACKEND_ALIASES: Dict[str, str] = {
    "seq": "serial",
    "sequential": "serial",
    "schedule": "serial",
    "plan": "compiled",
    "engine": "compiled",
    "threadpool": "threaded",
    "threads": "threaded",
    "batch": "batched",
    "many": "batched",
    "sim": "distributed",
    "simulated": "distributed",
    "pointwise": "baseline:pointwise",
    "overlapped-executor": "baseline:overlapped",
}

#: historical spellings -> canonical engine names
ENGINE_ALIASES: Dict[str, str] = {
    "walk": "naive",
    "interpreted": "naive",
    "simulate": "naive",
    "wallclock": "compiled",
}

_ENGINES = ("auto", "naive", "compiled")


def normalize_backend(name: str) -> str:
    """Resolve a backend spelling to its canonical registry name."""
    name = str(name).strip().lower()
    return BACKEND_ALIASES.get(name, name)


def normalize_engine(name: str) -> str:
    """Resolve an engine spelling to ``auto``/``naive``/``compiled``."""
    name = str(name).strip().lower()
    name = ENGINE_ALIASES.get(name, name)
    if name not in _ENGINES:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {_ENGINES} "
            f"(aliases: {sorted(ENGINE_ALIASES)})"
        )
    return name


@dataclass
class RunConfig:
    """Every knob of one pipeline run, with sane defaults.

    Problem selection (``shape``/``steps``), schedule construction
    (``scheme`` and tile parameters), lowering (``engine``), execution
    (``backend`` plus backend-family options) and instrumentation
    (``trace``/``verify``) — see ``docs/architecture.md`` for which
    backend consumes which group.
    """

    # -- problem ------------------------------------------------------
    shape: Optional[Tuple[int, ...]] = None  #: None = kernel default
    steps: int = 32
    seed: int = 0
    #: independent problem instances to run as one stacked batch
    #: (``backend="batched"``); instance ``i`` seeds with ``seed + i``
    #: unless explicit grids are handed to :meth:`Session.run_many`
    batch: int = 1

    # -- schedule construction ---------------------------------------
    scheme: str = "tess"
    b: int = 8  #: time-tile depth
    core_widths: Optional[Tuple[int, ...]] = None
    uncut_dims: Tuple[int, ...] = ()
    tile: Optional[Tuple[int, ...]] = None  #: spatial/overlapped tile
    #: seeded schedule mutations (``kind@group[/task]``) applied after
    #: construction — the sanitizer's bug-planting harness
    mutations: Tuple[str, ...] = ()

    # -- lowering & execution ----------------------------------------
    backend: str = "serial"
    engine: str = "auto"  #: auto | naive | compiled
    threads: int = 1
    sanitize: bool = False
    verify: bool = False

    # -- resilience ---------------------------------------------------
    resilience: Any = None  #: Optional[ResiliencePolicy]
    fault_plan: Any = None  #: Optional[FaultPlan]

    # -- distributed topology ----------------------------------------
    ranks: int = 4
    axis: int = 0
    ghost: Optional[int] = None
    check_divergence: bool = False
    max_phase_restarts: int = 2

    # -- run-level QoS -----------------------------------------------
    #: Optional[QoSPolicy] — deadline, cancel token, admission ceiling
    #: and fallback chain (see :mod:`repro.runtime.qos`).  None keeps
    #: the exact pre-QoS code path (zero-overhead default).
    qos: Any = None

    # -- instrumentation ---------------------------------------------
    trace: Any = None  #: Optional[ExecutionTrace]

    # ----------------------------------------------------------------

    @property
    def resilient(self) -> bool:
        return self.resilience is not None

    def normalized(self) -> "RunConfig":
        """Canonical copy: aliases resolved, basic ranges validated."""
        cfg = replace(
            self,
            backend=normalize_backend(self.backend),
            engine=normalize_engine(self.engine),
            shape=(tuple(int(n) for n in self.shape)
                   if self.shape is not None else None),
            mutations=tuple(self.mutations),
            uncut_dims=tuple(self.uncut_dims),
        )
        if cfg.steps < 0:
            raise ValueError(f"steps must be >= 0, got {cfg.steps}")
        if cfg.threads < 1:
            raise ValueError(f"threads must be >= 1, got {cfg.threads}")
        if cfg.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {cfg.ranks}")
        if cfg.b < 1:
            raise ValueError(f"time-tile depth b must be >= 1, got {cfg.b}")
        if cfg.batch < 1:
            raise ValueError(f"batch must be >= 1, got {cfg.batch}")
        if cfg.qos is not None:
            cfg = replace(cfg, qos=cfg.qos.normalized())
        return cfg

    def with_overrides(self, overrides: Dict[str, Any]) -> "RunConfig":
        """Copy with keyword overrides; unknown keys raise."""
        if not overrides:
            return self
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(
                f"unknown RunConfig field(s) {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        return replace(self, **overrides)

    def to_json(self) -> Dict[str, Any]:
        """JSON-able view of the declarative knobs.

        This is the serving front's job-spec format: everything a
        remote caller can ask for survives the round trip; the live
        in-process objects (``resilience``, ``fault_plan``, ``trace``
        and the QoS cancel token) do not — a service attaches its own.
        Of the QoS policy, the declarative scalars (deadline, memory
        ceiling, fallback chain) are kept.
        """
        out: Dict[str, Any] = {
            "shape": list(self.shape) if self.shape is not None else None,
            "steps": int(self.steps),
            "seed": int(self.seed),
            "batch": int(self.batch),
            "scheme": self.scheme,
            "b": int(self.b),
            "core_widths": (list(self.core_widths)
                            if self.core_widths is not None else None),
            "uncut_dims": list(self.uncut_dims),
            "tile": list(self.tile) if self.tile is not None else None,
            "mutations": list(self.mutations),
            "backend": self.backend,
            "engine": self.engine,
            "threads": int(self.threads),
            "sanitize": bool(self.sanitize),
            "verify": bool(self.verify),
            "ranks": int(self.ranks),
            "axis": int(self.axis),
            "ghost": int(self.ghost) if self.ghost is not None else None,
            "check_divergence": bool(self.check_divergence),
            "max_phase_restarts": int(self.max_phase_restarts),
        }
        if self.qos is not None:
            out["qos"] = {
                "deadline_s": self.qos.deadline_s,
                "max_memory_bytes": self.qos.max_memory_bytes,
                "fallback": list(self.qos.fallback),
            }
        else:
            out["qos"] = None
        return out

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RunConfig":
        """Build a config from :meth:`to_json` output (or hand-written
        JSON); unknown keys raise like :meth:`with_overrides`."""
        data = dict(data)
        qos_data = data.pop("qos", None)
        kwargs: Dict[str, Any] = {}
        for key, value in data.items():
            if key in ("shape", "core_widths", "tile", "uncut_dims",
                       "mutations") and value is not None:
                value = tuple(value)
            kwargs[key] = value
        cfg = cls().with_overrides(kwargs)
        if qos_data:
            from repro.runtime.qos import QoSPolicy

            if not isinstance(qos_data, dict):
                raise TypeError(f"qos must be a JSON object, got "
                                f"{qos_data!r}")

            cfg = replace(cfg, qos=QoSPolicy(
                deadline_s=qos_data.get("deadline_s"),
                max_memory_bytes=qos_data.get("max_memory_bytes"),
                fallback=tuple(qos_data.get("fallback", ())),
            ))
        return cfg

    def tile_params(self) -> Tuple:
        """Schedule-construction parameters, for plan-cache identity.

        Everything that changes the built schedule without changing
        ``(spec, shape, steps, scheme)`` must appear here — tile depth,
        width overrides and planted mutations — so distinct tilings of
        one scheme never collide in the plan cache.
        """
        return (
            self.b,
            self.core_widths,
            self.uncut_dims,
            self.tile,
            *self.mutations,
        )
