"""RunStats / RunResult — the one stats schema of the pipeline.

Before the facade existed, three incompatible stats objects described
an execution depending on which entry point ran it: trace events
(:class:`~repro.runtime.tracing.ExecutionTrace`), the distributed
:class:`~repro.distributed.exec.CommStats` and the engine's
:class:`~repro.engine.cache.CacheStats` — plus the resilient executor's
:class:`~repro.runtime.resilience.ResilienceReport`.  A
:class:`RunStats` merges all four under one roof:

* ``phases`` — wall-clock per pipeline phase (``build`` the schedule,
  ``sanitize``, ``lower`` to a compiled plan, ``execute``, ``verify``);
* ``schedule`` — the structural schedule statistics
  (:func:`~repro.runtime.schedule.schedule_stats`);
* ``events`` — the runtime event stream (checkpoints, restores,
  guards, fallback hops, ...);
* ``comm`` / ``resilience`` / ``cache`` — the family-specific counter
  blocks, present when the backend produced them and ``None`` otherwise
  (never zero-filled fakes);
* ``plan_compiles`` / ``cache_hits`` — the **single** authoritative
  compile/hit counters: the per-run plan-cache delta.  A resilient run
  that restarts never double-counts: the plan is compiled once, before
  execution, and every replay reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "RunStats",
    "RunResult",
    "cache_delta",
    "encode_array",
    "decode_array",
    "json_safe",
]


def cache_delta(before: Dict[str, float], after: Dict[str, float]):
    """Per-run CacheStats: counter difference of two snapshots."""
    from repro.engine.cache import CacheStats

    return CacheStats(**{k: type(v)(after[k] - before[k])
                         for k, v in before.items()})


# ---------------------------------------------------------------------------
# JSON round-trip helpers (the serving front's wire format)
# ---------------------------------------------------------------------------

def json_safe(value: Any) -> Any:
    """Recursively coerce a stats value into plain JSON types.

    Numpy scalars (a ``time.perf_counter`` difference stored through a
    numpy expression, a ``np.int64`` task count) serialize as their
    Python equivalents; arrays become nested lists; tuples become
    lists; dict keys become strings (JSON has no int keys).
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # last resort: a describable object (kept readable, not re-loadable)
    return str(value)


def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """Lossless JSON encoding of an ndarray (dtype/shape/base64 bytes).

    Bit-exact: the payload is the raw C-order buffer, so a decoded
    array compares ``array_equal`` with the original — the property the
    serving front's bit-identity guarantees rest on.  A SHA-256 of the
    buffer rides along so transport-layer corruption is detectable
    without decoding.
    """
    import base64
    import hashlib

    arr = np.ascontiguousarray(arr)
    raw = arr.tobytes()
    return {
        "dtype": str(arr.dtype),
        "shape": [int(n) for n in arr.shape],
        "data": base64.b64encode(raw).decode("ascii"),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`; verifies the SHA-256 seal."""
    import base64
    import hashlib

    raw = base64.b64decode(payload["data"])
    digest = payload.get("sha256")
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        raise ValueError("array payload failed its SHA-256 seal")
    arr = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return arr.reshape(tuple(int(n) for n in payload["shape"])).copy()


def _block_to_json(block: Any) -> Optional[Dict[str, Any]]:
    """One stats block (CommStats/ResilienceReport/CacheStats) → dict."""
    if block is None:
        return None
    if hasattr(block, "as_dict"):
        return json_safe(block.as_dict())
    return json_safe(dict(vars(block)))


def _block_from_json(name: str, data: Optional[Dict[str, Any]]) -> Any:
    """Rebuild the typed counter block a ``to_json`` dict came from."""
    if data is None:
        return None
    if name == "comm":
        from repro.distributed.exec import CommStats

        # 3.x records carry the counters of the elastic runtime, which
        # 4.0.0 removed
        data = {k: v for k, v in data.items()
                if k not in ("timeouts", "retries", "checksum_failures",
                             "heartbeats", "respawns", "plan_compiles")}
        # JSON stringified the int stage keys; restore them
        data["stage_bytes"] = {int(k): int(v) for k, v in
                               data.get("stage_bytes", {}).items()}
        return CommStats(**data)
    if name == "resilience":
        from repro.runtime.resilience import ResilienceReport

        # 2.x records carry the removed per-task retry counter
        data = {k: v for k, v in data.items() if k != "task_retries"}
        return ResilienceReport(**data)
    if name == "cache":
        from repro.engine.cache import CacheStats

        return CacheStats(**data)
    raise ValueError(f"unknown stats block {name!r}")


@dataclass
class RunStats:
    """Unified statistics of one pipeline run (see module docstring)."""

    backend: str = ""
    scheme: str = ""
    engine: str = "naive"
    shape: Tuple[int, ...] = ()
    steps: int = 0

    #: seconds per pipeline phase: build/sanitize/lower/execute/verify
    phases: Dict[str, float] = field(default_factory=dict)
    #: structural schedule stats (tasks, groups, redundancy, ...)
    schedule: Dict[str, Any] = field(default_factory=dict)
    #: runtime event stream (RuntimeEvent objects)
    events: List[Any] = field(default_factory=list)

    #: distributed communication counters (None for local backends)
    comm: Any = None
    #: resilience counters (None unless the resilient backend ran)
    resilience: Any = None
    #: per-run plan-cache counter delta (None when no lowering ran)
    cache: Any = None

    #: plans compiled for this run, counted exactly once (see module
    #: docstring for the double-counting rule)
    plan_compiles: int = 0
    #: plan-cache hits for this run
    cache_hits: int = 0

    #: fallback hops the QoS chain took to produce this result: one
    #: dict per hop (``from``/``to`` backend, ``error`` class name,
    #: ``detail``); empty for a run that succeeded on its primary
    degradations: List[Dict[str, Any]] = field(default_factory=list)

    #: result of the verify phase (None = verification not requested)
    verified: Optional[bool] = None

    #: seconds per stage of a staged system's macro-step (empty for
    #: single-formula specs); stage name -> accumulated execute seconds
    stages: Dict[str, float] = field(default_factory=dict)

    # ----------------------------------------------------------------

    @property
    def execute_seconds(self) -> float:
        return self.phases.get("execute", 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values())

    @property
    def points(self) -> int:
        n = 1
        for s in self.shape:
            n *= int(s)
        return n * self.steps

    @property
    def mstencils_per_s(self) -> float:
        secs = self.execute_seconds
        return self.points / secs / 1e6 if secs > 0 else 0.0

    def event_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def as_dict(self) -> Dict[str, Any]:
        """Flat, JSON-friendly view of the full schema."""
        out: Dict[str, Any] = {
            "backend": self.backend,
            "scheme": self.scheme,
            "engine": self.engine,
            "shape": list(self.shape),
            "steps": self.steps,
            "phases": dict(self.phases),
            "schedule": dict(self.schedule),
            "events": self.event_counts(),
            "plan_compiles": self.plan_compiles,
            "cache_hits": self.cache_hits,
            "degradations": [dict(hop) for hop in self.degradations],
            "verified": self.verified,
            "stages": dict(self.stages),
        }
        for name in ("comm", "resilience", "cache"):
            block = getattr(self, name)
            if block is None:
                out[name] = None
            elif hasattr(block, "as_dict"):
                out[name] = block.as_dict()
            else:
                out[name] = {
                    k: v for k, v in vars(block).items()
                    if isinstance(v, (int, float, str, bool))
                }
        return out

    def to_json(self) -> Dict[str, Any]:
        """Lossless JSON view: everything ``from_json`` needs to rebuild.

        Unlike :meth:`as_dict` (a flat human-facing summary that
        collapses events to counts), this keeps the full event stream
        and the typed counter blocks, with every numpy scalar coerced
        to its Python equivalent so ``json.dumps`` round-trips.
        """
        return {
            "backend": self.backend,
            "scheme": self.scheme,
            "engine": self.engine,
            "shape": [int(n) for n in self.shape],
            "steps": int(self.steps),
            "phases": {str(k): float(v) for k, v in self.phases.items()},
            "schedule": json_safe(self.schedule),
            "events": [
                {"kind": e.kind, "group": int(e.group), "label": e.label,
                 "seconds": float(e.seconds), "detail": e.detail}
                for e in self.events
            ],
            "comm": _block_to_json(self.comm),
            "resilience": _block_to_json(self.resilience),
            "cache": _block_to_json(self.cache),
            "plan_compiles": int(self.plan_compiles),
            "cache_hits": int(self.cache_hits),
            "degradations": [json_safe(dict(hop))
                             for hop in self.degradations],
            "verified": (None if self.verified is None
                         else bool(self.verified)),
            "stages": {str(k): float(v) for k, v in self.stages.items()},
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RunStats":
        """Rebuild a :class:`RunStats` from :meth:`to_json` output.

        The counter blocks come back as their real types (CommStats /
        ResilienceReport / CacheStats) and events as RuntimeEvent, so a
        deserialized stats object supports the same accessors —
        ``describe()``, ``event_counts()``, ``resilience.describe()`` —
        as a live one.
        """
        from repro.runtime.tracing import RuntimeEvent

        return cls(
            backend=data.get("backend", ""),
            scheme=data.get("scheme", ""),
            engine=data.get("engine", "naive"),
            shape=tuple(int(n) for n in data.get("shape", ())),
            steps=int(data.get("steps", 0)),
            phases={k: float(v)
                    for k, v in data.get("phases", {}).items()},
            schedule=dict(data.get("schedule", {})),
            events=[RuntimeEvent(**e) for e in data.get("events", [])],
            comm=_block_from_json("comm", data.get("comm")),
            resilience=_block_from_json("resilience",
                                        data.get("resilience")),
            cache=_block_from_json("cache", data.get("cache")),
            plan_compiles=int(data.get("plan_compiles", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            degradations=[dict(h) for h in data.get("degradations", [])],
            verified=data.get("verified"),
            stages={k: float(v)
                    for k, v in data.get("stages", {}).items()},
        )

    def describe(self) -> str:
        """One-line human summary (the CLI's stats line)."""
        bits = [f"backend={self.backend}", f"scheme={self.scheme}"]
        if self.schedule:
            bits.append(f"tasks={self.schedule.get('tasks', 0)}")
            bits.append(f"barriers={self.schedule.get('groups', 0)}")
        secs = self.execute_seconds
        bits.append(f"execute={secs * 1e3:.1f}ms")
        if self.plan_compiles or self.cache_hits:
            bits.append(f"plan_compiles={self.plan_compiles}")
            bits.append(f"cache_hits={self.cache_hits}")
        if self.degradations:
            hops = "->".join(h.get("to", "?") for h in self.degradations)
            bits.append(f"degraded={hops}")
        if self.verified is not None:
            bits.append(f"verified={'OK' if self.verified else 'MISMATCH'}")
        return " ".join(bits)


@dataclass
class RunResult:
    """What a pipeline run returns: the answer plus everything known.

    ``interior`` is the grid interior at time ``steps`` — the same
    array every legacy entry point used to return — and ``stats`` is
    the unified :class:`RunStats`.  The intermediate pipeline artifacts
    (schedule, lattice, compiled plan) ride along for inspection and
    reuse.
    """

    interior: np.ndarray
    stats: RunStats
    config: Any = None  #: the normalised RunConfig that produced this
    grid: Any = None
    schedule: Any = None
    lattice: Any = None
    plan: Any = None
    sanitizer: Any = None  #: SanitizerReport when the sanitize phase ran

    def to_json(self, include_interior: bool = True) -> Dict[str, Any]:
        """JSON view of the result: stats, config knobs and the answer.

        ``interior`` is base64-encoded raw bytes (see
        :func:`encode_array`) so the round-trip is bit-exact; pass
        ``include_interior=False`` for a status-sized payload.  The
        config serializes through :meth:`RunConfig.to_json`, which keeps
        the JSON-able knobs and drops live objects (trace, tokens,
        policies beyond the QoS scalars).
        """
        out: Dict[str, Any] = {
            "stats": self.stats.to_json(),
            "config": (self.config.to_json()
                       if self.config is not None else None),
        }
        if include_interior:
            out["interior"] = encode_array(self.interior)
        return out

    # convenience views onto the stats blocks -------------------------

    @property
    def comm(self):
        return self.stats.comm

    @property
    def resilience(self):
        return self.stats.resilience

    @property
    def ok(self) -> bool:
        """True when verification ran and matched (False if it failed;
        raises if verification was not requested)."""
        if self.stats.verified is None:
            raise ValueError("run was not verified; pass verify=True")
        return bool(self.stats.verified)
