"""Plan cache: compile a schedule once, run it many times.

Autotune probes, distributed ranks and benchmark repeats all re-derive
identical schedules from identical parameters.  The cache keys a
:class:`~repro.engine.plan.CompiledPlan` by everything that determines
it — a structural *spec signature* (operator class, offsets,
coefficients, dtype, boundary), the grid shape, step count, scheme name
and the scheme's tile parameters — so the second request for the same
configuration is a dictionary hit instead of a recompilation.

Two tiers:

* an in-memory LRU (:class:`PlanCache`), always on, with
  :class:`CacheStats` counters (``hits``/``misses``/``evictions``) that
  tests and the autotuner assert on;
* a config-keyed fast path (:meth:`PlanCache.lookup`): the key is a
  pure function of the run configuration
  (:meth:`repro.api.builder.ScheduleBuilder.plan_key`), so a warm
  :class:`~repro.api.session.Session` run finds its plan, the
  schedule inside it, the lattice and the schedule summary without
  building anything.  Both paths share one LRU and one key space;
* an optional on-disk pickle tier (``disk_dir=``) so plans survive
  process restarts — useful for repeated benchmark invocations.  Disk
  entries are keyed by a SHA-256 of the in-memory key and start with
  the :data:`PLAN_FORMAT` tag, read before the plan is unpickled: a
  record of another format is a plain miss that the recompile
  overwrites; an unreadable one, or one whose batch indices fail
  :func:`~repro.engine.plan.check_bounds`, is quarantined.

A module-level default cache (:func:`default_cache`,
:func:`get_plan`) serves the executors and the CLI.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, replace
from threading import Lock
from typing import Any, Dict, Optional, Tuple

from repro.engine.plan import CompiledPlan, check_bounds, compile_plan
from repro.runtime.schedule import RegionSchedule
from repro.stencils.operators import LinearStencilOperator
from repro.stencils.spec import StencilSpec
from repro.stencils.staged import canonical_spec

__all__ = [
    "CacheEntry",
    "CacheStats",
    "PLAN_FORMAT",
    "PlanCache",
    "default_cache",
    "get_plan",
    "make_key",
    "plan_key",
    "schedule_params",
    "spec_signature",
]


#: format tag of a disk-tier record: change it whenever pickled plans
#: stop loading into the current unit classes (3.1.0: int32 tables and
#: indices, batch units with a widening ``base``)
PLAN_FORMAT = "repro-plan/2"


def spec_signature(spec: StencilSpec) -> Tuple:
    """Hashable structural identity of a stencil spec.

    Two specs with equal signatures produce bit-identical updates, so
    their compiled plans are interchangeable.  Staged specs are
    canonicalized first (a trivial 1-stage wrapper signs identically to
    its plain spec — no degenerate-case forks anywhere downstream) and
    then signed per stage: stage class, written field, read taps and
    coefficients, in order.
    """
    spec = canonical_spec(spec)
    op = spec.operator
    parts: Tuple = (
        type(op).__name__,
        op.offsets,
        str(op.dtype),
        spec.boundary,
    )
    if getattr(spec, "is_staged", False):
        return parts + (
            spec.fields,
            tuple(stage.signature() for stage in spec.stages),
        )
    if isinstance(op, LinearStencilOperator):
        parts = parts + (op.coeffs,)
    return parts


def schedule_params(schedule: RegionSchedule) -> Tuple[str]:
    """Plan-cache ``params`` of a schedule known only by its content.

    A SHA-256 of the schedule's table columns and flags: a schedule the
    caller built (or mutated) carries no construction parameters, and
    keying it by a configuration's would let it share an entry with
    that configuration's own build.
    """
    table = schedule.table()
    h = hashlib.sha256(repr((schedule.redundant,
                             schedule.private_tasks)).encode())
    for col in (table.task, table.t, table.lo, table.hi, table.group):
        h.update(repr(col.shape).encode())
        h.update(col.tobytes())
    return (f"sha256:{h.hexdigest()}",)


def plan_key(
    spec: StencilSpec,
    schedule: RegionSchedule,
    params: Tuple = (),
    batch_threshold: int = 4096,
    fuse: bool = True,
) -> Tuple:
    """Cache key: (spec signature, shape, steps, scheme, tile params).

    ``params`` carries whatever the scheme was built from (``b``, core
    widths, phase layout ...) — callers that derive schedules from
    parameters pass them so distinct tilings of the same scheme name
    never collide.
    """
    return make_key(spec, schedule.shape, schedule.steps, schedule.scheme,
                    params, batch_threshold, fuse)


def make_key(spec: StencilSpec, shape, steps: int, scheme: str,
             params: Tuple = (), batch_threshold: int = 4096,
             fuse: bool = True) -> Tuple:
    """The key :func:`plan_key` gives a schedule with these fields.

    ``scheme`` is the *schedule's* scheme name (``tessellation-merged``),
    not the configuration's (``tess``), so a key derived from a
    configuration before building matches the key of the built schedule.
    """
    return (
        spec_signature(spec),
        tuple(shape),
        int(steps),
        scheme,
        tuple(params),
        batch_threshold,
        bool(fuse),
    )


@dataclass
class CacheStats:
    """Counters asserted by tests and reported by the CLI/bench."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: subset of ``hits`` made on behalf of a batched (many-instances)
    #: run — each one amortises a single compile over a whole batch, so
    #: ``/metrics`` can show how much lookup/compile work coalescing
    #: saved
    batched_hits: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    #: disk entries whose pickle failed to load (corrupted/truncated)
    #: or whose plan failed the bounds proof; each is quarantined to
    #: ``<path>.corrupt`` and treated as a miss
    disk_corrupt: int = 0
    compile_seconds: float = 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.batched_hits = 0
        self.disk_hits = 0
        self.disk_stores = 0
        self.disk_corrupt = 0
        self.compile_seconds = 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "batched_hits": self.batched_hits,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_corrupt": self.disk_corrupt,
            "compile_seconds": self.compile_seconds,
        }


@dataclass(frozen=True)
class CacheEntry:
    """One cache slot: a compiled plan and, once a Session run has
    described it, what a config-keyed hit hands back with it.

    The schedule is ``plan.schedule`` (never held a second time).
    ``schedule_stats`` is the :func:`~repro.runtime.schedule.schedule_stats`
    summary, computed once when the describing run filled the entry;
    readers get copies.  Entries filled by schedule-keyed callers
    (autotune, ranks, ``Session.execute``) or by the disk tier carry
    neither until a Session run with the same key describes them.
    """

    plan: CompiledPlan
    lattice: Any = None
    schedule_stats: Optional[Dict[str, Any]] = None


class PlanCache:
    """Thread-safe LRU of compiled plans with an optional disk tier."""

    def __init__(self, capacity: int = 32,
                 disk_dir: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # -- internals ---------------------------------------------------

    def _disk_path(self, key: Tuple) -> Optional[str]:
        if self.disk_dir is None:
            return None
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        return os.path.join(self.disk_dir, f"plan-{digest}.pkl")

    def _disk_load(self, key: Tuple) -> Optional[CompiledPlan]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                if pickle.load(fh) != PLAN_FORMAT:
                    # another format's record (an older release): a
                    # plain miss; the recompile overwrites it
                    return None
                stored_key, plan = pickle.load(fh)
            if stored_key != key or not isinstance(plan, CompiledPlan):
                # a healthy pickle of the wrong thing (hash collision,
                # foreign file): a plain miss, not corruption
                return None
            # unpickling bypassed compile_plan's bounds proof, and the
            # kernels' clip-mode gathers would not notice rotted indices
            check_bounds(plan)
        except Exception:
            # corrupted/truncated pickle (a crashed writer, disk rot),
            # or a plan that fails the proof: quarantine the file so it
            # is never re-read — leaving it in place would pay the
            # failed load on every future miss — and fall through to a
            # recompile
            self.stats.disk_corrupt += 1
            try:
                os.replace(path, f"{path}.corrupt")
            except OSError:
                pass
            return None
        return plan

    def _disk_store(self, key: Tuple, plan: CompiledPlan) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                pickle.dump(PLAN_FORMAT, fh, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump((key, plan), fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            self.stats.disk_stores += 1
        except Exception:
            pass

    def _insert(self, key: Tuple, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _hit(self, key: Tuple, batched: bool) -> None:
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if batched:
            self.stats.batched_hits += 1

    # -- public API --------------------------------------------------

    def get(
        self,
        spec: StencilSpec,
        schedule: RegionSchedule,
        params: Tuple = (),
        batch_threshold: int = 4096,
        fuse: bool = True,
        batched: bool = False,
        *,
        lattice: Any = None,
        schedule_stats: Optional[Dict[str, Any]] = None,
    ) -> CompiledPlan:
        """Return the compiled plan for ``schedule``, compiling on miss.

        ``batched=True`` marks the lookup as made on behalf of a
        many-instances run: the key is unchanged (one compile serves
        any batch width), only the ``batched_hits`` counter moves.

        ``schedule_stats`` (with the build's ``lattice``) describes the
        entry, so later :meth:`lookup` calls with the same key serve
        the whole build; the cache keeps its own copy.
        """
        key = plan_key(spec, schedule, params=params,
                       batch_threshold=batch_threshold, fuse=fuse)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hit(key, batched)
            else:
                plan = self._disk_load(key)
                if plan is not None:
                    # unpickled plans lose nothing: units and indices
                    # are plain data
                    self.stats.disk_hits += 1
                else:
                    self.stats.misses += 1
                    plan = compile_plan(spec, schedule,
                                        batch_threshold=batch_threshold,
                                        fuse=fuse)
                    self.stats.compile_seconds += plan.stats.compile_seconds
                    self._disk_store(key, plan)
                entry = CacheEntry(plan)
                self._insert(key, entry)
            if schedule_stats is not None and entry.schedule_stats is None:
                self._entries[key] = replace(
                    entry, lattice=lattice,
                    schedule_stats=dict(schedule_stats))
            return entry.plan

    def lookup(self, key: Tuple,
               batched: bool = False) -> Optional[CacheEntry]:
        """Config-keyed fast path: the described entry under ``key``.

        ``key`` is derived from a run configuration without building
        (:meth:`repro.api.builder.ScheduleBuilder.plan_key`).  A hit
        counts like a :meth:`get` hit.  ``None`` (no entry, or one no
        Session run has described yet) counts nothing: the caller
        builds, and its :meth:`get` counts the miss or hit.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.schedule_stats is None:
                return None
            self._hit(key, batched)
            return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_default = PlanCache()


def default_cache() -> PlanCache:
    """The process-wide plan cache used by executors and the CLI."""
    return _default


def get_plan(spec: StencilSpec, schedule: RegionSchedule,
             params: Tuple = (), **kwargs) -> CompiledPlan:
    """Compile-or-fetch from the default cache."""
    return _default.get(spec, schedule, params=params, **kwargs)
