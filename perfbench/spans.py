"""In-memory span recorder that wraps the repro layers from outside.

Nothing under ``src/`` is instrumented.  :class:`Recorder` replaces a
fixed list of public functions and methods (the :data:`HOOKS` table)
with thin wrappers that record one span per call — name, start, end,
parent span and job id — and restores the originals on
:meth:`Recorder.uninstall`.  Garbage-collector pauses are recorded as
``python.gc`` spans through ``gc.callbacks``, nested under whatever span
was running, so GC time is its own layer and not part of the self time
of the layer it interrupted.

Spans stay in memory; :meth:`Recorder.dump` writes them out once, when a
run ends.  All timestamps are ``time.perf_counter()``, which on Linux is
``CLOCK_MONOTONIC`` — one clock for every process on the machine, so
the server's spans and the client's spans share a timeline.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter


def _arg(i: Optional[int], key: str):
    """Job id from positional argument ``i`` (None: keyword only) or
    keyword ``key``."""
    def get(args, kwargs, result):
        if key in kwargs:
            return kwargs[key]
        return args[i] if i is not None and len(args) > i else None
    return get


def _job_attr(i: int):
    """Job id of the ``Job`` object in positional argument ``i``."""
    def get(args, kwargs, result):
        return args[i].job_id if len(args) > i else None
    return get


def _result_job(args, kwargs, result):
    """Job id of a returned ``Job`` (``JobQueue.get``)."""
    return getattr(result, "job_id", None)


def _submitted_job(args, kwargs, result):
    """Job id of ``Supervisor.submit``'s ``(job, created)`` result."""
    return result[0].job_id if result else None


#: (module, attribute path, span name, job-id extractor).  The attribute
#: is looked up where the caller looks it up at call time: functions a
#: caller imported at module load are patched in the caller's module.
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api.session", "Session.run", "api.session", None),
    ("repro.api.builder", "ScheduleBuilder.build", "api.build", None),
    ("repro.engine.cache", "PlanCache.get", "engine.lower", None),
    ("repro.engine.cache", "compile_plan", "engine.compile", None),
    ("repro.api.backends", "CompiledBackend.execute", "engine.execute",
     None),
    ("repro.service.supervisor", "Supervisor.submit", "service.admit",
     _submitted_job),
    ("repro.service.jobstore", "job_identity", "service.identity", None),
    ("repro.service.jobstore", "JobStore.submit", "service.journal", None),
    ("repro.service.jobstore", "JobStore.transition", "service.journal",
     _arg(1, "job_id")),
    ("repro.service.jobstore", "JobStore.acquire_lease", "service.lease",
     _arg(1, "job_id")),
    ("repro.service.jobstore", "JobStore.renew_lease", "service.lease",
     _arg(1, "job_id")),
    ("repro.service.jobstore", "JobStore.release_lease", "service.lease",
     _arg(1, "job_id")),
    ("repro.service.jobstore", "JobStore.save_checkpoint",
     "service.checkpoint", _arg(1, "job_id")),
    ("repro.service.jobstore", "JobStore.record_result", "service.seal",
     _arg(1, "job_id")),
    ("repro.service.jobstore", "JobStore.load_result",
     "service.load_result", _arg(1, "job_id")),
    ("repro.api.stats", "encode_array", "service.encode", "thread"),
    ("repro.service.supervisor", "run_job_segments", "service.segments",
     _arg(None, "job_id")),
    ("repro.service.queue", "JobQueue.put", "queue.put", _job_attr(1)),
    ("repro.service.queue", "JobQueue.get", "queue.get", _result_job),
)


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "job")

    def __init__(self, name, t0, parent, job):
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.job = job

    @property
    def depth(self) -> int:
        d, p = 0, self.parent
        while p is not None:
            d, p = d + 1, p.parent
        return d


class Recorder:
    """Span recorder over :data:`HOOKS` plus the GC callback."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []
        self._gc_open: Dict[int, Span] = {}

    # -- span stack ---------------------------------------------------

    def _stack(self) -> List[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, job: Optional[str] = None) -> Span:
        st = self._stack()
        parent = st[-1] if st else None
        if job is None and parent is not None:
            job = parent.job
        span = Span(name, _now(), parent, job)
        self.spans.append(span)
        st.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = _now()
        st = self._stack()
        if st and st[-1] is span:
            st.pop()

    # -- wrapping -----------------------------------------------------

    def _wrapper(self, orig, name, job_of):
        rec = self

        def wrapper(*args, **kwargs):
            job = None
            if job_of is not None and job_of != "thread":
                try:
                    job = job_of(args, kwargs, None)
                except Exception:
                    job = None
            elif job_of == "thread":
                job = getattr(rec._local, "last_job", None)
            span = rec.open(name, job)
            try:
                result = orig(*args, **kwargs)
                if span.job is None and job_of not in (None, "thread"):
                    span.job = job_of(args, kwargs, result)
                return result
            finally:
                rec.close(span)
                if span.job is not None:
                    rec._local.last_job = span.job

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def install(self) -> None:
        import importlib

        for module, path, name, job_of in HOOKS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrapper(orig, name, job_of))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        tid = threading.get_ident()
        if phase == "start":
            self._gc_open[tid] = self.open(f"python.gc{info['generation']}")
        else:
            span = self._gc_open.pop(tid, None)
            if span is not None:
                self.close(span)

    # -- persistence --------------------------------------------------

    def dump(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s.name, s.t0, s.t1,
                 ids.get(id(s.parent), -1) if s.parent is not None else -1,
                 s.job] for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def load_spans(path: str) -> List[Span]:
    with open(path) as fh:
        rows = json.load(fh)
    spans: List[Span] = []
    for name, t0, t1, parent, job in rows:
        s = Span(name, t0, spans[parent] if parent >= 0 else None, job)
        s.t1 = t1
        spans.append(s)
    return spans


class GCCounter:
    """Total GC pause time and gen-2 collections (no spans)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _cb(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._t0 = _now()
        else:
            self.seconds += _now() - self._t0
            if info["generation"] == 2:
                self.gen2 += 1

    def __enter__(self) -> "GCCounter":
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._cb)


def layer_of(name: str) -> str:
    """Metric layer a span name is attributed to."""
    return "python.gc" if name.startswith("python.gc") else name


def partition(intervals, start: float, end: float) -> Dict[str, float]:
    """Attribute every instant of ``[start, end]`` to one layer.

    ``intervals`` holds ``(t0, t1, depth, layer)``.  Each instant goes to
    the deepest interval covering it (the latest-started one on a tie),
    which for properly nested spans is exactly each span's self time.
    Instants no interval covers go to ``"unattributed"``.
    """
    cuts = {start, end}
    clipped = []
    for t0, t1, depth, layer in intervals:
        a, b = max(t0, start), min(t1, end)
        if b > a:
            clipped.append((a, b, depth, layer))
            cuts.add(a)
            cuts.add(b)
    cuts = sorted(cuts)
    out: Dict[str, float] = {}
    for a, b in zip(cuts, cuts[1:]):
        best = None
        for iv in clipped:
            if iv[0] <= a and iv[1] >= b:
                if best is None or (iv[2], iv[0]) > (best[2], best[0]):
                    best = iv
        layer = best[3] if best is not None else "unattributed"
        out[layer] = out.get(layer, 0.0) + (b - a)
    return out
