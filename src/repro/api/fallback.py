"""Graceful backend degradation — the QoS fallback chain.

A :class:`~repro.runtime.qos.QoSPolicy` may name a chain of cheaper
backends (``fallback=("threaded", "serial")``); when the primary
backend fails with a *retryable* verdict the run is re-executed on the
next backend in the chain instead of raising.  Retryable means the
failure is a property of the backend, not of the caller's request:

* :class:`~repro.api.backends.BackendUnsupported` — the backend
  refused the configuration before touching a buffer;
* :class:`~repro.runtime.qos.AdmissionRejected` — the backend family's
  estimated footprint exceeds the memory ceiling (a cheaper family may
  fit);
* :class:`~repro.runtime.errors.RunDeadlineExceeded` — the deadline
  expired at a cooperative boundary; each hop re-arms a *fresh* budget
  (per-attempt semantics), so a cheaper backend gets a full budget.

:class:`~repro.runtime.errors.RunCancelled` is deliberately **not**
retryable — the shared cancel token stays tripped across hops, so a
cancelled run stays cancelled.  Every hop is recorded in
``RunStats.degradations`` (and as ``"fallback"`` trace events when the
config carries a trace), and the recovered result is bit-identical to
running the successful backend directly: hops re-run from the original
input state (buffers restored from a pre-run snapshot, or the grid
deterministically re-created from the config's seed).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from repro.api.backends import BackendUnsupported
from repro.runtime.errors import RunDeadlineExceeded
from repro.runtime.qos import AdmissionRejected

__all__ = ["FALLBACK_RETRYABLE", "run_with_fallback"]

#: errors a fallback hop may recover from (see module docstring);
#: everything else — including RunCancelled — propagates unchanged
FALLBACK_RETRYABLE = (
    BackendUnsupported,
    AdmissionRejected,
    RunDeadlineExceeded,
)


def run_with_fallback(session, config, *, grid=None, schedule=None,
                      lattice=None, plan=None,
                      params: Optional[Tuple] = None):
    """Run the pipeline through the config's QoS fallback chain.

    Tries ``config.backend`` first, then each backend of
    ``config.qos.fallback`` in order (duplicates skipped), restoring
    the caller's grid to its pre-run state between hops.  Returns the
    first successful :class:`~repro.api.stats.RunResult` with its
    ``stats.degradations`` listing one dict per failed hop
    (``from``/``to`` backend, ``error`` class name, ``detail``);
    re-raises the last error when every backend in the chain failed.
    """
    qos = config.qos
    chain = []
    for name in (config.backend,) + tuple(qos.fallback):
        if name not in chain:
            chain.append(name)
    # the caller's grid is mutated in place by most backends, so a hop
    # after a mid-run deadline must replay from the original state
    snapshot = ([buf.copy() for buf in grid.buffers]
                if grid is not None else None)
    hops = []
    last_exc = None
    for i, name in enumerate(chain):
        if i > 0 and snapshot is not None:
            for dst, src in zip(grid.buffers, snapshot):
                np.copyto(dst, src)
        hop_config = (config if name == config.backend
                      else replace(config, backend=name))
        try:
            result = session._pipeline_once(
                hop_config, grid=grid, schedule=schedule,
                lattice=lattice, plan=plan, params=params)
        except FALLBACK_RETRYABLE as exc:
            last_exc = exc
            nxt = chain[i + 1] if i + 1 < len(chain) else None
            hops.append({
                "from": name,
                "to": nxt,
                "error": type(exc).__name__,
                "detail": str(exc),
            })
            if config.trace is not None:
                config.trace.record_event(
                    "fallback", i, label=name,
                    detail=(f"{type(exc).__name__}: falling back to "
                            f"{nxt!r}" if nxt is not None
                            else f"{type(exc).__name__}: chain exhausted"),
                )
            continue
        result.stats.degradations = list(hops)
        return result
    raise last_exc
