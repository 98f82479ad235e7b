"""Run-level QoS: deadlines, cooperative cancellation, admission control.

PRs 1–4 made a *single run* survive injected faults; this module bounds
the run itself.  A caller attaches a :class:`QoSPolicy` to
:class:`~repro.api.config.RunConfig` and the Session pipeline enforces
it end-to-end:

* **admission** — before any buffer is allocated,
  :func:`estimate_peak_bytes` sizes the run's peak buffer footprint
  from the spec/shape/backend family and :func:`admit` refuses with a
  typed :class:`AdmissionRejected` when it exceeds
  ``max_memory_bytes``;
* **deadline** — the pipeline arms a :class:`RunBudget` (one
  ``time.monotonic`` anchor per run attempt) and every executor calls
  :meth:`RunBudget.check` at its entry and at each cooperative
  boundary (barrier group, time-tiled phase, distributed stage), so all
  backends honour the same wall-clock budget and stop with buffers and
  checkpoint temp dirs clean;
* **cancellation** — a shared :class:`CancelToken` trips the same
  check points; unlike a deadline it is never retried by the fallback
  chain (:mod:`repro.api.fallback`).

The zero-overhead contract: a run with no policy attached carries
``budget=None`` through every signature and executes the exact pre-QoS
code path — the only added work is one ``is not None`` test per
boundary, guarded by ``benchmarks/bench_qos.py``.

Distinct clocks, deliberately: the per-task soft
:class:`~repro.runtime.errors.DeadlineExceeded` and the resilient
executor's :class:`~repro.runtime.errors.StallTimeoutError` belong to
one executor's *recovery policy*; the :class:`RunBudget` belongs to the
*caller* and outranks both.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.runtime.errors import RunCancelled, RunDeadlineExceeded

__all__ = [
    "AdmissionRejected",
    "CancelToken",
    "QoSPolicy",
    "RunBudget",
    "admit",
    "estimate_peak_bytes",
]


class AdmissionRejected(ValueError):
    """The admission check refused a run before buffer allocation.

    A :class:`ValueError` (usage exit code 2): the caller asked for a
    run whose estimated peak footprint exceeds the policy's
    ``max_memory_bytes`` — nothing was allocated, nothing executed.
    The estimate is an order-of-magnitude model (see
    :func:`estimate_peak_bytes`), so the error carries both sides for
    the caller to reason about.
    """

    def __init__(self, backend: str, estimated_bytes: int,
                 limit_bytes: int):
        self.backend = backend
        self.estimated_bytes = estimated_bytes
        self.limit_bytes = limit_bytes
        super().__init__(
            f"admission rejected for backend {backend!r}: estimated peak "
            f"buffer footprint {estimated_bytes} B exceeds the policy "
            f"limit {limit_bytes} B"
        )


class CancelToken:
    """Thread-safe cooperative cancellation flag.

    Create one, attach it to a :class:`QoSPolicy`, hand the policy to a
    run, and call :meth:`cancel` from any thread; the run stops at its
    next budget check point with :class:`RunCancelled`.  One token may
    bound several runs (cancel-all), and it stays tripped across
    fallback hops — cancellation is a caller decision, so the fallback
    chain never retries it.
    """

    __slots__ = ("_event",)

    def __init__(self):
        self._event = threading.Event()

    def cancel(self) -> None:
        """Trip the token (idempotent, callable from any thread)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"<CancelToken {state}>"


@dataclass(frozen=True)
class QoSPolicy:
    """The caller's bounds on one run.

    ``deadline_s``
        Wall-clock budget per run *attempt*; each fallback hop re-arms
        a fresh budget.  Expiry raises
        :class:`~repro.runtime.errors.RunDeadlineExceeded` (CLI exit
        code 9).
    ``cancel_token``
        Shared cooperative cancellation flag; tripping it raises
        :class:`~repro.runtime.errors.RunCancelled` at the next check
        point and is never retried.
    ``max_memory_bytes``
        Admission ceiling on the estimated peak buffer footprint;
        exceeding it raises :class:`AdmissionRejected` before any
        allocation.
    ``fallback``
        Backend names to degrade to, in order, when the primary
        refuses (:class:`~repro.api.backends.BackendUnsupported`), is
        refused admission, or blows its deadline.  Every hop is
        recorded in ``RunStats.degradations``.
    """

    deadline_s: Optional[float] = None
    cancel_token: Optional[CancelToken] = None
    max_memory_bytes: Optional[int] = None
    fallback: Tuple[str, ...] = ()

    def normalized(self) -> "QoSPolicy":
        """Validated copy with canonical fallback backend names."""
        from repro.api.backends import get_backend

        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}")
        if (self.max_memory_bytes is not None
                and not self.max_memory_bytes > 0):
            raise ValueError(
                f"max_memory_bytes must be > 0, got "
                f"{self.max_memory_bytes}")
        # resolve each fallback name through the registry now, so a
        # typo'd chain is a usage error up front, not a surprise at
        # degradation time
        return replace(
            self,
            fallback=tuple(get_backend(n).name for n in self.fallback),
        )


class RunBudget:
    """One run attempt's armed wall clock + cancel token.

    Armed (``time.monotonic`` anchored) by the Session pipeline at the
    start of each run attempt and threaded as ``budget=None`` default
    through every executor; :meth:`check` is the single cooperative
    check point everybody calls.  Cancellation outranks the deadline:
    a tripped token raises :class:`RunCancelled` even when the
    deadline also expired, so the fallback chain (which retries
    deadline expiry but never cancellation) sees the caller's intent.
    """

    __slots__ = ("deadline_s", "token", "_t0")

    def __init__(self, deadline_s: Optional[float] = None,
                 token: Optional[CancelToken] = None):
        self.deadline_s = deadline_s
        self.token = token
        self._t0 = time.monotonic()

    @classmethod
    def from_policy(cls, policy: Optional[QoSPolicy]) -> Optional["RunBudget"]:
        """Arm a budget, or None when the policy needs no clock."""
        if policy is None:
            return None
        if policy.deadline_s is None and policy.cancel_token is None:
            return None
        return cls(policy.deadline_s, policy.cancel_token)

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def remaining(self) -> Optional[float]:
        """Seconds left on the deadline (None = unbounded)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.elapsed()

    def expired(self) -> bool:
        return (self.deadline_s is not None
                and self.elapsed() > self.deadline_s)

    def cancelled(self) -> bool:
        return self.token is not None and self.token.cancelled

    def check(self, where: str = "") -> None:
        """Raise at a cooperative boundary if the budget is spent."""
        if self.token is not None and self.token.cancelled:
            raise RunCancelled(where)
        if self.deadline_s is not None:
            elapsed = self.elapsed()
            if elapsed > self.deadline_s:
                raise RunDeadlineExceeded(where, elapsed, self.deadline_s)


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

#: extra ping-pong *pairs* each backend family keeps beyond the grid's
#: own pair: the resilient executor checkpoints both buffers; the
#: distributed simulator replicates the full pair per rank.
_EXTRA_PAIRS = {
    "resilient": lambda config: 1,
    "distributed": lambda config: max(1, config.ranks),
    # a batched run holds N member pairs plus the one stacked [N, ...]
    # pair they are copied into: 2N pairs total, of which the grid's
    # own pair is already counted
    "batched": lambda config: 2 * max(1, getattr(config, "batch", 1)) - 1,
}


def estimate_peak_bytes(spec, shape, config) -> int:
    """Order-of-magnitude peak buffer footprint of one run.

    Counts halo-padded ping-pong buffer *pairs*: the grid always owns
    one pair; backend families add checkpoint/replica pairs
    (:data:`_EXTRA_PAIRS`); ghost-zone (overlapped) schedules double
    the total for private task storage; ``verify=True`` adds a
    snapshot copy plus a reference-sweep pair.  Deliberately a model,
    not an accounting: admission exists to refuse runs that are *far*
    over budget before touching the allocator, so a factor-of-two
    estimate with a clear derivation beats a brittle exact count.
    """
    shape = tuple(int(n) for n in shape)
    cells = 1
    for n in spec.padded_shape(shape):
        cells *= int(n)
    itemsize = np.dtype(spec.dtype).itemsize
    pairs = 1 + _EXTRA_PAIRS.get(config.backend, lambda c: 0)(config)
    if config.scheme == "overlapped":
        pairs *= 2
    if config.verify:
        pairs += 2
    return 2 * pairs * cells * itemsize


def admit(spec, shape, config) -> int:
    """Admission check: raise :class:`AdmissionRejected` over budget.

    Returns the estimate (bytes) for recording.  A config with no
    policy or no ``max_memory_bytes`` ceiling admits everything
    without estimating.
    """
    policy = config.qos
    if policy is None or policy.max_memory_bytes is None:
        return 0
    estimate = estimate_peak_bytes(spec, shape, config)
    if estimate > policy.max_memory_bytes:
        raise AdmissionRejected(config.backend, estimate,
                                policy.max_memory_bytes)
    return estimate
