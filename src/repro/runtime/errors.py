"""Structured runtime errors and CLI exit codes.

The resilience layer turns arbitrary task failures into a small,
typed vocabulary so callers (the CLI, the test-suite, a future
service wrapper) can react programmatically instead of parsing
tracebacks:

* :class:`InjectedFault` — raised *by* the fault-injection harness
  (:mod:`repro.runtime.faults`) inside a task; models a worker crash;
* :class:`DeadlineExceeded` — a task overran the policy's soft
  deadline (models a stalled worker);
* :class:`ExecutionError` — terminal verdict of an executor: a group
  kept failing after retries, sequential degradation and
  checkpoint/restart; carries scheme/group/task/attempt context;
* :class:`GuardViolation` — a runtime invariant guard fired
  (non-finite values after a barrier group, structural pre-flight);
* :class:`GhostDivergenceError` — the distributed simulator's
  neighbour-consistency detector found ranks disagreeing on the
  authoritative values of a boundary band;
* :class:`SanitizerViolation` — the structural schedule sanitizer
  (:mod:`repro.runtime.sanitizer`) found a tessellation gap, double
  write, dependence violation, intra-group race or ghost-band breach
  *before* execution; carries the full violation list;
* :class:`StallTimeoutError` — the resilient executor's *wall-clock*
  deadline expired (a stalled worker would otherwise hang the run
  forever; the per-task soft deadline cannot see a sleep that never
  returns);
* :class:`RankLostError` / :class:`ExchangeTimeoutError` /
  :class:`ChecksumMismatchError` — the elastic process runtime's
  terminal verdicts (:mod:`repro.distributed.elastic`): a rank process
  died (or was killed as a straggler) and the respawn budget is spent,
  a boundary-band message never arrived within its retry budget, or a
  payload kept failing its CRC across retransmits;
* :class:`RunDeadlineExceeded` / :class:`RunCancelled` — the
  *run-level* QoS verdicts (:mod:`repro.runtime.qos`): the caller's
  :class:`~repro.runtime.qos.QoSPolicy` deadline expired at a
  cooperative check point, or its cancel token was tripped.  Distinct
  from the per-task :class:`DeadlineExceeded` soft deadline and the
  resilient executor's :class:`StallTimeoutError` wall clock, both of
  which are internal to one executor's recovery policy;
* :class:`QueueSaturated` / :class:`JobNotFound` — the durable job
  runtime's verdicts (:mod:`repro.service`): the bounded submission
  queue refused a job instead of buffering unboundedly (backpressure,
  never silent queueing), or a job id was addressed that the job
  store's journal has never seen;
* :class:`WorkerCrashed` — a process-isolated service worker died
  under a job (SIGKILL/segfault/OOM, detected by process exit or
  heartbeat silence).  Transient by default: the job's lease expires
  and it is requeued to resume from its newest checkpoint — unless it
  keeps killing workers, in which case the supervisor quarantines it
  as ``failed``/``"poisoned"``;
* :class:`ServiceDraining` — the service received SIGTERM and stopped
  admitting work (a :class:`QueueSaturated` subclass: same exit code,
  but HTTP **503** so clients can tell "retry elsewhere/later" apart
  from "shrink the request");
* :class:`StaleLeaseError` — an epoch-fenced store mutation (result
  commit, checkpoint seal, lease renewal) arrived from a worker
  incarnation whose lease was already reclaimed; the store refuses it
  so a stalled old worker can never overwrite its successor's work.

Exit-code mapping used by ``python -m repro`` (see
:func:`repro.cli.main`): usage/:class:`ValueError` → 2,
:class:`ExecutionError` → 3, :class:`GuardViolation` → 4,
:class:`SanitizerViolation` → 5, :class:`RankLostError` → 6,
:class:`ExchangeTimeoutError` → 7, :class:`ChecksumMismatchError` → 8,
:class:`RunDeadlineExceeded` → 9, :class:`QueueSaturated` → 10,
:class:`JobNotFound` → 11, :class:`WorkerCrashed` → 12.
"""

from __future__ import annotations

from typing import List, Optional

#: CLI exit codes (0 = success, 1 = numerical mismatch — legacy).
EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_EXECUTION = 3
EXIT_GUARD = 4
EXIT_SANITIZER = 5
EXIT_RANK_LOST = 6
EXIT_EXCHANGE_TIMEOUT = 7
EXIT_CHECKSUM = 8
EXIT_DEADLINE = 9
EXIT_QUEUE_SATURATED = 10
EXIT_JOB_NOT_FOUND = 11
EXIT_WORKER_CRASHED = 12


class QueueSaturated(RuntimeError):
    """The durable job runtime's bounded queue refused a submission.

    Raised by :class:`repro.service.queue.JobQueue` (and the CLI's
    local-mode ``submit``) when accepting one more job would exceed the
    queue's depth bound or its admitted-footprint ceiling (the sum of
    per-job :func:`~repro.runtime.qos.estimate_peak_bytes` estimates).
    Backpressure by refusal, never by unbounded buffering: the caller
    sees exit code 10 (HTTP 429) immediately and can retry later or
    shrink the request.  Nothing was journaled — a refused submission
    leaves no trace in the job store.
    """

    def __init__(self, depth: int, capacity: int, *,
                 pending_bytes: int = 0,
                 limit_bytes: Optional[int] = None,
                 detail: str = ""):
        self.depth = depth
        self.capacity = capacity
        self.pending_bytes = pending_bytes
        self.limit_bytes = limit_bytes
        why = detail or (
            f"{depth}/{capacity} jobs queued" if limit_bytes is None else
            f"{depth}/{capacity} jobs queued, {pending_bytes} B of "
            f"{limit_bytes} B admitted footprint"
        )
        super().__init__(f"job queue saturated: {why}")


class JobNotFound(KeyError):
    """A job id was addressed that the job store has never seen.

    A :class:`KeyError` subclass, but mapped to its own exit code 11
    (HTTP 404) so callers can tell a missing *job* apart from a plain
    usage error.  Carries the offending id.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")

    def __str__(self) -> str:  # KeyError quotes its args; keep prose
        return self.args[0]


class ServiceDraining(QueueSaturated):
    """The service is draining (SIGTERM) and refuses new submissions.

    A :class:`QueueSaturated` subclass — the caller-side remedy is the
    same "come back later", and the CLI keeps exit code 10 — but the
    HTTP front maps it to **503** with ``{"state": "draining"}`` so a
    load balancer can tell a full queue (429, retry with backoff) from
    a terminating instance (503, fail over now).  In-flight and queued
    jobs stay journaled; only *new* admissions are refused.
    """

    def __init__(self, detail: str = ""):
        self.depth = 0
        self.capacity = 0
        self.pending_bytes = 0
        self.limit_bytes = None
        why = detail or "service is draining; new submissions refused"
        RuntimeError.__init__(self, why)


class StaleLeaseError(RuntimeError):
    """An epoch-fenced store mutation came from a reclaimed lease.

    Every lease acquisition mints a fresh monotonic *epoch*; result
    commits, checkpoint seals and lease renewals carry the epoch they
    were started under.  A worker incarnation whose lease was declared
    dead and reclaimed (heartbeat silence, crash takeover) may still be
    alive and finish late — the store refuses its writes instead of
    letting it overwrite the successor's.  The classic fencing-token
    discipline: detection at commit time, not trust in timeouts.
    """

    def __init__(self, job_id: str, epoch: int, current: int,
                 *, what: str = "commit"):
        self.job_id = job_id
        self.epoch = epoch
        self.current = current
        super().__init__(
            f"stale lease epoch {epoch} for job {job_id} "
            f"({what} refused; current epoch is {current})")


class InjectedFault(RuntimeError):
    """A deterministic fault fired by the injection harness."""

    def __init__(self, kind: str, group: int, task: Optional[int] = None):
        self.kind = kind
        self.group = group
        self.task = task
        where = f"group {group}" if task is None else f"group {group}, task {task}"
        super().__init__(f"injected {kind} fault in {where}")


class DeadlineExceeded(RuntimeError):
    """A task ran longer than the policy's soft per-task deadline."""

    def __init__(self, label: str, elapsed_s: float, deadline_s: float):
        self.label = label
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s
        super().__init__(
            f"task {label!r} took {elapsed_s * 1e3:.1f} ms "
            f"(deadline {deadline_s * 1e3:.1f} ms)"
        )


class ExecutionError(RuntimeError):
    """A schedule execution died; names the failing group/task.

    Raised by :func:`repro.runtime.threadpool._execute_threaded` on the
    first task failure (fail-fast semantics) and by
    :func:`repro.runtime.resilience._execute_resilient` once retries,
    sequential degradation and checkpoint restarts are exhausted.
    """

    def __init__(
        self,
        message: str,
        *,
        scheme: Optional[str] = None,
        group: Optional[int] = None,
        task_label: Optional[str] = None,
        attempts: int = 1,
    ):
        self.scheme = scheme
        self.group = group
        self.task_label = task_label
        self.attempts = attempts
        ctx = []
        if scheme is not None:
            ctx.append(f"scheme={scheme}")
        if group is not None:
            ctx.append(f"group={group}")
        if task_label:
            ctx.append(f"task={task_label!r}")
        if attempts > 1:
            ctx.append(f"attempts={attempts}")
        suffix = f" [{', '.join(ctx)}]" if ctx else ""
        super().__init__(f"{message}{suffix}")


class GuardViolation(ExecutionError):
    """A runtime invariant guard failed (non-finite sweep, pre-flight)."""


class SanitizerViolation(GuardViolation):
    """The schedule sanitizer found structural invariant violations.

    A :class:`GuardViolation` subclass (it is a pre-flight invariant
    guard), but mapped to its own exit code 5 so callers can tell a
    *structurally illegal schedule* apart from a runtime guard firing.
    ``violations`` holds the sanitizer's full
    :class:`~repro.runtime.sanitizer.Violation` list; the message
    names the first offender's step/group/task.
    """

    def __init__(self, scheme: str, violations: List):
        self.violations = list(violations)
        first = self.violations[0] if self.violations else None
        summary = first.describe() if first is not None else "unknown"
        extra = (f" (+{len(self.violations) - 1} more)"
                 if len(self.violations) > 1 else "")
        ExecutionError.__init__(
            self,
            f"schedule failed sanitizer: {summary}{extra}",
            scheme=scheme,
            group=getattr(first, "group", None),
            task_label=getattr(first, "task", None),
        )


class StallTimeoutError(ExecutionError):
    """The resilient executor's wall-clock deadline expired.

    A ``stall`` fault (or any genuinely wedged worker) can sleep past
    every per-task soft deadline; the wall-clock deadline bounds the
    *whole* execution so the suite/CI gets a structured error instead
    of a hang.  Not retryable: the budget is global, so the run is
    aborted on the spot rather than replayed.
    """

    def __init__(self, label: str, elapsed_s: float, deadline_s: float,
                 *, group: Optional[int] = None):
        self.label = label
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s
        ExecutionError.__init__(
            self,
            f"wall-clock deadline exceeded at {label!r}: "
            f"{elapsed_s:.3f}s elapsed > {deadline_s:.3f}s budget",
            group=group,
        )


class RunDeadlineExceeded(ExecutionError):
    """The caller's run-level QoS deadline expired.

    Raised by :meth:`repro.runtime.qos.RunBudget.check` at a
    cooperative boundary (executor entry, barrier group, time-tiled
    phase, coordinator poll).  Unlike the per-task soft
    :class:`DeadlineExceeded` and the resilient executor's
    :class:`StallTimeoutError`, this budget belongs to the *caller*:
    it spans the whole run attempt, is honoured identically by every
    backend, and maps to its own CLI exit code 9.  It is retryable on
    a *fallback* boundary only — a cheaper backend may still finish a
    fresh attempt within its own re-armed budget.
    """

    def __init__(self, where: str, elapsed_s: float, deadline_s: float):
        self.where = where
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s
        ExecutionError.__init__(
            self,
            f"run deadline exceeded at {where!r}: "
            f"{elapsed_s:.3f}s elapsed > {deadline_s:.3f}s budget",
        )


class RunCancelled(ExecutionError):
    """The caller tripped the run's cancel token.

    Cooperative: execution stops at the next budget check point with
    buffers and checkpoint directories cleaned up.  Never retried by
    the fallback chain — cancellation is a caller decision, not a
    backend failure.
    """

    def __init__(self, where: str):
        self.where = where
        ExecutionError.__init__(self, f"run cancelled at {where!r}")


class RankLostError(ExecutionError):
    """A rank process died (or was culled as a straggler) for good.

    Raised by the elastic coordinator once a lost rank cannot be (or
    may no longer be) respawned: the run is not resilient, or the
    respawn budget is exhausted.  ``cause`` distinguishes a dead
    process (``"dead"``), a missed heartbeat (``"heartbeat"``) and a
    progress stall (``"straggler"``).
    """

    def __init__(self, rank: int, cause: str, *, respawns: int = 0,
                 detail: str = ""):
        self.rank = rank
        self.cause = cause
        self.respawns = respawns
        extra = f": {detail}" if detail else ""
        ExecutionError.__init__(
            self,
            f"rank {rank} lost ({cause}) after {respawns} respawn(s){extra}",
            task_label=f"rank {rank}",
            attempts=respawns + 1,
        )


class WorkerCrashed(ExecutionError):
    """A process-isolated service worker died while running a job.

    Raised supervisor-side when a worker child's process exits (killed,
    segfaulted, OOM'd) or its heartbeat goes silent past the watchdog
    timeout while a job was assigned to it.  ``cause`` distinguishes a
    dead process (``"exit"``), a missed heartbeat (``"heartbeat"``), a
    child that hit its rlimit (``"oom"``) and a payload that failed its
    CRC (``"checksum"``).  Transient by default — the job requeues and
    resumes from its newest checkpoint — but a job that keeps crashing
    workers is quarantined as ``failed``/``"poisoned"`` after
    ``max_worker_crashes`` attempts.  CLI exit code 12.
    """

    def __init__(self, job_id: str, worker: int, cause: str, *,
                 exit_code: "Optional[int]" = None, detail: str = ""):
        self.job_id = job_id
        self.worker = worker
        self.cause = cause
        self.exit_code = exit_code
        extra = f": {detail}" if detail else ""
        code = f", exit code {exit_code}" if exit_code is not None else ""
        ExecutionError.__init__(
            self,
            f"worker {worker} crashed ({cause}{code}) while running "
            f"job {job_id}{extra}",
            task_label=f"worker {worker}",
        )


class ExchangeTimeoutError(ExecutionError):
    """A boundary-band message never arrived within the retry budget.

    Raised (via the coordinator) when a receiving rank has exhausted
    its per-message timeout + exponential-backoff retries waiting for a
    neighbour's band.  A transient drop is healed by a retransmit
    request; this error means the drop was persistent.
    """

    def __init__(self, stage: int, src: int, dst: int, attempts: int):
        self.stage = stage
        self.src = src
        self.dst = dst
        ExecutionError.__init__(
            self,
            f"boundary band {src}->{dst} missing at stage {stage} "
            f"after {attempts} attempt(s)",
            group=stage,
            task_label=f"rank {dst}",
            attempts=attempts,
        )


class ChecksumMismatchError(ExecutionError):
    """A boundary-band payload kept failing its CRC across retries.

    Every band carries a CRC32 of its serialized payload; a mismatch at
    receive time means the message was corrupted in flight (the
    ``flip_bits`` fault, or real memory/link corruption).  Transient
    corruption is healed by a retransmit; this error means every
    retransmit was corrupted too.
    """

    def __init__(self, stage: int, src: int, dst: int, attempts: int):
        self.stage = stage
        self.src = src
        self.dst = dst
        ExecutionError.__init__(
            self,
            f"boundary band {src}->{dst} failed checksum at stage {stage} "
            f"{attempts} time(s)",
            group=stage,
            task_label=f"rank {dst}",
            attempts=attempts,
        )


class GhostDivergenceError(GuardViolation):
    """Neighbouring ranks disagree on an exchanged boundary band.

    Fired by the distributed simulator's divergence detector: after a
    stage exchange, the two ranks of a neighbour pair must agree on
    every point either of them updated inside the shared
    ``±ghost``-wide window around their slab boundary.  A dropped,
    corrupted or under-sized exchange breaks that agreement.
    """

    def __init__(self, stage: int, rank_a: int, rank_b: int,
                 mismatched_points: int):
        self.stage = stage
        self.rank_a = rank_a
        self.rank_b = rank_b
        self.mismatched_points = mismatched_points
        ExecutionError.__init__(
            self,
            f"ghost-band divergence after stage {stage}: ranks "
            f"{rank_a}/{rank_b} disagree on {mismatched_points} "
            f"boundary point(s)",
            group=stage,
        )
