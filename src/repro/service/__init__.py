"""Durable job runtime: crash-safe store, supervisor, serving front.

The service layer turns the one-shot :class:`repro.api.Session`
pipeline into something a caller can *submit to and walk away from*:

* :mod:`repro.service.jobstore` — append-only CRC-framed write-ahead
  journal, idempotent submission, atomic state machine, checkpoints,
  sealed results, advisory leases, startup recovery;
* :mod:`repro.service.queue` — bounded priority queue whose
  backpressure reuses the QoS admission estimate
  (:class:`~repro.runtime.errors.QueueSaturated`, exit 10);
* :mod:`repro.service.supervisor` — leased worker pool with retry +
  exponential backoff, segmented checkpointing, bit-identical resume,
  epoch-fenced commits and graceful drain;
* :mod:`repro.service.isolation` — sandboxed worker-child processes
  (``isolation="process"``): crash containment, heartbeat watchdog,
  RLIMIT_AS memory ceilings, poison-job quarantine;
* :mod:`repro.service.transport` — the CRC-sealed duplex pipe a
  supervisor and its worker children talk over;
* :mod:`repro.service.front` — stdlib HTTP front + client helpers
  (``repro serve`` / ``submit`` / ``status`` / ``result``).

Nothing here is imported by the direct ``Session.run`` path — using
the library without the service costs zero new imports.
"""

from repro.service.front import (
    ServiceFront,
    cancel_job,
    job_result,
    job_status,
    server_metrics,
    submit_job,
)
from repro.service.jobstore import (
    ADMITTED,
    CANCELLED,
    DONE,
    FAILED,
    LEGAL_TRANSITIONS,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    Job,
    JobStore,
    JournalReplayError,
    RecoveryReport,
    SealMismatch,
    job_identity,
)
from repro.service.isolation import (
    CHECKPOINTABLE,
    ChildConfig,
    JobAssignment,
    worker_child_main,
)
from repro.service.queue import JobQueue
from repro.service.supervisor import Supervisor, SupervisorConfig

__all__ = [
    "Job",
    "JobStore",
    "JobQueue",
    "JournalReplayError",
    "RecoveryReport",
    "SealMismatch",
    "ServiceFront",
    "Supervisor",
    "SupervisorConfig",
    "QUEUED",
    "ADMITTED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "STATES",
    "TERMINAL_STATES",
    "LEGAL_TRANSITIONS",
    "CHECKPOINTABLE",
    "ChildConfig",
    "JobAssignment",
    "worker_child_main",
    "job_identity",
    "submit_job",
    "job_status",
    "job_result",
    "cancel_job",
    "server_metrics",
]
