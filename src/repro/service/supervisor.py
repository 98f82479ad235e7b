"""The supervisor: leased workers driving jobs through the pipeline.

One :class:`Supervisor` owns a :class:`~repro.service.jobstore.JobStore`
and a :class:`~repro.service.queue.JobQueue` and runs a small pool of
worker slots.  Each worker:

1. leases a queued job (``leases/<id>.lease``, heartbeat-renewed by a
   keeper thread so a live run is visibly claimed and a dead one is
   visibly stale).  Acquisition mints a fencing *epoch*; every store
   mutation the job produces carries it, so a worker whose lease was
   reclaimed can never commit late (:class:`StaleLeaseError`);
2. drives it ``queued → admitted → running`` and executes through
   :meth:`repro.api.Session.run` — the same pipeline, QoS machinery
   and backends as a direct caller, with a per-job
   :class:`~repro.runtime.qos.CancelToken` grafted onto the job's QoS
   policy so ``cancel()`` stops it at the next cooperative boundary;
3. runs the job either **in-thread** (``isolation="thread"``, the
   default zero-overhead path) or in a sandboxed **worker child
   process** (``isolation="process"``, :mod:`repro.service.isolation`):
   the child talks over a CRC-framed duplex channel, beacons
   heartbeats, and applies an ``RLIMIT_AS`` ceiling derived from the
   job's QoS policy — so a segfault, SIGKILL or runaway allocation
   kills the *child*, is detected by process exit or heartbeat
   silence, and surfaces as a typed
   :class:`~repro.runtime.errors.WorkerCrashed` (exit 12) instead of
   taking the server down;
4. for checkpointable (local) backends, runs the job in *segments* of
   ``checkpoint_steps`` steps, sealing the padded ping-pong buffer
   into the store after each segment.  Schedules are deterministic
   replay, and every scheme is bit-identical to the naive sweep, so a
   run resumed from the buffer at step *k* finishes bit-identical to
   an uninterrupted run — the property the SIGKILL chaos tests pin;
5. retries **transient** failures (executor deaths, injected faults)
   with exponential backoff plus deterministic jitter under a per-job
   retry budget; **permanent** verdicts (unsupported backend, usage
   errors, blown QoS deadlines, cancellation) fail or cancel
   immediately.  Worker **crashes** have their own circuit breaker: a
   job that kills ``max_worker_crashes`` worker incarnations is
   quarantined as ``failed``/``"poisoned"`` instead of burning
   respawns forever;
6. on startup, recovers: the store's journal scan re-queues jobs a
   dead supervisor left ``admitted``/``running``, and the worker that
   picks one up resumes from its newest restorable checkpoint — the
   resumption is journaled (``resumed_from_step``) and recorded as a
   ``resume`` event in the result's RunStats.

Graceful drain (the SIGTERM lifecycle): :meth:`Supervisor.begin_drain`
stops admission (:class:`~repro.runtime.errors.ServiceDraining`, HTTP
503) while in-flight jobs keep running; :meth:`Supervisor.drain` then
waits up to a deadline for them to finish, asks the stragglers to stop
at their next checkpoint boundary (they requeue, journaled, and the
next start picks them up), and reports whether the shutdown was clean.

Cleanup discipline: the supervisor registers an ``atexit`` hook (the
elastic coordinator's pattern) so even an un-stopped supervisor sweeps
its lease files, worker children and half-written temp files; a
SIGKILL cannot run it, which is exactly what the startup recovery scan
is for.
"""

from __future__ import annotations

import atexit
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.distributed.transport import (
    FAILURE,
    HEARTBEAT,
    RESULT,
    SHUTDOWN,
    Channel,
    ChannelClosed,
    Message,
    make_data_message,
    unpack_payload,
    verify_message,
)
from repro.runtime.errors import (
    JobNotFound,
    ServiceDraining,
    StaleLeaseError,
    WorkerCrashed,
)
from repro.service.isolation import (
    CANCEL,
    CHECKPOINT,
    CHECKPOINTABLE,
    EXIT_CHILD_OOM,
    JOB,
    PARENT,
    PREEMPT,
    PREEMPTED,
    ChildConfig,
    JobAssignment,
    JobPreempted,
    RemoteJobFailure,
    classify_failure,
    prepare_run_config,
    run_batch_segments,
    run_job_segments,
    worker_child_main,
)
from repro.service.jobstore import (
    ADMITTED,
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobStore,
)
from repro.service.queue import JobQueue

__all__ = ["Supervisor", "SupervisorConfig", "coalesce_key"]

#: pre-isolation spelling, kept for callers of the old private name
_CHECKPOINTABLE = CHECKPOINTABLE

#: isolation modes a supervisor accepts
ISOLATION_MODES = ("thread", "process")

#: backends whose jobs may be coalesced into one stacked batched run:
#: checkpointable, plan-consuming, and proven bit-identical to the
#: batched lowering by the parity matrix.  A job already carrying a
#: checkpoint resumes solo (members of a batch must share step 0).
COALESCE_BACKENDS = frozenset(("serial", "compiled"))


def coalesce_key(kernel: str, config: Dict[str, Any]) -> Optional[str]:
    """Coalescing group key: jobs differing *only by seed* may run as
    members of one stacked batch.

    The key is the kernel plus the canonical JSON of the normalized
    config with the seed removed — the same canonicalisation as the
    idempotency key, one knob looser.  ``None`` means the config does
    not normalize (the job will fail on its own; never coalesce it).
    """
    import json

    from repro.api.config import RunConfig

    try:
        cfg = RunConfig.from_json(config).normalized()
    except Exception:
        return None
    data = cfg.to_json()
    data.pop("seed", None)
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"{kernel}|{canon}"


def _default_isolation() -> str:
    # the CI matrix runs the whole service suite under both modes by
    # exporting REPRO_ISOLATION=process; thread stays the default
    return os.environ.get("REPRO_ISOLATION", "thread")


@dataclass
class SupervisorConfig:
    """Tunable knobs of the durable job runtime."""

    #: worker slots leasing jobs concurrently
    workers: int = 2
    #: queue depth bound (refusals raise QueueSaturated, exit 10)
    queue_depth: int = 64
    #: ceiling on the queued jobs' summed admission estimates
    max_pending_bytes: Optional[int] = None
    #: lease lifetime; a lease not renewed for this long is stale
    lease_ttl_s: float = 30.0
    #: keeper-thread heartbeat period (lease renewal cadence)
    lease_renew_s: float = 2.0
    #: checkpoint every N steps on checkpointable backends (0 = only
    #: run whole; recovery then restarts from the journal)
    checkpoint_steps: int = 0
    #: default per-job retry budget for transient failures
    default_max_retries: int = 2
    #: base backoff before a retry; attempt ``k`` waits ``base * 2**k``
    retry_backoff_s: float = 0.05
    #: backoff ceiling
    retry_backoff_cap_s: float = 2.0
    #: multiplicative jitter span (0.25 = up to +25%), seeded per
    #: (job, attempt) so tests replay deterministically
    retry_jitter: float = 0.25
    #: worker poll period while the queue is idle
    poll_s: float = 0.05
    #: ``"thread"`` (in-process, zero overhead) or ``"process"``
    #: (sandboxed worker children with crash containment)
    isolation: str = field(default_factory=_default_isolation)
    #: per-job circuit breaker: a job that crashes this many worker
    #: incarnations is quarantined ``failed``/``"poisoned"``
    max_worker_crashes: int = 3
    #: child heartbeat beacon period (process mode)
    worker_heartbeat_s: float = 0.25
    #: heartbeat silence past this declares the child crashed
    worker_heartbeat_timeout_s: float = 30.0
    #: slack added to a job's QoS memory ceiling before it becomes the
    #: child's RLIMIT_AS (interpreter + numpy need address space too)
    rlimit_headroom_bytes: int = 256 << 20
    #: default deadline for :meth:`Supervisor.drain`
    drain_timeout_s: float = 30.0
    #: extra grace after asking in-flight jobs to preempt at their next
    #: checkpoint boundary
    drain_grace_s: float = 5.0
    #: queued jobs one worker may coalesce into a single stacked
    #: batched run (thread isolation only; 1 disables coalescing).
    #: Members must share everything but the seed (:func:`coalesce_key`)
    max_batch: int = 1

    def __post_init__(self) -> None:
        if self.isolation not in ISOLATION_MODES:
            raise ValueError(
                f"isolation must be one of {ISOLATION_MODES}, "
                f"got {self.isolation!r}")
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}")


@dataclass
class _Metrics:
    submitted: int = 0
    deduplicated: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    retries: int = 0
    resumes: int = 0
    refused: int = 0
    segments_run: int = 0
    worker_crashes: int = 0
    poisoned: int = 0
    preempted: int = 0
    stale_rejected: int = 0
    #: coalesced batch executions (each ran >= 2 jobs as one stack)
    batches_run: int = 0
    #: jobs that executed as members of a coalesced batch
    coalesced_jobs: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class _Child:
    """Parent-side handle of one worker child incarnation."""

    proc: Any
    chan: Channel
    incarnation: int
    last_beat: float
    job_id: Optional[str] = None


class Supervisor:
    """Worker pool that makes journaled jobs finish, whatever happens."""

    def __init__(self, store: JobStore,
                 config: Optional[SupervisorConfig] = None):
        self.store = store
        self.config = config or SupervisorConfig()
        self.queue = JobQueue(
            maxsize=self.config.queue_depth,
            max_pending_bytes=self.config.max_pending_bytes)
        self.metrics = _Metrics()
        self._owner = f"supervisor-{id(self):x}"
        self._threads: List[threading.Thread] = []
        self._keeper: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        #: set when drain patience runs out: in-flight jobs stop at
        #: their next checkpoint boundary and requeue
        self._abandon = threading.Event()
        #: wakes retry-backoff sleepers on stop()/begin_drain() so
        #: shutdown never blocks behind a pending backoff
        self._interrupt = threading.Event()
        self._started = False
        self._tokens: Dict[str, Any] = {}
        self._epochs: Dict[str, int] = {}
        self._tokens_lock = threading.Lock()
        self._sessions: Dict[str, Any] = {}
        self._done_cond = threading.Condition()
        self._children: Dict[int, _Child] = {}
        self._children_lock = threading.Lock()
        #: per-slot incarnation counter; survives retirement so a
        #: respawned child is visibly a *new* incarnation
        self._incarnations: Dict[int, int] = {}
        self._info: Dict[int, Dict[str, Any]] = {}
        self._info_lock = threading.Lock()
        self.recovery = None  #: RecoveryReport of the last start()

    # -- lifecycle ----------------------------------------------------

    def start(self):
        """Recover the store, re-queue pending work, spawn workers."""
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        self._stop.clear()
        self._draining.clear()
        self._abandon.clear()
        self._interrupt.clear()
        self.recovery = self.store.recover()
        for job in self.store.jobs(state=QUEUED):
            # journaled work is never refused on the way back in
            self.queue.put(job, force=True)
        for wid in range(self.config.workers):
            t = threading.Thread(target=self._worker_loop, args=(wid,),
                                 name=f"repro-worker-{wid}", daemon=True)
            t.start()
            self._threads.append(t)
        self._keeper = threading.Thread(target=self._keeper_loop,
                                        name="repro-lease-keeper",
                                        daemon=True)
        self._keeper.start()
        # a dying parent sweeps its leases/tmp files even without a
        # clean stop(); a SIGKILL cannot run this — that is what the
        # startup recovery scan is for
        atexit.register(self._atexit_cleanup)
        return self.recovery

    def stop(self, timeout: float = 10.0) -> None:
        """Stop promptly: in-flight jobs stop at their next checkpoint
        boundary (requeued, journaled) or finish their final segment;
        worker children are shut down and reaped."""
        if not self._started:
            return
        self._stop.set()
        self._interrupt.set()
        self.queue.close()
        for t in self._threads:
            t.join(timeout=timeout)
        if self._keeper is not None:
            self._keeper.join(timeout=timeout)
        self._threads = []
        self._keeper = None
        self._started = False
        atexit.unregister(self._atexit_cleanup)
        self._shutdown_children()
        self._release_all_leases()
        self.store.sweep_tmp()

    # -- graceful drain -----------------------------------------------

    def begin_drain(self) -> None:
        """Stop admission immediately; in-flight jobs keep running.

        New submissions refuse with
        :class:`~repro.runtime.errors.ServiceDraining` (HTTP 503) from
        this point on.  Idle workers stop picking up queued jobs —
        those stay journaled for the next incarnation.
        """
        self._draining.set()
        self._interrupt.set()
        self.queue.set_draining(True)

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Drain in-flight work; True iff everything settled in time.

        Phase 1 waits up to ``timeout_s`` (default
        ``config.drain_timeout_s``) for in-flight jobs to finish on
        their own.  Phase 2 asks the stragglers to stop at their next
        checkpoint boundary (process-mode children get a ``preempt``
        message, thread workers check the same flag) and grants
        ``config.drain_grace_s``; a preempted job requeues journaled,
        so nothing is lost either way — False only means the exit was
        not clean and a job may re-run its last segment.
        """
        if not self._started:
            return True
        self.begin_drain()
        timeout = (self.config.drain_timeout_s
                   if timeout_s is None else float(timeout_s))
        if self._wait_idle(time.monotonic() + max(0.0, timeout)):
            return True
        self._abandon.set()
        return self._wait_idle(
            time.monotonic() + max(0.0, self.config.drain_grace_s))

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _wait_idle(self, deadline: float) -> bool:
        while True:
            with self._tokens_lock:
                busy = len(self._tokens)
            if busy == 0:
                return True
            if time.monotonic() >= deadline:
                return False
            with self._done_cond:
                self._done_cond.wait(timeout=0.05)

    # -- cleanup ------------------------------------------------------

    def _atexit_cleanup(self) -> None:
        self._stop.set()
        self._interrupt.set()
        self.queue.close()
        self._shutdown_children()
        self._release_all_leases()
        try:
            self.store.sweep_tmp()
            self.store.close()
        except Exception:
            pass

    def _release_all_leases(self) -> None:
        with self._tokens_lock:
            active = dict(self._epochs)
        for job_id, epoch in active.items():
            self.store.release_lease(job_id, epoch=epoch)

    # -- submission / control -----------------------------------------

    def submit(self, kernel: str, config: Dict[str, Any], *,
               priority: int = 0,
               max_retries: Optional[int] = None) -> Tuple[Job, bool]:
        """Admit, journal and enqueue one job (idempotent).

        Admission order is the backpressure contract: the queue bound
        is checked *before* the journal write, so a refused submission
        (:class:`~repro.runtime.errors.QueueSaturated`) leaves no
        record.  A deduplicated resubmission returns the existing job
        without touching the queue.  A draining supervisor refuses
        everything (:class:`~repro.runtime.errors.ServiceDraining`).
        """
        from repro.service.jobstore import job_identity

        if self._draining.is_set():
            self.metrics.refused += 1
            raise ServiceDraining()
        _, _, _, key, estimate = job_identity(kernel, config)
        with self.store._lock:
            known = self.store._by_key.get(key)
        if known is None:
            try:
                self.queue.check_admit(estimate)
            except Exception:
                self.metrics.refused += 1
                raise
        job, created = self.store.submit(
            kernel, config, priority=priority,
            max_retries=(self.config.default_max_retries
                         if max_retries is None else max_retries))
        if created:
            self.metrics.submitted += 1
            self.queue.put(job, force=True)
        else:
            self.metrics.deduplicated += 1
        return job, created

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: drop it from the queue, or trip its token.

        Queued jobs cancel immediately; a running job stops at its
        next cooperative QoS boundary (the PR-6 cancellation path) and
        is journaled ``cancelled`` by its worker — in process mode the
        token trip is forwarded to the child over the channel.
        Terminal jobs are returned unchanged — cancellation is
        idempotent.
        """
        job = self.store.get(job_id)
        if job.terminal:
            return job
        if self.queue.remove(job_id) and job.state == QUEUED:
            self.metrics.cancelled += 1
            return self.store.transition(job_id, CANCELLED,
                                         detail="cancelled while queued")
        with self._tokens_lock:
            token = self._tokens.get(job_id)
        if token is not None:
            token.cancel()
        return self.store.get(job_id)

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.store.get(job_id)
            if job.terminal:
                return job
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return job
            with self._done_cond:
                self._done_cond.wait(
                    timeout=0.05 if remaining is None
                    else min(0.05, remaining))

    # -- observability ------------------------------------------------

    def worker_states(self) -> List[Dict[str, Any]]:
        """Per-slot liveness: heartbeat age, current job, incarnation."""
        now = time.monotonic()
        with self._info_lock:
            infos = {w: dict(i) for w, i in self._info.items()}
        out = []
        for wid in range(self.config.workers):
            info = infos.get(wid, {})
            beat = info.get("last_beat")
            out.append({
                "worker": wid,
                "mode": self.config.isolation,
                "job_id": info.get("job_id"),
                "incarnation": int(info.get("incarnation", 0)),
                "alive": bool(info.get("alive", True)),
                "heartbeat_age_s": (round(now - beat, 3)
                                    if beat is not None else None),
            })
        return out

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: state, workers, queue pressure."""
        draining = self._draining.is_set()
        state = ("draining" if draining
                 else "serving" if self._started else "stopped")
        return {
            "ok": self._started and not draining,
            "state": state,
            "isolation": self.config.isolation,
            "workers": self.worker_states(),
            "queue": {
                "depth": len(self.queue),
                "capacity": self.queue.maxsize,
                "pending_bytes": self.queue.pending_bytes,
            },
        }

    def snapshot_metrics(self) -> Dict[str, Any]:
        out = {
            "supervisor": self.metrics.as_dict(),
            "state": ("draining" if self._draining.is_set()
                      else "serving" if self._started else "stopped"),
            "isolation": self.config.isolation,
            "workers": self.worker_states(),
            "queue": {
                "depth": len(self.queue),
                "capacity": self.queue.maxsize,
                "pending_bytes": self.queue.pending_bytes,
            },
            "store": self.store.metrics(),
        }
        if self.recovery is not None:
            out["recovery"] = dict(vars(self.recovery))
        return out

    def _set_info(self, wid: int, **fields: Any) -> None:
        with self._info_lock:
            info = self._info.setdefault(wid, {})
            info.update(fields)
            info["last_beat"] = time.monotonic()

    def _touch_info(self, wid: int) -> None:
        with self._info_lock:
            self._info.setdefault(wid, {})["last_beat"] = time.monotonic()

    # -- worker internals ---------------------------------------------

    def _session(self, kernel: str):
        from repro import get_stencil
        from repro.api.session import Session

        session = self._sessions.get(kernel)
        if session is None:
            session = Session(get_stencil(kernel))
            self._sessions[kernel] = session
        return session

    def _worker_loop(self, wid: int) -> None:
        owner = f"{self._owner}/w{wid}"
        process_mode = self.config.isolation == "process"
        while not self._stop.is_set():
            if self._draining.is_set():
                # in-flight work (if any) was handled inside a previous
                # iteration; queued jobs stay journaled for a successor
                break
            job = self.queue.get(timeout=self.config.poll_s)
            self._touch_info(wid)
            if job is None:
                if process_mode:
                    self._pump_child(wid)
                continue
            try:
                current = self.store.get(job.job_id)
            except JobNotFound:  # pragma: no cover - defensive
                continue
            if current.state != QUEUED:
                continue  # cancelled (or finalized) while waiting
            epoch = self.store.acquire_lease(job.job_id, owner,
                                             self.config.lease_ttl_s)
            if not epoch:
                continue  # someone live holds it; never run twice
            from repro.runtime.qos import CancelToken

            token = CancelToken()
            with self._tokens_lock:
                self._tokens[job.job_id] = token
                self._epochs[job.job_id] = epoch
            try:
                self.store.transition(job.job_id, ADMITTED,
                                      detail=f"leased by {owner}")
                if process_mode:
                    self._run_job_process(current, owner, wid, token,
                                          epoch)
                else:
                    members = self._claim_members(current, owner)
                    if members:
                        self._run_job_batch(
                            [(current, token, epoch)] + members,
                            owner, wid)
                    else:
                        self._run_job(current, owner, wid, token, epoch)
            except JobPreempted as exc:
                self._requeue_preempted(job.job_id, exc.step)
            except StaleLeaseError:
                # our lease was reclaimed mid-run; the new holder owns
                # the job's story now — stand down without journaling
                self.metrics.stale_rejected += 1
                if process_mode:
                    # the child is computing a fenced job; stop it
                    self._retire_child(wid)
            except Exception as exc:
                self._handle_failure(current, exc, epoch=epoch)
            finally:
                with self._tokens_lock:
                    self._tokens.pop(job.job_id, None)
                    self._epochs.pop(job.job_id, None)
                self.store.release_lease(job.job_id, epoch=epoch)
                self._set_info(wid, job_id=None)
                with self._done_cond:
                    self._done_cond.notify_all()

    def _keeper_loop(self) -> None:
        """Heartbeat: renew the leases of every in-flight job."""
        while not self._stop.wait(self.config.lease_renew_s):
            with self._tokens_lock:
                active = dict(self._epochs)
            for job_id, epoch in active.items():
                try:
                    self.store.renew_lease(
                        job_id, self._owner, self.config.lease_ttl_s,
                        epoch=epoch)
                except Exception:  # pragma: no cover - defensive
                    pass

    def _should_preempt(self) -> bool:
        return self._abandon.is_set() or self._stop.is_set()

    # -- thread-mode execution ----------------------------------------

    def _run_job(self, job: Job, owner: str, wid: int, token,
                 epoch: int) -> None:
        """Execute one leased job in-thread, in checkpointed segments."""
        session = self._session(job.kernel)
        cfg = prepare_run_config(session, job.config, token)
        resume = None
        if cfg.backend in CHECKPOINTABLE:
            resume = self.store.load_checkpoint(job.job_id)
        resume_step = int(resume[0]) if resume is not None else -1
        self.store.transition(
            job.job_id, RUNNING,
            attempts=job.attempts + 1,
            resumed_from_step=resume_step if resume_step >= 0 else None,
            detail=(f"resumed from step {resume_step}"
                    if resume_step >= 0 else "started"))
        if resume_step >= 0:
            self.metrics.resumes += 1
        self._set_info(wid, job_id=job.job_id)

        def on_checkpoint(step: int, buffer) -> None:
            self.store.save_checkpoint(job.job_id, step, buffer,
                                       epoch=epoch)
            self.store.renew_lease(job.job_id, owner,
                                   self.config.lease_ttl_s, epoch=epoch)

        def on_segment() -> None:
            self.metrics.segments_run += 1
            self._touch_info(wid)

        interior, stats, _ = run_job_segments(
            session, cfg, job_id=job.job_id,
            checkpoint_steps=self.config.checkpoint_steps,
            resume=resume, on_checkpoint=on_checkpoint,
            on_segment=on_segment, should_preempt=self._should_preempt)
        self.store.record_result(job.job_id, interior, stats.to_json(),
                                 epoch=epoch)
        self.metrics.completed += 1

    # -- coalesced (batched) execution --------------------------------

    def _claim_members(self, leader: Job, owner: str) -> List[Tuple]:
        """Claim up to ``max_batch - 1`` queued jobs that may run as
        one stacked batch with the already-leased ``leader``.

        Members must share the leader's coalescing group (everything
        but the seed), carry no checkpoint, and their backend/scheme
        must have a batched lowering.  Each claimed member is leased
        and admitted exactly like a solo job — crash-resume and lease
        fencing stay per member.  A member that cannot be leased or
        admitted goes straight back on the queue.
        """
        limit = self.config.max_batch - 1
        if limit <= 0 or self.config.isolation == "process":
            return []
        if leader.checkpoints:
            return []  # a resume runs solo; members must share step 0
        from dataclasses import replace as _replace

        from repro.api.backends import get_backend
        from repro.runtime.qos import CancelToken, estimate_peak_bytes

        session = self._session(leader.kernel)
        try:
            cfg = prepare_run_config(session, leader.config, None)
        except Exception:
            return []
        if cfg.backend not in COALESCE_BACKENDS or cfg.batch != 1:
            return []
        batched_cfg = _replace(cfg, backend="batched")
        if get_backend("batched").supports(session.spec,
                                           batched_cfg) is not None:
            return []
        key = coalesce_key(leader.kernel, leader.config)
        if key is None:
            return []

        def batch_bytes(n: int) -> int:
            # the PR-9 footprint fix: a coalesced batch is ONE
            # [N, ...] stacked allocation (2N ping-pong pairs), not N
            # independent single-instance estimates
            return estimate_peak_bytes(
                session.spec, cfg.shape, _replace(batched_cfg, batch=n))

        def match(job: Job) -> bool:
            return (job.kernel == leader.kernel
                    and not job.checkpoints
                    and coalesce_key(job.kernel, job.config) == key)

        members: List[Tuple] = []
        for job in self.queue.claim_compatible(match, limit,
                                               batch_bytes=batch_bytes):
            try:
                current = self.store.get(job.job_id)
            except JobNotFound:  # pragma: no cover - defensive
                continue
            if current.state != QUEUED or current.checkpoints:
                continue  # cancelled or resumed while waiting
            epoch = self.store.acquire_lease(job.job_id, owner,
                                             self.config.lease_ttl_s)
            if not epoch:
                self._requeue(current)
                continue
            token = CancelToken()
            with self._tokens_lock:
                self._tokens[job.job_id] = token
                self._epochs[job.job_id] = epoch
            try:
                self.store.transition(job.job_id, ADMITTED,
                                      detail=f"coalesced by {owner}")
            except ValueError:
                with self._tokens_lock:
                    self._tokens.pop(job.job_id, None)
                    self._epochs.pop(job.job_id, None)
                self.store.release_lease(job.job_id, epoch=epoch)
                continue
            members.append((current, token, epoch))
        return members

    def _run_job_batch(self, entries: List[Tuple], owner: str,
                       wid: int) -> None:
        """Run coalesced members as one stacked batched segment run.

        One ``[N, ...]`` execution, N independent durability stories:
        every member keeps its own lease epoch, journaled transitions,
        checkpoint seals and result commit, so a crash, preemption or
        per-member cancellation behaves exactly as it would for N solo
        runs — only the compute is shared.
        """
        from repro.stencils.grid import Grid

        from repro.api.config import RunConfig

        jobs = [e[0] for e in entries]
        n = len(entries)
        session = self._session(jobs[0].kernel)
        spec = session.spec
        cfg = prepare_run_config(session, jobs[0].config, None)
        shape = tuple(cfg.shape)
        dropped: Dict[int, str] = {}
        self._set_info(wid, job_id=jobs[0].job_id)
        grids = []
        for job in jobs:
            seed = int(RunConfig.from_json(job.config).normalized().seed)
            grids.append(Grid(spec, shape, init="random", seed=seed))

        def on_checkpoint(i: int, step: int, buffer) -> bool:
            job, token, epoch = entries[i]
            if token.cancelled:
                dropped[i] = "cancelled"
                self.metrics.cancelled += 1
                try:
                    self.store.transition(
                        job.job_id, CANCELLED,
                        detail=f"cancelled at batch boundary {step}")
                except (ValueError, JobNotFound):  # pragma: no cover
                    pass
                return False
            try:
                self.store.save_checkpoint(job.job_id, step, buffer,
                                           epoch=epoch)
                self.store.renew_lease(job.job_id, owner,
                                       self.config.lease_ttl_s,
                                       epoch=epoch)
            except StaleLeaseError:
                # the lease moved on mid-batch; the new holder owns
                # this member's story — drop it, keep the others
                dropped[i] = "stale"
                self.metrics.stale_rejected += 1
                return False
            return True

        def on_segment() -> None:
            self.metrics.segments_run += 1
            self._touch_info(wid)

        try:
            try:
                for job in jobs:
                    self.store.transition(
                        job.job_id, RUNNING, attempts=job.attempts + 1,
                        detail=f"started (batch of {n}, worker {wid})")
                results = run_batch_segments(
                    session, cfg, grids,
                    job_ids=[j.job_id for j in jobs],
                    checkpoint_steps=self.config.checkpoint_steps,
                    on_checkpoint=on_checkpoint, on_segment=on_segment,
                    should_preempt=self._should_preempt)
            except JobPreempted as exc:
                for i, job in enumerate(jobs):
                    if i not in dropped:
                        self._requeue_preempted(job.job_id, exc.step)
                return
            except Exception as exc:
                # one failure, N verdicts: each member retries (or
                # fails) under its own budget and backoff
                for i, (job, _, epoch) in enumerate(entries):
                    if i not in dropped:
                        self._handle_failure(job, exc, epoch=epoch)
                return
            for i in sorted(results):
                interior, stats = results[i]
                job, _, epoch = entries[i]
                try:
                    self.store.record_result(job.job_id, interior,
                                             stats.to_json(),
                                             epoch=epoch)
                    self.metrics.completed += 1
                except StaleLeaseError:
                    self.metrics.stale_rejected += 1
            self.metrics.batches_run += 1
            self.metrics.coalesced_jobs += n
        finally:
            for i, (job, _, epoch) in enumerate(entries):
                if i == 0:
                    continue  # the worker loop cleans up the leader
                with self._tokens_lock:
                    self._tokens.pop(job.job_id, None)
                    self._epochs.pop(job.job_id, None)
                self.store.release_lease(job.job_id, epoch=epoch)
            with self._done_cond:
                self._done_cond.notify_all()

    # -- process-mode execution ---------------------------------------

    def _spawn_child(self, wid: int, incarnation: int) -> _Child:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        child_cfg = ChildConfig(
            worker=wid, heartbeat_s=self.config.worker_heartbeat_s,
            incarnation=incarnation)
        proc = ctx.Process(target=worker_child_main,
                           args=(child_cfg, child_conn),
                           name=f"repro-svc-child-{wid}", daemon=True)
        proc.start()
        child_conn.close()
        child = _Child(proc=proc, chan=Channel(parent_conn),
                       incarnation=incarnation,
                       last_beat=time.monotonic())
        with self._children_lock:
            self._children[wid] = child
            self._incarnations[wid] = incarnation
        self._set_info(wid, incarnation=incarnation, alive=True)
        return child

    def _ensure_child(self, wid: int) -> _Child:
        with self._children_lock:
            child = self._children.get(wid)
            next_incarnation = self._incarnations.get(wid, -1) + 1
        if child is not None and child.proc.is_alive():
            return child
        if child is not None:
            self._retire_child(wid)
        return self._spawn_child(wid, next_incarnation)

    def _retire_child(self, wid: int) -> None:
        """Kill, join and *reap* a child — no zombies, ever."""
        with self._children_lock:
            child = self._children.pop(wid, None)
        if child is None:
            return
        child.chan.close()
        child.proc.join(timeout=0.2)
        if child.proc.is_alive():
            child.proc.terminate()
            child.proc.join(timeout=2.0)
        if child.proc.is_alive():  # pragma: no cover - hard straggler
            child.proc.kill()
            child.proc.join(timeout=2.0)
        self._set_info(wid, alive=False, job_id=None)

    def _shutdown_children(self) -> None:
        with self._children_lock:
            wids = list(self._children)
            for wid in wids:
                try:
                    self._children[wid].chan.send(Message(
                        kind=SHUTDOWN, src=PARENT, dst=wid, epoch=0))
                except ChannelClosed:
                    pass
        for wid in wids:
            self._retire_child(wid)

    def _pump_child(self, wid: int) -> None:
        """Drain idle-child heartbeats so the pipe never backs up."""
        with self._children_lock:
            child = self._children.get(wid)
        if child is None:
            return
        try:
            while child.chan.poll():
                if child.chan.recv(0) is not None:
                    child.last_beat = time.monotonic()
        except ChannelClosed:
            pass
        if not child.proc.is_alive():
            # an idle child died (operator kill, OOM sweep): retire it
            # now, respawn lazily when the next job arrives
            self._retire_child(wid)

    def _child_limit_bytes(self, job: Job, cfg) -> Optional[int]:
        """RLIMIT_AS for the child: QoS ceiling + admission estimate +
        headroom.  None (no limit) when the job carries no ceiling —
        opt-in containment, matching the QoS admission contract."""
        qos = cfg.qos
        if qos is None or qos.max_memory_bytes is None:
            return None
        base = max(int(qos.max_memory_bytes), int(job.estimated_bytes))
        return base + int(self.config.rlimit_headroom_bytes)

    def _child_signal(self, child: _Child, kind: str, epoch: int,
                      job_id: str) -> bool:
        try:
            child.chan.send(Message(kind=kind, src=PARENT,
                                    dst=child.incarnation, epoch=epoch,
                                    payload=job_id))
        except ChannelClosed:
            pass  # death surfaces on the next liveness check
        return True

    def _run_job_process(self, job: Job, owner: str, wid: int, token,
                         epoch: int) -> None:
        """Assign one leased job to this slot's worker child and watch
        it: heartbeats, checkpoints, result/failure, crash detection."""
        from repro.api.config import RunConfig

        cfg = RunConfig.from_json(job.config).normalized()
        resume = None
        if cfg.backend in CHECKPOINTABLE:
            resume = self.store.load_checkpoint(job.job_id)
        resume_step = int(resume[0]) if resume is not None else -1

        child = self._ensure_child(wid)
        self._pump_child(wid)
        self.store.transition(
            job.job_id, RUNNING,
            attempts=job.attempts + 1,
            resumed_from_step=resume_step if resume_step >= 0 else None,
            detail=(f"resumed from step {resume_step} "
                    f"(worker {wid}#{child.incarnation})"
                    if resume_step >= 0
                    else f"started (worker {wid}#{child.incarnation})"))
        if resume_step >= 0:
            self.metrics.resumes += 1
        assignment = JobAssignment(
            job_id=job.job_id, kernel=job.kernel,
            config=dict(job.config),
            checkpoint_steps=self.config.checkpoint_steps,
            resume_step=resume_step,
            resume_buffer=resume[1] if resume is not None else None,
            limit_bytes=self._child_limit_bytes(job, cfg))
        child.job_id = job.job_id
        self._set_info(wid, job_id=job.job_id,
                       incarnation=child.incarnation)
        try:
            child.chan.send(make_data_message(
                JOB, PARENT, wid, epoch, (), assignment))
        except ChannelClosed:
            self._retire_child(wid)
            raise WorkerCrashed(job.job_id, wid, "exit",
                                detail="channel closed at assignment")
        try:
            self._watch_child(job, wid, child, owner, token, epoch)
        finally:
            child.job_id = None

    def _watch_child(self, job: Job, wid: int, child: _Child,
                     owner: str, token, epoch: int) -> None:
        cancel_sent = False
        preempt_sent = False
        segments = 0
        hb_timeout = self.config.worker_heartbeat_timeout_s
        while True:
            if token.cancelled and not cancel_sent:
                cancel_sent = self._child_signal(child, CANCEL, epoch,
                                                 job.job_id)
            if self._should_preempt() and not preempt_sent:
                preempt_sent = self._child_signal(child, PREEMPT, epoch,
                                                  job.job_id)
            try:
                msg = child.chan.recv(self.config.poll_s)
            except ChannelClosed:
                msg = None
            if msg is None:
                if not child.proc.is_alive():
                    code = child.proc.exitcode
                    self._retire_child(wid)
                    cause = "oom" if code == EXIT_CHILD_OOM else "exit"
                    raise WorkerCrashed(
                        job.job_id, wid, cause, exit_code=code,
                        detail=f"incarnation {child.incarnation}")
                silent = time.monotonic() - child.last_beat
                if silent > hb_timeout:
                    self._retire_child(wid)
                    raise WorkerCrashed(
                        job.job_id, wid, "heartbeat",
                        detail=f"silent for {silent:.1f}s "
                               f"(timeout {hb_timeout:.1f}s)")
                continue
            child.last_beat = time.monotonic()
            self._touch_info(wid)
            if msg.kind == HEARTBEAT:
                continue
            if int(msg.epoch) != int(epoch):
                continue  # stale incarnation traffic; store-fenced too
            if msg.kind == CHECKPOINT:
                if not verify_message(msg):
                    continue  # drop; a later checkpoint supersedes it
                step, buffer = unpack_payload(msg.payload)
                self.store.save_checkpoint(job.job_id, int(step),
                                           buffer, epoch=epoch)
                self.store.renew_lease(job.job_id, owner,
                                       self.config.lease_ttl_s,
                                       epoch=epoch)
                segments += 1
                self.metrics.segments_run += 1
                continue
            if msg.kind == RESULT:
                if not verify_message(msg):
                    self._retire_child(wid)
                    raise WorkerCrashed(
                        job.job_id, wid, "checksum",
                        detail="result payload failed its CRC")
                interior, stats_json = unpack_payload(msg.payload)
                self.store.record_result(job.job_id, interior,
                                         stats_json, epoch=epoch)
                self.metrics.completed += 1
                self.metrics.segments_run += 1  # the final segment
                return
            if msg.kind == PREEMPTED:
                raise JobPreempted(int(msg.payload))
            if msg.kind == FAILURE:
                verdict, error, kind = msg.payload
                raise RemoteJobFailure(verdict, error, kind)

    def _requeue_preempted(self, job_id: str, step: int) -> None:
        """A drain/stop preemption is not a failure: requeue journaled
        (the sealed checkpoint at ``step`` is the resume point)."""
        self.metrics.preempted += 1
        try:
            self.store.transition(
                job_id, QUEUED,
                detail=f"preempted at step {step} for drain/stop")
        except (ValueError, JobNotFound):  # pragma: no cover
            return
        # no live re-put: we are draining or stopping, and the next
        # start() re-enqueues every journaled queued job

    # -- failure policy -----------------------------------------------

    def _classify(self, exc: Exception) -> str:
        """``cancelled`` | ``permanent`` | ``transient`` | ``crash``."""
        if isinstance(exc, WorkerCrashed):
            return "crash"
        if isinstance(exc, RemoteJobFailure):
            return (exc.verdict if exc.verdict in
                    ("cancelled", "permanent", "transient")
                    else "transient")
        return classify_failure(exc)

    def _backoff_s(self, job: Job, attempt: int) -> float:
        base = self.config.retry_backoff_s * (2 ** max(0, attempt - 1))
        base = min(base, self.config.retry_backoff_cap_s)
        # deterministic jitter: seeded by (job, attempt) so two workers
        # retrying different jobs desynchronize, yet tests replay
        rng = random.Random(f"{job.job_id}:{attempt}")
        return base * (1.0 + self.config.retry_jitter * rng.random())

    def _requeue(self, job: Job) -> None:
        try:
            self.queue.put(job, force=True)
        except RuntimeError:
            # queue closed (stop/drain): the job is journaled queued
            # and the next start() re-enqueues it
            pass

    def _handle_failure(self, job: Job, exc: Exception, *,
                        epoch: Optional[int] = None) -> None:
        if (epoch is not None
                and self.store.lease_epoch(job.job_id) != epoch):
            # the lease moved on while we were failing; the new holder
            # owns the job's story — journaling anything now would race
            self.metrics.stale_rejected += 1
            return
        try:
            current = self.store.get(job.job_id)
        except JobNotFound:  # pragma: no cover - defensive
            return
        verdict = self._classify(exc)
        if isinstance(exc, RemoteJobFailure):
            error, kind = exc.error, exc.kind
        else:
            error, kind = str(exc), type(exc).__name__
        if verdict == "cancelled":
            self.metrics.cancelled += 1
            if current.state in (ADMITTED, RUNNING):
                self.store.transition(job.job_id, CANCELLED,
                                      error=error, error_kind=kind)
            return
        if verdict == "crash":
            self._handle_crash(current, error, kind)
            return
        attempts = max(current.attempts, 1)
        if verdict == "transient" and attempts <= current.max_retries:
            delay = self._backoff_s(current, attempts)
            self.metrics.retries += 1
            # interruptible: stop()/begin_drain() set _interrupt, so
            # shutdown never waits out a pending backoff
            self._interrupt.wait(delay)
            requeued = self.store.transition(
                job.job_id, QUEUED, error=error, error_kind=kind,
                detail=f"retry {attempts}/{current.max_retries} "
                       f"after {delay * 1e3:.0f} ms backoff")
            self._requeue(requeued)
            return
        self.metrics.failed += 1
        if current.state in (ADMITTED, RUNNING):
            if current.state == ADMITTED:
                # failures before the running record (config parse,
                # checkpoint restore) still end in a legal terminal
                # state: admitted jobs may cancel but not fail, so
                # walk the legal edge through running
                self.store.transition(job.job_id, RUNNING,
                                      attempts=current.attempts + 1,
                                      detail="failed during admission")
            self.store.transition(job.job_id, FAILED, error=error,
                                  error_kind=kind)

    def _handle_crash(self, current: Job, error: str,
                      kind: str) -> None:
        """Crash containment: requeue under the per-job circuit
        breaker, quarantine as ``poisoned`` once it trips.

        Worker crashes deliberately do *not* consume the transient
        retry budget — ``max_retries`` governs failures the job's own
        execution reported, ``max_worker_crashes`` governs jobs that
        kill the worker before it can report anything.
        """
        crashes = current.worker_crashes + 1
        self.metrics.worker_crashes += 1
        limit = self.config.max_worker_crashes
        if current.state not in (ADMITTED, RUNNING):  # pragma: no cover
            return
        if crashes >= limit:
            self.metrics.poisoned += 1
            self.metrics.failed += 1
            if current.state == ADMITTED:
                self.store.transition(current.job_id, RUNNING,
                                      attempts=current.attempts + 1,
                                      detail="crashed during admission")
            self.store.transition(
                current.job_id, FAILED,
                error=(f"quarantined after crashing {crashes} worker "
                       f"incarnation(s): {error}"),
                error_kind="poisoned", worker_crashes=crashes)
            return
        requeued = self.store.transition(
            current.job_id, QUEUED, error=error, error_kind=kind,
            worker_crashes=crashes,
            detail=f"worker crash {crashes}/{limit}; requeued for "
                   f"checkpoint resume")
        self._requeue(requeued)
