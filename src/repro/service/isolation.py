"""Process isolation for service workers: crash containment at the job.

The PR-7 supervisor ran every job on a thread *inside* the server
process — one segfaulting kernel, runaway allocation or hard-stalled
backend took down the HTTP front, the supervisor and every in-flight
job at once.  This module is the blast wall: a worker *child* process
that runs one job at a time on the far side of an OS boundary, so the
worst a job can do is kill its own child.

The machinery:

* the parent and child talk over one CRC-framed duplex
  :class:`~repro.service.transport.Channel` (data-bearing messages
  are sealed with a CRC32 at pack time and verified at receive time);
* the child beacons heartbeats from a daemon thread
  (:data:`~repro.service.transport.HEARTBEAT`), and the supervisor
  runs a watchdog: a child whose process died *or* whose heartbeat
  went silent past the timeout is declared crashed, retired, and
  respawned with a fresh incarnation;
* every store mutation the job produces (checkpoint seals, the result
  commit) carries the *lease epoch* the job was assigned under, so a
  stalled old incarnation that wakes up late is fenced out by the
  store (:class:`~repro.runtime.errors.StaleLeaseError`), never
  trusted.

The segment engine (:func:`run_job_segments`) is shared by both
isolation modes: thread-mode workers call it with callbacks that seal
checkpoints straight into the store, the child calls it with callbacks
that ship them over the channel.  One execution path, two blast radii.

Resource containment: the child applies ``resource.setrlimit``
(``RLIMIT_AS``) derived from the job's QoS ceiling and admission
estimate before running, so a runaway allocation OOMs the *child* —
the parent sees a crashed worker, not a dead server.
"""

from __future__ import annotations

import os
import queue as _queue
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.service.transport import (
    FAILURE,
    HEARTBEAT,
    PARENT,
    RESULT,
    SHUTDOWN,
    Channel,
    ChannelClosed,
    Message,
    make_data_message,
    unpack_payload,
    verify_message,
)

__all__ = [
    "CHECKPOINTABLE",
    "ChildConfig",
    "JobAssignment",
    "JobPreempted",
    "RemoteJobFailure",
    "classify_failure",
    "grid_from_buffer",
    "merge_stats",
    "prepare_run_config",
    "run_batch_segments",
    "run_job_segments",
    "worker_child_main",
]

# -- wire protocol ----------------------------------------------------

#: parent -> child: one :class:`JobAssignment` (CRC-sealed payload)
JOB = "job"
#: child -> parent: sealed segment buffer ``(step, padded)`` to persist
CHECKPOINT = "checkpoint"
#: parent -> child: trip the current job's cancel token (payload: id)
CANCEL = "cancel"
#: parent -> child: stop at the next checkpoint boundary (drain/stop)
PREEMPT = "preempt"
#: child -> parent: preempted cleanly at step ``payload``; job requeues
PREEMPTED = "preempted"

# -- child exit codes -------------------------------------------------

#: the chaos hook fired (test-only deterministic "segfault")
EXIT_CHILD_CHAOS = 45
#: the child hit its RLIMIT_AS ceiling (MemoryError with a starved
#: heap is not safe to keep computing on; die and let the parent see a
#: contained crash)
EXIT_CHILD_OOM = 46
#: the parent's end of the pipe vanished; an orphan must not keep
#: computing against a store it can no longer report to
EXIT_CHILD_ORPHANED = 47

#: backends whose execution mutates the caller's Grid in place, so the
#: padded ping-pong buffer after a segment is the authoritative state
#: a later segment (or a recovered supervisor) can resume from.  The
#: distributed simulator scatters/gathers rank-local slabs instead; its
#: jobs run as one segment and restart from the journal.
CHECKPOINTABLE = frozenset(("serial", "compiled", "threaded", "resilient"))

#: test hook: fork-inherited chaos verdict ("crash" | "segv" | "oom").
#: The environment variable is the CLI-smoke spelling of the same knob.
CHAOS: Optional[str] = None
_CHAOS_ENV = "REPRO_CHAOS_WORKER"


def chaos_mode() -> Optional[str]:
    return CHAOS or os.environ.get(_CHAOS_ENV) or None


@dataclass(frozen=True)
class ChildConfig:
    """Knobs a worker child is born with."""

    worker: int
    heartbeat_s: float = 0.5
    incarnation: int = 0


@dataclass(frozen=True)
class JobAssignment:
    """Everything a child needs to run one job (travels CRC-sealed)."""

    job_id: str
    kernel: str
    config: Dict[str, Any]
    checkpoint_steps: int = 0
    resume_step: int = -1
    resume_buffer: Optional[np.ndarray] = None
    limit_bytes: Optional[int] = None


class JobPreempted(Exception):
    """The job stopped at a checkpoint boundary on parent request."""

    def __init__(self, step: int):
        self.step = int(step)
        super().__init__(f"preempted at step {step}")


class RemoteJobFailure(RuntimeError):
    """A child-reported job failure, re-raised parent-side.

    Carries the child's classification verdict and the original
    exception's message/kind so the supervisor journals exactly what a
    thread-mode failure would have journaled.
    """

    def __init__(self, verdict: str, error: str, kind: str):
        self.verdict = verdict
        self.error = error
        self.kind = kind
        super().__init__(f"{kind}: {error}")


def classify_failure(exc: BaseException) -> str:
    """``cancelled`` | ``permanent`` | ``transient`` — shared verdict.

    Both isolation modes must classify identically, or a job would
    retry in one mode and fail fast in the other.
    """
    from repro.api.backends import BackendUnsupported
    from repro.runtime.errors import (
        RunCancelled,
        RunDeadlineExceeded,
        SanitizerViolation,
    )

    if isinstance(exc, RunCancelled):
        return "cancelled"
    if isinstance(exc, (BackendUnsupported, SanitizerViolation,
                        RunDeadlineExceeded, ValueError, KeyError,
                        TypeError)):
        # usage errors, structural refusals and blown caller
        # deadlines reproduce identically on a retry
        return "permanent"
    return "transient"


# -- shared execution engine ------------------------------------------

def grid_from_buffer(spec, shape: Tuple[int, ...], padded: np.ndarray):
    """Rebuild a Grid whose local time 0 holds the padded buffer.

    ``Grid.at(t)`` indexes ``buffers[t % 2]``; seeding both buffers
    with the checkpointed state makes local time 0 of the resumed
    segment equal global time *k* of the original run.
    """
    from repro.stencils.grid import Grid

    expected = tuple(spec.padded_shape(shape))
    if tuple(padded.shape) != expected:
        raise ValueError(
            f"checkpoint buffer shape {tuple(padded.shape)} does not "
            f"match padded grid shape {expected}")
    grid = Grid.__new__(Grid)
    grid.spec = spec
    grid.shape = tuple(shape)
    arr = np.array(padded, dtype=spec.dtype, copy=True)
    grid.buffers = [arr, arr.copy()]
    return grid


def _merge_block(blocks):
    """Field-wise sum of per-segment counter blocks (same type)."""
    blocks = [b for b in blocks if b is not None]
    if not blocks:
        return None
    if len(blocks) == 1:
        return blocks[0]
    merged = type(blocks[0])()
    for name, value in vars(merged).items():
        if isinstance(value, str):
            setattr(merged, name, getattr(blocks[-1], name, value))
        elif isinstance(value, dict):
            acc: Dict[Any, Any] = {}
            for b in blocks:
                for k, v in getattr(b, name, {}).items():
                    acc[k] = acc.get(k, 0) + v
            setattr(merged, name, acc)
        elif isinstance(value, (int, float)):
            setattr(merged, name,
                    type(value)(sum(getattr(b, name, 0) for b in blocks)))
    return merged


def merge_stats(segments, *, total_steps: int, resume_step: int,
                job_id: str):
    """Fold per-segment RunStats into one job-level RunStats.

    Phase seconds, compile/hit counters and counter blocks sum across
    segments; the event streams concatenate (prefixed with a ``resume``
    event when the job restarted from a checkpoint); ``steps`` reports
    the job's total, not the last segment's.
    """
    from repro.runtime.tracing import RuntimeEvent

    last = segments[-1]
    if len(segments) == 1 and resume_step < 0:
        return last
    phases: Dict[str, float] = {}
    events = []
    if resume_step >= 0:
        events.append(RuntimeEvent(
            kind="resume", group=0, label=job_id,
            detail=f"resumed from checkpoint at step {resume_step}"))
    for seg in segments:
        for k, v in seg.phases.items():
            phases[k] = phases.get(k, 0.0) + float(v)
        events.extend(seg.events)
    merged = replace(
        last,
        steps=int(total_steps),
        phases=phases,
        events=events,
        comm=_merge_block([s.comm for s in segments]),
        resilience=_merge_block([s.resilience for s in segments]),
        cache=_merge_block([s.cache for s in segments]),
        plan_compiles=sum(int(s.plan_compiles) for s in segments),
        cache_hits=sum(int(s.cache_hits) for s in segments),
        degradations=[hop for s in segments for hop in s.degradations],
    )
    return merged


def prepare_run_config(session, config: Dict[str, Any], token):
    """Normalize a job's journaled config and graft its cancel token."""
    from repro.api.config import RunConfig
    from repro.runtime.qos import QoSPolicy

    cfg = RunConfig.from_json(config).normalized()
    shape = tuple(cfg.shape) if cfg.shape is not None \
        else tuple(session.default_shape())
    qos = (replace(cfg.qos, cancel_token=token)
           if cfg.qos is not None else QoSPolicy(cancel_token=token))
    return replace(cfg, shape=shape, qos=qos)


def run_job_segments(
    session,
    cfg,
    *,
    job_id: str,
    checkpoint_steps: int,
    resume: Optional[Tuple[int, np.ndarray]] = None,
    on_checkpoint: Optional[Callable[[int, np.ndarray], None]] = None,
    on_segment: Optional[Callable[[], None]] = None,
    should_preempt: Optional[Callable[[], bool]] = None,
):
    """Drive one job through ``Session.run`` in checkpointed segments.

    The one segment engine both isolation modes share.  ``cfg`` must be
    normalized with its shape resolved (:func:`prepare_run_config`).
    After each non-final segment the sealed padded buffer goes to
    ``on_checkpoint`` (thread mode persists it into the store, the
    child ships it over the channel), then ``should_preempt`` may stop
    the job cleanly at that boundary (:class:`JobPreempted` — the
    graceful-drain path: the buffer just shipped is the resume point).

    Returns ``(interior, merged RunStats, resume_step)``; segmenting is
    bit-identical to an unsegmented run because every scheme is
    bit-identical to the naive sweep — the property the chaos tests pin.
    """
    from repro.stencils.grid import Grid

    spec = session.spec
    shape = tuple(cfg.shape)
    total = int(cfg.steps)
    segmented = cfg.backend in CHECKPOINTABLE

    resume_step = -1
    if segmented and resume is not None:
        step, padded = resume
        grid = grid_from_buffer(spec, shape, padded)
        k = resume_step = int(step)
    else:
        grid = Grid(spec, shape, init="random", seed=cfg.seed)
        k = 0

    step_quota = checkpoint_steps if segmented else 0
    segments = []
    result = None
    while True:
        n = (total - k) if step_quota <= 0 else min(step_quota, total - k)
        result = session.run(replace(cfg, steps=n), grid=grid)
        segments.append(result.stats)
        if on_segment is not None:
            on_segment()
        k += n
        if k >= total:
            break
        buffer = np.ascontiguousarray(grid.at(n))
        if on_checkpoint is not None:
            on_checkpoint(k, buffer)
        if should_preempt is not None and should_preempt():
            raise JobPreempted(k)
        # fresh parity: local time 0 of the next segment is global
        # time k
        grid = grid_from_buffer(spec, shape, buffer)

    stats = merge_stats(segments, total_steps=total,
                        resume_step=resume_step, job_id=job_id)
    return np.ascontiguousarray(result.interior), stats, resume_step


def run_batch_segments(
    session,
    cfg,
    grids,
    *,
    job_ids,
    checkpoint_steps: int,
    on_checkpoint: Optional[Callable[[int, int, np.ndarray], bool]] = None,
    on_segment: Optional[Callable[[], None]] = None,
    should_preempt: Optional[Callable[[], bool]] = None,
):
    """Drive N coalesced jobs through ``Session.run_many`` in segments.

    The batched sibling of :func:`run_job_segments`: every segment runs
    all members as one stacked ``[N, ...]`` batch, but every durability
    action stays **per member**.  After each non-final segment each
    member's sealed padded buffer goes to
    ``on_checkpoint(index, step, buffer)`` individually; a callback
    returning ``False`` *drops* that member from the rest of the batch
    (its lease was fenced away, or its caller cancelled it) and the
    survivors continue.  ``should_preempt`` is consulted once per
    boundary, *after* every member's checkpoint sealed, so a
    :class:`JobPreempted` leaves each member individually resumable —
    a SIGKILL mid-batch loses at most one segment per member, exactly
    like a solo run.

    ``cfg`` must be normalized with its shape resolved; its ``backend``
    is forced to ``batched`` per segment.  Member identity (seed) lives
    in ``grids``, which the caller built one per member.

    Returns ``{original index: (interior, merged RunStats)}`` for the
    members that ran to completion.  Segmenting is bit-identical to an
    unsegmented run — the batched backend scatters both parities back
    into the member grids, so a sealed buffer is the authoritative
    state at its step.
    """
    spec = session.spec
    shape = tuple(cfg.shape)
    total = int(cfg.steps)
    step_quota = max(0, int(checkpoint_steps))
    grids = list(grids)
    if len(job_ids) != len(grids):
        raise ValueError("job_ids and grids must pair up")
    live = list(range(len(grids)))
    segments: Dict[int, list] = {i: [] for i in live}
    final: Dict[int, Any] = {}
    k = 0
    while True:
        n = (total - k) if step_quota <= 0 else min(step_quota, total - k)
        batch_cfg = replace(cfg, steps=n, backend="batched",
                            batch=len(live))
        results = session.run_many(batch_cfg,
                                   grids=[grids[i] for i in live])
        for i, res in zip(live, results):
            segments[i].append(res.stats)
            final[i] = res
        if on_segment is not None:
            on_segment()
        k += n
        if k >= total:
            break
        survivors = []
        for i in live:
            buffer = np.ascontiguousarray(grids[i].at(n))
            keep = True
            if on_checkpoint is not None:
                keep = on_checkpoint(i, k, buffer) is not False
            if keep:
                # fresh parity: local time 0 of the next segment is
                # global time k
                grids[i] = grid_from_buffer(spec, shape, buffer)
                survivors.append(i)
            else:
                final.pop(i, None)
        live = survivors
        if should_preempt is not None and should_preempt():
            raise JobPreempted(k)
        if not live:
            return {}
    out = {}
    for i in live:
        stats = merge_stats(segments[i], total_steps=total,
                            resume_step=-1, job_id=job_ids[i])
        out[i] = (np.ascontiguousarray(final[i].interior), stats)
    return out


# -- resource containment ---------------------------------------------

def apply_rlimit(limit_bytes: Optional[int]):
    """Cap the child's address space; returns a restore token.

    Best-effort and gated on platform support (``resource`` is
    POSIX-only and some kernels refuse RLIMIT_AS): isolation must not
    make the service less portable than the thread mode it wraps.
    """
    if limit_bytes is None or limit_bytes <= 0:
        return None
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        new_soft = int(limit_bytes)
        if hard != resource.RLIM_INFINITY:
            new_soft = min(new_soft, hard)
        resource.setrlimit(resource.RLIMIT_AS, (new_soft, hard))
        return (soft, hard)
    except (ValueError, OSError):  # pragma: no cover - kernel refusal
        return None


def restore_rlimit(token) -> None:
    if token is None:
        return
    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, token)
    except (ImportError, ValueError, OSError):  # pragma: no cover
        pass


# -- the worker child -------------------------------------------------

def worker_child_main(child_cfg: ChildConfig, conn,
                      inherited: Sequence[Any] = ()) -> None:
    """Main loop of one sandboxed worker child.

    Three threads, one pipe:

    * a *listener* (the sole pipe reader) routes
      :data:`JOB`/:data:`SHUTDOWN` into an inbox and handles
      :data:`CANCEL`/:data:`PREEMPT` for the current job in place —
      cancellation must not wait for a segment boundary to be *seen*,
      only to take effect;
    * a *heartbeat* daemon beacons ``(phase, segments, job_id)`` every
      ``heartbeat_s`` (the channel's send lock interleaves it safely
      with result traffic);
    * the main thread runs jobs through :func:`run_job_segments`.

    A child that loses its pipe exits ``EXIT_CHILD_ORPHANED``: an
    orphan must never keep computing against a store it cannot report
    to (its lease epoch is fenced anyway — this just saves the CPU).
    ``inherited`` are the supervisor's pipe ends the fork copied into
    this process; they are closed first, since while any of them is
    open here the pipe never reports EOF.
    """
    for end in inherited:
        end.close()
    # the parent may have custom SIGTERM/SIGINT handlers (the serve
    # loop's drain trigger) which a fork-spawned child inherits; reset
    # them or Process.terminate() would flip the parent's stop event
    # in the child instead of killing it
    import signal as _signal

    try:
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    chan = Channel(conn)
    inbox: "_queue.Queue[Optional[Message]]" = _queue.Queue()
    closed = threading.Event()
    preempt = threading.Event()
    cancelled: set = set()
    state: Dict[str, Any] = {
        "phase": "idle", "segments": 0, "job": None, "epoch": 0,
        "token": None,
    }

    def listen() -> None:
        while True:
            try:
                msg = chan.recv(None)
            except ChannelClosed:
                closed.set()
                inbox.put(None)
                return
            if msg is None:  # pragma: no cover - recv(None) blocks
                continue
            if msg.kind == CANCEL:
                # remember the id as well as tripping the live token:
                # a CANCEL can outrun the main thread's pickup of the
                # JOB it chases (both ride the same pipe), and a
                # dropped cancel would let the job run to completion
                cancelled.add(msg.payload)
                token = state.get("token")
                if token is not None and msg.payload == state.get("job"):
                    token.cancel()
                continue
            if msg.kind == PREEMPT:
                preempt.set()
                continue
            inbox.put(msg)
            if msg.kind == SHUTDOWN:
                return

    threading.Thread(target=listen, name="repro-child-listen",
                     daemon=True).start()

    def beat() -> None:
        while not closed.is_set():
            try:
                chan.send(Message(
                    kind=HEARTBEAT, src=child_cfg.worker, dst=PARENT,
                    epoch=int(state["epoch"]),
                    payload=(state["phase"], int(state["segments"]),
                             state["job"])))
            except ChannelClosed:
                return
            time.sleep(child_cfg.heartbeat_s)

    threading.Thread(target=beat, name="repro-child-beat",
                     daemon=True).start()

    from repro import get_stencil
    from repro.api.session import Session
    from repro.runtime.qos import CancelToken

    sessions: Dict[str, Any] = {}
    while True:
        msg = inbox.get()
        if msg is None:
            # the pipe closed without a SHUTDOWN: the supervisor is gone
            os._exit(EXIT_CHILD_ORPHANED)
        if msg.kind == SHUTDOWN:
            break
        if msg.kind != JOB:
            continue
        epoch = int(msg.epoch)
        if not verify_message(msg):
            # a torn assignment cannot be run; report and let the
            # parent reassign (it will see the failure, not a hang)
            try:
                chan.send(Message(
                    kind=FAILURE, src=child_cfg.worker, dst=PARENT,
                    epoch=epoch,
                    payload=("transient", "job assignment failed CRC",
                             "ChecksumMismatchError")))
            except ChannelClosed:
                os._exit(EXIT_CHILD_ORPHANED)
            continue
        assignment: JobAssignment = unpack_payload(msg.payload)

        chaos = chaos_mode()
        if chaos == "crash":
            os._exit(EXIT_CHILD_CHAOS)
        elif chaos == "segv":  # pragma: no cover - signal-kill path
            import signal as _signal

            os.kill(os.getpid(), _signal.SIGSEGV)
        elif chaos == "oom":
            os._exit(EXIT_CHILD_OOM)

        token = CancelToken()
        preempt.clear()
        state.update(token=token, job=assignment.job_id, epoch=epoch,
                     phase="run", segments=0)
        if assignment.job_id in cancelled:
            # the CANCEL beat us to the pickup; honour it now (the set
            # publishes, the token trips — whichever thread runs last
            # wins either way under the GIL)
            token.cancel()
        rlimit_token = apply_rlimit(assignment.limit_bytes)
        try:
            session = sessions.get(assignment.kernel)
            if session is None:
                session = Session(get_stencil(assignment.kernel))
                sessions[assignment.kernel] = session
            cfg = prepare_run_config(session, assignment.config, token)

            def on_checkpoint(step: int, buffer: np.ndarray) -> None:
                chan.send(make_data_message(
                    CHECKPOINT, child_cfg.worker, PARENT, epoch,
                    (int(step),), (int(step), buffer)))

            def on_segment() -> None:
                state["segments"] = int(state["segments"]) + 1

            resume = None
            if (assignment.resume_step >= 0
                    and assignment.resume_buffer is not None):
                resume = (assignment.resume_step, assignment.resume_buffer)
            interior, stats, _ = run_job_segments(
                session, cfg, job_id=assignment.job_id,
                checkpoint_steps=assignment.checkpoint_steps,
                resume=resume, on_checkpoint=on_checkpoint,
                on_segment=on_segment,
                should_preempt=preempt.is_set)
            chan.send(make_data_message(
                RESULT, child_cfg.worker, PARENT, epoch, (),
                (interior, stats.to_json())))
        except JobPreempted as exc:
            try:
                chan.send(Message(
                    kind=PREEMPTED, src=child_cfg.worker, dst=PARENT,
                    epoch=epoch, payload=int(exc.step)))
            except ChannelClosed:
                os._exit(EXIT_CHILD_ORPHANED)
        except MemoryError:
            # the heap is starved; nothing (not even pickling an
            # apology) is safe — die and let the parent contain it
            os._exit(EXIT_CHILD_OOM)
        except ChannelClosed:
            os._exit(EXIT_CHILD_ORPHANED)
        except BaseException as exc:  # noqa: BLE001 - the blast wall
            verdict = classify_failure(exc)
            try:
                chan.send(Message(
                    kind=FAILURE, src=child_cfg.worker, dst=PARENT,
                    epoch=epoch,
                    payload=(verdict, str(exc), type(exc).__name__)))
            except ChannelClosed:
                os._exit(EXIT_CHILD_ORPHANED)
        finally:
            restore_rlimit(rlimit_token)
            cancelled.discard(assignment.job_id)
            state.update(token=None, job=None, phase="idle")

    chan.close()
