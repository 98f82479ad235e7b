"""Crash-safe job store: an append-only, CRC-framed write-ahead journal.

A job submitted to the durable runtime must survive the process that
accepted it.  Everything the supervisor knows about a job therefore
flows through one append-only journal before it is acted on:

* **Framing** — every record is ``magic | length | crc32`` followed by
  a JSON payload (the same seal-at-pack-time discipline as the worker
  channel's messages, :mod:`repro.service.transport`), and
  every append is flushed and fsync'd before the store's in-memory
  state changes.  A reader can always tell a half-written tail from a
  legal record.
* **Recovery** — opening a store replays the journal.  A truncated or
  corrupted tail (a writer killed mid-append) is quarantined to
  ``journal.wal.corrupt`` — the same tier discipline as the plan
  cache's ``<path>.corrupt`` files — and the journal is truncated back
  to its last whole record, so appends continue from a clean seam.
* **State machine** — jobs move only along
  :data:`LEGAL_TRANSITIONS` (``queued → admitted → running →
  done/failed/cancelled``, plus the ``→ queued`` re-queue edges used by
  retry and crash recovery).  Replay re-validates every journaled
  transition, so a journal that decodes cleanly but tells an illegal
  story raises :class:`JournalReplayError` instead of silently
  resurrecting an impossible state.
* **Idempotency** — a job's identity is the SHA-256 of its spec
  signature (:func:`repro.engine.cache.spec_signature`) plus the
  canonical JSON of its normalized :class:`~repro.api.config.RunConfig`.
  Resubmitting the same work returns the existing job instead of
  queueing a duplicate.

Results and mid-run checkpoints are bulk ndarrays and live *outside*
the journal as ``.npy`` files written with the fsync + atomic-rename
discipline; the journal records their relative path and SHA-256, so a
half-written or rotted file is detected at load time and quarantined
rather than trusted.

A finished job keeps only its small scalar fields in memory.  Its
submitted config and its result stats are already durable in the
journal's ``submit`` and ``result`` records, so the store remembers
those records' offsets and reads them back, re-checking their CRC,
when :meth:`JobStore.get` or :meth:`JobStore.load_result` asks.  A
long-lived server's memory therefore grows by about 1 KB per finished
job, not by the size of its config and stats.

Leases (``leases/<job_id>.lease``) are deliberately *not* journaled:
they are advisory liveness claims owned by one supervisor process, and
a crash must leave nothing that blocks a successor — recovery sweeps
them wholesale.  Every acquisition mints a monotonically increasing
*epoch* (a fencing token): result commits, checkpoint seals and lease
renewals may carry the epoch they were started under, and the store
refuses mutations from an epoch that has since been reclaimed
(:class:`~repro.runtime.errors.StaleLeaseError`) — a stalled old
worker incarnation can never seal a result over its successor's.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.errors import JobNotFound, StaleLeaseError

__all__ = [
    "QUEUED",
    "ADMITTED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "STATES",
    "TERMINAL_STATES",
    "LEGAL_TRANSITIONS",
    "Job",
    "JobStore",
    "JournalReplayError",
    "RecoveryReport",
    "SealMismatch",
    "job_identity",
]

# -- the job state machine -------------------------------------------

QUEUED = "queued"        #: journaled, waiting for a worker lease
ADMITTED = "admitted"    #: leased; admission estimate accepted
RUNNING = "running"      #: executing through the Session pipeline
DONE = "done"            #: result persisted and sealed
FAILED = "failed"        #: retry budget spent (or permanent refusal)
CANCELLED = "cancelled"  #: caller's verdict; never retried

STATES = (QUEUED, ADMITTED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))

#: the only edges a job may move along.  The ``→ queued`` back-edges
#: are the retry (transient failure, backoff respected by the
#: supervisor) and recovery (interrupted by a crash) paths; terminal
#: states have no exits — a finished job never runs again.
LEGAL_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    QUEUED: (ADMITTED, CANCELLED),
    ADMITTED: (RUNNING, QUEUED, CANCELLED),
    RUNNING: (DONE, FAILED, CANCELLED, QUEUED),
    DONE: (),
    FAILED: (),
    CANCELLED: (),
}


class JournalReplayError(RuntimeError):
    """The journal decoded cleanly but describes an illegal history.

    Distinct from corruption (quarantined, survivable): a record that
    passes its CRC yet commands an impossible state transition means
    the journal was produced by a buggy or foreign writer, and
    trusting it would resurrect a job in a state the supervisor can
    never have written.  Refusing loudly is the safe verdict.
    """


class SealMismatch(ValueError):
    """Sealed bytes no longer match their seal: a result file against
    its journaled SHA-256, or a journal record read back against its
    CRC32.  The bytes are never trusted."""


@dataclass
class Job:
    """One durable job: the spec reference, its knobs, and its history.

    The store keeps ``config`` only while the job is queued or running;
    a finished job's ``config`` and ``stats`` are ``None`` in memory
    and :meth:`JobStore.get` reads them back from the journal.
    """

    job_id: str
    kernel: str
    config: Optional[Dict[str, Any]]
    idempotency_key: str
    priority: int = 0
    max_retries: int = 2
    state: str = QUEUED
    attempts: int = 0
    submitted_unix: float = 0.0
    #: order-of-magnitude peak footprint (queue admission accounting)
    estimated_bytes: int = 0
    error: str = ""
    error_kind: str = ""
    #: step the last successful run segment resumed from (-1 = fresh)
    resumed_from_step: int = -1
    #: times this job crashed its worker process (poison accounting;
    #: a job reaching ``max_worker_crashes`` is quarantined)
    worker_crashes: int = 0
    #: journaled checkpoints, oldest first: (step, relpath, sha256)
    checkpoints: List[Tuple[int, str, str]] = field(default_factory=list)
    result_path: str = ""
    result_sha256: str = ""
    stats: Optional[Dict[str, Any]] = None
    #: journal offsets of the job's ``submit`` and latest ``result``
    #: records (-1 = none yet); store bookkeeping, not part of the JSON
    submit_at: int = field(default=-1, repr=False, compare=False)
    result_at: int = field(default=-1, repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def checkpoint_step(self) -> int:
        return self.checkpoints[-1][0] if self.checkpoints else -1

    def to_json(self) -> Dict[str, Any]:
        """The JSON view, in field order.  ``config`` and ``stats`` are
        the job's own dicts, not copies: serialize the view, do not
        mutate it."""
        return {
            "job_id": self.job_id,
            "kernel": self.kernel,
            "config": self.config,
            "idempotency_key": self.idempotency_key,
            "priority": self.priority,
            "max_retries": self.max_retries,
            "state": self.state,
            "attempts": self.attempts,
            "submitted_unix": self.submitted_unix,
            "estimated_bytes": self.estimated_bytes,
            "error": self.error,
            "error_kind": self.error_kind,
            "resumed_from_step": self.resumed_from_step,
            "worker_crashes": self.worker_crashes,
            "checkpoints": [list(c) for c in self.checkpoints],
            "result_path": self.result_path,
            "result_sha256": self.result_sha256,
            "stats": self.stats,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Job":
        data = dict(data)
        data["checkpoints"] = [tuple(c) for c in data.get("checkpoints", [])]
        return cls(**data)


@dataclass
class RecoveryReport:
    """What one startup recovery scan found and repaired."""

    replayed_records: int = 0
    requeued: int = 0          #: admitted/running jobs sent back to queued
    finalized: int = 0         #: running jobs whose result was already sealed
    corrupt_tail_bytes: int = 0
    leases_swept: int = 0
    tmp_swept: int = 0
    checkpoints_quarantined: int = 0

    def describe(self) -> str:
        return (
            f"records={self.replayed_records} requeued={self.requeued} "
            f"finalized={self.finalized} "
            f"corrupt_tail={self.corrupt_tail_bytes}B "
            f"leases_swept={self.leases_swept} tmp_swept={self.tmp_swept}"
        )


# -- job identity -----------------------------------------------------

def job_identity(kernel: str, config: Dict[str, Any]):
    """Resolve a job spec: ``(spec, cfg, shape, idempotency_key, bytes)``.

    The key hashes the *structural* spec signature and the canonical
    JSON of the normalized config, so two submissions that would run
    bit-identically — whatever spelling their backend/engine aliases
    used — collapse onto one job.  The byte estimate reuses the QoS
    admission model (:func:`repro.runtime.qos.estimate_peak_bytes`).
    """
    import hashlib

    from repro import get_stencil
    from repro.api.builder import ScheduleBuilder
    from repro.api.config import RunConfig
    from repro.engine.cache import spec_signature
    from repro.runtime.qos import estimate_peak_bytes

    spec = get_stencil(kernel)
    cfg = RunConfig.from_json(config).normalized()
    shape = cfg.shape or tuple(ScheduleBuilder().default_shape(spec))
    canon = json.dumps(cfg.to_json(), sort_keys=True,
                       separators=(",", ":"))
    # spec.name, not the submitted kernel string: alias spellings of a
    # staged system ("gray-scott", "gs", ...) resolve to one canonical
    # name, so they dedup onto one job (paper kernels are unaffected —
    # their registry key IS the spec name)
    digest = hashlib.sha256(
        f"{spec.name}|{spec_signature(spec)!r}|{canon}".encode()
    ).hexdigest()
    estimate = estimate_peak_bytes(spec, shape, cfg)
    return spec, cfg, shape, digest, int(estimate)


# -- journal framing --------------------------------------------------

_MAGIC = b"RJW1"
_HEADER = struct.Struct(">4sII")  # magic, payload length, crc32
_MAX_RECORD = 64 << 20  # a length field larger than this is corruption


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _fsync_dir(path: str) -> None:
    """Best-effort directory fsync so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_bytes(path: str, data: bytes, *, fsync: bool) -> None:
    """fsync + rename discipline: the file exists whole or not at all."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(os.path.dirname(path))


def _sha256_file(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _array_bytes(arr: np.ndarray) -> bytes:
    """Serialize an ndarray to .npy bytes (dtype/shape preserved)."""
    import io

    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


# -- the store --------------------------------------------------------

class JobStore:
    """Journal-backed job state, results, checkpoints and leases.

    Thread-safe: the supervisor's worker threads and the HTTP front
    share one store.  ``fsync=False`` trades the power-loss guarantee
    for speed and exists for tests/benchmarks only — the default is
    the durable discipline described in the module docstring.
    """

    #: checkpoints retained per job; older files are pruned as new
    #: ones seal, the latest-but-one surviving as a fallback should the
    #: newest fail its SHA-256 at restore time
    KEEP_CHECKPOINTS = 2

    def __init__(self, root: str, *, fsync: bool = True):
        self.root = os.path.abspath(root)
        self.fsync = fsync
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._records = 0
        self._corrupt_tail_bytes = 0
        self._dedup_hits = 0
        self._results_stored = 0
        self._checkpoints_taken = 0
        self._stale_rejected = 0
        #: job_id -> most recently minted lease epoch (fencing tokens;
        #: in-memory only — leases are advisory and swept on recovery)
        self._lease_epochs: Dict[str, int] = {}
        for sub in ("journal", "results", "checkpoints", "leases"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        self._journal_path = os.path.join(self.root, "journal",
                                          "journal.wal")
        #: byte offset where the next record goes
        self._end = 0
        self._replay()
        self._fh = open(self._journal_path, "ab")
        # finished jobs' config and stats are read back through this
        self._rfd = os.open(self._journal_path, os.O_RDONLY)

    # -- journal ------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> int:
        """Seal one record and make it durable before returning; the
        return value is the record's offset in the journal."""
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode()
        self._fh.write(_HEADER.pack(_MAGIC, len(payload), _crc(payload)))
        self._fh.write(payload)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._records += 1
        offset = self._end
        self._end += _HEADER.size + len(payload)
        return offset

    def _read_record(self, offset: int) -> Dict[str, Any]:
        """Read back the record at ``offset``, re-checking its CRC."""
        header = os.pread(self._rfd, _HEADER.size, offset)
        payload = b""
        if len(header) == _HEADER.size:
            magic, length, crc = _HEADER.unpack(header)
            if magic == _MAGIC and length <= _MAX_RECORD:
                payload = os.pread(self._rfd, length,
                                   offset + _HEADER.size)
                if len(payload) == length and _crc(payload) == crc:
                    return json.loads(payload)
        raise SealMismatch(f"journal record at offset {offset} failed "
                           f"its CRC32 seal")

    def _replay(self) -> None:
        """Rebuild in-memory state; quarantine a torn journal tail."""
        path = self._journal_path
        if not os.path.exists(path):
            return
        good_end = 0
        with open(path, "rb") as fh:
            while True:
                header = fh.read(_HEADER.size)
                if not header:
                    break
                if len(header) < _HEADER.size:
                    break  # torn header
                magic, length, crc = _HEADER.unpack(header)
                if magic != _MAGIC or length > _MAX_RECORD:
                    break
                payload = fh.read(length)
                if len(payload) < length or _crc(payload) != crc:
                    break  # torn or corrupted payload
                try:
                    record = json.loads(payload)
                except ValueError:
                    break
                self._apply(record, good_end)
                self._records += 1
                good_end += _HEADER.size + length
        self._end = good_end
        size = os.path.getsize(path)
        if good_end < size:
            # quarantine the torn tail (never silently discard bytes),
            # then truncate back to the last whole record so appends
            # resume from a clean seam
            with open(path, "rb") as fh:
                fh.seek(good_end)
                tail = fh.read()
            with open(f"{path}.corrupt", "ab") as fh:
                fh.write(tail)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            with open(path, "ab") as fh:
                fh.truncate(good_end)
                if self.fsync:
                    os.fsync(fh.fileno())
            self._corrupt_tail_bytes = size - good_end

    def _apply(self, record: Dict[str, Any], offset: int) -> None:
        """Fold one journal record (found at ``offset``) into the
        in-memory state."""
        op = record.get("op")
        if op == "submit":
            job = Job.from_json(record["job"])
            job.submit_at = offset
            self._jobs[job.job_id] = job
            self._by_key[job.idempotency_key] = job.job_id
        elif op == "transition":
            job = self._jobs.get(record["job_id"])
            if job is None:
                raise JournalReplayError(
                    f"transition for unknown job {record['job_id']!r}")
            src, dst = record["from"], record["to"]
            if job.state != src or dst not in LEGAL_TRANSITIONS.get(src, ()):
                raise JournalReplayError(
                    f"illegal transition {src} -> {dst} for job "
                    f"{job.job_id} (in state {job.state})")
            job.state = dst
            job.attempts = int(record.get("attempts", job.attempts))
            job.error = record.get("error", job.error)
            job.error_kind = record.get("error_kind", job.error_kind)
            job.resumed_from_step = int(
                record.get("resumed_from_step", job.resumed_from_step))
            job.worker_crashes = int(
                record.get("worker_crashes", job.worker_crashes))
            if dst in TERMINAL_STATES:
                job.config = None
        elif op == "checkpoint":
            job = self._jobs.get(record["job_id"])
            if job is not None:
                job.checkpoints.append(
                    (int(record["step"]), record["path"], record["sha256"]))
        elif op == "result":
            job = self._jobs.get(record["job_id"])
            if job is not None:
                job.result_path = record["path"]
                job.result_sha256 = record["sha256"]
                job.result_at = offset
        # unknown ops are skipped: a newer writer may add record kinds
        # an older reader can safely ignore

    # -- submission / lookup ------------------------------------------

    def submit(self, kernel: str, config: Dict[str, Any], *,
               priority: int = 0, max_retries: int = 2,
               identity: Optional[tuple] = None) -> Tuple[Job, bool]:
        """Journal a new job, or return the existing one (idempotency).

        Returns ``(job, created)``; ``created=False`` means the same
        (spec signature, config) was already journaled and the caller
        got the existing job — whatever state it has reached.
        ``identity`` is :func:`job_identity`'s result for this kernel
        and config, when the caller already has it.
        """
        _, _, _, key, estimate = identity or job_identity(kernel, config)
        with self._lock:
            existing = self._by_key.get(key)
            if existing is not None:
                self._dedup_hits += 1
                return self.get(existing), False
            job = Job(
                job_id=f"job-{key[:16]}",
                kernel=kernel,
                config=dict(config),
                idempotency_key=key,
                priority=int(priority),
                max_retries=int(max_retries),
                state=QUEUED,
                submitted_unix=time.time(),
                estimated_bytes=estimate,
            )
            job.submit_at = self._append({"op": "submit",
                                          "job": job.to_json()})
            self._jobs[job.job_id] = job
            self._by_key[key] = job.job_id
            return job, True

    def _job(self, job_id: str) -> Job:
        """The resident record (a finished job's config/stats unset)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        return job

    def resident(self, job_id: str) -> Job:
        """The in-memory record, with nothing read back: a finished
        job's ``config`` and ``stats`` are ``None``."""
        with self._lock:
            return self._job(job_id)

    def get(self, job_id: str) -> Job:
        """The job's full record.

        A queued or running job is returned as the live record.  A
        finished job comes back as a copy whose ``config`` and
        ``stats`` were read back from the journal; a record that fails
        its CRC raises :class:`SealMismatch`.
        """
        with self._lock:
            job = self._job(job_id)
            if job.config is not None and job.result_at < 0:
                return job
            submit_at, result_at = job.submit_at, job.result_at
        # offsets of journaled records never move: read outside the lock
        config = self._read_record(submit_at)["job"]["config"]
        stats = (self._read_record(result_at).get("stats")
                 if result_at >= 0 else None)
        return replace(job, config=config, stats=stats)

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        """Every job's resident record, oldest first (a finished job's
        ``config`` and ``stats`` are ``None``; :meth:`get` reads them
        back)."""
        with self._lock:
            out = list(self._jobs.values())
        if state is not None:
            out = [j for j in out if j.state == state]
        return sorted(out, key=lambda j: j.submitted_unix)

    # -- transitions --------------------------------------------------

    def transition(self, job_id: str, to: str, *, detail: str = "",
                   error: str = "", error_kind: str = "",
                   attempts: Optional[int] = None,
                   resumed_from_step: Optional[int] = None,
                   worker_crashes: Optional[int] = None) -> Job:
        """Atomically journal and apply one legal state transition.

        Journal-first: the record is durable before the in-memory
        state moves, so a crash between the two replays to the *new*
        state — the supervisor can never observe work it has no record
        of.  Illegal edges raise ``ValueError`` (a usage error, not a
        corrupt store).
        """
        with self._lock:
            job = self._job(job_id)
            src = job.state
            if to not in LEGAL_TRANSITIONS.get(src, ()):
                raise ValueError(
                    f"illegal job transition {src} -> {to} for {job_id}")
            record: Dict[str, Any] = {
                "op": "transition", "job_id": job_id,
                "from": src, "to": to,
            }
            if detail:
                record["detail"] = detail
            if error:
                record["error"] = error
            if error_kind:
                record["error_kind"] = error_kind
            if attempts is not None:
                record["attempts"] = int(attempts)
            if resumed_from_step is not None:
                record["resumed_from_step"] = int(resumed_from_step)
            if worker_crashes is not None:
                record["worker_crashes"] = int(worker_crashes)
            self._append(record)
            job.state = to
            if attempts is not None:
                job.attempts = int(attempts)
            if error:
                job.error = error
            if error_kind:
                job.error_kind = error_kind
            if resumed_from_step is not None:
                job.resumed_from_step = int(resumed_from_step)
            if worker_crashes is not None:
                job.worker_crashes = int(worker_crashes)
            if to in TERMINAL_STATES:
                job.config = None  # durable in the submit record
            return job

    # -- checkpoints --------------------------------------------------

    def save_checkpoint(self, job_id: str, step: int,
                        buffer: np.ndarray,
                        epoch: Optional[int] = None) -> str:
        """Seal a mid-run checkpoint: the padded buffer at time ``step``.

        The file is written with fsync + rename, hashed, and only then
        journaled — so a checkpoint record always points at a whole
        file.  Older checkpoints beyond :data:`KEEP_CHECKPOINTS` are
        pruned from disk (their journal records stay; restore skips
        missing files).  With ``epoch``, a seal from a reclaimed lease
        raises :class:`StaleLeaseError` before anything is written — a
        stalled old worker must not inject a resume point.
        """
        with self._lock:
            self._check_epoch(job_id, epoch, "checkpoint")
            job = self._job(job_id)
            rel = os.path.join("checkpoints", job_id,
                               f"step-{step:08d}.npy")
            path = os.path.join(self.root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _atomic_write_bytes(path, _array_bytes(buffer),
                                fsync=self.fsync)
            sha = _sha256_file(path)
            self._append({"op": "checkpoint", "job_id": job_id,
                          "step": int(step), "path": rel, "sha256": sha})
            job.checkpoints.append((int(step), rel, sha))
            self._checkpoints_taken += 1
            for old_step, old_rel, _ in job.checkpoints[:-self.KEEP_CHECKPOINTS]:
                try:
                    os.unlink(os.path.join(self.root, old_rel))
                except OSError:
                    pass
            return path

    def load_checkpoint(self, job_id: str,
                        report: Optional[RecoveryReport] = None
                        ) -> Optional[Tuple[int, np.ndarray]]:
        """Newest restorable checkpoint ``(step, padded buffer)``.

        Walks the journaled checkpoints newest-first; a file that is
        missing (pruned) is skipped, one that fails its SHA-256 is
        quarantined to ``<path>.corrupt`` — trusting it would poison
        the resumed run — and the next-older one is tried.  ``None``
        means restart from the journal (step 0).
        """
        with self._lock:
            job = self._job(job_id)
            candidates = list(reversed(job.checkpoints))
        for step, rel, sha in candidates:
            path = os.path.join(self.root, rel)
            if not os.path.exists(path):
                continue
            if _sha256_file(path) != sha:
                try:
                    os.replace(path, f"{path}.corrupt")
                except OSError:
                    pass
                if report is not None:
                    report.checkpoints_quarantined += 1
                continue
            with open(path, "rb") as fh:
                arr = np.load(fh, allow_pickle=False)
            return int(step), arr
        return None

    # -- results ------------------------------------------------------

    def record_result(self, job_id: str, interior: np.ndarray,
                      stats: Dict[str, Any],
                      epoch: Optional[int] = None) -> Job:
        """Seal the answer and move the job to ``done``.

        Write order is the recovery contract: array file (fsync +
        rename), ``result`` journal record (path + SHA-256 + stats),
        then the ``running → done`` transition.  A crash between the
        last two leaves a sealed result that recovery finalizes instead
        of re-running.  With ``epoch``, a commit from a reclaimed lease
        raises :class:`StaleLeaseError` before anything is written —
        the fencing-token pattern that makes lease takeover safe.
        """
        with self._lock:
            self._check_epoch(job_id, epoch, "result commit")
            job = self._job(job_id)
            rel = os.path.join("results", f"{job_id}.npy")
            path = os.path.join(self.root, rel)
            _atomic_write_bytes(path, _array_bytes(interior),
                                fsync=self.fsync)
            sha = _sha256_file(path)
            job.result_at = self._append({
                "op": "result", "job_id": job_id, "path": rel,
                "sha256": sha, "stats": stats})
            job.result_path = rel
            job.result_sha256 = sha
            self._results_stored += 1
            return self.transition(job_id, DONE)

    def load_result(self, job_id: str) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Load a sealed result, re-verifying its SHA-256 (and the CRC
        of the journal record its stats are read back from)."""
        with self._lock:
            job = self._job(job_id)
            if job.state != DONE or not job.result_path:
                raise ValueError(
                    f"job {job_id} has no sealed result "
                    f"(state={job.state})")
            path = os.path.join(self.root, job.result_path)
            sha = job.result_sha256
            result_at = job.result_at
        stats = self._read_record(result_at).get("stats") or {}
        if _sha256_file(path) != sha:
            raise SealMismatch(f"result file for {job_id} failed its "
                               f"SHA-256 seal")
        with open(path, "rb") as fh:
            arr = np.load(fh, allow_pickle=False)
        return arr, stats

    # -- leases -------------------------------------------------------

    def _lease_path(self, job_id: str) -> str:
        return os.path.join(self.root, "leases", f"{job_id}.lease")

    def acquire_lease(self, job_id: str, owner: str,
                      ttl_s: float) -> Optional[int]:
        """Claim a job for one worker; ``None`` if another lease is live.

        On success returns the claim's fresh *epoch* — a monotonically
        increasing fencing token (≥ 1, so truthiness keeps meaning
        "acquired").  Epoch-carrying mutations from earlier claims are
        refused from then on: a takeover does not merely assume the old
        holder is dead, it makes the old holder's writes impossible.
        """
        path = self._lease_path(job_id)
        with self._lock:
            epoch = self._next_epoch(job_id, path)
            payload = self._lease_payload(job_id, owner, ttl_s, epoch)
            try:
                with open(path, "xb") as fh:
                    fh.write(payload)
                self._lease_epochs[job_id] = epoch
                return epoch
            except FileExistsError:
                pass
            holder = self._read_lease(path)
            if (holder is not None and holder.get("owner") != owner
                    and holder.get("expires_unix", 0) > time.time()):
                return None
            # stale (expired / unreadable) or our own: take it over
            _atomic_write_bytes(path, payload, fsync=False)
            self._lease_epochs[job_id] = epoch
            return epoch

    def _next_epoch(self, job_id: str, path: str) -> int:
        """Mint a fencing token above every epoch ever observed."""
        known = self._lease_epochs.get(job_id, 0)
        holder = self._read_lease(path)
        on_disk = int(holder.get("epoch", 0)) if holder else 0
        return max(known, on_disk) + 1

    @staticmethod
    def _lease_payload(job_id: str, owner: str, ttl_s: float,
                       epoch: int) -> bytes:
        return json.dumps({
            "job_id": job_id, "owner": owner, "pid": os.getpid(),
            "epoch": int(epoch),
            "expires_unix": time.time() + ttl_s,
        }).encode()

    def lease_epoch(self, job_id: str) -> int:
        """The current (most recently minted) epoch; 0 = never leased."""
        with self._lock:
            return self._lease_epochs.get(job_id, 0)

    def _check_epoch(self, job_id: str, epoch: Optional[int],
                     what: str) -> None:
        if epoch is None:
            return
        current = self._lease_epochs.get(job_id, int(epoch))
        if int(epoch) != current:
            self._stale_rejected += 1
            raise StaleLeaseError(job_id, int(epoch), current, what=what)

    def renew_lease(self, job_id: str, owner: str, ttl_s: float,
                    epoch: Optional[int] = None) -> None:
        """Heartbeat: push the lease expiry forward.

        With ``epoch``, a renewal from a reclaimed incarnation raises
        :class:`StaleLeaseError` instead of resurrecting the old claim
        over the new holder's.
        """
        path = self._lease_path(job_id)
        with self._lock:
            self._check_epoch(job_id, epoch, "renew")
            current = (int(epoch) if epoch is not None
                       else self._lease_epochs.get(job_id, 0))
            _atomic_write_bytes(
                path, self._lease_payload(job_id, owner, ttl_s, current),
                fsync=False)

    def release_lease(self, job_id: str,
                      epoch: Optional[int] = None) -> None:
        """Drop a claim; a stale ``epoch`` is a silent no-op (the lease
        now belongs to a newer incarnation and must survive)."""
        with self._lock:
            if (epoch is not None
                    and self._lease_epochs.get(job_id, int(epoch))
                    != int(epoch)):
                return
            try:
                os.unlink(self._lease_path(job_id))
            except OSError:
                pass

    def lease_holder(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self._read_lease(self._lease_path(job_id))

    @staticmethod
    def _read_lease(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "rb") as fh:
                return json.loads(fh.read())
        except (OSError, ValueError):
            return None

    # -- recovery -----------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Startup scan: finalize, re-queue, and sweep what a dead
        supervisor left behind.

        * ``running`` jobs with a sealed result → ``done`` (the crash
          hit between the result record and its transition);
        * other ``admitted``/``running`` jobs → ``queued`` (their lease
          holder is gone; the supervisor will resume them from their
          newest restorable checkpoint);
        * every lease file and half-written ``*.tmp.*`` is swept — no
          other process may hold a claim across a store reopen.
        """
        report = RecoveryReport(
            replayed_records=self._records,
            corrupt_tail_bytes=self._corrupt_tail_bytes,
        )
        with self._lock:
            for job in list(self._jobs.values()):
                if job.state == RUNNING and job.result_path:
                    self.transition(job.job_id, DONE,
                                    detail="finalized by recovery")
                    report.finalized += 1
                elif job.state in (ADMITTED, RUNNING):
                    self.transition(job.job_id, QUEUED,
                                    detail="requeued by recovery")
                    report.requeued += 1
            lease_dir = os.path.join(self.root, "leases")
            for name in os.listdir(lease_dir):
                try:
                    os.unlink(os.path.join(lease_dir, name))
                    report.leases_swept += 1
                except OSError:
                    pass
            report.tmp_swept = self.sweep_tmp()
        return report

    def sweep_tmp(self) -> int:
        """Remove half-written ``*.tmp.<pid>`` files under the root."""
        swept = 0
        for dirpath, _, names in os.walk(self.root):
            for name in names:
                if ".tmp." in name:
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        swept += 1
                    except OSError:
                        pass
        return swept

    # -- metrics / lifecycle ------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        with self._lock:
            by_state = {s: 0 for s in STATES}
            for job in self._jobs.values():
                by_state[job.state] += 1
            return {
                "jobs": by_state,
                "journal_records": self._records,
                "journal_bytes": (os.path.getsize(self._journal_path)
                                  if os.path.exists(self._journal_path)
                                  else 0),
                "corrupt_tail_bytes": self._corrupt_tail_bytes,
                "dedup_hits": self._dedup_hits,
                "results_stored": self._results_stored,
                "checkpoints_taken": self._checkpoints_taken,
                "stale_rejected": self._stale_rejected,
            }

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                if self.fsync:
                    try:
                        os.fsync(self._fh.fileno())
                    except OSError:
                        pass
                self._fh.close()
                os.close(self._rfd)

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
