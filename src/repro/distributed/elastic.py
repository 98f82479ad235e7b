"""Elastic multiprocess coordinator for the distributed runtime.

:func:`_execute_elastic` runs a tessellated stencil across *real* rank
processes (one :func:`~repro.distributed.worker.worker_main` each) and
keeps the run alive through an elastic failure model:

* **Heartbeat watchdog** — every worker beacons ``(state, monotone
  counter, phase)``; a silent pipe past ``heartbeat_timeout_s`` marks
  the rank lost, and a beating rank whose *compute* counter is frozen
  past ``stall_timeout_s`` is culled as a straggler.
* **Rank-crash recovery** — a lost rank is respawned as incarnation
  ``i+1`` (its fault plan pre-burned so a transient ``kill_rank`` does
  not re-fire forever); all live ranks get an ``abort`` and restore the
  last committed phase checkpoint; once every rank reports in, a
  ``resume`` replays the phase.  Phase boundaries are global
  consistency points of the tessellation, so replay is deterministic
  and a recovered run is **bit-identical** to a fault-free one.
* **Checksummed exchanges** — all rank-to-rank boundary-band traffic is
  routed through the coordinator (star topology: respawning a rank
  needs one fresh pipe, never re-plumbing live neighbours), CRC-sealed
  at pack time and verified at receive time; workers heal transient
  losses/corruption with bounded timeout + backoff retransmits and
  report a structured ``failure`` when the budget is spent.

Every budget is finite, so a persistent failure ends in a *typed*
error instead of a hang: :class:`~repro.runtime.errors.RankLostError`
(respawn budget spent), :class:`~repro.runtime.errors
.ExchangeTimeoutError` / :class:`~repro.runtime.errors
.ChecksumMismatchError` (phase-restart budget spent on a reported
exchange failure), or a plain :class:`~repro.runtime.errors
.ExecutionError` if the whole run overruns ``deadline_s``.

Checkpoint spill files live in a per-run temporary directory that is
removed on success *and* on coordinator abort (the ``finally`` in
:func:`_execute_elastic`), so no run leaks spill files.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import shutil
import tempfile
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.profiles import TessLattice
from repro.distributed.exec import CommStats
from repro.distributed.partition import SlabPartition
from repro.distributed.transport import (
    ABORT,
    BAND,
    COMMIT,
    COORDINATOR,
    Channel,
    ChannelClosed,
    FAILURE,
    HEARTBEAT,
    HELLO,
    Message,
    PHASE_DONE,
    RESEND,
    RESTORED,
    RESULT,
    RESUME,
    RetryPolicy,
    SHUTDOWN,
    unpack_payload,
    verify_message,
)
from repro.distributed.worker import RESULT_KEY, WorkerConfig, worker_main
from repro.runtime.errors import (
    ChecksumMismatchError,
    ExchangeTimeoutError,
    ExecutionError,
    RankLostError,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.tracing import ExecutionTrace
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


@dataclass(frozen=True)
class ElasticConfig:
    """Failure-model knobs of the elastic coordinator.

    Defaults are tuned for test-scale grids: fast enough that a chaos
    suite converges in seconds, loose enough that a loaded CI machine
    does not trip false stragglers.
    """

    #: worker beacon period
    heartbeat_s: float = 0.02
    #: silence past this marks the rank lost (cause ``"heartbeat"``)
    heartbeat_timeout_s: float = 2.0
    #: frozen *compute* progress past this culls a straggler
    stall_timeout_s: float = 1.5
    #: budget for the restore/respawn barrier before re-culling ranks
    recovery_timeout_s: float = 5.0
    #: per-message timeout/backoff budget used by every worker
    retry: RetryPolicy = RetryPolicy()
    #: respawn budget per rank; exceeding it raises ``RankLostError``
    max_respawns: int = 2
    #: replay budget per phase; exceeding it raises the typed error of
    #: the last reported failure cause
    max_phase_restarts: int = 4
    #: wall-clock backstop for the whole run
    deadline_s: float = 120.0
    #: parent directory for the per-run spill dir (default: system tmp)
    checkpoint_dir: Optional[str] = None


@dataclass
class _RankState:
    """Coordinator-side view of one rank."""

    proc: Optional[mp.process.BaseProcess] = None
    chan: Optional[Channel] = None
    incarnation: int = 0
    last_beat: float = 0.0
    #: (heartbeat state, counter) and when the counter last advanced
    progress: Tuple[str, int] = ("init", -1)
    progress_since: float = 0.0
    beats: int = 0
    result_retries: int = 0
    slab: Optional[np.ndarray] = None


class _Coordinator:
    def __init__(
        self,
        spec: StencilSpec,
        grid: Grid,
        lattice: TessLattice,
        steps: int,
        ranks: int,
        axis: int,
        *,
        fault_plan: Optional[FaultPlan],
        config: ElasticConfig,
        ghost_override: Optional[int],
        trace: Optional[ExecutionTrace],
        budget=None,
    ):
        self.spec = spec
        self.budget = budget
        self.shape = grid.shape
        self.steps = steps
        self.ranks = ranks
        self.axis = axis
        self.cfg = config
        self.trace = trace
        self.part = SlabPartition(grid.shape, ranks, axis=axis)
        self.bounds = self.part.bounds()
        ghost = self.part.ghost_width(lattice)
        self.ghost = ghost if ghost_override is None else int(ghost_override)
        self.n_phases = (steps + lattice.b - 1) // lattice.b
        self.ckpt_dir = tempfile.mkdtemp(prefix="repro-elastic-",
                                         dir=config.checkpoint_dir)
        # a killed *parent* never reaches shutdown()'s rmtree; a
        # dedicated callable (so it can be unregistered on the normal
        # path) makes interpreter exit sweep the spill dir too
        self._cleanup = lambda d=self.ckpt_dir: shutil.rmtree(
            d, ignore_errors=True)
        atexit.register(self._cleanup)
        self.base_cfg = WorkerConfig(
            rank=0, ranks=ranks, spec=spec, lattice=lattice,
            shape=tuple(grid.shape), steps=steps, axis=axis,
            ghost=self.ghost,
            init_buffers=[buf.copy() for buf in grid.buffers],
            ckpt_dir=self.ckpt_dir, heartbeat_s=config.heartbeat_s,
            retry=config.retry, fault_plan=fault_plan,
        )
        try:
            self.mp = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self.mp = mp.get_context()
        self.epoch = 0
        self.committed = 0
        self.stats = CommStats()
        self.rank_state = [_RankState() for _ in range(ranks)]
        self.phase_done: Dict[int, Set[int]] = {}
        self.restarts: Dict[int, int] = {}
        #: last worker-reported exchange failure: (cause, stage, src,
        #: dst, attempts) — names the typed error if budgets run out
        self.last_failure: Optional[Tuple[str, int, int, int, int]] = None
        self.t0 = time.monotonic()

    # -- trace/plumbing helpers --------------------------------------

    def _event(self, kind: str, group: int, detail: str = "") -> None:
        if self.trace is not None:
            self.trace.record_event(kind, group, detail=detail)

    def _check_deadline(self) -> None:
        # the caller's QoS budget shares the coordinator's poll clock;
        # it outranks the coordinator's own wall-clock backstop
        if self.budget is not None:
            self.budget.check(f"elastic phase {self.committed}")
        if time.monotonic() - self.t0 > self.cfg.deadline_s:
            raise ExecutionError(
                f"elastic run exceeded the {self.cfg.deadline_s:.1f}s "
                f"wall-clock backstop",
                scheme="elastic",
            )

    def _spawn(self, rank: int, restore_phase: int) -> None:
        st = self.rank_state[rank]
        parent, child = self.mp.Pipe(duplex=True)
        cfg = WorkerConfig(
            **{**self.base_cfg.__dict__,
               "rank": rank, "epoch": self.epoch,
               "incarnation": st.incarnation,
               "restore_phase": restore_phase},
        )
        proc = self.mp.Process(target=worker_main, args=(cfg, child),
                               daemon=True,
                               name=f"repro-rank{rank}.{st.incarnation}")
        proc.start()
        child.close()
        now = time.monotonic()
        st.proc = proc
        st.chan = Channel(parent)
        st.last_beat = now
        st.progress = ("init", -1)
        st.progress_since = now
        st.slab = None

    def _kill(self, rank: int) -> None:
        st = self.rank_state[rank]
        if st.proc is not None and st.proc.is_alive():
            st.proc.terminate()
            st.proc.join(timeout=1.0)
        if st.chan is not None:
            st.chan.close()
            st.chan = None

    def _respawn(self, rank: int, cause: str) -> None:
        st = self.rank_state[rank]
        if st.incarnation + 1 > self.cfg.max_respawns:
            raise RankLostError(rank, cause, respawns=st.incarnation,
                                detail="respawn budget exhausted")
        self._kill(rank)
        st.incarnation += 1
        self.stats.respawns += 1
        self._event("respawn", rank,
                    f"incarnation {st.incarnation} ({cause}), "
                    f"restore phase {self.committed}")
        self._spawn(rank, restore_phase=self.committed)

    def _send(self, rank: int, kind: str, key: Tuple[int, ...] = (),
              payload=None) -> bool:
        st = self.rank_state[rank]
        if st.chan is None:
            return False
        try:
            st.chan.send(Message(kind=kind, src=COORDINATOR, dst=rank,
                                 epoch=self.epoch, key=key,
                                 payload=payload))
            return True
        except ChannelClosed:
            return False

    def _broadcast(self, kind: str, key: Tuple[int, ...] = (),
                   payload=None) -> None:
        for r in range(self.ranks):
            self._send(r, kind, key=key, payload=payload)

    def _poll(self, timeout_s: float) -> List[Tuple[int, Message]]:
        """Drain ready channels; dead pipes surface as channel loss."""
        conns = {}
        for r, st in enumerate(self.rank_state):
            if st.chan is not None:
                conns[st.chan.conn] = r
        if not conns:
            time.sleep(timeout_s)
            return []
        out: List[Tuple[int, Message]] = []
        for conn in _conn_wait(list(conns), timeout=timeout_s):
            rank = conns[conn]
            chan = self.rank_state[rank].chan
            try:
                while chan is not None and chan.poll():
                    msg = chan.recv(0)
                    if msg is not None:
                        out.append((rank, msg))
            except ChannelClosed:
                pass  # liveness check picks the dead rank up
        return out

    # -- message handling --------------------------------------------

    def _note_beat(self, rank: int, msg: Message) -> None:
        st = self.rank_state[rank]
        now = time.monotonic()
        st.last_beat = now
        st.beats += 1
        self.stats.heartbeats += 1
        state, counter, _phase = msg.payload
        if (state, counter) != st.progress:
            st.progress = (state, counter)
            st.progress_since = now

    def _handle(self, rank: int, msg: Message) -> None:
        if msg.kind == HEARTBEAT:
            self._note_beat(rank, msg)
            return
        if msg.kind in (BAND, RESEND) and msg.dst != COORDINATOR:
            if msg.epoch != self.epoch:
                return  # traffic from a killed phase
            if msg.kind == BAND and isinstance(msg.payload, bytes):
                self.stats.record(msg.key[0], len(msg.payload))
            self._send_routed(msg)
            return
        if msg.epoch != self.epoch:
            return
        if msg.kind == PHASE_DONE:
            self._handle_phase_done(rank, msg)
        elif msg.kind == FAILURE:
            self._handle_failure(rank, msg)
        elif msg.kind == RESULT:
            self._handle_result(rank, msg)
        # HELLO / RESTORED outside a barrier: harmless duplicates

    def _send_routed(self, msg: Message) -> None:
        st = self.rank_state[msg.dst]
        if st.chan is None:
            return
        try:
            st.chan.send(msg)
        except ChannelClosed:
            pass

    def _handle_phase_done(self, rank: int, msg: Message) -> None:
        p = msg.key[0]
        wstats = dict(msg.payload)
        self.stats.merge_worker(wstats)
        if wstats.get("retries"):
            self._event("retry", p,
                        f"rank {rank}: {wstats['retries']} retransmit "
                        f"request(s), {wstats.get('timeouts', 0)} "
                        f"timeout(s), {wstats.get('checksum_failures', 0)} "
                        f"CRC failure(s)")
        done = self.phase_done.setdefault(p, set())
        done.add(rank)
        if p == self.committed and len(done) == self.ranks:
            self.committed = p + 1
            self._broadcast(COMMIT, key=(p,))
            self._event("commit", p, f"phase {p} committed")

    def _handle_failure(self, rank: int, msg: Message) -> None:
        cause, attempts, wstats = msg.payload
        stage, src = msg.key
        self.stats.merge_worker(wstats)
        self.last_failure = (cause, stage, src, rank, attempts)
        self._event("failure", stage,
                    f"rank {rank} gave up on band {src}->{rank} "
                    f"({cause}) after {attempts} attempt(s)")
        self._recover([], cause)

    def _handle_result(self, rank: int, msg: Message) -> None:
        st = self.rank_state[rank]
        if not verify_message(msg):
            self.stats.checksum_failures += 1
            st.result_retries += 1
            if st.result_retries > self.cfg.retry.max_retries:
                raise ChecksumMismatchError(-1, rank, COORDINATOR,
                                            st.result_retries)
            self.stats.retries += 1
            self._send(rank, RESEND, key=RESULT_KEY)
            return
        slab, wstats = unpack_payload(msg.payload)
        self.stats.merge_worker(wstats)
        st.slab = slab

    # -- failure detection -------------------------------------------

    def _liveness_check(self) -> None:
        now = time.monotonic()
        lost: List[Tuple[int, str]] = []
        for r, st in enumerate(self.rank_state):
            if st.slab is not None:
                continue
            if st.proc is None or not st.proc.is_alive():
                lost.append((r, "dead"))
            elif now - st.last_beat > self.cfg.heartbeat_timeout_s:
                lost.append((r, "heartbeat"))
            elif (st.progress[0] == "compute"
                  and now - st.progress_since > self.cfg.stall_timeout_s):
                lost.append((r, "straggler"))
        if lost:
            cause = lost[0][1]
            self._event("watchdog", lost[0][0],
                        ", ".join(f"rank {r} {c}" for r, c in lost))
            self._recover([r for r, c in lost if c in ("dead", "heartbeat")],
                          cause)

    # -- recovery ----------------------------------------------------

    def _recover(self, dead: List[int], cause: str) -> None:
        """Kill the phase, respawn the dead, restore, replay."""
        restore = self.committed
        count = self.restarts.get(restore, 0) + 1
        self.restarts[restore] = count
        if count > self.cfg.max_phase_restarts:
            raise self._terminal_error(cause)
        self.epoch += 1
        self.stats.phase_restarts += 1
        self._event("restore", restore,
                    f"epoch {self.epoch}: abort + restore phase {restore} "
                    f"({cause}, replay {count}/{self.cfg.max_phase_restarts})")
        # stale bookkeeping of the killed phase
        self.phase_done = {p: s for p, s in self.phase_done.items()
                           if p < restore}
        for st in self.rank_state:
            st.slab = None
            st.result_retries = 0
        ready: Set[int] = set()
        for r in dead:
            self._respawn(r, cause)
        for r in range(self.ranks):
            if r in dead:
                continue
            if not self._send(r, ABORT, payload=restore):
                self._respawn(r, "dead")
        self._await_ready(ready)
        self._resume()

    def _terminal_error(self, cause: str) -> ExecutionError:
        if self.last_failure is not None:
            fcause, stage, src, dst, attempts = self.last_failure
            if fcause == "checksum":
                return ChecksumMismatchError(stage, src, dst, attempts)
            return ExchangeTimeoutError(stage, src, dst, attempts)
        rank = next((r for r, st in enumerate(self.rank_state)
                     if st.slab is None), 0)
        return RankLostError(rank, cause,
                             respawns=self.rank_state[rank].incarnation,
                             detail="phase-restart budget exhausted")

    def _await_ready(self, ready: Set[int]) -> None:
        """Barrier: every rank must report restored (or hello again).

        A rank that misses the barrier deadline — or dies inside it —
        is respawned and must hello; the respawn budget bounds the
        loop.
        """
        deadline = time.monotonic() + self.cfg.recovery_timeout_s
        while len(ready) < self.ranks:
            self._check_deadline()
            for rank, msg in self._poll(0.02):
                if msg.kind == HEARTBEAT:
                    self._note_beat(rank, msg)
                elif (msg.kind in (RESTORED, HELLO)
                        and msg.epoch == self.epoch):
                    ready.add(rank)
            now = time.monotonic()
            for r, st in enumerate(self.rank_state):
                if r in ready:
                    continue
                if st.proc is None or not st.proc.is_alive():
                    self._respawn(r, "dead")
                    deadline = now + self.cfg.recovery_timeout_s
            if now > deadline:
                for r in range(self.ranks):
                    if r not in ready:
                        self._respawn(r, "heartbeat")
                deadline = now + self.cfg.recovery_timeout_s

    def _resume(self) -> None:
        now = time.monotonic()
        for st in self.rank_state:
            st.last_beat = now
            st.progress_since = now
        self._broadcast(RESUME)

    # -- the run -----------------------------------------------------

    def run(self) -> Tuple[np.ndarray, CommStats]:
        for r in range(self.ranks):
            self._spawn(r, restore_phase=0)
        self._await_ready(set())
        self._resume()
        while any(st.slab is None for st in self.rank_state):
            self._check_deadline()
            for rank, msg in self._poll(0.02):
                self._handle(rank, msg)
            self._liveness_check()
        out = np.zeros(self.shape, dtype=self.spec.dtype)
        for r, (lo, hi) in enumerate(self.bounds):
            sl = [slice(None)] * len(self.shape)
            sl[self.axis] = slice(lo, hi)
            out[tuple(sl)] = self.rank_state[r].slab
        for r, st in enumerate(self.rank_state):
            self._event("heartbeat", r,
                        f"{st.beats} beat(s), incarnation {st.incarnation}")
        return out, self.stats

    def shutdown(self) -> None:
        """Tear everything down; runs on success *and* on abort."""
        try:
            self._broadcast(SHUTDOWN)
        except Exception:  # noqa: BLE001 - teardown must not mask errors
            pass
        for r in range(self.ranks):
            self._kill(r)
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        atexit.unregister(self._cleanup)


def _execute_elastic(
    spec: StencilSpec,
    grid: Grid,
    lattice: TessLattice,
    steps: int,
    ranks: int,
    axis: int = 0,
    *,
    fault_plan: Optional[FaultPlan] = None,
    config: Optional[ElasticConfig] = None,
    ghost_override: Optional[int] = None,
    trace: Optional[ExecutionTrace] = None,
    budget=None,
) -> Tuple[np.ndarray, CommStats]:
    """Process-based execution (the ``elastic`` backend's engine).

    The process analogue of :func:`~repro.distributed.exec
    ._execute_distributed` — same slab partition, same block→rank
    ownership, same assembled-interior return value — but with real
    rank processes, checksummed message exchanges and the elastic
    failure model of :class:`ElasticConfig`.  ``fault_plan`` may inject
    the process-level kinds (``kill_rank``, ``stall_rank``,
    ``drop_msg``, ``flip_bits``); recovery replays from phase
    checkpoints, so a recovered run returns the bit-identical result of
    a fault-free one.  Spill files live in a per-run temp directory
    removed on every exit path.
    """
    if spec.is_periodic:
        raise ValueError("distributed executor assumes Dirichlet boundaries")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if budget is not None:
        budget.check("elastic entry")  # before any rank is spawned
    coord = _Coordinator(
        spec, grid, lattice, steps, ranks, axis,
        fault_plan=fault_plan, config=config or ElasticConfig(),
        ghost_override=ghost_override, trace=trace, budget=budget,
    )
    try:
        return coord.run()
    finally:
        coord.shutdown()
