"""Process isolation: crash containment, fencing, quarantine, drain.

The chaos tests pin the PR's headline guarantees:

* SIGKILL a worker child mid-job → the job requeues and resumes from
  its last sealed checkpoint, and the final result is **bit-identical**
  to an uninterrupted run (segmenting is bit-identical because every
  scheme is bit-identical to the naive sweep);
* a job that always crashes its worker is quarantined as
  ``failed``/``"poisoned"`` after exactly ``max_worker_crashes``
  attempts, with every worker process reaped (no zombies);
* a stalled old lease epoch can never commit: the store refuses
  checkpoints, results and renewals carrying a superseded epoch.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.runtime.errors import ServiceDraining, StaleLeaseError
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobStore,
    Supervisor,
    SupervisorConfig,
)
from repro.service import isolation

pytestmark = pytest.mark.service

# ~10 segments of ~50 ms each: wide windows for mid-job chaos
CFG = {"shape": [4096], "steps": 60, "backend": "serial"}


def _direct(kernel="heat1d", **overrides):
    cfg = dict(CFG, **overrides)
    return Session(get_stencil(kernel)).run(
        RunConfig.from_json(cfg)).interior


@pytest.fixture
def store(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as s:
        yield s


def _process_sup(store, **overrides):
    kwargs = dict(workers=1, isolation="process", checkpoint_steps=6,
                  worker_heartbeat_s=0.05)
    kwargs.update(overrides)
    return Supervisor(store, SupervisorConfig(**kwargs))


def _wait_state(store, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if store.get(job_id).state == state:
            return True
        time.sleep(0.005)
    return False


# -- happy path -------------------------------------------------------

def test_process_mode_runs_bit_identical(store):
    sup = _process_sup(store)
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG)
        job = sup.wait(job.job_id, timeout=120)
        assert job.state == DONE and job.attempts == 1
        (w,) = sup.worker_states()
        assert w["mode"] == "process"
    finally:
        sup.stop()
    interior, stats = store.load_result(job.job_id)
    np.testing.assert_array_equal(interior, _direct())
    assert stats["steps"] == CFG["steps"]
    # children were shut down and reaped
    assert not sup._children and not multiprocessing.active_children()


def test_process_mode_ships_messages_past_the_socket_buffer(store):
    """heat2d 256²: the result and every checkpoint are 512 KB, far
    past what one pipe write holds, and must cross intact."""
    cfg = {"shape": [256, 256], "steps": 8, "b": 4, "backend": "serial"}
    sup = _process_sup(store, checkpoint_steps=4)
    sup.start()
    try:
        job, _ = sup.submit("heat2d", cfg)
        job = sup.wait(job.job_id, timeout=120)
    finally:
        sup.stop()
    assert job.state == DONE, job.error
    assert len(job.checkpoints) >= 1
    interior, _ = store.load_result(job.job_id)
    assert interior.nbytes == 256 * 256 * 8
    ref = _direct("heat2d", **cfg)
    assert (interior.dtype, interior.shape) == (ref.dtype, ref.shape)
    assert interior.tobytes() == ref.tobytes()


def test_process_mode_failure_verdicts_match_thread_mode(store):
    sup = _process_sup(store)
    sup.start()
    try:
        job, _ = sup.submit("heat1d", dict(CFG, backend="no-such"))
        job = sup.wait(job.job_id, timeout=60)
    finally:
        sup.stop()
    assert job.state == FAILED
    assert job.attempts == 1  # BackendUnsupported stays permanent
    assert sup.metrics.retries == 0


def test_cancel_running_job_in_process_mode(store):
    sup = _process_sup(store, checkpoint_steps=0)
    sup.start()
    try:
        # ~10x the happy-path runtime: cancellation lands mid-run
        job, _ = sup.submit("heat1d", dict(CFG, steps=600))
        assert _wait_state(store, job.job_id, RUNNING)
        sup.cancel(job.job_id)
        job = sup.wait(job.job_id, timeout=60)
    finally:
        sup.stop()
    assert job.state == CANCELLED
    assert sup.metrics.cancelled == 1


# -- chaos: SIGKILL mid-job -------------------------------------------

def test_sigkill_mid_job_resumes_bit_identical(store):
    sup = _process_sup(store)
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG)
        # wait for the first sealed checkpoint, then murder the child
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if store.get(job.job_id).checkpoints:
                break
            time.sleep(0.002)
        child = sup._children.get(0)
        assert child is not None, "no worker child to kill"
        os.kill(child.proc.pid, signal.SIGKILL)
        job = sup.wait(job.job_id, timeout=120)
    finally:
        sup.stop()
    assert job.state == DONE
    assert job.worker_crashes == 1
    assert job.resumed_from_step is not None
    assert job.resumed_from_step >= 6  # at least one sealed segment
    assert sup.metrics.worker_crashes == 1
    assert sup.metrics.resumes == 1
    interior, stats = store.load_result(job.job_id)
    np.testing.assert_array_equal(interior, _direct())
    assert any(e.get("kind") == "resume" for e in stats["events"])
    assert not multiprocessing.active_children()  # all reaped


def test_lease_is_released_and_refenced_after_crash(store):
    """The crashed incarnation's epoch is dead: the resume mints a
    higher one and the store's fencing counter proves it."""
    sup = _process_sup(store)
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if store.get(job.job_id).checkpoints:
                break
            time.sleep(0.002)
        first_epoch = store.lease_epoch(job.job_id)
        assert first_epoch >= 1
        child = sup._children.get(0)
        os.kill(child.proc.pid, signal.SIGKILL)
        job = sup.wait(job.job_id, timeout=120)
    finally:
        sup.stop()
    assert job.state == DONE
    assert store.lease_epoch(job.job_id) > first_epoch


# -- chaos: poison-job quarantine -------------------------------------

def test_poison_job_quarantined_after_exact_budget(store, monkeypatch):
    # fork-inherited chaos: every child dies the moment it gets a job
    monkeypatch.setattr(isolation, "CHAOS", "crash")
    sup = _process_sup(store, max_worker_crashes=2)
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG)
        job = sup.wait(job.job_id, timeout=120)
    finally:
        sup.stop()
    assert job.state == FAILED
    assert job.error_kind == "poisoned"
    assert job.worker_crashes == 2
    assert job.attempts == 2  # exactly max_worker_crashes attempts
    assert "quarantined" in job.error
    assert sup.metrics.poisoned == 1
    assert sup.metrics.worker_crashes == 2
    # every crashed incarnation was reaped — no zombies
    assert not sup._children and not multiprocessing.active_children()


def test_crash_budget_separate_from_retry_budget(store, monkeypatch):
    """max_retries=0 must not shortcut the crash circuit breaker."""
    monkeypatch.setattr(isolation, "CHAOS", "crash")
    sup = _process_sup(store, max_worker_crashes=2)
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG, max_retries=0)
        job = sup.wait(job.job_id, timeout=120)
    finally:
        sup.stop()
    assert job.state == FAILED and job.error_kind == "poisoned"
    assert job.worker_crashes == 2


# -- lease fencing at the store ---------------------------------------

def test_stale_epoch_commits_rejected(store):
    job, _ = store.submit("heat1d", CFG)
    e1 = store.acquire_lease(job.job_id, "w1", ttl_s=0.01)
    assert e1 == 1
    time.sleep(0.03)  # let the first lease expire
    e2 = store.acquire_lease(job.job_id, "w2", ttl_s=30.0)
    assert e2 == 2
    store.transition(job.job_id, "admitted")
    store.transition(job.job_id, "running", attempts=1)
    buf = np.zeros(store.get(job.job_id).estimated_bytes // 8 or 8)
    with pytest.raises(StaleLeaseError):
        store.save_checkpoint(job.job_id, 6, buf, epoch=e1)
    with pytest.raises(StaleLeaseError):
        store.record_result(job.job_id, buf, {"steps": 1}, epoch=e1)
    with pytest.raises(StaleLeaseError):
        store.renew_lease(job.job_id, "w1", 30.0, epoch=e1)
    assert store.metrics()["stale_rejected"] == 3
    # a stale release must not delete the successor's lease file
    store.release_lease(job.job_id, epoch=e1)
    assert store.lease_epoch(job.job_id) == e2
    assert store.acquire_lease(job.job_id, "w3", ttl_s=30.0) is None
    # the live epoch still commits
    interior = np.zeros(4)
    store.record_result(job.job_id, interior, {"steps": 1}, epoch=e2)
    assert store.get(job.job_id).state == DONE


def test_epochs_survive_store_reopen(tmp_path):
    root = str(tmp_path / "store")
    with JobStore(root, fsync=False) as store:
        job, _ = store.submit("heat1d", CFG)
        assert store.acquire_lease(job.job_id, "w1", ttl_s=0.01) == 1
    time.sleep(0.03)
    with JobStore(root, fsync=False) as store:
        # the epoch counter is read back from the surviving lease
        # file, so a restarted supervisor still fences the old holder
        assert store.acquire_lease(job.job_id, "w2", ttl_s=30.0) == 2


# -- resource containment ---------------------------------------------

def test_rlimit_applied_in_child():
    resource = pytest.importorskip("resource")

    def probe(limit, q):
        token = isolation.apply_rlimit(limit)
        q.put((resource.getrlimit(resource.RLIMIT_AS)[0], token))

    ctx = multiprocessing.get_context("fork")
    q = ctx.Queue()
    limit = 1 << 30
    p = ctx.Process(target=probe, args=(limit, q))
    p.start()
    soft, token = q.get(timeout=30)
    p.join(timeout=30)
    assert soft == limit
    assert token is not None


def test_rlimit_none_is_noop():
    assert isolation.apply_rlimit(None) is None
    assert isolation.apply_rlimit(0) is None
    isolation.restore_rlimit(None)  # must not raise


def test_child_limit_derivation(store):
    sup = _process_sup(store)
    job, _ = store.submit("heat1d", CFG)
    cfg = RunConfig.from_json(CFG).normalized()
    assert sup._child_limit_bytes(job, cfg) is None  # no QoS ceiling
    from dataclasses import replace

    from repro.runtime.qos import QoSPolicy

    capped = replace(cfg, qos=QoSPolicy(max_memory_bytes=1 << 20))
    limit = sup._child_limit_bytes(job, capped)
    assert limit >= (1 << 20) + sup.config.rlimit_headroom_bytes


# -- graceful drain ---------------------------------------------------

def test_drain_refuses_new_submissions(store):
    sup = Supervisor(store, SupervisorConfig(workers=1))
    sup.start()
    try:
        sup.begin_drain()
        with pytest.raises(ServiceDraining):
            sup.submit("heat1d", CFG)
        assert sup.drain(timeout_s=5.0)  # nothing in flight
        assert sup.health()["state"] == "draining"
    finally:
        sup.stop()


def test_drain_preempts_at_checkpoint_and_resume_is_bit_identical(
        tmp_path):
    """Drain patience runs out mid-job: the job stops at its next
    checkpoint boundary, requeues journaled, and a successor finishes
    it bit-identical to an unbroken run."""
    root = str(tmp_path / "store")
    cfg = SupervisorConfig(workers=1, checkpoint_steps=6)
    with JobStore(root, fsync=False) as store:
        sup = Supervisor(store, cfg)
        sup.start()
        job, _ = sup.submit("heat1d", CFG)
        assert _wait_state(store, job.job_id, RUNNING)
        # no patience at all: force the preempt path immediately
        assert sup.drain(timeout_s=0.0)
        sup.stop()
        out = store.get(job.job_id)
        assert out.state == QUEUED
        assert sup.metrics.preempted == 1
    with JobStore(root, fsync=False) as store:
        sup = Supervisor(store, cfg)
        report = sup.start()
        assert report.requeued == 0  # queued stays queued, no repair
        try:
            job = sup.wait(job.job_id, timeout=120)
        finally:
            sup.stop()
        assert job.state == DONE
        assert job.resumed_from_step is not None
        interior, _ = store.load_result(job.job_id)
        np.testing.assert_array_equal(interior, _direct())


def test_stop_preempts_thread_mode_job_via_shared_flag(store):
    """stop() reuses the drain preemption: a segmented job requeues at
    its boundary instead of holding shutdown for the full run."""
    sup = Supervisor(store, SupervisorConfig(workers=1,
                                             checkpoint_steps=6))
    sup.start()
    job, _ = sup.submit("heat1d", dict(CFG, steps=600))
    assert _wait_state(store, job.job_id, RUNNING)
    t0 = time.monotonic()
    sup.stop()
    assert time.monotonic() - t0 < 30.0  # not the ~50 s full run
    assert store.get(job.job_id).state in (QUEUED, DONE)


# -- serve lifecycle (SIGTERM → drain → exit 0) -----------------------

def test_serve_sigterm_drains_and_exits_zero(tmp_path):
    import re
    import subprocess
    import sys
    import urllib.request

    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    env.pop("REPRO_ISOLATION", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--root", str(tmp_path / "store"), "--port", "0",
         "--no-fsync", "--workers", "1", "--drain-timeout", "10"],
        cwd="/root/repo", env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        url = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            m = re.search(r"serving on (http://\S+)", line or "")
            if m:
                url = m.group(1)
                break
        assert url, "server never announced its URL"
        with urllib.request.urlopen(f"{url}/healthz", timeout=10) as r:
            assert r.status == 200
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "draining" in out and "drained cleanly" in out


# -- orphaned children ------------------------------------------------

_ORPHAN_SUPERVISOR = """\
import sys, time
from repro.service import JobStore, Supervisor, SupervisorConfig

sup = Supervisor(JobStore(sys.argv[1], fsync=False), SupervisorConfig(
    workers=2, isolation="process", worker_heartbeat_s=0.05))
sup.start()
# two children: the second one's fork copies the first one's pipe end
pids = [sup._ensure_child(w).proc.pid for w in range(2)]
print(*pids, flush=True)
time.sleep(600)
"""

# runs the supervisor as its own child and adopts the grandchildren
# when the supervisor dies (PR_SET_CHILD_SUBREAPER), so their exit
# codes can be read with waitpid; every wait is bounded, and it kills
# and reaps any child that outlives its wait, so it leaves no process
_ORPHAN_HARNESS = """\
import ctypes, json, os, select, signal, subprocess, sys, time

PR_SET_CHILD_SUBREAPER = 36
ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
sup = subprocess.Popen([sys.executable, "-c", sys.argv[1], sys.argv[2]],
                       stdout=subprocess.PIPE, text=True)
ready = select.select([sup.stdout], [], [], 60)[0]
pids = [int(p) for p in sup.stdout.readline().split()] if ready else []
sup.kill()
sup.wait()
codes = {}
deadline = time.monotonic() + float(sys.argv[3])
while len(codes) < len(pids) and time.monotonic() < deadline:
    for pid in pids:
        if pid not in codes:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                codes[pid] = os.waitstatus_to_exitcode(status)
    time.sleep(0.01)
for pid in pids:
    if pid not in codes:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        codes[pid] = "alive"
print(json.dumps([codes[pid] for pid in pids]), flush=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs PR_SET_CHILD_SUBREAPER and fork")
def test_children_exit_orphaned_when_the_supervisor_is_sigkilled(tmp_path):
    """Every child closes the supervisor's pipe ends it inherited, so a
    SIGKILLed supervisor leaves it EOF and it exits
    ``EXIT_CHILD_ORPHANED`` instead of running on for good."""
    import json
    import subprocess

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_HARNESS, _ORPHAN_SUPERVISOR,
         str(tmp_path / "store"), "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert json.loads(out) == [isolation.EXIT_CHILD_ORPHANED] * 2
