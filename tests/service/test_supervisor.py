"""Supervisor: execution, retry/backoff, cancellation, resume."""

import os
import threading
import time

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.runtime.errors import ExecutionError, QueueSaturated, RunCancelled
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    JobStore,
    Supervisor,
    SupervisorConfig,
)

pytestmark = pytest.mark.service

#: tests that inject a wrapped session into the supervisor process
#: only make sense in thread mode — a process-mode child builds its
#: own sessions on the far side of the fork
THREAD_ONLY = pytest.mark.skipif(
    os.environ.get("REPRO_ISOLATION") == "process",
    reason="session-injection hooks are thread-mode only")

CFG = {"shape": [48], "steps": 24, "backend": "serial"}


def _direct(kernel="heat1d", **overrides):
    cfg = dict(CFG, **overrides)
    spec = get_stencil(kernel)
    return Session(spec).run(RunConfig.from_json(cfg)).interior


@pytest.fixture
def store(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as s:
        yield s


def _run(store, config=None):
    sup = Supervisor(store, config or SupervisorConfig(workers=1))
    sup.start()
    try:
        yield sup
    finally:
        sup.stop()


@pytest.fixture
def sup(store):
    yield from _run(store)


def test_job_runs_to_done_bit_identical(store, sup):
    job, created = sup.submit("heat1d", CFG)
    assert created
    job = sup.wait(job.job_id, timeout=60)
    assert job.state == DONE and job.attempts == 1
    interior, stats = store.load_result(job.job_id)
    np.testing.assert_array_equal(interior, _direct())
    assert stats["steps"] == 24
    assert sup.snapshot_metrics()["supervisor"]["completed"] == 1


def test_submit_resolves_the_identity_once(store, monkeypatch):
    """The supervisor hands its admission-time identity to the store
    instead of the store resolving the spec and config again."""
    from repro.service import jobstore

    calls = []
    resolve = jobstore.job_identity

    def counted(kernel, config):
        calls.append(kernel)
        return resolve(kernel, config)

    monkeypatch.setattr(jobstore, "job_identity", counted)
    sup = Supervisor(store, SupervisorConfig(workers=1))  # not started
    job, created = sup.submit("heat1d", CFG)
    assert created and calls == ["heat1d"]
    assert sup.submit("heat1d", CFG) == (job, False)
    assert calls == ["heat1d"] * 2


def test_compiled_backend_job(store, sup):
    job, _ = sup.submit("heat1d", dict(CFG, backend="compiled",
                                       engine="compiled"))
    job = sup.wait(job.job_id, timeout=60)
    assert job.state == DONE
    interior, _ = store.load_result(job.job_id)
    np.testing.assert_array_equal(
        interior, _direct(backend="compiled", engine="compiled"))


def test_segmented_run_checkpoints_and_stays_bit_identical(store):
    for sup in _run(store, SupervisorConfig(workers=1,
                                            checkpoint_steps=5)):
        job, _ = sup.submit("heat2d", {"shape": [24, 24], "steps": 17,
                                       "backend": "serial"})
        job = sup.wait(job.job_id, timeout=60)
        assert job.state == DONE
        # 17 steps in segments of 5 → checkpoints at 5, 10, 15
        assert [c[0] for c in job.checkpoints] == [5, 10, 15]
        interior, stats = store.load_result(job.job_id)
        spec = get_stencil("heat2d")
        direct = Session(spec).run(
            RunConfig(shape=(24, 24), steps=17, backend="serial"))
        np.testing.assert_array_equal(interior, direct.interior)
        assert stats["steps"] == 17  # job total, not the last segment


def test_dedup_returns_existing_job(store, sup):
    a, created_a = sup.submit("heat1d", CFG)
    sup.wait(a.job_id, timeout=60)
    b, created_b = sup.submit("heat1d", CFG)
    assert created_a and not created_b and a.job_id == b.job_id
    assert sup.metrics.deduplicated == 1


def test_queue_saturation_refuses_before_journal(store):
    sup = Supervisor(store, SupervisorConfig(workers=1, queue_depth=1))
    # not started: jobs stay queued, the bound is reachable
    sup.submit("heat1d", CFG)
    with pytest.raises(QueueSaturated):
        sup.submit("heat1d", dict(CFG, steps=25))
    assert sup.metrics.refused == 1
    # the refused submission left no journal record
    assert len(store.jobs()) == 1


def test_cancel_queued_job(store):
    sup = Supervisor(store, SupervisorConfig(workers=1))
    job, _ = sup.submit("heat1d", CFG)
    out = sup.cancel(job.job_id)
    assert out.state == CANCELLED
    assert sup.cancel(job.job_id).state == CANCELLED  # idempotent


class _Gate:
    """Session wrapper: holds the run until released, honours the
    cancel token, optionally fails the first N calls."""

    def __init__(self, session, fail_first=0, hold=None):
        self._session = session
        self.spec = session.spec
        self.calls = 0
        self.fail_first = fail_first
        self.hold = hold

    def default_shape(self):
        return self._session.default_shape()

    def run(self, config=None, **kw):
        self.calls += 1
        if self.hold is not None:
            token = config.qos.cancel_token
            while not self.hold.is_set():
                if token is not None and token.cancelled:
                    raise RunCancelled("test gate")
                time.sleep(0.005)
        if self.calls <= self.fail_first:
            raise ExecutionError("transient executor death",
                                 group=self.calls)
        return self._session.run(config, **kw)


@THREAD_ONLY
def test_transient_failure_retries_with_backoff(store):
    sup = Supervisor(store, SupervisorConfig(
        workers=1, retry_backoff_s=0.001, retry_backoff_cap_s=0.01))
    gate = _Gate(Session(get_stencil("heat1d")), fail_first=2)
    sup._sessions["heat1d"] = gate
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG)
        job = sup.wait(job.job_id, timeout=60)
    finally:
        sup.stop()
    assert job.state == DONE
    assert job.attempts == 3  # two failures + the success
    assert sup.metrics.retries == 2
    interior, _ = store.load_result(job.job_id)
    np.testing.assert_array_equal(interior, _direct())


@THREAD_ONLY
def test_retry_budget_exhaustion_fails_with_error_kind(store):
    sup = Supervisor(store, SupervisorConfig(
        workers=1, retry_backoff_s=0.001, default_max_retries=1))
    gate = _Gate(Session(get_stencil("heat1d")), fail_first=99)
    sup._sessions["heat1d"] = gate
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG)
        job = sup.wait(job.job_id, timeout=60)
    finally:
        sup.stop()
    assert job.state == FAILED
    assert job.attempts == 2  # initial + one retry
    assert job.error_kind == "ExecutionError"
    assert "transient" in job.error


def test_permanent_failure_never_retries(store, sup):
    job, _ = sup.submit("heat1d", dict(CFG, backend="no-such-backend"))
    job = sup.wait(job.job_id, timeout=60)
    assert job.state == FAILED
    assert job.attempts == 1  # BackendUnsupported is permanent
    assert sup.metrics.retries == 0


def test_undersized_ghost_job_fails_instead_of_serving_wrong_bits(
        store, sup):
    """3.x ran this job to ``done`` with bytes that differ from the
    same job at the required width; now it fails, once, naming it."""
    cfg = {"shape": [400], "steps": 16, "b": 4, "backend": "distributed",
           "ranks": 4, "ghost": 1}
    job, _ = sup.submit("heat1d", cfg)
    job = sup.wait(job.job_id, timeout=60)
    assert job.state == FAILED
    assert job.attempts == 1  # a ValueError is permanent
    assert "required width" in job.error
    good, _ = sup.submit("heat1d", dict(cfg, ghost=None))
    good = sup.wait(good.job_id, timeout=60)
    assert good.state == DONE
    interior, _ = store.load_result(good.job_id)
    ref = Session(get_stencil("heat1d")).run(
        RunConfig.from_json(dict(cfg, ghost=None, backend="serial")))
    assert interior.tobytes() == ref.interior.tobytes()


def test_replayed_elastic_job_fails_as_unknown_backend(tmp_path):
    """A 3.x store may hold a queued job on the removed ``elastic``
    backend: it replays, then fails like any unknown backend."""
    root = str(tmp_path / "store")
    with JobStore(root, fsync=False) as store:
        job, _ = store.submit("heat1d", dict(CFG, backend="elastic",
                                             ranks=2))
    with JobStore(root, fsync=False) as store:
        assert store.get(job.job_id).state == QUEUED
        sup = Supervisor(store, SupervisorConfig(workers=1))
        sup.start()
        try:
            job = sup.wait(job.job_id, timeout=60)
        finally:
            sup.stop()
    assert job.state == FAILED
    assert job.attempts == 1
    assert "unknown backend 'elastic'" in job.error


@THREAD_ONLY
def test_cancel_running_job_stops_at_boundary(store):
    sup = Supervisor(store, SupervisorConfig(workers=1))
    hold = threading.Event()
    sup._sessions["heat1d"] = _Gate(Session(get_stencil("heat1d")),
                                    hold=hold)
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG)
        deadline = time.monotonic() + 30
        while (store.get(job.job_id).state == QUEUED
               and time.monotonic() < deadline):
            time.sleep(0.005)
        sup.cancel(job.job_id)
        job = sup.wait(job.job_id, timeout=30)
    finally:
        hold.set()
        sup.stop()
    assert job.state == CANCELLED
    assert sup.metrics.cancelled == 1


@THREAD_ONLY
def test_in_process_resume_after_mid_run_failure(store):
    """A job that dies between segments resumes from its checkpoint —
    and the resumed result is bit-identical to an unbroken run."""

    class _DieOnce(_Gate):
        def __init__(self, session):
            super().__init__(session)
            self.died = False

        def run(self, config=None, **kw):
            self.calls += 1
            if self.calls == 3 and not self.died:
                self.died = True  # die after two sealed segments
                raise ExecutionError("executor died mid-job")
            return self._session.run(config, **kw)

    sup = Supervisor(store, SupervisorConfig(
        workers=1, checkpoint_steps=5, retry_backoff_s=0.001))
    sup._sessions["heat1d"] = _DieOnce(Session(get_stencil("heat1d")))
    sup.start()
    try:
        job, _ = sup.submit("heat1d", CFG)  # 24 steps, segments of 5
        job = sup.wait(job.job_id, timeout=60)
    finally:
        sup.stop()
    assert job.state == DONE
    assert job.attempts == 2
    assert job.resumed_from_step == 10  # two sealed segments
    assert sup.metrics.resumes == 1
    interior, stats = store.load_result(job.job_id)
    np.testing.assert_array_equal(interior, _direct())
    # the resumption is visible in the result's trace events
    assert any(e.get("kind") == "resume" for e in stats["events"])


@THREAD_ONLY
def test_stop_returns_promptly_during_retry_backoff(store):
    """Regression: the retry backoff used to be a bare time.sleep, so
    stop()/drain could block for up to retry_backoff_cap_s per pending
    retry.  The wait now sits on an interrupt event stop() sets."""
    sup = Supervisor(store, SupervisorConfig(
        workers=1, default_max_retries=5,
        retry_backoff_s=30.0, retry_backoff_cap_s=30.0))
    gate = _Gate(Session(get_stencil("heat1d")), fail_first=99)
    sup._sessions["heat1d"] = gate
    sup.start()
    job, _ = sup.submit("heat1d", CFG)
    deadline = time.monotonic() + 30
    while gate.calls < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    time.sleep(0.05)  # let the worker enter its 30 s backoff wait
    t0 = time.monotonic()
    sup.stop()
    assert time.monotonic() - t0 < 5.0  # far under one backoff
    # the interrupted retry is journaled queued, not lost
    assert store.get(job.job_id).state == QUEUED


def test_recovery_requeue_runs_to_completion(tmp_path):
    """Jobs a dead supervisor left queued/admitted finish after a
    restart (the journal is the source of truth, not the process)."""
    root = str(tmp_path / "store")
    with JobStore(root, fsync=False) as store:
        store.submit("heat1d", CFG)
        job2, _ = store.submit("heat1d", dict(CFG, steps=25))
        # simulate a crash mid-claim: admitted but the worker is gone
        store.transition(job2.job_id, "admitted")
    with JobStore(root, fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=2))
        report = sup.start()
        assert report.requeued == 1
        try:
            for job in store.jobs():
                assert sup.wait(job.job_id, timeout=60).state == DONE
        finally:
            sup.stop()
        np.testing.assert_array_equal(
            store.load_result(store.jobs()[0].job_id)[0], _direct())


def test_wait_timeout_returns_nonterminal(store):
    sup = Supervisor(store, SupervisorConfig(workers=1))
    job, _ = sup.submit("heat1d", CFG)  # never started
    out = sup.wait(job.job_id, timeout=0.05)
    assert out.state == QUEUED
