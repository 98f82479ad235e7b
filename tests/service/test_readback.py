"""Finished jobs: config and stats read back from the journal.

A finished job keeps only its small scalar fields in server memory; its
submitted config and sealed stats are read back from the journal's
``submit`` and ``result`` records, CRC re-checked, whenever a reader
asks.  These tests pin the three things that must hold:

* the memory a finished job costs stays small;
* every reader (``GET /jobs/<id>``, ``/result``, ``repro status``)
  sees exactly what it saw when both dicts were kept in memory — the
  submitted config and the stats handed to ``record_result`` — also
  after the store is reopened;
* a read-back record that fails its CRC is refused with the same typed
  error as a result file that fails its SHA-256.
"""

import gc
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.api import RunConfig
from repro.cli import main as cli_main
from repro.service import (
    ADMITTED,
    CANCELLED,
    DONE,
    RUNNING,
    JobStore,
    SealMismatch,
    ServiceFront,
    Supervisor,
    SupervisorConfig,
    job_result,
    job_status,
)

pytestmark = pytest.mark.service

#: every key of a job's JSON view, in the wire order
JOB_KEYS = [
    "job_id", "kernel", "config", "idempotency_key", "priority",
    "max_retries", "state", "attempts", "submitted_unix",
    "estimated_bytes", "error", "error_kind", "resumed_from_step",
    "worker_crashes", "checkpoints", "result_path", "result_sha256",
    "stats",
]


def _config(seed, steps=16):
    return RunConfig(shape=(1000,), steps=steps, b=4, backend="compiled",
                     seed=seed).normalized().to_json()


def _thread_supervisor(store, **kw):
    return Supervisor(store, SupervisorConfig(
        workers=1, checkpoint_steps=8, isolation="thread", **kw))


def _finish(sup, seeds):
    """Run jobs to completion, at most 40 queued at a time."""
    seeds = list(seeds)
    for i in range(0, len(seeds), 40):
        ids = [sup.submit("heat1d", _config(s))[0].job_id
               for s in seeds[i:i + 40]]
        for job_id in ids:
            assert sup.wait(job_id, timeout=120).state == DONE


def test_finished_job_memory_is_bounded(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        sup = _thread_supervisor(store)
        sup.start()
        try:
            _finish(sup, range(50))  # warm caches, sessions and dicts
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _finish(sup, range(1000, 1200))
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        finally:
            sup.stop()
    assert grown / 200 <= 1536, f"{grown / 200:.0f} B per finished job"


def _expected(resident, config, stats):
    """The job's JSON when config and stats were kept in memory."""
    view = resident.to_json()
    view["config"], view["stats"] = config, stats
    return json.loads(json.dumps(view))


def _status_cli(root, job_id, capsys):
    capsys.readouterr()
    assert cli_main(["status", job_id, "--root", root]) == 0
    return json.loads(capsys.readouterr().out)


def test_done_job_reads_back_what_it_held(tmp_path, capsys):
    root = str(tmp_path / "store")
    sealed = {}
    with JobStore(root, fsync=False) as store:
        record_result = store.record_result

        def capture(job_id, interior, stats, epoch=None):
            sealed[job_id] = json.loads(json.dumps(stats))
            return record_result(job_id, interior, stats, epoch=epoch)

        store.record_result = capture
        sup = _thread_supervisor(store)
        sup.start()
        try:
            with ServiceFront(sup, port=0) as front:
                config = _config(7)
                job_id = sup.submit("heat1d", config)[0].job_id
                assert sup.wait(job_id, timeout=60).state == DONE
                resident = next(j for j in store.jobs()
                                if j.job_id == job_id)
                assert resident.config is None and resident.stats is None
                expected = _expected(resident, config, sealed[job_id])
                assert list(expected) == JOB_KEYS
                assert expected["checkpoints"]  # a segmented run

                assert job_status(front.url, job_id) == expected
                res = job_result(front.url, job_id)
                assert res["stats"] == sealed[job_id]
                assert store.get(job_id).to_json() == expected
        finally:
            sup.stop()
    assert _status_cli(root, job_id, capsys) == expected
    with JobStore(root, fsync=False) as store:
        assert json.loads(json.dumps(store.get(job_id).to_json())) \
            == expected
        interior, stats = store.load_result(job_id)
        assert stats == sealed[job_id]
        np.testing.assert_array_equal(interior, res["interior"])


def test_cancelled_job_reads_back_its_config(tmp_path, capsys):
    root = str(tmp_path / "store")
    config = _config(3)
    with JobStore(root, fsync=False) as store:
        job, _ = store.submit("heat1d", config)
        assert store.get(job.job_id) is job  # live record while queued
        store.transition(job.job_id, CANCELLED)
        assert job.config is None  # no longer resident
        full = store.get(job.job_id)
        assert full.config == config and full.stats is None
        expected = _expected(job, config, None)
    assert _status_cli(root, job.job_id, capsys) == expected
    with JobStore(root, fsync=False) as store:
        assert store.jobs()[0].config is None
        assert store.get(job.job_id).to_json() == expected


def _done_job(store):
    job, _ = store.submit("heat1d", {"shape": [8], "steps": 2})
    store.transition(job.job_id, ADMITTED)
    store.transition(job.job_id, RUNNING)
    store.record_result(job.job_id, np.zeros(8), {"steps": 2})
    return job


def _flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


def test_corrupt_result_record_fails_like_a_corrupt_result_file(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        job = _done_job(store)
        journal = os.path.join(store.root, "journal", "journal.wal")
        _flip_byte(journal, job.result_at + 20)  # inside the payload
        with pytest.raises(SealMismatch, match="CRC32"):
            store.get(job.job_id)
        with pytest.raises(SealMismatch, match="CRC32"):
            store.load_result(job.job_id)

    with JobStore(str(tmp_path / "other"), fsync=False) as store:
        job = _done_job(store)
        path = os.path.join(store.root, job.result_path)
        _flip_byte(path, os.path.getsize(path) - 1)
        with pytest.raises(SealMismatch, match="SHA-256"):
            store.load_result(job.job_id)
    assert issubclass(SealMismatch, ValueError)


def test_corrupt_submit_record_is_refused(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        job = _done_job(store)
        journal = os.path.join(store.root, "journal", "journal.wal")
        _flip_byte(journal, job.submit_at + 20)
        with pytest.raises(SealMismatch):
            store.get(job.job_id)
