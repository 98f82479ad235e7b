"""Job store: journal framing, state machine, idempotency, recovery.

Includes the hypothesis property test the issue asks for: replaying a
journal can only ever produce legal state transitions — random
interleavings of legal writes always replay, and histories with an
illegal edge spliced in are refused with ``JournalReplayError``.
"""

import json
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.errors import JobNotFound
from repro.service import (
    ADMITTED,
    CANCELLED,
    DONE,
    FAILED,
    LEGAL_TRANSITIONS,
    QUEUED,
    RUNNING,
    STATES,
    Job,
    JobStore,
    JournalReplayError,
)

pytestmark = pytest.mark.service

CFG = {"shape": [32], "steps": 8, "backend": "serial"}


def _store(tmp_path, name="store", **kw):
    kw.setdefault("fsync", False)  # keep the suite fast; framing is
    return JobStore(str(tmp_path / name), **kw)  # identical either way


def test_submit_and_get_roundtrip(tmp_path):
    with _store(tmp_path) as store:
        job, created = store.submit("heat1d", CFG)
        assert created and job.state == QUEUED
        assert store.get(job.job_id).job_id == job.job_id
        assert job.estimated_bytes > 0


def test_submit_is_idempotent_across_spellings(tmp_path):
    with _store(tmp_path) as store:
        a, created_a = store.submit("heat1d", CFG)
        # alias spelling of the same backend → same canonical config
        b, created_b = store.submit(
            "heat1d", dict(CFG, backend="sequential"))
        assert created_a and not created_b
        assert a.job_id == b.job_id
        assert store.metrics()["dedup_hits"] == 1


def test_distinct_configs_get_distinct_jobs(tmp_path):
    with _store(tmp_path) as store:
        a, _ = store.submit("heat1d", CFG)
        b, _ = store.submit("heat1d", dict(CFG, steps=9))
        assert a.job_id != b.job_id


def test_get_unknown_job_raises_typed(tmp_path):
    with _store(tmp_path) as store:
        with pytest.raises(JobNotFound):
            store.get("job-missing")


def test_illegal_transition_raises_value_error(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        with pytest.raises(ValueError, match="illegal job transition"):
            store.transition(job.job_id, DONE)  # queued -> done


def test_terminal_states_have_no_exits(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        store.transition(job.job_id, CANCELLED)
        for dst in STATES:
            with pytest.raises(ValueError):
                store.transition(job.job_id, dst)


def test_state_survives_reopen(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        store.transition(job.job_id, ADMITTED)
        store.transition(job.job_id, RUNNING, attempts=1)
        job_id = job.job_id
    with _store(tmp_path) as store:
        job = store.get(job_id)
        assert job.state == RUNNING and job.attempts == 1


def test_result_seal_and_reload(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(4, 6)
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        store.transition(job.job_id, ADMITTED)
        store.transition(job.job_id, RUNNING)
        store.record_result(job.job_id, arr, {"steps": 8})
        job_id = job.job_id
    with _store(tmp_path) as store:
        assert store.get(job_id).state == DONE
        loaded, stats = store.load_result(job_id)
        np.testing.assert_array_equal(loaded, arr)
        assert stats == {"steps": 8}


def test_tampered_result_fails_its_seal(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        store.transition(job.job_id, ADMITTED)
        store.transition(job.job_id, RUNNING)
        store.record_result(job.job_id, np.zeros(8), {})
        path = os.path.join(store.root, store.get(job.job_id).result_path)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"\xff")
        with pytest.raises(ValueError, match="SHA-256"):
            store.load_result(job.job_id)


def test_checkpoint_roundtrip_and_pruning(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        for step in (4, 8, 12):
            store.save_checkpoint(job.job_id, step,
                                  np.full(34, float(step)))
        step, buf = store.load_checkpoint(job.job_id)
        assert step == 12 and buf[0] == 12.0
        # only KEEP_CHECKPOINTS files survive on disk
        ckdir = os.path.join(store.root, "checkpoints", job.job_id)
        assert len(os.listdir(ckdir)) == JobStore.KEEP_CHECKPOINTS


def test_corrupt_checkpoint_quarantined_next_older_used(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        store.save_checkpoint(job.job_id, 4, np.full(34, 4.0))
        store.save_checkpoint(job.job_id, 8, np.full(34, 8.0))
        newest = os.path.join(store.root, job.checkpoints[-1][1])
        with open(newest, "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            fh.write(b"\x00\x00")
        step, buf = store.load_checkpoint(job.job_id)
        assert step == 4 and buf[0] == 4.0
        assert os.path.exists(f"{newest}.corrupt")


def test_torn_journal_tail_quarantined(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        store.transition(job.job_id, ADMITTED)
        journal = store._journal_path
        job_id = job.job_id
    # a writer died mid-append: half a record at the tail
    with open(journal, "ab") as fh:
        payload = b'{"op": "transition"'  # truncated JSON, torn frame
        fh.write(struct.pack(">4sII", b"RJW1", 999,
                             zlib.crc32(payload)))
        fh.write(payload)
    with _store(tmp_path) as store:
        assert store.get(job_id).state == ADMITTED  # good prefix kept
        assert store._corrupt_tail_bytes > 0
    assert os.path.exists(f"{journal}.corrupt")


def test_journal_with_illegal_story_is_refused(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        journal = store._journal_path
        job_id = job.job_id
    # splice in a record that passes its CRC but tells an illegal
    # story: queued -> done with no admitted/running in between
    payload = json.dumps({"op": "transition", "job_id": job_id,
                          "from": QUEUED, "to": DONE}).encode()
    with open(journal, "ab") as fh:
        fh.write(struct.pack(">4sII", b"RJW1", len(payload),
                             zlib.crc32(payload) & 0xFFFFFFFF))
        fh.write(payload)
    with pytest.raises(JournalReplayError):
        JobStore(os.path.dirname(os.path.dirname(journal)), fsync=False)


def test_lease_acquire_conflict_and_stale_takeover(tmp_path):
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        assert store.acquire_lease(job.job_id, "w0", ttl_s=30.0)
        assert not store.acquire_lease(job.job_id, "w1", ttl_s=30.0)
        # an expired lease is stale: any worker may take it over
        store.renew_lease(job.job_id, "w0", ttl_s=-1.0)
        assert store.acquire_lease(job.job_id, "w1", ttl_s=30.0)
        assert store.lease_holder(job.job_id)["owner"] == "w1"
        store.release_lease(job.job_id)
        assert store.lease_holder(job.job_id) is None


def test_recovery_requeues_and_sweeps(tmp_path):
    with _store(tmp_path) as store:
        a, _ = store.submit("heat1d", CFG)
        b, _ = store.submit("heat1d", dict(CFG, steps=9))
        store.transition(a.job_id, ADMITTED)
        store.transition(b.job_id, ADMITTED)
        store.transition(b.job_id, RUNNING)
        store.acquire_lease(b.job_id, "w0", ttl_s=30.0)
        ids = (a.job_id, b.job_id)
    with _store(tmp_path) as store:
        report = store.recover()
        assert report.requeued == 2
        assert report.leases_swept == 1
        for job_id in ids:
            assert store.get(job_id).state == QUEUED


def test_recovery_finalizes_sealed_result(tmp_path):
    # crash window: result journaled but the running->done transition
    # was never written — recovery must finalize, not re-run
    with _store(tmp_path) as store:
        job, _ = store.submit("heat1d", CFG)
        store.transition(job.job_id, ADMITTED)
        store.transition(job.job_id, RUNNING)
        rel = os.path.join("results", f"{job.job_id}.npy")
        import io

        buf = io.BytesIO()
        np.save(buf, np.ones(4), allow_pickle=False)
        with open(os.path.join(store.root, rel), "wb") as fh:
            fh.write(buf.getvalue())
        import hashlib

        sha = hashlib.sha256(buf.getvalue()).hexdigest()
        store._append({"op": "result", "job_id": job.job_id,
                       "path": rel, "sha256": sha, "stats": {}})
        job_id = job.job_id
    with _store(tmp_path) as store:
        report = store.recover()
        assert report.finalized == 1
        assert store.get(job_id).state == DONE
        arr, _ = store.load_result(job_id)
        np.testing.assert_array_equal(arr, np.ones(4))


def test_unknown_journal_ops_are_skipped(tmp_path):
    with _store(tmp_path) as store:
        store._append({"op": "from-the-future", "payload": 1})
        job, _ = store.submit("heat1d", CFG)
        job_id = job.job_id
    with _store(tmp_path) as store:  # replay does not choke
        assert store.get(job_id).state == QUEUED


# -- the replay property ----------------------------------------------

def _legal_walk(draw):
    """A random legal state history starting at queued."""
    path = [QUEUED]
    while True:
        nxt = LEGAL_TRANSITIONS[path[-1]]
        if not nxt or not draw(st.booleans()):
            return path
        path.append(draw(st.sampled_from(list(nxt))))
        if len(path) > 12:
            return path


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_replay_accepts_every_legal_history(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("walk")
    with JobStore(str(tmp), fsync=False) as store:
        job, _ = store.submit("heat1d", CFG)
        path = _legal_walk(data.draw)
        for state in path[1:]:
            store.transition(job.job_id, state)
        job_id, final = job.job_id, path[-1]
    with JobStore(str(tmp), fsync=False) as store:
        assert store.get(job_id).state == final


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_replay_refuses_every_illegal_edge(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("bad")
    with JobStore(str(tmp), fsync=False) as store:
        job, _ = store.submit("heat1d", CFG)
        path = _legal_walk(data.draw)
        for state in path[1:]:
            store.transition(job.job_id, state)
        journal = store._journal_path
        job_id, final = job.job_id, path[-1]
    illegal = [s for s in STATES
               if s != final and s not in LEGAL_TRANSITIONS[final]]
    if not illegal:  # every state reachable from here (cannot happen
        return       # with the current machine, but stay future-proof)
    dst = data.draw(st.sampled_from(illegal))
    payload = json.dumps({"op": "transition", "job_id": job_id,
                          "from": final, "to": dst}).encode()
    with open(journal, "ab") as fh:
        fh.write(struct.pack(">4sII", b"RJW1", len(payload),
                             zlib.crc32(payload) & 0xFFFFFFFF))
        fh.write(payload)
    with pytest.raises(JournalReplayError):
        JobStore(str(tmp), fsync=False)


def test_job_json_roundtrip():
    job = Job(job_id="job-x", kernel="heat1d", config=dict(CFG),
              idempotency_key="k", checkpoints=[(4, "p", "sha")])
    clone = Job.from_json(json.loads(json.dumps(job.to_json())))
    assert clone == job


def test_job_json_is_the_dataclass_view():
    """``to_json`` builds its dict field by field: the same keys, order
    and values as ``dataclasses.asdict`` minus the store's offsets."""
    import dataclasses

    job = Job(job_id="job-x", kernel="heat1d", config=dict(CFG),
              idempotency_key="k", state="done", attempts=1,
              checkpoints=[(4, "p", "sha")], result_path="r",
              result_sha256="s", stats={"phases": {"execute": 0.1}},
              submit_at=0, result_at=64)
    want = dataclasses.asdict(job)
    del want["submit_at"], want["result_at"]
    want["checkpoints"] = [[4, "p", "sha"]]
    assert json.dumps(job.to_json()) == json.dumps(want)
