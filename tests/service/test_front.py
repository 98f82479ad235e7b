"""HTTP front: routes, typed error taxonomy, client helpers."""

import json
import time
import urllib.request

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.runtime.errors import JobNotFound, QueueSaturated
from repro.service import (
    JobStore,
    ServiceFront,
    Supervisor,
    SupervisorConfig,
    cancel_job,
    job_result,
    job_status,
    server_metrics,
    submit_job,
)

pytestmark = pytest.mark.service

CFG = {"shape": [40], "steps": 12, "backend": "serial"}


@pytest.fixture
def served(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=1))
        sup.start()
        try:
            with ServiceFront(sup, port=0) as front:
                yield front.url, sup, store
        finally:
            sup.stop()


def test_submit_poll_fetch_roundtrip(served):
    url, sup, _ = served
    out = submit_job(url, "heat1d", CFG)
    assert out["created"] and out["state"] == "queued"
    sup.wait(out["job_id"], timeout=60)
    st = job_status(url, out["job_id"])
    assert st["state"] == "done" and st["attempts"] == 1
    res = job_result(url, out["job_id"])
    direct = Session(get_stencil("heat1d")).run(RunConfig.from_json(CFG))
    np.testing.assert_array_equal(res["interior"], direct.interior)
    assert res["stats"]["steps"] == 12


def test_resubmit_deduplicates_over_http(served):
    url, sup, _ = served
    a = submit_job(url, "heat1d", CFG)
    sup.wait(a["job_id"], timeout=60)
    b = submit_job(url, "heat1d", CFG)
    assert not b["created"] and b["job_id"] == a["job_id"]


def test_unknown_job_maps_to_typed_404(served):
    url, _, _ = served
    with pytest.raises(JobNotFound):
        job_status(url, "job-unknown")
    with pytest.raises(JobNotFound):
        job_result(url, "job-unknown")
    with pytest.raises(JobNotFound):  # unknown route, same verdict
        job_status(url, "nested/route")


def test_result_before_done_is_409(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=1))
        # supervisor NOT started: the job provably stays queued
        with ServiceFront(sup, port=0) as front:
            out = submit_job(front.url, "heat1d", CFG)
            with pytest.raises(RuntimeError, match="not done"):
                job_result(front.url, out["job_id"])


def test_saturation_maps_to_typed_429(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=1,
                                                 queue_depth=1))
        # supervisor NOT started: the queue fills and stays full
        with ServiceFront(sup, port=0) as front:
            submit_job(front.url, "heat1d", CFG)
            with pytest.raises(QueueSaturated):
                submit_job(front.url, "heat1d", dict(CFG, steps=13))


def test_cancel_over_http(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=1))
        with ServiceFront(sup, port=0) as front:
            out = submit_job(front.url, "heat1d", CFG)
            res = cancel_job(front.url, out["job_id"])
            assert res["state"] == "cancelled"


def test_metrics_healthz_and_listing(served):
    url, sup, _ = served
    out = submit_job(url, "heat1d", CFG)
    sup.wait(out["job_id"], timeout=60)
    m = server_metrics(url)
    assert m["store"]["jobs"]["done"] == 1
    assert m["queue"]["capacity"] == 64
    assert "recovery" in m
    assert m["state"] == "serving"
    assert [w["worker"] for w in m["workers"]] == [0]
    # the worker clears its assignment just *after* the result is
    # journaled, so allow that last handoff a moment to land
    deadline = time.monotonic() + 10
    while True:
        with urllib.request.urlopen(f"{url}/healthz", timeout=10) as r:
            health = json.loads(r.read())
        (w,) = health["workers"]
        if w["job_id"] is None or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    assert health["ok"] and health["state"] == "serving"
    assert health["isolation"] == sup.config.isolation
    assert health["queue"]["capacity"] == 64
    assert w["worker"] == 0 and w["job_id"] is None
    assert w["heartbeat_age_s"] is not None
    with urllib.request.urlopen(f"{url}/jobs", timeout=10) as r:
        jobs = json.loads(r.read())["jobs"]
    assert [j["state"] for j in jobs] == ["done"]


def test_draining_maps_to_typed_503(served):
    import urllib.error

    from repro.runtime.errors import ServiceDraining

    url, sup, _ = served
    sup.begin_drain()
    with pytest.raises(ServiceDraining):
        submit_job(url, "heat1d", CFG)
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"{url}/healthz", timeout=10)
    assert err.value.code == 503
    health = json.loads(err.value.read())
    assert health["state"] == "draining" and not health["ok"]
    # reads still answer while draining
    assert server_metrics(url)["state"] == "draining"


def test_malformed_submission_is_400(served):
    url, _, _ = served
    with pytest.raises(ValueError, match="kernel"):
        submit_job(url, "", CFG)
    with pytest.raises(ValueError):  # unknown RunConfig field
        submit_job(url, "heat1d", {"no_such_knob": 1})


def test_result_reads_back_one_journal_record(served, monkeypatch):
    """``GET /jobs/<id>/result`` checks the resident state, then reads
    back only the ``result`` record (``load_result``'s CRC check)."""
    url, sup, store = served
    out = submit_job(url, "heat1d", CFG)
    sup.wait(out["job_id"], timeout=60)
    offsets = []
    read = store._read_record

    def counted(offset):
        offsets.append(offset)
        return read(offset)

    monkeypatch.setattr(store, "_read_record", counted)
    assert job_result(url, out["job_id"])["stats"]["steps"] == 12
    assert len(offsets) == 1
