"""Persistent connections between the client helpers and the front.

The helpers keep one HTTP/1.1 connection per thread and server; the
front counts the connections it accepts in the ``front`` block of
``/metrics``.  These tests pin the reuse, the Nagle-off round trip, the
retry-once rule for a connection the server has closed, the typed
errors over a reused connection, and a clean SIGTERM with an idle
connection open.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.runtime.errors import (
    JobNotFound,
    QueueSaturated,
    ServiceDraining,
)
from repro.service import (
    JobStore,
    ServiceFront,
    Supervisor,
    SupervisorConfig,
    job_result,
    job_status,
    server_metrics,
    submit_job,
)
from repro.service import front as front_mod

pytestmark = pytest.mark.service

CFG = {"shape": [40], "steps": 12, "backend": "serial"}
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _accepted(url):
    return server_metrics(url)["front"]["connections"]


@pytest.fixture
def served(tmp_path):
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=1))
        sup.start()
        try:
            with ServiceFront(sup, port=0) as front:
                yield front.url, sup
        finally:
            sup.stop()


def test_one_thread_uses_one_connection(served):
    url, sup = served
    out = submit_job(url, "heat1d", CFG)
    sup.wait(out["job_id"], timeout=60)
    for _ in range(16):
        job_status(url, out["job_id"])
        job_result(url, out["job_id"])
        server_metrics(url)
    assert submit_job(url, "heat1d", CFG)["created"] is False
    m = server_metrics(url)  # the 51st call
    assert m["front"] == {"connections": 1, "open_connections": 1}


def test_round_trips_do_not_wait_for_delayed_acks(served):
    """With Nagle on, each response's body waits ~40 ms for the
    client's delayed ACK of its headers."""
    url, _ = served
    server_metrics(url)
    t0 = time.perf_counter()
    for _ in range(50):
        server_metrics(url)
    assert time.perf_counter() - t0 < 1.0
    assert _accepted(url) == 1


def test_typed_errors_keep_the_connection(tmp_path):
    """404, 400, 409, 429 and 503 re-raise typed over a reused
    connection, and the connection carries the next call."""
    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=1,
                                                 queue_depth=1))
        # supervisor NOT started: the job provably stays queued
        with ServiceFront(sup, port=0) as front:
            url = front.url
            server_metrics(url)
            with pytest.raises(JobNotFound):
                job_status(url, "job-unknown")
            assert _accepted(url) == 1
            with pytest.raises(ValueError, match="kernel"):
                submit_job(url, "", CFG)
            assert _accepted(url) == 1
            out = submit_job(url, "heat1d", CFG)
            with pytest.raises(RuntimeError, match="not done"):
                job_result(url, out["job_id"])
            assert _accepted(url) == 1
            with pytest.raises(QueueSaturated):
                submit_job(url, "heat1d", dict(CFG, steps=13))
            assert _accepted(url) == 1
            sup.begin_drain()
            with pytest.raises(ServiceDraining):
                submit_job(url, "heat1d", dict(CFG, steps=14))
            assert job_status(url, out["job_id"])["state"] == "queued"
            assert _accepted(url) == 1


def test_threads_use_their_own_connections(served):
    """More client threads than cores, switching often: each keeps its
    own connection, and the front's counts stay exact."""
    url, _ = served
    errors = []

    def calls():
        try:
            for _ in range(20):
                assert server_metrics(url)["front"]["open_connections"]
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=calls) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not errors
    # the eight threads' connections (closed as the threads ended),
    # then this thread's own
    deadline = time.monotonic() + 10
    while server_metrics(url)["front"]["open_connections"] > 1:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert server_metrics(url)["front"] == {"connections": 9,
                                            "open_connections": 1}


def test_restarted_server_reconnects_once(tmp_path):
    """The pooled connection dies with its server; the next call
    retries once on a fresh connection to the new server on the same
    port, and a resubmission dedups onto the journaled job."""
    root = str(tmp_path / "store")
    with JobStore(root, fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=1))
        sup.start()
        try:
            with ServiceFront(sup, port=0) as front:
                url, port = front.url, front.address[1]
                first = submit_job(url, "heat1d", CFG)
                sup.wait(first["job_id"], timeout=60)
        finally:
            sup.stop()
    with JobStore(root, fsync=False) as store:
        sup = Supervisor(store, SupervisorConfig(workers=1))
        sup.start()
        try:
            with ServiceFront(sup, port=port):
                again = submit_job(url, "heat1d", CFG)
                assert again["job_id"] == first["job_id"]
                assert again["created"] is False
                assert _accepted(url) == 1
        finally:
            sup.stop()


def test_idle_connection_times_out_and_reconnects(served, monkeypatch):
    url, _ = served
    monkeypatch.setattr(front_mod._Handler, "timeout", 0.2)
    assert _accepted(url) == 1
    time.sleep(0.6)  # the front closes the idle connection
    # the next call finds it closed and retries once on a fresh one
    assert server_metrics(url)["front"] == {"connections": 2,
                                            "open_connections": 1}


def test_stop_ends_idle_connections(tmp_path):
    """``stop()`` shuts the read side of an idle connection: its handler
    thread ends and the client sees the close."""
    from http.client import HTTPConnection

    with JobStore(str(tmp_path / "store"), fsync=False) as store:
        front = ServiceFront(Supervisor(store), port=0).start()
        conn = HTTPConnection(*front.address, timeout=10)
        try:
            conn.request("GET", "/metrics")
            assert conn.getresponse().read()
            front.stop()
            assert conn.sock.recv(1) == b""
        finally:
            conn.close()


def test_sigterm_with_an_idle_connection_exits_zero(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
               PYTHONUNBUFFERED="1")
    env.pop("REPRO_ISOLATION", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--root", str(tmp_path / "store"), "--port", "0",
         "--no-fsync", "--workers", "1"],
        cwd=REPO, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        url = None
        deadline = time.monotonic() + 30
        while url is None and time.monotonic() < deadline:
            m = re.search(r"serving on (http://\S+)",
                          proc.stdout.readline() or "")
            url = m.group(1) if m else None
        assert url, "server never announced its URL"
        out = submit_job(url, "heat1d", CFG)
        deadline = time.monotonic() + 60
        while job_status(url, out["job_id"])["state"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert job_result(url, out["job_id"])["stats"]["steps"] == 12
        assert server_metrics(url)["front"]["open_connections"] == 1
        t0 = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=10)
        assert time.monotonic() - t0 < 10
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
