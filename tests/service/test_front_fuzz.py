"""Fuzz the HTTP front over persistent connections.

Every malformed request gets a typed 4xx (a JSON ``{"error", "kind"}``
body), never a 500.  After it, the connection either answers a
follow-up request correctly or, when the answer said ``Connection:
close``, is closed: a body the front did not read must never be parsed
as the next request.  The journal still replays afterwards.
"""

import http.client
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import JobStore, ServiceFront, Supervisor, SupervisorConfig
from repro.service import front as front_mod

pytestmark = pytest.mark.service

JOB = {"kernel": "heat1d",
       "config": {"shape": [40], "steps": 12, "backend": "serial"}}


class _Raw:
    """One persistent connection, spoken to byte by byte."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self):
        """``(status, headers, body)``, or ``None`` once closed."""
        try:
            line = self.rfile.readline()
        except ConnectionResetError:
            return None
        if not line:
            return None
        status = int(line.split()[1])
        headers = {}
        while True:
            h = self.rfile.readline().decode("latin-1")
            if h in ("\r\n", "\n", ""):
                break
            key, _, value = h.partition(":")
            headers[key.strip().lower()] = value.strip()
        return status, headers, self.rfile.read(
            int(headers.get("content-length", 0)))

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _request(method: str, path: str, body: bytes = b"",
             headers=None) -> bytes:
    if headers is None:
        headers = [("Content-Length", str(len(body)))] if body else []
    head = [f"{method} {path} HTTP/1.1", "Host: fuzz"]
    head += [f"{k}: {v}" for k, v in headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def _assert_typed_4xx(answer):
    assert answer is not None, "the front hung up without answering"
    status, headers, body = answer
    assert 400 <= status < 500, (status, body)
    assert headers["content-type"] == "application/json"
    payload = json.loads(body)
    assert isinstance(payload["error"], str)
    assert isinstance(payload["kind"], str) and payload["kind"]


def _follow_up(conn, answer) -> None:
    """Closed if the answer said so, else a correct ``/metrics``."""
    if answer[1].get("connection", "").lower() == "close":
        assert conn.rfile.read() == b"", "bytes after Connection: close"
        return
    conn.send(_request("GET", "/metrics"))
    status, _, body = conn.response()
    assert status == 200 and "supervisor" in json.loads(body)


@pytest.fixture(scope="module")
def front(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("fuzz") / "store")
    with JobStore(root, fsync=False) as store:
        # supervisor NOT started: accepted submissions stay queued,
        # whatever sizes a fuzzed config asks for
        sup = Supervisor(store, SupervisorConfig(workers=1))
        with ServiceFront(sup, port=0) as served:
            yield served, root


def _body(data) -> bytes:
    return data if isinstance(data, bytes) else json.dumps(data).encode()


_CASES = {
    # bodies the front reads in full: the connection stays usable
    "non-json": _request("POST", "/jobs", b"not json"),
    "non-object": _request("POST", "/jobs", b"[1, 2]"),
    "bad-utf8": _request("POST", "/jobs", b"\xff\xfe{"),
    "deep-nesting": _request("POST", "/jobs", b"[" * 100_000),
    "huge-number": _request("POST", "/jobs",
                            _body({"kernel": "heat1d", "priority": 1e400})),
    "config-not-object": _request("POST", "/jobs",
                                  _body({"kernel": "heat1d", "config": 5})),
    "unknown-kernel": _request("POST", "/jobs", _body({"kernel": "nope"})),
    "unknown-field": _request("POST", "/jobs", _body(
        {"kernel": "heat1d", "config": {"no_such_knob": 1}})),
    "qos-not-object": _request("POST", "/jobs", _body(
        {"kernel": "heat1d", "config": dict(JOB["config"], qos=5)})),
    # bodies it does not read, or framing it cannot follow: it closes
    "body-to-unknown-route": _request("POST", "/nope", _body(JOB)),
    "body-to-get": _request("GET", "/jobs/job-x", b'{"a": 1}'),
    "body-to-cancel": _request("POST", "/jobs/job-x/cancel", b"{}"),
    "oversized": _request("POST", "/jobs", headers=[
        ("Content-Length", str(9 << 20))]),
    "negative-length": _request("POST", "/jobs", b"{}", headers=[
        ("Content-Length", "-2")]),
    "hex-length": _request("POST", "/jobs", b"GET /x HTTP/1.1\r\n\r\n",
                           headers=[("Content-Length", "0x13")]),
    "signed-length": _request("POST", "/jobs", b"{}", headers=[
        ("Content-Length", "+2")]),
    "two-lengths": _request("POST", "/jobs", b"{}", headers=[
        ("Content-Length", "2"), ("Content-Length", "0")]),
    "chunked": _request("POST", "/jobs", b"2\r\n{}\r\n0\r\n\r\n", headers=[
        ("Transfer-Encoding", "chunked")]),
    "malformed-request-line": b"HELLO\r\n\r\n",
    "bad-version": b"GET /metrics HTTP/x.y\r\n\r\n",
    "too-many-headers": _request("GET", "/metrics", headers=[
        (f"X-{i}", "1") for i in range(120)]),
    "header-too-long": _request("GET", "/metrics", headers=[
        ("X-Long", "a" * 70_000)]),
    "request-line-too-long": _request("GET", "/" + "a" * 70_000),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_bad_request_answers_typed_4xx(front, case):
    served, _ = front
    conn = _Raw(served.address)
    try:
        conn.send(_request("GET", "/metrics"))  # a kept-alive connection
        assert conn.response()[0] == 200
        conn.send(_CASES[case])
        answer = conn.response()
        _assert_typed_4xx(answer)
        _follow_up(conn, answer)
    finally:
        conn.close()


def test_truncated_body_answers_400_and_closes(front):
    served, _ = front
    conn = _Raw(served.address)
    try:
        conn.send(_request("POST", "/jobs", b'{"kernel": "he', headers=[
            ("Content-Length", "100")]))
        conn.sock.shutdown(socket.SHUT_WR)
        answer = conn.response()
        _assert_typed_4xx(answer)
        assert answer[1]["connection"] == "close"
        assert conn.rfile.read() == b""
    finally:
        conn.close()


def test_stalled_body_answers_400_and_closes(front, monkeypatch):
    monkeypatch.setattr(front_mod._Handler, "timeout", 0.3)
    served, _ = front
    conn = _Raw(served.address)
    try:
        conn.send(_request("POST", "/jobs", b'{"kernel": "he', headers=[
            ("Content-Length", "100")]))
        answer = conn.response()
        _assert_typed_4xx(answer)
        assert answer[1]["connection"] == "close"
        assert conn.rfile.read() == b""
    finally:
        conn.close()


def test_oversized_body_gets_its_typed_400(front):
    """A body over the bound is refused unread and then drained, so a
    client still sending it reads the 400 instead of a reset."""
    served, _ = front
    conn = http.client.HTTPConnection(*served.address, timeout=30)
    try:
        conn.request("POST", "/jobs", body=b" " * (9 << 20),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["kind"] == "ValueError"
    finally:
        conn.close()


@pytest.mark.parametrize("chunk,pause", [(1 << 16, 0.0), (1 << 10, 0.01)])
def test_a_client_sending_past_the_drain_bound_is_cut_off(
        front, monkeypatch, chunk, pause):
    """A fast sender meets the byte bound, a slow one the time bound:
    either way the handler closes soon after, the answer already sent."""
    monkeypatch.setattr(front_mod, "_DRAIN_S", 0.5)
    monkeypatch.setattr(front_mod, "_DRAIN_BYTES", 1 << 20)
    served, _ = front
    conn = _Raw(served.address)
    stop = threading.Event()

    def keep_sending():
        try:
            while not stop.is_set():
                conn.sock.sendall(b" " * chunk)
                time.sleep(pause)
        except OSError:     # the front closed the connection
            pass

    sender = threading.Thread(target=keep_sending, daemon=True)
    try:
        conn.send(_request("POST", "/jobs", headers=[
            ("Content-Length", str(1 << 30))]))
        start = time.monotonic()
        sender.start()
        _assert_typed_4xx(conn.response())
        sender.join(timeout=10)
        assert not sender.is_alive(), "the front kept reading"
        assert time.monotonic() - start < 0.5 + 2.0
    finally:
        stop.set()
        conn.close()


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
_config_keys = st.sampled_from(["shape", "steps", "b", "seed", "backend",
                                "scheme", "engine", "threads", "qos",
                                "core_widths", "verify"])
_submissions = st.fixed_dictionaries({}, optional={
    "kernel": st.sampled_from(["heat1d", "life", "", "nope"]) | _json,
    # a valid config with up to two fuzzed fields reaches the checks
    # behind the first field's
    "config": st.dictionaries(_config_keys, _json, max_size=2).map(
        lambda fuzzed: dict(JOB["config"], **fuzzed)) | _json,
    "priority": _json,
    "max_retries": _json,
})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(body=st.binary(max_size=64) | _submissions.map(_body)
       | _json.map(_body))
def test_random_submissions_never_500(front, body):
    served, _ = front
    conn = _Raw(served.address)
    try:
        conn.send(_request("POST", "/jobs", body))
        answer = conn.response()
        assert answer is not None
        if answer[0] >= 300:
            _assert_typed_4xx(answer)
        else:
            assert answer[0] in (200, 202)
            assert json.loads(answer[2])["job_id"].startswith("job-")
        _follow_up(conn, answer)
    finally:
        conn.close()


def test_journal_replays_after_fuzzing(front):
    served, root = front
    conn = _Raw(served.address)
    try:
        conn.send(_request("POST", "/jobs", _body(JOB)))
        status, _, body = conn.response()
        assert status in (200, 202)
        job_id = json.loads(body)["job_id"]
    finally:
        conn.close()
    with JobStore(root, fsync=False) as reopened:
        assert reopened.metrics()["corrupt_tail_bytes"] == 0
        assert reopened.get(job_id).state == "queued"
        assert all(j.state == "queued" for j in reopened.jobs())
