"""Minimal serving front: stdlib HTTP over the durable job runtime.

One :class:`ServiceFront` binds a :class:`~repro.service.supervisor.
Supervisor` to a ``ThreadingHTTPServer``.  The API is deliberately
small — submit, poll, fetch, cancel, observe — and speaks only JSON
(arrays travel as the base64 + SHA-256 codec of
:func:`repro.api.stats.encode_array`):

====== ========================== =====================================
verb   path                       meaning
====== ========================== =====================================
POST   ``/jobs``                  submit ``{"kernel", "config", ...}``;
                                  202 with the job id (idempotent —
                                  resubmitting returns the same id)
GET    ``/jobs``                  list job summaries
GET    ``/jobs/<id>``             full job status (journaled view)
GET    ``/jobs/<id>/result``      sealed result: stats + interior
                                  array; 409 until the job is ``done``
POST   ``/jobs/<id>/cancel``      cancel (idempotent)
GET    ``/metrics``               supervisor + queue + store counters,
                                  per-worker liveness, and the front's
                                  connection counts (``front``)
GET    ``/healthz``               deep liveness: per-worker heartbeat
                                  age / current job / incarnation and
                                  queue pressure; **503** with
                                  ``{"state": "draining"}`` while the
                                  service drains
====== ========================== =====================================

Failure taxonomy on the wire mirrors the CLI exit codes:
:class:`~repro.runtime.errors.QueueSaturated` → **429** (exit 10),
:class:`~repro.runtime.errors.ServiceDraining` → **503** (a draining
server refuses new submissions but keeps answering reads),
:class:`~repro.runtime.errors.JobNotFound` → **404** (exit 11), usage
errors → 400.  Every error body is ``{"error", "kind"}`` so clients
re-raise the typed exception — the module's client helpers
(:func:`submit_job` & co.) do exactly that, which is how the CLI's
``repro submit/status/result`` map server-side saturation onto the
same exit code a local refusal produces.

Connections are persistent HTTP/1.1.  The client helpers keep one
connection per thread and server; the front answers with Nagle's
algorithm off, closes a connection whose request body it left unread
(or whose framing it cannot trust) after draining that body within a
fixed bound, closes idle connections after
:data:`IDLE_TIMEOUT_S`, and :meth:`ServiceFront.stop` ends the idle
ones.  HTTP-level errors (a malformed request line or header) carry the
same ``{"error", "kind"}`` body.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http import HTTPStatus
from http.client import BadStatusLine, HTTPConnection, HTTPSConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import SplitResult, urlsplit

from repro.runtime.errors import (
    JobNotFound,
    QueueSaturated,
    ServiceDraining,
)

__all__ = [
    "ServiceFront",
    "submit_job",
    "job_status",
    "job_result",
    "cancel_job",
    "server_metrics",
]

_MAX_BODY = 8 << 20  # request bodies are job specs, not bulk data
#: the bytes and seconds the front drains of a body it refused unread
_DRAIN_BYTES, _DRAIN_S = 4 * _MAX_BODY, 2.0

#: seconds a connection may sit idle, or stall mid-request, before the
#: front closes it
IDLE_TIMEOUT_S = 30.0


def _error_payload(exc: Exception) -> Tuple[int, Dict[str, Any]]:
    """Map an exception to ``(http_status, body)`` — the wire-side
    mirror of the CLI's exit-code taxonomy."""
    if isinstance(exc, ServiceDraining):
        # checked before QueueSaturated: draining subclasses it so
        # existing retry-on-saturation clients keep working
        return 503, {"error": str(exc), "kind": "ServiceDraining",
                     "state": "draining"}
    if isinstance(exc, QueueSaturated):
        return 429, {"error": str(exc), "kind": "QueueSaturated"}
    if isinstance(exc, JobNotFound):
        return 404, {"error": str(exc), "kind": "JobNotFound"}
    if isinstance(exc, (ValueError, KeyError, TypeError, OverflowError)):
        return 400, {"error": str(exc), "kind": type(exc).__name__}
    return 500, {"error": str(exc), "kind": type(exc).__name__}


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; the supervisor hangs off the server."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # the response goes out as two writes (headers, body); with Nagle
    # on, the second waits for the client's delayed ACK of the first
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    #: request-body bytes not yet read; ``None`` when the framing is
    #: unknown.  A response sent while it is not 0 closes the
    #: connection: the unread bytes would parse as the next request.
    _unread: Optional[int] = None

    # -- plumbing -----------------------------------------------------

    def log_message(self, fmt, *args):  # quiet by default
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._unread != 0:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_error(self, code, message=None, explain=None):
        """HTTP-level errors (a malformed request line or header, an
        unsupported method) answer with the typed JSON body, and close."""
        self.log_error("code %d, message %s", code, message)
        self._unread = None
        # a request line too malformed to carry its version would
        # otherwise be answered HTTP/0.9 style: a body, no status line
        self.request_version = self.protocol_version
        self._send_json(code, {"error": message or HTTPStatus(code).phrase,
                               "kind": "HTTPError"})

    def _body_length(self) -> int:
        """The request's ``Content-Length``; refuses framing it cannot
        follow (chunked, repeated, negative or non-decimal lengths)."""
        if "Transfer-Encoding" in self.headers:
            raise ValueError("Transfer-Encoding is not supported; send "
                             "a Content-Length")
        values = self.headers.get_all("Content-Length") or ["0"]
        if len(values) > 1 or not (values[0].isascii()
                                   and values[0].isdigit()):
            raise ValueError(f"bad Content-Length {', '.join(values)!r}")
        return int(values[0])

    def _read_body(self) -> Dict[str, Any]:
        length = self._unread
        if length > _MAX_BODY:
            raise ValueError(f"request body of {length} bytes exceeds "
                             f"the {_MAX_BODY} byte bound")
        try:
            raw = self.rfile.read(length) if length else b"{}"
        except TimeoutError:
            raise ValueError(f"request body stalled for {self.timeout:g} "
                             f"s") from None
        if len(raw) < length:
            raise ValueError(f"request body ended after {len(raw)} of "
                             f"{length} bytes")
        self._unread = 0
        try:
            data = json.loads(raw or b"{}")
        except RecursionError:
            raise ValueError("request body nests too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _route(self) -> Tuple[int, Dict[str, Any]]:
        sup = self.server.supervisor
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        if self.command == "GET":
            if parts == ["healthz"]:
                health = sup.health()
                return (200 if health.get("ok") else 503), health
            if parts == ["metrics"]:
                return 200, dict(sup.snapshot_metrics(),
                                 front=self.server.counters())
            if parts == ["jobs"]:
                return 200, {"jobs": [
                    {"job_id": j.job_id, "kernel": j.kernel,
                     "state": j.state, "attempts": j.attempts,
                     "priority": j.priority}
                    for j in sup.store.jobs()]}
            if len(parts) == 2 and parts[0] == "jobs":
                return 200, sup.store.get(parts[1]).to_json()
            if len(parts) == 3 and parts[:1] == ["jobs"] \
                    and parts[2] == "result":
                return self._result(sup, parts[1])
        elif self.command == "POST":
            if parts == ["jobs"]:
                return self._submit(sup)
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "cancel":
                job = sup.cancel(parts[1])
                return 200, {"job_id": job.job_id, "state": job.state}
        raise JobNotFound(self.path)

    # -- handlers -----------------------------------------------------

    def _submit(self, sup) -> Tuple[int, Dict[str, Any]]:
        body = self._read_body()
        kernel = body.get("kernel")
        config = body.get("config") or {}
        if not kernel:
            raise ValueError("submission needs a 'kernel' name")
        job, created = sup.submit(
            str(kernel), dict(config),
            priority=int(body.get("priority", 0)),
            max_retries=body.get("max_retries"))
        return (202 if created else 200), {
            "job_id": job.job_id,
            "state": job.state,
            "created": created,
            "idempotency_key": job.idempotency_key,
        }

    def _result(self, sup, job_id: str) -> Tuple[int, Dict[str, Any]]:
        from repro.api.stats import encode_array
        from repro.service.jobstore import DONE

        job = sup.store.resident(job_id)
        if job.state != DONE:
            return 409, {"job_id": job_id, "state": job.state,
                         "error": f"job is {job.state}, not done",
                         "kind": "NotReady",
                         "error_detail": job.error,
                         "error_kind": job.error_kind}
        interior, stats = sup.store.load_result(job_id)
        return 200, {"job_id": job_id, "state": job.state,
                     "stats": stats, "interior": encode_array(interior)}

    def _dispatch(self) -> None:
        self._unread = None
        try:
            self._unread = self._body_length()
            status, payload = self._route()
        except Exception as exc:  # typed taxonomy, not a stack trace
            status, payload = _error_payload(exc)
        self._send_json(status, payload)
        if self._unread != 0:
            self._drain()

    def _drain(self) -> None:
        """End the answer, then discard what the client still sends,
        within :data:`_DRAIN_BYTES` and :data:`_DRAIN_S`: closing on
        unread bytes resets the connection, and a client still sending
        its body would see the reset instead of the answer."""
        deadline, left = time.monotonic() + _DRAIN_S, _DRAIN_BYTES
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while left > 0 and (wait := deadline - time.monotonic()) > 0:
                self.connection.settimeout(wait)
                chunk = self.connection.recv(min(left, 1 << 16))
                if not chunk:
                    break
                left -= len(chunk)
        except OSError:     # a timeout, or the client is gone
            pass

    do_GET = _dispatch
    do_POST = _dispatch


class _Server(ThreadingHTTPServer):
    """The threading server, counting and tracking its connections so
    :meth:`end_connections` can close the idle ones."""

    daemon_threads = True

    def __init__(self, address, supervisor):
        super().__init__(address, _Handler)
        self.supervisor = supervisor
        self.accepted = 0
        self._open: set = set()
        self._open_changed = threading.Condition()

    def process_request(self, request, client_address):
        with self._open_changed:
            self.accepted += 1
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()
        super().shutdown_request(request)

    def counters(self) -> Dict[str, int]:
        with self._open_changed:
            return {"connections": self.accepted,
                    "open_connections": len(self._open)}

    def end_connections(self, timeout: float) -> None:
        """Shut the read side of every open connection: an idle
        handler's next read sees end-of-stream and its thread ends (a
        busy one answers first).  Waits up to ``timeout`` for them."""
        with self._open_changed:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            self._open_changed.wait_for(lambda: not self._open, timeout)


class ServiceFront:
    """Own the HTTP server thread over a started supervisor."""

    def __init__(self, supervisor, host: str = "127.0.0.1",
                 port: int = 0):
        self.supervisor = supervisor
        self._httpd = _Server((host, port), supervisor)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceFront":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.end_connections(timeout=5.0)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceFront":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- client helpers ---------------------------------------------------

#: what a kept-alive connection the server has since closed raises
#: before any response arrives (``RemoteDisconnected`` is both of the
#: first and the last)
_STALE = (ConnectionResetError, BrokenPipeError, BadStatusLine)
_HEADERS = {"Content-Type": "application/json"}
_pool = threading.local()


class _Connections(dict):
    """One thread's connections by ``scheme://host:port``; closed when
    the thread ends."""

    def __del__(self):
        for conn in self.values():
            conn.close()


def _pooled(url: SplitResult, timeout: float):
    """This thread's connection to ``url``'s server, as ``(key, conn,
    reused)``; ``reused`` means it has carried a request before."""
    try:
        conns = _pool.conns
    except AttributeError:
        conns = _pool.conns = _Connections()
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError(f"not an http(s) URL: {url.geturl()!r}")
    https = url.scheme == "https"
    port = url.port or (443 if https else 80)
    key = f"{url.scheme}://{url.hostname}:{port}"
    conn = conns.get(key)
    if conn is None:
        cls = HTTPSConnection if https else HTTPConnection
        conn = conns[key] = cls(url.hostname, port, timeout=timeout)
        return key, conn, False
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    return key, conn, conn.sock is not None


def _drop(key: str) -> None:
    conn = _pool.conns.pop(key, None)
    if conn is not None:
        conn.close()


def _roundtrip(url: SplitResult, method: str, target: str,
               data: Optional[bytes], timeout: float):
    """Send one request on the pooled connection: ``(status, reason,
    body)``.

    A reused connection that fails before any response arrives (the
    server closed it while idle, or restarted) is retried once on a
    fresh one.  That is safe because every route is idempotent: reads,
    ``POST /jobs`` (deduplicated by its idempotency key) and
    ``POST …/cancel``.
    """
    key, conn, reused = _pooled(url, timeout)
    try:
        try:
            conn.request(method, target, body=data, headers=_HEADERS)
            resp = conn.getresponse()
        except _STALE:
            if not reused:
                raise
            _drop(key)
            key, conn, _ = _pooled(url, timeout)
            conn.request(method, target, body=data, headers=_HEADERS)
            resp = conn.getresponse()
        raw = resp.read()
    except BaseException:
        _drop(key)
        raise
    if resp.will_close:
        _drop(key)
    return resp.status, resp.reason, raw


def _request(base: str, path: str, *, method: str = "GET",
             body: Optional[Dict[str, Any]] = None,
             timeout: float = 30.0) -> Dict[str, Any]:
    """One JSON round trip; server error bodies re-raise typed."""
    url = urlsplit(base)
    data = None if body is None else json.dumps(body).encode()
    status, reason, raw = _roundtrip(url, method,
                                     url.path.rstrip("/") + path, data,
                                     timeout)
    if 200 <= status < 300:
        return json.loads(raw or b"{}")
    try:
        payload = json.loads(raw or b"{}")
    except ValueError:
        payload = {"error": f"HTTP Error {status}: {reason}",
                   "kind": "HTTPError"}
    raise _typed(payload, status)


def _typed(payload: Dict[str, Any], status: int) -> Exception:
    kind = payload.get("kind", "")
    message = payload.get("error", f"HTTP {status}")
    if kind == "ServiceDraining" or status == 503:
        return ServiceDraining(message)
    if kind == "QueueSaturated" or status == 429:
        return QueueSaturated(0, 0, detail=message)
    if kind == "JobNotFound" or status == 404:
        exc = JobNotFound(message)
        exc.args = (message,)  # the server already phrased it
        return exc
    if status == 400:
        return ValueError(message)
    return RuntimeError(message)


def submit_job(base: str, kernel: str, config: Dict[str, Any], *,
               priority: int = 0, max_retries: Optional[int] = None,
               timeout: float = 30.0) -> Dict[str, Any]:
    body: Dict[str, Any] = {"kernel": kernel, "config": config,
                            "priority": priority}
    if max_retries is not None:
        body["max_retries"] = max_retries
    return _request(base, "/jobs", method="POST", body=body,
                    timeout=timeout)


def job_status(base: str, job_id: str, *,
               timeout: float = 30.0) -> Dict[str, Any]:
    return _request(base, f"/jobs/{job_id}", timeout=timeout)


def job_result(base: str, job_id: str, *, timeout: float = 30.0,
               decode: bool = True) -> Dict[str, Any]:
    """Fetch a sealed result; with ``decode`` the interior comes back
    as an ndarray (hash-verified)."""
    out = _request(base, f"/jobs/{job_id}/result", timeout=timeout)
    if decode and isinstance(out.get("interior"), dict):
        from repro.api.stats import decode_array

        out["interior"] = decode_array(out["interior"])
    return out


def cancel_job(base: str, job_id: str, *,
               timeout: float = 30.0) -> Dict[str, Any]:
    return _request(base, f"/jobs/{job_id}/cancel", method="POST",
                    timeout=timeout)


def server_metrics(base: str, *,
                   timeout: float = 30.0) -> Dict[str, Any]:
    return _request(base, "/metrics", timeout=timeout)
