"""Checksummed duplex channels between the supervisor and its workers.

Every process-isolated worker child (:mod:`repro.service.isolation`)
talks to the supervisor over one duplex OS pipe.  The wire unit is a
:class:`Message`.  Data-bearing messages (a job assignment, a
checkpoint, the result) carry their payload as *bytes* plus a CRC32
computed at pack time, so corruption in flight is caught at *receive*
time instead of surfacing later as a wrong answer.  Control messages
(heartbeats, cancel/preempt/shutdown tokens) carry small Python
objects and are not checksummed.

:class:`Channel` is thread-safe on the send side (the child's
heartbeat thread shares the pipe with the job loop; interleaved
writes over ``PIPE_BUF`` would corrupt the stream without the lock).
"""

from __future__ import annotations

import pickle
import threading
import zlib
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any, Optional, Tuple

# -- message kinds ---------------------------------------------------

#: child liveness beacon
HEARTBEAT = "heartbeat"
#: child's finished job (checksummed payload)
RESULT = "result"
#: child-reported structured failure
FAILURE = "failure"
#: parent: exit cleanly
SHUTDOWN = "shutdown"

#: the supervisor's endpoint id on a worker channel
PARENT = -1


class ChannelClosed(Exception):
    """The peer endpoint is gone (EOF / broken pipe)."""


@dataclass(frozen=True)
class Message:
    """One wire message.

    ``key`` addresses data messages (a checkpoint's step, say).
    ``crc`` covers ``payload`` only when it is ``bytes``.
    """

    kind: str
    src: int
    dst: int
    epoch: int
    key: Tuple[int, ...] = ()
    crc: int = 0
    payload: Any = None


def checksum(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def pack_payload(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_payload(data: bytes) -> Any:
    return pickle.loads(data)


def make_data_message(kind: str, src: int, dst: int, epoch: int,
                      key: Tuple[int, ...], obj: Any) -> Message:
    """Pack ``obj`` and seal it with its CRC32."""
    data = pack_payload(obj)
    return Message(kind=kind, src=src, dst=dst, epoch=epoch, key=key,
                   crc=checksum(data), payload=data)


def verify_message(msg: Message) -> bool:
    """True iff the payload bytes still match the sender's CRC."""
    if not isinstance(msg.payload, (bytes, bytearray)):
        return True
    return checksum(bytes(msg.payload)) == msg.crc


@dataclass
class Channel:
    """A duplex pipe endpoint with thread-safe sends and timed receives."""

    conn: Connection
    _send_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False)

    def send(self, msg: Message) -> None:
        try:
            with self._send_lock:
                self.conn.send(msg)
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv(self, timeout_s: Optional[float]) -> Optional[Message]:
        """Next message, or ``None`` once ``timeout_s`` elapses."""
        try:
            if timeout_s is not None and not self.conn.poll(timeout_s):
                return None
            return self.conn.recv()
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def poll(self) -> bool:
        try:
            return self.conn.poll(0)
        except (BrokenPipeError, ConnectionError, EOFError, OSError) as exc:
            raise ChannelClosed(str(exc)) from exc

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
