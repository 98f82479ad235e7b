"""Unit tests for the service's checksummed worker channel.

The supervisor/worker wire protocol in isolation: CRC sealing and
verification, deliberate corruption, and the thread-safe pipe channel.
"""

import multiprocessing as mp
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.service.transport import (
    PARENT,
    RESULT,
    Channel,
    ChannelClosed,
    Message,
    checksum,
    make_data_message,
    pack_payload,
    unpack_payload,
    verify_message,
)

pytestmark = pytest.mark.service


class TestChecksum:
    def test_roundtrip_preserves_payload_and_crc(self):
        obj = (np.arange(12.0).reshape(3, 4), {"retries": 2})
        msg = make_data_message(RESULT, 1, 2, 0, (5,), obj)
        assert verify_message(msg)
        arr, stats = unpack_payload(msg.payload)
        assert np.array_equal(arr, obj[0])
        assert stats == obj[1]

    def test_crc_is_over_payload_bytes(self):
        data = pack_payload([1, 2, 3])
        assert checksum(data) == checksum(bytes(data))
        assert checksum(data) != checksum(data + b"x")

    def test_corrupt_payload_fails_verification(self):
        msg = make_data_message(RESULT, 0, 1, 0, (0,), np.ones(64))
        data = bytearray(msg.payload)
        data[len(data) // 2] ^= 0xFF  # one byte flipped after sealing
        bad = replace(msg, payload=bytes(data))
        assert not verify_message(bad)
        # the original is untouched (frozen dataclass, new instance)
        assert verify_message(msg)
        assert bad.crc == msg.crc and bad.payload != msg.payload

    def test_control_messages_skip_verification(self):
        msg = Message(kind="heartbeat", src=0, dst=PARENT, epoch=0,
                      payload=("compute", 3, 1))
        assert verify_message(msg)


class TestChannel:
    def _pair(self):
        a, b = mp.Pipe(duplex=True)
        return Channel(a), Channel(b)

    def test_send_recv(self):
        a, b = self._pair()
        msg = make_data_message(RESULT, 0, 1, 0, (0,), np.arange(4))
        a.send(msg)
        got = b.recv(timeout_s=1.0)
        assert got.key == (0,) and verify_message(got)

    def test_recv_timeout_returns_none(self):
        a, b = self._pair()
        assert b.recv(timeout_s=0.01) is None

    def test_closed_peer_raises_channel_closed(self):
        a, b = self._pair()
        b.close()
        with pytest.raises(ChannelClosed):
            a.send(Message(kind="x", src=0, dst=1, epoch=0))

    def test_concurrent_sends_do_not_interleave(self):
        """The send lock keeps big frames atomic across threads."""
        a, b = self._pair()
        n_threads, per_thread = 4, 25
        payload = np.arange(20_000.0)  # well past PIPE_BUF

        def sender(tid):
            for i in range(per_thread):
                a.send(make_data_message(RESULT, tid, 0, 0, (i,), payload))

        threads = [threading.Thread(target=sender, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        got = 0
        while got < n_threads * per_thread:
            msg = b.recv(timeout_s=5.0)
            assert msg is not None, "sender stalled or frame lost"
            assert verify_message(msg), "interleaved/corrupted frame"
            got += 1
        for t in threads:
            t.join()
