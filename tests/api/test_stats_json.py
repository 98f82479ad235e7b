"""JSON round-trips: RunStats/RunResult/RunConfig and the array codec.

The serving front ships results over the wire as JSON; these tests pin
that the round trip is lossless — numpy scalars coerce, the typed
counter blocks come back as their real types, and arrays survive the
base64 + SHA-256 codec bit-exactly.
"""

import json

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.api.stats import (
    RunStats,
    decode_array,
    encode_array,
    json_safe,
)
from repro.distributed.exec import CommStats
from repro.engine.cache import CacheStats
from repro.runtime.resilience import ResilienceReport
from repro.runtime.tracing import RuntimeEvent

pytestmark = pytest.mark.api


def _dumps(payload):
    # the real contract: the default encoder, no custom hooks
    return json.dumps(payload)


def test_json_safe_coerces_numpy_scalars():
    out = json_safe({
        "i": np.int64(3),
        "f": np.float32(0.5),
        "b": np.bool_(True),
        "a": np.arange(3),
        "t": (np.int32(1), 2),
        np.int64(7): "npkey",
    })
    _dumps(out)
    assert out["i"] == 3 and isinstance(out["i"], int)
    assert out["b"] is True
    assert out["a"] == [0, 1, 2]
    assert out["t"] == [1, 2]
    assert out["7"] == "npkey"


def test_array_codec_bit_exact_roundtrip():
    arr = np.random.default_rng(0).random((5, 7))
    clone = decode_array(json.loads(_dumps(encode_array(arr))))
    assert clone.dtype == arr.dtype and clone.shape == arr.shape
    assert clone.tobytes() == arr.tobytes()


def test_array_codec_detects_tampering():
    payload = encode_array(np.ones(4))
    payload["sha256"] = "0" * 64
    with pytest.raises(ValueError, match="SHA-256"):
        decode_array(payload)


def test_runstats_roundtrip_with_all_blocks():
    stats = RunStats(
        backend="distributed", scheme="tess", engine="naive",
        shape=(np.int64(32), 32), steps=np.int64(8),
        phases={"execute": np.float64(0.25)},
        schedule={"tasks": np.int64(12), "groups": 3},
        events=[RuntimeEvent(kind="group", group=1, label="g1",
                             seconds=0.01, detail="d")],
        comm=CommStats(messages=4, bytes_sent=1024,
                       stage_bytes={0: 512, 1: 512}, drops=1),
        resilience=ResilienceReport(scheme="tess", restores=2,
                                    checkpoints_taken=3),
        cache=CacheStats(hits=5, misses=1, compile_seconds=0.02),
        plan_compiles=1, cache_hits=2,
        degradations=[{"from": "distributed", "to": "serial",
                       "error": "AdmissionRejected", "detail": "x"}],
        verified=np.bool_(True),
    )
    clone = RunStats.from_json(json.loads(_dumps(stats.to_json())))
    assert clone.backend == "distributed"
    assert clone.shape == (32, 32) and clone.steps == 8
    assert clone.phases == {"execute": 0.25}
    # events come back as real RuntimeEvent objects
    assert clone.events[0].kind == "group"
    assert clone.event_counts() == {"group": 1}
    # typed blocks come back as their real types, int keys restored
    assert isinstance(clone.comm, CommStats)
    assert clone.comm.stage_bytes == {0: 512, 1: 512}
    assert isinstance(clone.resilience, ResilienceReport)
    assert clone.resilience.describe()  # live accessor works
    assert clone.resilience.restores == 2
    assert isinstance(clone.cache, CacheStats)
    assert clone.cache.hits == 5
    assert clone.degradations[0]["to"] == "serial"
    assert clone.verified is True
    assert clone.describe()


def test_runstats_roundtrip_minimal():
    clone = RunStats.from_json(json.loads(_dumps(RunStats().to_json())))
    assert clone.comm is None and clone.resilience is None
    assert clone.cache is None and clone.verified is None


def test_2_0_resilience_block_still_loads():
    """Records journaled by 2.0.0 carry the removed ``task_retries``."""
    record = RunStats(backend="resilient", scheme="tess").to_json()
    record["resilience"] = {
        "scheme": "tess", "groups_run": 4, "task_retries": 1,
        "checkpoints_taken": 4, "checkpoint_bytes": 4096, "restores": 1,
        "degraded_groups": 0, "guard_sweeps": 4, "guard_violations": 1,
        "checkpoint_seconds": 0.001, "guard_seconds": 0.002,
        "faults_seen": 1,
    }
    clone = RunStats.from_json(json.loads(_dumps(record)))
    assert isinstance(clone.resilience, ResilienceReport)
    assert clone.resilience.restores == 1
    assert clone.resilience.guard_violations == 1
    assert not hasattr(clone.resilience, "task_retries")
    assert clone.resilience.describe()


#: a ``distributed`` record as 3.1.0 journaled it (heat1d (64,), 8
#: steps, b=4, 2 ranks); its comm block still carries the counters of
#: the process runtime that 4.0.0 removed
_RECORD_3_1 = {
    "backend": "distributed", "scheme": "tess", "engine": "naive",
    "shape": [64], "steps": 8,
    "phases": {"build": 0.000258, "execute": 0.060284,
               "verify": 0.000287},
    "schedule": {}, "events": [],
    "comm": {"messages": 8, "bytes_sent": 896,
             "stage_bytes": {"0": 224, "1": 224, "2": 224, "3": 224},
             "drops": 0, "garbles": 0, "divergence_checks": 0,
             "phase_restarts": 0, "timeouts": 0, "retries": 0,
             "checksum_failures": 0, "heartbeats": 0, "respawns": 0,
             "plan_compiles": 0},
    "resilience": None, "cache": None, "plan_compiles": 0,
    "cache_hits": 0, "degradations": [], "verified": True, "stages": {},
}


def test_3_1_distributed_record_still_loads():
    clone = RunStats.from_json(json.loads(_dumps(_RECORD_3_1)))
    assert isinstance(clone.comm, CommStats)
    for gone in ("timeouts", "retries", "checksum_failures",
                 "heartbeats", "respawns", "plan_compiles"):
        assert not hasattr(clone.comm, gone)
    assert clone.comm.describe_resilience() and not clone.comm.had_faults
    # what survives is what the same run tallies today
    fresh = Session(get_stencil("heat1d")).run(RunConfig(
        shape=(64,), steps=8, b=4, backend="distributed", ranks=2,
        verify=True))
    assert fresh.stats.verified
    assert fresh.stats.comm == clone.comm


def test_live_run_result_roundtrips(tmp_path):
    spec = get_stencil("heat1d")
    cfg = RunConfig(shape=(40,), steps=12, backend="serial",
                    verify=True)
    result = Session(spec).run(cfg)
    payload = json.loads(_dumps(result.to_json()))
    interior = decode_array(payload["interior"])
    np.testing.assert_array_equal(interior, result.interior)
    stats = RunStats.from_json(payload["stats"])
    assert stats.steps == 12 and stats.verified is True
    cfg2 = RunConfig.from_json(payload["config"])
    assert cfg2.normalized().shape == (40,)


def test_runconfig_roundtrip_including_qos():
    from repro.runtime.qos import QoSPolicy

    cfg = RunConfig(shape=(16, 16), steps=5, scheme="diamond", b=4,
                    backend="threadpool", threads=2,
                    qos=QoSPolicy(deadline_s=1.5,
                                  fallback=("threaded", "serial")))
    clone = RunConfig.from_json(json.loads(_dumps(cfg.to_json())))
    # aliases resolve identically on both sides
    assert clone.normalized().backend == "threaded"
    assert clone.shape == (16, 16) and clone.b == 4
    assert clone.qos.deadline_s == 1.5
    assert clone.qos.fallback == ("threaded", "serial")
    # canonical JSON identity: serialize -> parse -> serialize is fixed
    once = cfg.normalized().to_json()
    twice = RunConfig.from_json(once).normalized().to_json()
    assert once == twice


def test_runconfig_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown RunConfig field"):
        RunConfig.from_json({"not_a_knob": 1})
