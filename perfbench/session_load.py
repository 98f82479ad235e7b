"""``session-*`` workloads: one closed-loop caller of ``Session.run``.

``session-repeat``
    heat2d 128², 16 steps, ``b=4``, compiled; only the seed changes, so
    every request after the warm-up hits the plan cache.
``session-fresh``
    life, 16 steps, ``b=4``, compiled; every request has a new
    ``(rows, cols)`` from ``[64, 104)²``, so the plan cache never hits.
    Lap ``k`` of 40 requests pairs row size ``64 + j`` with column size
    ``64 + (j + 17k) mod 40`` for every ``j``, in a seeded order: no
    pair repeats, and the set of shapes in each lap does not depend on
    the seed, so neither does the work of a run.

The runner process is the system: requests run in this process.  After
each request, untimed, the same seeded grid runs through
``reference_sweep`` and the outputs are compared bitwise (SHA-256 of
``tobytes()``); the sweep's time is the ``sweep_speedup`` baseline.
"""

from __future__ import annotations

import gc
import hashlib
import time
from typing import Any, Dict, List

from common import (at_ref_speed, mean, median, peak_rss_mb_self, quantile,
                    setup_at_ref_speed, speed_probe)
from spans import GCCounter, Recorder, layer_of, partition

_now = time.perf_counter

SPECS = {
    "session-repeat": {"kernel": "heat2d", "steps": 16, "b": 4},
    "session-fresh": {"kernel": "life", "steps": 16, "b": 4},
}
FRESH_LO, FRESH_N = 64, 40
FRESH_STRIDE = 17  # coprime with FRESH_N: the laps' shifts are distinct


def request_plan(workload: str, seed: int):
    """Endless ``(shape, grid seed)`` sequence of one run."""
    import numpy as np

    base = seed * 100_000
    if workload == "session-repeat":
        i = 0
        while True:
            yield (128, 128), base + i
            i += 1
    rng = np.random.default_rng(seed)
    for lap in range(FRESH_N):
        shift = lap * FRESH_STRIDE % FRESH_N
        for i, j in enumerate(rng.permutation(FRESH_N)):
            yield ((FRESH_LO + int(j),
                    FRESH_LO + (int(j) + shift) % FRESH_N),
                   base + lap * FRESH_N + i)
    raise RuntimeError("session-fresh ran out of distinct shapes")


def warm_shape(workload: str):
    # outside [64, 104)², so the warm-up never fills a timed plan
    return (128, 128) if workload == "session-repeat" else (63, 63)


def setup(workload: str, seed: int):
    """Imports, Session construction and one warm-up request."""
    from repro import get_stencil
    from repro.api import RunConfig, Session

    p = SPECS[workload]
    session = Session(get_stencil(p["kernel"]))
    config = RunConfig(steps=p["steps"], b=p["b"], backend="compiled")
    session.run(config, shape=warm_shape(workload), seed=10**9 + seed)
    # every run enters its window with the same collector state, so the
    # requests that pay a gen-2 collection are the same in every run
    gc.collect()
    return session, config


def bytes_per_update(spec, index_bytes: int, points: int) -> float:
    """Computed, not measured: bytes a compiled run moves per point
    update if every tap is read once, the point written once and every
    gathered index read once (caches ignored)."""
    import numpy as np

    taps = len(spec.operator.offsets)
    item = np.dtype(spec.dtype).itemsize
    return (index_bytes + points * (taps + 1) * item) / points


def _digest(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool,
        t_process: float) -> Dict[str, Any]:
    from repro.stencils.grid import Grid
    from repro.stencils.reference import reference_sweep

    session, config = setup(workload, seed)
    spec, steps = session.spec, config.steps
    plan = request_plan(workload, seed)
    recorder = Recorder() if trace else None
    records: List[Dict[str, Any]] = []
    gc_counter = GCCounter()
    with gc_counter:
        setup_s = setup_at_ref_speed(_now() - t_process)
        t_start = _now()
        t_end = t_start + seconds
        while _now() < t_end:
            shape, grid_seed = next(plan)
            traced = trace and len(records) % 2 == 0
            before = speed_probe()
            if traced:
                recorder.install()
                first = len(recorder.spans)
                root = recorder.open("request")
            t0 = _now()
            result = session.run(config, shape=shape, seed=grid_seed)
            t1 = _now()
            if traced:
                recorder.close(root)
                recorder.uninstall()
            rec = _record(result, t1 - t0)
            rec["probes"] = (before, speed_probe())
            del result
            # the oracle runs between requests, untimed, so the sweep
            # and the request it checks see the same machine state
            grid = Grid(spec, shape, init="random", seed=grid_seed)
            t0 = _now()
            ref = reference_sweep(spec, grid, steps)
            rec["sweep"] = _now() - t0
            rec["ok"] = (str(ref.dtype) == rec["dtype"]
                         and _digest(ref) == rec["digest"])
            del grid, ref
            if traced:
                spans = recorder.spans[first:]
                rec["layers"] = partition(
                    [(s.t0, s.t1, s.depth, layer_of(s.name))
                     for s in spans if s is not root],
                    root.t0, root.t1)
                rec["builds"] = sum(s.name == "api.build" for s in spans)
                rec["gen2"] = sum(s.name == "python.gc2" for s in spans)
            records.append(rec)
    return {"records": records, "setup_s": setup_s, "spec": spec,
            "gc": gc_counter, "rss": peak_rss_mb_self()}


def _record(result, latency) -> Dict[str, Any]:
    stats, ps = result.stats, result.plan.stats
    return {
        "latency": latency, "points": stats.points,
        "digest": _digest(result.interior),
        "dtype": str(result.interior.dtype),
        "hits": stats.cache.hits, "misses": stats.cache.misses,
        "tasks": stats.schedule.get("tasks", 0), "actions": ps.actions,
        "units": ps.stream_units, "slices": ps.sliced_actions,
        "index_bytes": ps.index_bytes,
    }


def end_to_end(out) -> Dict[str, float]:
    # one caller, back to back: throughput is over the time spent inside
    # requests, not over the untimed checks between them.  Each request's
    # time is rescaled by the speed probes around it (at_ref_speed), so
    # other tenants' load on the machine cancels out.
    recs = out["records"]
    lat_ms = [at_ref_speed(r["latency"], r["probes"]) * 1e3 for r in recs]
    busy = sum(lat_ms) / 1e3
    ok = sum(r["ok"] for r in recs)
    ok_points = sum(r["points"] for r in recs if r["ok"])
    p50 = median(lat_ms)
    return {
        "latency_p50_ms": p50,
        "latency_p90_ms": quantile(lat_ms, 0.9),
        "requests_per_s": ok / busy,
        "mpts_per_s": ok_points / busy / 1e6,
        # both medians as measured: their ratio needs no rescaling
        "sweep_speedup": median([r["sweep"] for r in recs])
        / median([r["latency"] for r in recs]),
        "ok_frac": ok / len(recs),
        "peak_rss_mb": out["rss"],
    }


def per_layer(out) -> Dict[str, float]:
    recs = out["records"]
    traced = [r for r in recs if "layers" in r]
    plain = [r for r in recs if "layers" not in r]

    def p50(layer):
        return median([r["layers"].get(layer, 0.0) * 1e3 for r in traced])

    bpu = [bytes_per_update(out["spec"], r["index_bytes"], r["points"])
           for r in recs]
    hits = sum(r["hits"] for r in recs)
    lookups = hits + sum(r["misses"] for r in recs)
    sweep = median([r["sweep"] for r in recs]) * 1e3
    return {
        "api.build_ms": p50("api.build"),
        "api.builds_per_request": mean([r["builds"] for r in traced]),
        "api.session_self_ms": p50("api.session"),
        "core.actions": median([r["actions"] for r in recs]),
        "core.tasks": median([r["tasks"] for r in recs]),
        "engine.lower_ms": p50("engine.lower"),
        "engine.compile_ms": p50("engine.compile"),
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.execute_ms": p50("engine.execute"),
        "engine.execute_vs_sweep": p50("engine.execute") / sweep,
        "engine.units": median([r["units"] for r in recs]),
        "engine.slice_units": median([r["slices"] for r in recs]),
        "engine.index_mb": median([r["index_bytes"] for r in recs]) / 1e6,
        "engine.bytes_per_update": median(bpu),
        "stencils.sweep_ms": sweep,
        "python.gc_ms": p50("python.gc"),
        "python.gc_gen2": mean([r["gen2"] for r in traced]),
        "trace.overhead_ms": (median([r["latency"] for r in traced])
                              - median([r["latency"] for r in plain])) * 1e3,
        "trace.unattributed_ms": p50("unattributed"),
        "trace.attributed_frac": median(
            [1 - r["layers"].get("unattributed", 0.0)
             / sum(r["layers"].values()) for r in traced]),
        "trace.requests": float(len(traced)),
    }
