"""``serve-small``: small jobs through a ``repro serve`` subprocess.

The server runs with fsync on, thread isolation, ``--checkpoint-every
8`` and every other flag at its default.  One client thread (this
process) keeps 8 jobs in flight in a closed loop and polls every
in-flight job once per 50 ms tick.  Each new job is heat1d (1000,), 16
steps, ``b=4``, compiled, with a fresh seed: 2 segments, 1 checkpoint
seal and 1 result seal.  Every 5th submission resends a completed job,
which the server answers from its idempotency index (read-only path).

A request is timed from the POST ``/jobs`` to the decoded result.  Each
output is compared bitwise with ``reference_sweep`` after the window.
Before any server starts, the job runs solo here through the same
segment engine, the base of ``service.build_inflation`` and
``service.execute_inflation``.

The runner and every server it starts are pinned to one CPU, so the
noise of the other CPU stays out.  Once per tick, in its idle time, the
client takes a CPU probe (``common.cpu_probe``: the memory walk of the
speed probe would time what the server left in the shared caches) and
times one sweep of a fixed grid, on the CPU the server runs on.  Times
are rescaled to the reference machine's speed by the median probe;
``sweep_speedup`` divides the median sweep
by the median latency as measured, two times taken in the same stretch
of machine time.  Probes and sweeps share the CPU with the server, so
they run slower than on an idle machine; what matters is that they
track the machine's speed from run to run.

The traced run splits its window: the first half against a plain
server, the second against one started by ``launcher.py``, which
records spans around the service, api and engine calls.  The spans of
both processes share ``CLOCK_MONOTONIC``, so each job's time from POST
to decoded result is partitioned into layers on one timeline.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import (HERE, ROOT, at_ref_speed, child_env, cpu_probe, mean,
                    median, peak_rss_mb_pid, quantile, setup_at_ref_speed)
from spans import layer_of, load_spans, partition

_now = time.perf_counter

KERNEL = "heat1d"
SHAPE = (1000,)
STEPS = 16
B = 4
CHECKPOINT_EVERY = 8
IN_FLIGHT = 8
TICK_S = 0.05
RESEND_EVERY = 5
SETUP_SAMPLES = 3
SOLO_RUNS = 25
DRAIN_S = 60.0


def job_config(seed: int) -> Dict[str, Any]:
    from repro.api import RunConfig

    return RunConfig(shape=SHAPE, steps=STEPS, b=B, backend="compiled",
                     seed=seed).normalized().to_json()


def _digest(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


# -- the server process -------------------------------------------------

class Server:
    """One ``repro serve`` process on a fresh store under ``workdir``."""

    def __init__(self, workdir: str, name: str,
                 spans_path: Optional[str] = None):
        self.root = os.path.join(workdir, name)
        self.log_path = self.root + ".log"
        args = ["--root", self.root, "--port", "0",
                "--checkpoint-every", str(CHECKPOINT_EVERY),
                "--isolation", "thread"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
                   spans_path] + args
        self.url: Optional[str] = None
        self.t_start = _now()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         env=child_env(), cwd=ROOT)

    def _log(self) -> str:
        with open(self.log_path, errors="replace") as fh:
            return fh.read()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Wait for the ``serving on`` line, then ``/healthz`` 200."""
        from urllib.error import URLError
        from urllib.request import urlopen

        deadline = _now() + timeout
        while _now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}:\n"
                    + self._log()[-2000:])
            if self.url is None:
                m = re.search(r"serving on (http://\S+)", self._log())
                if m:
                    self.url = m.group(1)
            if self.url is not None:
                try:
                    with urlopen(self.url + "/healthz", timeout=5) as r:
                        if r.status == 200:
                            return
                except (URLError, OSError):
                    pass
            time.sleep(0.01)
        raise RuntimeError("server not ready in time:\n"
                           + self._log()[-2000:])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


def start_server(workdir: str, name: str, seed: int,
                 spans_path: Optional[str] = None):
    """Start, wait healthy, warm up with two jobs; returns the server
    and its setup time (process start to warm-up done)."""
    server = Server(workdir, name, spans_path)
    try:
        server.wait_ready()
        warm = Client(server.url, 10**9 + seed * 10)
        warm.drive(math.inf, max_requests=2)
        if any("error" in r for r in warm.records):
            raise RuntimeError(f"warm-up failed: {warm.records}")
    except BaseException:
        server.stop()
        raise
    return server, setup_at_ref_speed(_now() - server.t_start)


# -- the client -------------------------------------------------------

class Client:
    """Closed loop: ``IN_FLIGHT`` requests, polled once per tick."""

    def __init__(self, url: str, first_seed: int, rng=None, sweep=None):
        self.url = url
        self.next_seed = first_seed
        self.rng = rng
        self.sweep = sweep  # timed once per tick, if given
        self.records: List[Dict[str, Any]] = []
        self.completed: List[Dict[str, Any]] = []  # finished new jobs
        self.probes: List[float] = []  # one CPU probe per tick
        self.sweep_ms: List[float] = []
        self.sent = 0
        self.t_stop: Optional[float] = None  # when submitting stopped

    def _submit(self, busy) -> Dict[str, Any]:
        from repro.service import submit_job

        self.sent += 1
        busy_ids = {b["job_id"] for b in busy}
        idle = [r for r in self.completed if r["job_id"] not in busy_ids]
        if self.rng is not None and self.sent % RESEND_EVERY == 0 and idle:
            old = idle[int(self.rng.integers(len(idle)))]
            rec = {"kind": "resend", "seed": old["seed"]}
        else:
            rec = {"kind": "new", "seed": self.next_seed}
            self.next_seed += 1
        rec["polls"] = []
        config = job_config(rec["seed"])
        rec["t0"] = _now()
        out = submit_job(self.url, KERNEL, config)
        rec["t_sub"] = _now()
        rec["job_id"] = out["job_id"]
        rec["created"] = bool(out["created"])
        rec["ready"] = out["state"] == "done"
        return rec

    def _advance(self, rec) -> bool:
        """Poll or fetch one request; True once it is finished."""
        from repro.service import job_result, job_status

        if not rec["ready"]:
            t0 = _now()
            state = job_status(self.url, rec["job_id"])["state"]
            rec["polls"].append(_now() - t0)
            if state in ("failed", "cancelled"):
                rec["error"] = state
                rec["t1"] = _now()
                return True
            rec["ready"] = state == "done"
        if rec["ready"]:
            rec["t_res"] = _now()
            res = job_result(self.url, rec["job_id"])
            rec["t1"] = _now()
            arr = res["interior"]
            rec["digest"] = _digest(arr)
            rec["dtype"] = str(arr.dtype)
            rec["shape"] = tuple(arr.shape)
            rec["phases"] = res["stats"].get("phases", {})
            rec["cache_hits"] = res["stats"].get("cache_hits", 0)
            rec["plan_compiles"] = res["stats"].get("plan_compiles", 0)
            return True
        return False

    def drive(self, t_end: float, max_requests: Optional[int] = None):
        """Submit until ``t_end`` (or ``max_requests``), then drain."""
        limit = self.sent + max_requests if max_requests else math.inf
        inflight: List[Dict[str, Any]] = []
        drain_deadline = None
        tick = _now()
        while True:
            now = _now()
            accepting = now < t_end and self.sent < limit
            if not accepting:
                if self.t_stop is None:
                    self.t_stop = now
                if not inflight:
                    return
                if drain_deadline is None:
                    drain_deadline = now + DRAIN_S
                elif now > drain_deadline:
                    for rec in inflight:
                        rec["error"], rec["t1"] = "timed out", now
                    self.records += inflight
                    return
            while accepting and len(inflight) < IN_FLIGHT \
                    and self.sent < limit:
                try:
                    inflight.append(self._submit(inflight))
                except Exception as exc:
                    self.records.append({"kind": "new", "t0": _now(),
                                         "t1": _now(), "polls": [],
                                         "error": repr(exc)})
                    break
            for rec in list(inflight):
                try:
                    done = self._advance(rec)
                except Exception as exc:
                    rec["error"], rec["t1"] = repr(exc), _now()
                    done = True
                if done:
                    inflight.remove(rec)
                    self.records.append(rec)
                    if rec["kind"] == "new" and "error" not in rec:
                        self.completed.append(rec)
            self.probes.append(cpu_probe())
            if self.sweep is not None:
                t0 = _now()
                self.sweep()
                self.sweep_ms.append((_now() - t0) * 1e3)
            tick += TICK_S
            pause = tick - _now()
            if pause > 0:
                time.sleep(pause)
            else:
                tick = _now()


# -- the solo baseline --------------------------------------------------

def solo_baseline() -> Dict[str, Any]:
    """The job run in this process through the served segment engine."""
    from repro import get_stencil
    from repro.api import Session
    from repro.runtime.qos import CancelToken
    from repro.service.isolation import prepare_run_config, run_job_segments

    session = Session(get_stencil(KERNEL))
    phases = []
    for i in range(SOLO_RUNS + 3):
        cfg = prepare_run_config(session, job_config(2**30 + i),
                                 CancelToken())
        _, stats, _ = run_job_segments(session, cfg, job_id=f"solo-{i}",
                                       checkpoint_steps=CHECKPOINT_EVERY)
        if i >= 3:
            phases.append(stats.phases)
    segment = session.run(cfg, steps=CHECKPOINT_EVERY)
    return {
        "spec": session.spec,
        "build_ms": median([p["build"] for p in phases]) * 1e3,
        "execute_ms": median([p["execute"] for p in phases]) * 1e3,
        "plan": segment.plan.stats,
        "tasks": segment.stats.schedule.get("tasks", 0),
        "segments": math.ceil(STEPS / CHECKPOINT_EVERY),
    }


def verify(spec, records) -> None:
    """Mark each finished request ``ok`` if its bytes equal the sweep's."""
    from repro.stencils.grid import Grid
    from repro.stencils.reference import reference_sweep

    refs: Dict[int, tuple] = {}
    for rec in records:
        if "error" in rec:
            rec["ok"] = False
            continue
        if rec["seed"] not in refs:
            grid = Grid(spec, SHAPE, init="random", seed=rec["seed"])
            ref = reference_sweep(spec, grid, STEPS)
            refs[rec["seed"]] = (_digest(ref), str(ref.dtype),
                                 tuple(ref.shape))
        rec["ok"] = refs[rec["seed"]] == (rec["digest"], rec["dtype"],
                                          rec["shape"])


# -- one phase: a server, a timed window, the counters ------------------

def _counters(url: str) -> Dict[str, float]:
    from repro.service import server_metrics

    m = server_metrics(url)
    sup, store = m["supervisor"], m["store"]
    return {
        "submitted": sup["submitted"], "deduplicated": sup["deduplicated"],
        "completed": sup["completed"], "failed": sup["failed"],
        "retries": sup["retries"], "journal_records":
        store["journal_records"], "checkpoints": store["checkpoints_taken"],
        "results": store["results_stored"], "dedup_hits":
        store["dedup_hits"],
    }


def phase(server, spec, seed: int, seconds: float) -> Dict[str, Any]:
    import numpy as np
    from repro.stencils.grid import Grid
    from repro.stencils.reference import reference_sweep

    grid = Grid(spec, SHAPE, init="random", seed=seed)
    client = Client(server.url, seed * 100_000,
                    rng=np.random.default_rng(seed),
                    sweep=lambda: reference_sweep(spec, grid, STEPS))
    c0 = _counters(server.url)
    t_start = _now()
    client.drive(t_start + seconds)
    c1 = _counters(server.url)
    rss = server.peak_rss_mb()
    verify(spec, client.records)
    return {"records": client.records, "t_start": t_start,
            "t_end": client.t_stop, "probes": client.probes,
            "sweep_ms": client.sweep_ms,
            "counters": {k: c1[k] - c0[k] for k in c0}, "rss": rss}


def run(workload: str, seed: int, seconds: float, trace: bool,
        t_process: float, workdir: str) -> Dict[str, Any]:
    # one CPU for the runner and, by inheritance, every server it starts
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    solo = solo_baseline()
    spec = solo["spec"]
    out: Dict[str, Any] = {"solo": solo, "spec": spec}
    if not trace:
        setups = []
        for k in range(SETUP_SAMPLES):
            server, setup_s = start_server(workdir, f"store-{k}", seed)
            setups.append(setup_s)
            if k < SETUP_SAMPLES - 1:
                server.stop()
        try:
            out["plain"] = phase(server, spec, seed, seconds)
        finally:
            server.stop()
        out["setups"] = setups
    else:
        server, _ = start_server(workdir, "store-plain", seed)
        try:
            out["plain"] = phase(server, spec, seed, seconds / 2)
        finally:
            server.stop()
        spans_path = os.path.join(workdir, "server-spans.json")
        server, _ = start_server(workdir, "store-traced", seed, spans_path)
        try:
            out["traced"] = phase(server, spec, seed + 1, seconds / 2)
        finally:
            rc = server.stop()
        if rc != 0 or not os.path.exists(spans_path):
            raise RuntimeError(f"traced server exited {rc} without spans")
        out["spans"] = load_spans(spans_path)
    return out


# -- metrics ------------------------------------------------------------

def per_job(counters) -> Dict[str, float]:
    """Server ``/metrics`` differences over a window, per completed job."""
    done = max(counters["completed"], 1)
    return {k: v / done for k, v in counters.items() if k != "completed"}


def notes(out) -> List[str]:
    lines = []
    for name in ("plain", "traced"):
        if name in out:
            ph = out[name]
            timed = _timed(ph)
            lines.append(
                f"{name} server: {len(timed)} requests in window, "
                f"{len(ph['records'])} in all, peak RSS {ph['rss']:.1f} MB; "
                f"as measured: latency p50 "
                f"{median([r['t1'] - r['t0'] for r in timed]) * 1e3:.1f} ms, "
                f"{len(timed) / (ph['t_end'] - ph['t_start']):.2f} "
                f"requests/s; CPU probe median "
                f"{median(ph['probes']) * 1e3:.3f} ms")
            lines.append(f"{name} /metrics per completed job "
                         f"({ph['counters']['completed']} jobs): "
                         + ", ".join(f"{k} {v:.3g}" for k, v in
                                     per_job(ph["counters"]).items()))
    if "setups" in out:
        lines.append("setup_s samples: "
                     + ", ".join(f"{s:.3f}" for s in out["setups"]))
    solo = out["solo"]
    lines.append(f"solo job: build {solo['build_ms']:.2f} ms, execute "
                 f"{solo['execute_ms']:.2f} ms")
    return lines


def _timed(ph) -> List[Dict[str, Any]]:
    """Requests that finished inside the timed window."""
    return [r for r in ph["records"] if r["t1"] <= ph["t_end"]]


def end_to_end(out) -> Dict[str, float]:
    ph = out["plain"]
    timed = _timed(ph)
    window = at_ref_speed(ph["t_end"] - ph["t_start"], ph["probes"])
    lat_ms = [at_ref_speed(r["t1"] - r["t0"], ph["probes"]) * 1e3
              for r in timed]
    ok = [r for r in timed if r["ok"]]
    new_ok = [r for r in ok if r["kind"] == "new"]
    points = math.prod(SHAPE) * STEPS
    attempted = ph["records"]
    p50 = median(lat_ms)
    return {
        "latency_p50_ms": p50,
        "latency_p90_ms": quantile(lat_ms, 0.9),
        "requests_per_s": len(ok) / window,
        "mpts_per_s": len(new_ok) * points / window / 1e6,
        "sweep_speedup": median(ph["sweep_ms"]) / median(
            [(r["t1"] - r["t0"]) * 1e3 for r in timed]),
        "ok_frac": sum(r["ok"] for r in attempted) / len(attempted),
        "peak_rss_mb": ph["rss"],
    }


def _job_spans(spans):
    """Server spans grouped by the job they serve (nearest tagged
    ancestor), plus each job's queue put/get instants."""
    by_job: Dict[str, list] = {}
    put: Dict[str, float] = {}
    got: Dict[str, float] = {}
    for s in spans:
        job, p = s.job, s.parent
        while job is None and p is not None:
            job, p = p.job, p.parent
        if job is None:
            continue
        if s.name == "queue.put":
            put.setdefault(job, s.t1)
        elif s.name == "queue.get":
            got.setdefault(job, s.t1)
        else:
            by_job.setdefault(job, []).append(s)
    return by_job, put, got


def per_layer(out) -> Dict[str, float]:
    solo, plain, traced = out["solo"], out["plain"], out["traced"]
    by_job, put, got = _job_spans(out["spans"])
    jobs = [r for r in _timed(traced) if r["kind"] == "new" and r["ok"]]
    layers, builds, gen2 = [], [], []
    for r in jobs:
        spans = by_job.get(r["job_id"], [])
        ivs = [(r["t0"], r["t_sub"], 0, "service.submit"),
               (r["t_res"], r["t1"], 0, "service.result")]
        seal = [s.t1 for s in spans if s.name == "service.seal"]
        if seal:
            ivs.append((max(seal), r["t_res"], 0, "service.notice"))
        if r["job_id"] in put and r["job_id"] in got:
            ivs.append((put[r["job_id"]], got[r["job_id"]], 1,
                        "service.queue_wait"))
        ivs += [(s.t0, s.t1, 2 + s.depth, layer_of(s.name)) for s in spans]
        layers.append(partition(ivs, r["t0"], r["t1"]))
        builds.append(sum(s.name == "api.build" for s in spans))
        gen2.append(sum(s.name == "python.gc2" for s in spans))

    def p50(layer):
        return median([lay.get(layer, 0.0) * 1e3 for lay in layers])

    plain_jobs = [r for r in _timed(plain) if r["kind"] == "new" and r["ok"]]
    served_build = median([r["phases"].get("build", 0.0) * 1e3
                           for r in plain_jobs])
    served_exec = median([r["phases"].get("execute", 0.0) * 1e3
                          for r in plain_jobs])
    self_ms = [(r["t1"] - r["t0"]) * 1e3 - 1e3 * sum(
        r["phases"].get(k, 0.0) for k in ("build", "lower", "execute"))
        for r in plain_jobs]
    hits = sum(r["cache_hits"] for r in jobs)
    lookups = hits + sum(r["plan_compiles"] for r in jobs)
    c = traced["counters"]
    pj = per_job(c)
    plan, nseg = solo["plan"], solo["segments"]
    points = math.prod(SHAPE) * STEPS
    sweep = median(traced["sweep_ms"])
    polls = [len(r["polls"]) for r in jobs]

    def lat_p50(ph):
        return median([(r["t1"] - r["t0"]) * 1e3 for r in _timed(ph)])

    from session_load import bytes_per_update

    return {
        "api.build_ms": p50("api.build"),
        "api.builds_per_request": mean(builds),
        "api.session_self_ms": p50("api.session"),
        "core.actions": float(plan.actions * nseg),
        "core.tasks": float(solo["tasks"] * nseg),
        "engine.lower_ms": p50("engine.lower"),
        "engine.compile_ms": p50("engine.compile"),
        "engine.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.execute_ms": p50("engine.execute"),
        "engine.execute_vs_sweep": p50("engine.execute") / sweep,
        "engine.units": float(plan.stream_units * nseg),
        "engine.slice_units": float(plan.sliced_actions * nseg),
        "engine.index_mb": plan.index_bytes * nseg / 1e6,
        "engine.bytes_per_update": bytes_per_update(
            solo["spec"], plan.index_bytes * nseg, points),
        "stencils.sweep_ms": sweep,
        "python.gc_ms": p50("python.gc"),
        "python.gc_gen2": mean(gen2),
        "service.submit_ms": p50("service.submit"),
        "service.admit_ms": p50("service.admit"),
        "service.poll_ms": median([t * 1e3 for r in jobs
                                   for t in r["polls"]]),
        "service.polls_per_job": mean(polls),
        "service.notice_ms": p50("service.notice"),
        "service.result_ms": p50("service.result"),
        "service.identity_ms": p50("service.identity"),
        "service.encode_ms": p50("service.encode"),
        "service.journal_ms": p50("service.journal"),
        "service.journal_records_per_job": pj["journal_records"],
        "service.lease_ms": p50("service.lease"),
        "service.segments_ms": p50("service.segments"),
        "service.checkpoint_ms": p50("service.checkpoint"),
        "service.checkpoints_per_job": pj["checkpoints"],
        "service.seal_ms": p50("service.seal"),
        "service.load_result_ms": p50("service.load_result"),
        "service.queue_wait_ms": p50("service.queue_wait"),
        "service.self_ms": median(self_ms),
        "service.build_inflation": served_build / solo["build_ms"],
        "service.execute_inflation": served_exec / solo["execute_ms"],
        "service.dedup_ratio": c["dedup_hits"] / max(
            c["submitted"] + c["deduplicated"], 1),
        "service.results_per_job": pj["results"],
        "service.retries_per_job": pj["retries"],
        "service.failed_per_job": pj["failed"],
        "trace.overhead_ms": lat_p50(traced) - lat_p50(plain),
        "trace.unattributed_ms": p50("unattributed"),
        "trace.attributed_frac": median(
            [1 - lay.get("unattributed", 0.0) / sum(lay.values())
             for lay in layers]),
        "trace.requests": float(len(jobs)),
    }
