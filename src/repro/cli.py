"""Command-line interface: ``python -m repro <command> ...``.

Every command routes through the unified pipeline in :mod:`repro.api`
(``Session``/``RunConfig``/backend registry — see
``docs/architecture.md``).

Commands
--------
* ``run``    — execute a kernel with a chosen tiling scheme, verify
  against the naive sweep and report wall-clock + schedule stats;
  ``--backend`` picks the executor explicitly (default ``auto``
  resolves it from the other flags), ``--engine compiled`` lowers the
  schedule to a cached compiled plan (:mod:`repro.engine`) instead of
  walking it action by action;
* ``show``   — render the space-time diagram of a 1D schedule
  (the paper's Figure 1, in ASCII);
* ``tune``   — auto-tune tessellation tile sizes; ``--engine naive``
  scores on the simulated machine, ``--engine compiled`` times each
  candidate's compiled plan (``--objective simulate|wallclock`` is the
  historical spelling, kept as a hidden alias);
* ``dist``   — §4.1: verified multi-rank execution on the in-process
  rank simulator plus an α–β cluster strong-scaling estimate (see
  ``docs/distributed.md``);
* ``table``  — print the paper's Table 1 for a given dimension;
* ``bench``  — forward to :mod:`repro.bench` (regenerate figures);
* ``sanitize`` — structural schedule sanitizer: prove tessellation,
  ping-pong dependence legality and intra-group race freedom for a
  scheme (or the distributed plan with ``--ranks``) without executing
  it; ``--mutate kind@group[/task]`` plants a seeded bug first;
* ``serve``  — run the durable job runtime (crash-safe journal +
  supervisor + HTTP front, :mod:`repro.service`) over a store
  directory;
* ``submit`` / ``status`` / ``result`` — client side of the job
  runtime: journal a job (``--url`` posts to a running ``serve``,
  ``--root`` journals directly into a store; ``--wait`` drains it in
  place), poll its state, fetch its sealed result.  See
  ``docs/serving.md``.

``run`` and ``dist`` take ``--resilient``/``--fail-fast`` plus
``--inject kind@group[/task][xN]`` fault specs (see
``docs/resilience.md``), ``--sanitize`` to refuse structurally
illegal schedules before execution (see ``docs/sanitizer.md``), and
the QoS flags ``--deadline SECONDS`` / ``--fallback a,b,...`` (see
``docs/reliability.md``).
Errors map to distinct exit codes instead of tracebacks:
1 = numerical mismatch, 2 = usage/:class:`ValueError` (including
:class:`~repro.runtime.qos.AdmissionRejected`),
3 = :class:`ExecutionError` (including :class:`RunCancelled`),
4 = :class:`GuardViolation` (invariant
guard / ghost-band divergence), 5 = :class:`SanitizerViolation`
(structurally illegal schedule), 9 = :class:`RunDeadlineExceeded`
(the ``--deadline`` budget expired and no fallback backend finished in
time),
10 = :class:`QueueSaturated` (the job queue refused a submission —
back off and retry), 11 = :class:`JobNotFound` (``status``/``result``
for an unknown job id), 12 = :class:`WorkerCrashed` (a job killed its
isolated worker — segfault/OOM/SIGKILL — and was quarantined as
``poisoned`` after exhausting its crash budget).  Codes 6–8 are
retired (see ``docs/reliability.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api.builder import SCHEMES
from repro.runtime.errors import (
    EXIT_DEADLINE,
    EXIT_EXECUTION,
    EXIT_GUARD,
    EXIT_JOB_NOT_FOUND,
    EXIT_QUEUE_SATURATED,
    EXIT_SANITIZER,
    EXIT_USAGE,
    EXIT_WORKER_CRASHED,
    ExecutionError,
    GuardViolation,
    JobNotFound,
    QueueSaturated,
    RunDeadlineExceeded,
    SanitizerViolation,
    WorkerCrashed,
)

__all__ = ["main", "SCHEMES"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Tessellating Stencils (SC'17) reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a kernel with a tiling scheme")
    run.add_argument("kernel", nargs="?", default=None,
                     help="heat1d|1d5p|heat2d|2d9p|life|heat3d|3d27p "
                     "(or a staged system name — same as --system)")
    run.add_argument("--system", default=None, metavar="NAME",
                     help="staged system workload "
                     "(fdtd1d|fdtd2d|shallow_water|gray_scott, aliases "
                     "accepted); the whole macro-step runs through the "
                     "chosen tiling scheme")
    run.add_argument("--shape", type=int, nargs="+", default=None,
                     help="grid extents (default: kernel-appropriate)")
    run.add_argument("--steps", type=int, default=32)
    run.add_argument("--scheme", default="tess", choices=SCHEMES)
    run.add_argument("-b", "--depth", type=int, default=8,
                     help="time-tile depth b")
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--batch", type=int, default=1, metavar="N",
                     help="run N independent instances (seeded seed.."
                     "seed+N-1) as one stacked batch on the 'batched' "
                     "backend; one compiled plan serves all N")
    run.add_argument("--backend", default="auto", metavar="NAME",
                     help="executor backend (serial|threaded|resilient|"
                     "compiled|baseline:*); 'auto' resolves from "
                     "--threads/--resilient/--inject/--engine")
    run.add_argument("--engine", default="naive",
                     choices=["naive", "compiled"],
                     help="execution engine: 'naive' walks the schedule "
                     "action by action; 'compiled' lowers it to a cached "
                     "CompiledPlan (precomputed slices, fused/batched "
                     "kernels — see docs/performance.md)")
    _add_resilience_args(run)
    _add_sanitizer_args(run)
    _add_qos_args(run)
    run.add_argument("--checkpoint-every", type=int, default=1,
                     metavar="N", help="checkpoint every N barrier "
                     "groups in --resilient mode (0 = initial only)")
    run.add_argument("--retries", type=int, default=2,
                     help="per-group replay budget in --resilient mode")

    show = sub.add_parser("show", help="space-time diagram of a 1D schedule")
    show.add_argument("--scheme", default="tess",
                      choices=["naive", "tess", "tess-unmerged", "diamond",
                               "pochoir", "mwd"])
    show.add_argument("-n", type=int, default=48)
    show.add_argument("--steps", type=int, default=12)
    show.add_argument("-b", "--depth", type=int, default=4)
    show.add_argument("--width", type=int, default=96)

    tune = sub.add_parser("tune", help="auto-tune tessellation tile sizes")
    tune.add_argument("kernel")
    tune.add_argument("--shape", type=int, nargs="+", default=None)
    tune.add_argument("--steps", type=int, default=32)
    tune.add_argument("--cores", type=int, default=24)
    tune.add_argument("--engine", default=None,
                      choices=["naive", "compiled"],
                      help="'naive' scores on the machine model; "
                      "'compiled' times each candidate's compiled plan "
                      "(probes share the plan cache)")
    # historical spelling of --engine, kept as a hidden alias
    tune.add_argument("--objective", default=None,
                      choices=["simulate", "wallclock"],
                      help=argparse.SUPPRESS)
    tune.add_argument("--repeat", type=int, default=3,
                      help="min-of-k repeats per wallclock probe")

    dist = sub.add_parser("dist", help="distributed run + cluster estimate")
    dist.add_argument("kernel")
    dist.add_argument("--shape", type=int, nargs="+", default=None)
    dist.add_argument("--steps", type=int, default=16)
    dist.add_argument("-b", "--depth", type=int, default=4)
    dist.add_argument("--ranks", type=int, default=4)
    dist.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4, 8])
    _add_resilience_args(dist)
    _add_qos_args(dist)
    dist.add_argument("--ghost", type=int, default=None,
                      help="widen the exchanged ghost band; a width "
                      "below the lattice's required one is refused "
                      "(exit 2, or exit 5 with --sanitize)")
    dist.add_argument("--check-divergence", action="store_true",
                      help="run the ghost-band divergence detector "
                      "(implied by --resilient)")
    dist.add_argument("--sanitize", action="store_true",
                      help="ghost-band-aware structural pre-flight: "
                      "refuse an illegal plan (e.g. an under-sized "
                      "--ghost) before executing it (exit 5)")

    san = sub.add_parser(
        "sanitize",
        help="prove tessellation/dependence/race invariants of a scheme",
    )
    san.add_argument("scheme", choices=SCHEMES + ["all"],
                     help="scheme to sanitize ('all' = every scheme)")
    san.add_argument("--kernel", default="heat1d",
                     help="heat1d|1d5p|heat2d|2d9p|life|heat3d|3d27p")
    san.add_argument("--shape", type=int, nargs="+", default=None)
    san.add_argument("--steps", type=int, default=16)
    san.add_argument("-b", "--depth", type=int, default=4)
    san.add_argument("--mutate", action="append", default=[],
                     metavar="SPEC",
                     help="plant a seeded bug before sanitizing: "
                     "kind@group[/task], kind in "
                     "drop-action|shift-region|merge-groups (repeatable)")
    san.add_argument("--ranks", type=int, default=None,
                     help="sanitize the distributed (rank-local) plan "
                     "over N ranks instead of the shared-memory schedule "
                     "(tessellation only)")
    san.add_argument("--ghost", type=int, default=None,
                     help="ghost-band width override to validate with "
                     "--ranks")
    san.add_argument("-v", "--verbose", action="store_true",
                     help="list every violation, not just the first")

    table = sub.add_parser("table", help="print Table 1 properties")
    table.add_argument("--max-dim", type=int, default=6)
    table.add_argument("-b", "--depth", type=int, default=4)

    bench = sub.add_parser("bench", help="regenerate paper experiments")
    bench.add_argument("names", nargs="*", help="experiment ids (default all)")

    serve = sub.add_parser(
        "serve", help="durable job runtime: journal + supervisor + HTTP")
    serve.add_argument("--root", required=True,
                       help="store directory (journal, results, "
                       "checkpoints, leases); reopening it recovers")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="HTTP port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="bound on waiting jobs; a full queue "
                       "refuses with exit 10 / HTTP 429")
    serve.add_argument("--max-pending-mb", type=float, default=None,
                       help="bound on the queued jobs' summed admission "
                       "estimates")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="STEPS",
                       help="seal a resume checkpoint every N time "
                       "steps (0 = only journal-level restart)")
    serve.add_argument("--retries", type=int, default=2,
                       help="default per-job retry budget for "
                       "transient failures")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on journal appends (tests "
                       "only; forfeits the power-loss guarantee)")
    serve.add_argument("--isolation", default=None,
                       choices=["thread", "process"],
                       help="run jobs in-thread (default, zero "
                       "overhead) or in sandboxed worker child "
                       "processes (crash containment, exit 12)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="on SIGTERM, wait this long for in-flight "
                       "jobs to finish before asking them to stop at "
                       "their next checkpoint")
    serve.add_argument("--max-worker-crashes", type=int, default=3,
                       help="quarantine a job as failed/'poisoned' "
                       "after it crashes this many workers")
    serve.add_argument("--max-batch", type=int, default=1, metavar="N",
                       help="coalesce up to N queued jobs that differ "
                       "only by seed into one stacked batched run "
                       "(thread isolation only; 1 disables)")

    submit = sub.add_parser(
        "submit", help="journal a job (to a server or a store dir)")
    submit.add_argument("kernel",
                        help="heat1d|1d5p|heat2d|2d9p|life|heat3d|3d27p")
    _add_client_args(submit)
    submit.add_argument("--shape", type=int, nargs="+", default=None)
    submit.add_argument("--steps", type=int, default=32)
    submit.add_argument("--scheme", default="tess", choices=SCHEMES)
    submit.add_argument("-b", "--depth", type=int, default=8)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--backend", default="serial", metavar="NAME")
    submit.add_argument("--engine", default="auto",
                        choices=["auto", "naive", "compiled"])
    submit.add_argument("--threads", type=int, default=1)
    submit.add_argument("--verify", action="store_true",
                        help="verify against the naive sweep server-side")
    _add_qos_args(submit)
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first")
    submit.add_argument("--max-retries", type=int, default=None,
                        help="override the server's retry budget")
    submit.add_argument("--max-queued", type=int, default=None,
                        help="(--root mode) refuse with exit 10 if this "
                        "many jobs are already queued")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job is terminal; with "
                        "--root, drain the store in-process")
    submit.add_argument("--isolation", default=None,
                        choices=["thread", "process"],
                        help="(--root --wait mode) isolation of the "
                        "in-process drain supervisor")
    submit.add_argument("--max-worker-crashes", type=int, default=3,
                        help="(--root --wait mode) poison-quarantine "
                        "budget of the drain supervisor")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait budget in seconds")

    status = sub.add_parser("status", help="job state (or store summary)")
    status.add_argument("job_id", nargs="?", default=None,
                        help="job id (omit to list all jobs)")
    _add_client_args(status)

    result = sub.add_parser("result", help="fetch a sealed job result")
    result.add_argument("job_id")
    _add_client_args(result)
    result.add_argument("--out", default=None, metavar="FILE.npy",
                        help="save the interior array")
    result.add_argument("--no-stats", action="store_true",
                        help="skip the run-stats summary")
    return p


def _add_client_args(sub: argparse.ArgumentParser) -> None:
    where = sub.add_mutually_exclusive_group(required=True)
    where.add_argument("--url", default=None,
                       help="base URL of a running 'repro serve'")
    where.add_argument("--root", default=None,
                       help="operate on a store directory directly")


def _add_resilience_args(sub: argparse.ArgumentParser) -> None:
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--resilient", action="store_true",
                      help="enable checkpoint/replay recovery and "
                      "invariant guards")
    mode.add_argument("--fail-fast", action="store_true",
                      help="die on the first failure with a structured "
                      "error (default)")
    sub.add_argument("--inject", action="append", default=[],
                     metavar="SPEC",
                     help="inject a deterministic fault: "
                     "kind@group[/task][xN], kind in "
                     "crash|corrupt|stall (shared-memory executors) or "
                     "drop|garble (distributed simulator) (repeatable)")


def _add_qos_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="run-level deadline: abort at the next "
                     "cooperative boundary once the budget is spent "
                     "(exit 9; see docs/reliability.md)")
    sub.add_argument("--fallback", default=None, metavar="A,B,...",
                     help="comma-separated backend chain to degrade to "
                     "when the primary backend refuses, is refused "
                     "admission or blows the deadline (e.g. "
                     "'threaded,serial'); hops are recorded in the "
                     "run stats")


def _qos_policy(args):
    """Build the QoSPolicy from --deadline/--fallback (None when unused)."""
    fallback = tuple(
        name.strip() for name in (args.fallback or "").split(",")
        if name.strip()
    )
    if args.deadline is None and not fallback:
        return None
    from repro.runtime.qos import QoSPolicy

    return QoSPolicy(deadline_s=args.deadline, fallback=fallback)


def _add_sanitizer_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sanitize", action="store_true",
                     help="structural pre-flight: refuse a schedule with "
                     "tessellation/dependence/race violations (exit 5)")
    sub.add_argument("--mutate", action="append", default=[],
                     metavar="SPEC",
                     help="plant a seeded schedule bug: kind@group[/task], "
                     "kind in drop-action|shift-region|merge-groups "
                     "(repeatable; for exercising --sanitize)")


def _fault_plan(args):
    from repro.runtime.faults import FaultPlan

    return FaultPlan.parse(args.inject) if args.inject else None


def _build_schedule(spec, shape, steps, scheme, b):
    """Deprecated shim: schedule construction lives in the pipeline's
    :class:`~repro.api.builder.ScheduleBuilder` now."""
    from repro.api import RunConfig, ScheduleBuilder

    cfg = RunConfig(scheme=scheme, shape=tuple(shape), steps=steps, b=b)
    return ScheduleBuilder().build(spec, cfg.normalized()).schedule


def _resolve_run_backend(args, config, sched, fault_plan) -> str:
    """Replicate the historical executor precedence for ``--backend auto``.

    Injection/resilience wins (the resilient executor subsumes
    fail-fast via a zero-budget policy), then the thread pool, then the
    compiled engine; ghost-zone (private-task) schedules fall through
    to the overlapped executor, everything else to the sequential
    walker.
    """
    from repro.api import normalize_backend

    backend = normalize_backend(args.backend)
    if backend != "auto":
        return backend
    if ((args.resilient or fault_plan is not None)
            and not sched.private_tasks):
        return "resilient"
    if args.threads > 1 and not sched.private_tasks:
        return "threaded"
    if config.engine == "compiled":
        return "compiled"
    if sched.private_tasks:
        return "baseline:overlapped"
    return "serial"


def cmd_run(args) -> int:
    from repro import get_stencil
    from repro.api import RunConfig, Session
    from repro.runtime import ResiliencePolicy, schedule_stats

    if args.kernel is None and args.system is None:
        print("error: give a kernel name or --system NAME", file=sys.stderr)
        return 2
    if args.kernel is not None and args.system is not None:
        print("error: give either a kernel or --system, not both",
              file=sys.stderr)
        return 2
    spec = get_stencil(args.system if args.kernel is None else args.kernel)
    fault_plan = _fault_plan(args)
    config = RunConfig(
        shape=tuple(args.shape) if args.shape else None,
        steps=args.steps, seed=args.seed,
        scheme=args.scheme, b=args.depth,
        mutations=tuple(args.mutate),
        engine=args.engine, threads=args.threads,
        sanitize=args.sanitize, verify=True,
        fault_plan=fault_plan, qos=_qos_policy(args),
    ).normalized()
    session = Session(spec)
    shape = config.shape or session.default_shape()

    if args.mutate:
        print(f"mutating: {', '.join(args.mutate)}")
    built = session.build(config, shape)
    sched = built.schedule
    st = schedule_stats(sched)
    print(spec.describe())
    print(f"scheme={args.scheme} shape={shape} steps={args.steps} "
          f"b={args.depth}")
    print(f"tasks={st['tasks']} barriers={st['groups']} "
          f"redundancy={st['redundancy'] * 100:.1f}%")

    if args.batch > 1:
        return _run_batch(args, session, config, shape)

    backend = _resolve_run_backend(args, config, sched, fault_plan)
    overrides = {"backend": backend}
    if backend == "compiled":
        overrides["engine"] = "compiled"
    if backend == "resilient":
        if args.resilient:
            overrides["resilience"] = ResiliencePolicy(
                max_group_restarts=args.retries,
                checkpoint_interval=args.checkpoint_every,
            )
        else:
            # fail-fast with injection: no replays — the guards still
            # turn silent corruption into a loud exit 4
            overrides["resilience"] = ResiliencePolicy(
                max_group_restarts=0, checkpoint_interval=0)
        if fault_plan is not None:
            print(f"injecting: {fault_plan.describe()}")
    config = config.with_overrides(overrides)

    result = session.execute(None, sched, config=config,
                             lattice=built.lattice, params=built.params)
    stats = result.stats
    for hop in stats.degradations:
        print(f"degraded: {hop['from']} -> {hop['to']} ({hop['error']})")
    if args.sanitize and result.sanitizer is not None:
        print(f"sanitizer: {result.sanitizer.describe()}")
    if result.plan is not None and stats.engine == "compiled":
        print(f"engine: compiled — {result.plan.stats.describe()}")
    if stats.resilience is not None:
        print(f"resilience: {stats.resilience.describe()}")
    secs = stats.phases.get("execute", 0.0)
    pts = 1
    for n in shape:
        pts *= n
    ok = bool(stats.verified)
    rate = pts * args.steps / secs / 1e6 if secs > 0 else 0.0
    print(f"wall clock: {secs * 1e3:.1f} ms  ({rate:.1f} MStencil/s)")
    print(f"verified against naive sweep: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _run_batch(args, session, config, shape) -> int:
    """``repro run --batch N``: N instances as one stacked batch."""
    batch_config = config.with_overrides({
        "backend": "batched", "engine": "compiled",
        "shape": tuple(shape), "batch": args.batch,
    })
    results = session.run_many(batch_config)
    stats = results[0].stats
    for hop in stats.degradations:  # pragma: no cover - no fallback path
        print(f"degraded: {hop['from']} -> {hop['to']} ({hop['error']})")
    if results[0].plan is not None:
        print(f"engine: compiled — {results[0].plan.stats.describe()}")
    for i, res in enumerate(results):
        status = "OK" if res.stats.verified else "MISMATCH"
        print(f"instance {i} (seed {config.seed + i}): "
              f"verified {status}")
    secs = stats.phases.get("execute", 0.0)
    pts = 1
    for n in shape:
        pts *= n
    ok = all(bool(r.stats.verified) for r in results)
    rate = (pts * args.steps * len(results) / secs / 1e6
            if secs > 0 else 0.0)
    print(f"wall clock: {secs * 1e3:.1f} ms for {len(results)} "
          f"instances  ({rate:.1f} MStencil/s aggregate)")
    print(f"verified against naive sweep: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_show(args) -> int:
    from repro import get_stencil
    from repro.runtime.spacetime import render_spacetime

    spec = get_stencil("heat1d")
    sched = _build_schedule(spec, (args.n,), args.steps, args.scheme,
                            args.depth)
    print(f"space-time diagram — {args.scheme}, N={args.n}, "
          f"T={args.steps}, b={args.depth} (glyph = barrier group)")
    print(render_spacetime(sched, width=args.width))
    return 0


def cmd_tune(args) -> int:
    from repro import get_stencil
    from repro.api import ScheduleBuilder
    from repro.autotune import tune_tessellation
    from repro.machine import paper_machine

    spec = get_stencil(args.kernel)
    shape = (tuple(args.shape) if args.shape
             else ScheduleBuilder().default_shape(spec))
    # --objective is the historical spelling; the canonical --engine
    # maps naive -> simulate, compiled -> wallclock
    objective = args.objective
    if objective is None:
        objective = ("wallclock" if args.engine == "compiled"
                     else "simulate")
    machine = paper_machine().scaled_caches(0.05)
    best = tune_tessellation(spec, shape, args.steps, machine, args.cores,
                             objective=objective, repeat=args.repeat)
    print(f"best configuration: {best.describe()}")
    if objective == "wallclock":
        from repro.engine.cache import default_cache

        st = default_cache().stats
        print(f"plan cache: {st.hits} hit(s), {st.misses} miss(es), "
              f"{st.compile_seconds * 1e3:.0f} ms compiling")
    return 0


def cmd_dist(args) -> int:
    from repro import get_stencil
    from repro.api import RunConfig, Session
    from repro.bench.report import format_table
    from repro.distributed import ClusterSpec, simulate_distributed
    from repro.machine import paper_machine
    from repro.runtime import ResiliencePolicy

    spec = get_stencil(args.kernel)
    shape = tuple(args.shape) if args.shape else {
        1: (400,), 2: (64, 64), 3: (20, 20, 20)
    }[spec.ndim]
    fault_plan = _fault_plan(args)
    if fault_plan is not None:
        print(f"injecting: {fault_plan.describe()}")

    config = RunConfig(
        shape=shape, steps=args.steps, scheme="tess", b=args.depth,
        backend="distributed", verify=True, sanitize=args.sanitize,
        fault_plan=fault_plan, ghost=args.ghost, qos=_qos_policy(args),
        ranks=args.ranks, check_divergence=args.check_divergence,
        resilience=ResiliencePolicy() if args.resilient else None,
    )
    result = Session(spec).run(config)
    comm = result.stats.comm
    ok = bool(result.stats.verified)
    for hop in result.stats.degradations:
        print(f"degraded: {hop['from']} -> {hop['to']} "
              f"({hop['error']}: {hop['detail']})")
    if comm is not None:
        print(f"{args.ranks} simulated ranks on {shape}: "
              f"{'verified OK' if ok else 'MISMATCH'}; "
              f"{comm.messages} messages, {comm.bytes_sent} bytes")
        if comm.had_faults:
            print(f"resilience: {comm.describe_resilience()}")
    else:
        # the fallback chain landed on a shared-memory backend
        print(f"{result.stats.backend} fallback on {shape}: "
              f"{'verified OK' if ok else 'MISMATCH'}")
    rows = []
    base = None
    for n in args.nodes:
        r = simulate_distributed(spec, shape, result.lattice, args.steps,
                                 ClusterSpec(n, paper_machine()))
        base = base or r.time_s
        rows.append([n, f"{r.gstencils:.2f}",
                     f"{r.comm_fraction * 100:.1f}%",
                     f"{base / r.time_s:.2f}x"])
    print(format_table(["nodes", "GStencil/s", "comm share", "speedup"],
                       rows))
    return 0 if ok else 1


def cmd_sanitize(args) -> int:
    from repro import get_stencil, make_lattice
    from repro.api import RunConfig, Session
    from repro.runtime import sanitize_distributed_plan, sanitize_schedule

    spec = get_stencil(args.kernel)
    shape = tuple(args.shape) if args.shape else {
        1: (400,), 2: (64, 64), 3: (20, 20, 20)
    }[spec.ndim]

    if args.ranks is not None:
        if args.scheme not in ("tess", "all"):
            raise ValueError(
                "--ranks sanitizes the distributed tessellation plan; "
                "use scheme 'tess'"
            )
        lat = make_lattice(spec, shape, args.depth)
        report = sanitize_distributed_plan(
            spec, lat, args.steps, args.ranks, ghost=args.ghost,
        )
        reports = [("tess-distributed", report)]
    else:
        schemes = SCHEMES if args.scheme == "all" else [args.scheme]
        session = Session(spec)
        reports = []
        for scheme in schemes:
            cfg = RunConfig(scheme=scheme, shape=shape, steps=args.steps,
                            b=args.depth, mutations=tuple(args.mutate))
            sched = session.build(cfg).schedule
            reports.append((scheme, sanitize_schedule(spec, sched)))

    worst = None
    for scheme, report in reports:
        print(f"{scheme}: {report.describe()}")
        if args.verbose:
            for v in report.violations:
                print(f"  - {v.describe()}")
        if not report.ok and worst is None:
            worst = (scheme, report)
    if worst is not None:
        raise SanitizerViolation(worst[0], worst[1].violations)
    return 0


def cmd_table(args) -> int:
    from repro.bench.experiments import table1_properties

    print(table1_properties(max_dim=args.max_dim, b=args.depth))
    return 0


def cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(args.names)


# -- the durable job runtime (repro.service) --------------------------

def _supervisor_config(args):
    from repro.service import SupervisorConfig

    kwargs = dict(
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_pending_bytes=(int(args.max_pending_mb * 1e6)
                           if args.max_pending_mb is not None else None),
        checkpoint_steps=args.checkpoint_every,
        default_max_retries=args.retries,
        max_worker_crashes=args.max_worker_crashes,
        drain_timeout_s=args.drain_timeout,
        max_batch=getattr(args, "max_batch", 1),
    )
    if args.isolation is not None:
        # None keeps the config default (REPRO_ISOLATION env or thread)
        kwargs["isolation"] = args.isolation
    return SupervisorConfig(**kwargs)


def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service import JobStore, ServiceFront, Supervisor

    store = JobStore(args.root, fsync=not args.no_fsync)
    sup = Supervisor(store, _supervisor_config(args))
    recovery = sup.start()
    print(f"recovered store {store.root}: {recovery.describe()}")
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    with ServiceFront(sup, host=args.host, port=args.port) as front:
        print(f"serving on {front.url} "
              f"(workers={args.workers} queue={args.queue_depth} "
              f"isolation={sup.config.isolation} "
              f"checkpoint_every={args.checkpoint_every})")
        sys.stdout.flush()
        try:
            while not stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        # graceful drain: the front keeps serving (new submissions get
        # 503 {"state": "draining"}, reads still answer) while
        # in-flight jobs finish — or stop at their next checkpoint and
        # requeue, journaled, for the next incarnation
        print("draining: refusing new submissions...")
        sys.stdout.flush()
        clean = sup.drain(args.drain_timeout)
    print("drained cleanly" if clean else
          "drain timed out; in-flight work requeued at its last "
          "checkpoint")
    sup.stop()
    store.close()
    return 0


def _submit_config(args) -> dict:
    from repro.api import RunConfig

    return RunConfig(
        shape=tuple(args.shape) if args.shape else None,
        steps=args.steps, seed=args.seed,
        scheme=args.scheme, b=args.depth,
        backend=args.backend, engine=args.engine,
        threads=args.threads, verify=args.verify,
        qos=_qos_policy(args),
    ).normalized().to_json()


def cmd_submit(args) -> int:
    config = _submit_config(args)
    if args.url is not None:
        from repro.service import job_status, submit_job

        out = submit_job(args.url, args.kernel, config,
                         priority=args.priority,
                         max_retries=args.max_retries)
        print(f"job {out['job_id']} {out['state']} "
              f"({'new' if out['created'] else 'deduplicated'})")
        if args.wait:
            import time as _time

            deadline = _time.monotonic() + args.timeout
            while _time.monotonic() < deadline:
                st = job_status(args.url, out["job_id"])
                if st["state"] in ("done", "failed", "cancelled"):
                    print(f"job {out['job_id']} {st['state']}"
                          + (f": {st['error']}" if st.get("error") else ""))
                    if st["state"] == "done":
                        return 0
                    if st.get("error_kind") in ("poisoned",
                                                "WorkerCrashed"):
                        return EXIT_WORKER_CRASHED
                    return EXIT_EXECUTION
                _time.sleep(0.2)
            print(f"job {out['job_id']} still "
                  f"{st['state']} after {args.timeout:.0f}s",
                  file=sys.stderr)
            return EXIT_EXECUTION
        return 0

    from repro.service import JobStore, QUEUED, Supervisor, SupervisorConfig

    with JobStore(args.root) as store:
        if args.max_queued is not None:
            queued = len(store.jobs(state=QUEUED))
            if queued >= args.max_queued:
                raise QueueSaturated(queued, args.max_queued)
        job, created = store.submit(
            args.kernel, config, priority=args.priority,
            max_retries=(args.max_retries if args.max_retries is not None
                         else 2))
        print(f"job {job.job_id} {job.state} "
              f"({'new' if created else 'deduplicated'})")
        if not args.wait:
            return 0
        # drain in place: a short-lived supervisor owns the store
        cfg_kwargs = dict(workers=1,
                          max_worker_crashes=args.max_worker_crashes)
        if args.isolation is not None:
            cfg_kwargs["isolation"] = args.isolation
        sup = Supervisor(store, SupervisorConfig(**cfg_kwargs))
        sup.start()
        try:
            job = sup.wait(job.job_id, timeout=args.timeout)
        finally:
            sup.stop()
        print(f"job {job.job_id} {job.state}"
              + (f": {job.error}" if job.error else ""))
        if job.state == "done":
            return 0
        if job.error_kind in ("poisoned", "WorkerCrashed"):
            return EXIT_WORKER_CRASHED
        return EXIT_EXECUTION


def cmd_status(args) -> int:
    import json as _json

    if args.url is not None:
        from repro.service import job_status, server_metrics

        if args.job_id is None:
            print(_json.dumps(server_metrics(args.url), indent=2,
                              default=str))
            return 0
        print(_json.dumps(job_status(args.url, args.job_id), indent=2))
        return 0
    from repro.service import JobStore

    with JobStore(args.root) as store:
        if args.job_id is None:
            for job in store.jobs():
                print(f"{job.job_id}  {job.state:<9} "
                      f"attempts={job.attempts} kernel={job.kernel}")
            return 0
        print(_json.dumps(store.get(args.job_id).to_json(), indent=2))
        return 0


def cmd_result(args) -> int:
    import numpy as np

    if args.url is not None:
        from repro.service import job_result

        out = job_result(args.url, args.job_id)
        if out.get("state") != "done":
            print(f"job {args.job_id} is {out.get('state')}, not done"
                  + (f" ({out.get('error_detail')})"
                     if out.get("error_detail") else ""),
                  file=sys.stderr)
            return EXIT_EXECUTION
        interior, stats = out["interior"], out["stats"]
    else:
        from repro.service import JobStore

        with JobStore(args.root) as store:
            job = store.get(args.job_id)
            if job.state != "done":
                print(f"job {args.job_id} is {job.state}, not done"
                      + (f" ({job.error})" if job.error else ""),
                      file=sys.stderr)
                return EXIT_EXECUTION
            interior, stats = store.load_result(args.job_id)
    print(f"job {args.job_id}: interior {interior.shape} "
          f"{interior.dtype}, checksum {float(np.sum(interior)):.6g}")
    if not args.no_stats:
        secs = stats.get("phases", {}).get("execute", 0.0)
        print(f"backend={stats.get('backend')} "
              f"steps={stats.get('steps')} "
              f"execute={secs * 1e3:.1f} ms "
              f"resumed={'yes' if any(e.get('kind') == 'resume' for e in stats.get('events', [])) else 'no'}")
    if args.out:
        with open(args.out, "wb") as fh:
            np.save(fh, interior, allow_pickle=False)
        print(f"saved {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = {
        "run": cmd_run,
        "show": cmd_show,
        "tune": cmd_tune,
        "dist": cmd_dist,
        "sanitize": cmd_sanitize,
        "table": cmd_table,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "status": cmd_status,
        "result": cmd_result,
    }[args.command]
    try:
        return cmd(args)
    except SanitizerViolation as e:
        print(f"sanitizer violation: {e}", file=sys.stderr)
        for v in e.violations:
            print(f"  - {v.describe()}", file=sys.stderr)
        return EXIT_SANITIZER
    except GuardViolation as e:
        print(f"guard violation: {e}", file=sys.stderr)
        return EXIT_GUARD
    except RunDeadlineExceeded as e:
        print(f"deadline exceeded: {e}", file=sys.stderr)
        return EXIT_DEADLINE
    except WorkerCrashed as e:
        print(f"worker crashed: {e}", file=sys.stderr)
        return EXIT_WORKER_CRASHED
    except ExecutionError as e:
        print(f"execution failed: {e}", file=sys.stderr)
        return EXIT_EXECUTION
    except QueueSaturated as e:
        print(f"queue saturated: {e}", file=sys.stderr)
        return EXIT_QUEUE_SATURATED
    except JobNotFound as e:
        print(f"job not found: {e}", file=sys.stderr)
        return EXIT_JOB_NOT_FOUND
    except (ValueError, KeyError) as e:
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
