"""End-to-end benchmark of the repro stencil system, split per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``session_load.py`` and ``serve_load.py``):

``session-repeat``  warm library requests: every request hits the plan cache
``session-fresh``   cold library requests: every request misses it
``serve-small``     small jobs through a ``repro serve`` subprocess

``--trace 0`` measures with nothing installed and reports the
end-to-end metrics; ``--trace 1`` records spans around each layer's
public functions and reports the per-layer metrics (self times, counts
and ratios).  Metric names and units come from ``BENCHMARK.json``.
Every output is compared bitwise with ``reference_sweep``.  Human-readable
lines go first; the last line of standard output is one JSON object.

The machine is shared, and other tenants slow it by up to half for
minutes at a time.  End-to-end times are therefore rescaled to the
speed of a reference machine with a speed probe (``common.speed_probe``,
a fixed loop that runs no code of the program) taken next to what they
time; the human-readable lines also give the times as measured.
"""

import time

T_PROCESS = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from common import (REF_PROBE_S, ROOT, MissingProgram,  # noqa: E402
                    check_fingerprint, fingerprint, median,
                    setup_at_ref_speed, use_source_tree)

WORKLOADS = ("session-repeat", "session-fresh", "serve-small")
#: per-layer metric prefixes a workload never exercises; reported as 0
UNUSED = {"session-repeat": ("service.",), "session-fresh": ("service.",),
          "serve-small": ()}
#: extra fresh processes that only set up, for the median of setup_s
SETUP_PROBES = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be > 0 and --seed >= 0")
    return args


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _probe_setups(args):
    """Set-up times of fresh processes that stop before the window."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])
                   ["setup_s"])
    return out


def _measure(args, workdir):
    """Run the workload; returns (metrics, attempted, failed, notes)."""
    trace = bool(args.trace)
    if args.workload.startswith("session-"):
        import session_load as load

        out = load.run(args.workload, args.seed, args.seconds, trace,
                       T_PROCESS)
        records = out["records"]
        busy = sum(r["latency"] for r in records)
        probes = [p for r in records for p in r["probes"]]
        notes = [f"requests: {len(records)}, {busy:.2f} s inside them; "
                 f"as measured: latency p50 "
                 f"{median([r['latency'] for r in records]) * 1e3:.1f} ms; "
                 f"speed probe median {median(probes) * 1e3:.3f} ms "
                 f"(reference {REF_PROBE_S * 1e3:.3f} ms)",
                 f"python.gc in window: {out['gc'].seconds * 1e3:.1f} ms, "
                 f"{out['gc'].gen2} gen-2 collections"]
        if not trace:
            setups = [out["setup_s"]] + _probe_setups(args)
            notes.append("setup_s samples: "
                         + ", ".join(f"{s:.3f}" for s in setups))
    else:
        import serve_load as load

        out = load.run(args.workload, args.seed, args.seconds, trace,
                       T_PROCESS, workdir)
        phases = [out["plain"]] + ([out["traced"]] if trace else [])
        records = [r for ph in phases for r in ph["records"]]
        setups = out.get("setups", [])
        notes = load.notes(out)
    if trace:
        metrics = load.per_layer(out)
    else:
        metrics = load.end_to_end(out)
        metrics["setup_s"] = median(setups)
    failed = sum(not r["ok"] for r in records)
    return metrics, len(records), failed, notes


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        use_source_tree()
        e2e, layers = _contract()
    except (MissingProgram, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import session_load

        session_load.setup(args.workload, args.seed)
        setup_s = setup_at_ref_speed(time.perf_counter() - T_PROCESS)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    fp = fingerprint()
    drift = check_fingerprint(fp)
    if drift:
        print(f"perfbench: warning: environment differs from env.json in "
              f"{', '.join(drift)}", file=sys.stderr)
    work_parent = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent)
    try:
        metrics, attempted, failed, notes = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass

    wanted = layers if args.trace else e2e
    unused = UNUSED[args.workload] if args.trace else ()
    missing = [n for n in wanted if n not in metrics
               and not n.startswith(unused)]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    result = {n: {"value": float(metrics.get(n, 0.0)), "unit": u}
              for n, u in wanted.items()}

    print(f"env: {json.dumps(fp, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, m in result.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
