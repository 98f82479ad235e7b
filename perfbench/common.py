"""Shared helpers: locating the program, statistics, environment."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's ``src/repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for subprocesses that run the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


#: the speed probe reads one byte in each 64-byte line of this 1 MiB
_PROBE_BUF = bytes(range(256)) * 4096
#: iterations of the CPU probe's loop
_CPU_PROBE_ITERS = 20_000
#: either probe's time on the reference machine (a quiet 2.0 GHz Xeon)
REF_PROBE_S = 1.0e-3


def speed_probe() -> float:
    """Seconds a fixed pure-Python walk over 1 MiB of memory takes now.

    The machine is shared: for seconds or minutes at a time, other
    tenants slow every process on it by up to half.  The probe runs no
    code of the program, so its time tracks the machine's speed whatever
    the program does.  It walks memory rather than only doing arithmetic
    because the program's requests (plan building, garbage collection)
    do too: on this workload mix, an arithmetic loop slowed by about
    two thirds as much as the requests, the walk by as much.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(0, len(_PROBE_BUF), 64):
        s += _PROBE_BUF[i]
    return time.perf_counter() - t0


def cpu_probe() -> float:
    """Seconds a fixed pure-Python arithmetic loop takes now.

    For a probe that shares a CPU core with the program while it runs:
    the loop stays in the first-level cache, so unlike the memory walk
    of :func:`speed_probe` it does not time what the program left in the
    larger caches.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(_CPU_PROBE_ITERS):
        s += i * i
    return time.perf_counter() - t0


def setup_at_ref_speed(seconds: float) -> float:
    """A set-up time, rescaled by probes taken right after it."""
    return at_ref_speed(seconds, [speed_probe() for _ in range(5)])


def at_ref_speed(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` measured next to ``probes``, rescaled to the time it
    would take on the reference machine."""
    return seconds * REF_PROBE_S / median(probes)


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB here)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fingerprint() -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def check_fingerprint(fp: Dict[str, object]) -> List[str]:
    """Keys where ``fp`` differs from the stored ``env.json``."""
    path = os.path.join(HERE, "env.json")
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return ["env.json missing or unreadable"]
    return [k for k in sorted(set(stored) | set(fp))
            if stored.get(k) != fp.get(k)]
