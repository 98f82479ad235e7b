"""Schedules and plans match digests recorded from a known-good build.

Each case builds one configuration through
:class:`~repro.api.builder.ScheduleBuilder`, lowers it with
:func:`~repro.engine.plan.compile_plan`, and compares three SHA-256
digests with ``data/golden_digests.json``:

* ``schedule`` — scheme, shape, steps, flags and every task's group,
  label and ``(t, region)`` actions, in schedule order;
* ``stats`` — :func:`~repro.runtime.schedule.schedule_stats`, floats
  by ``repr``;
* ``plan`` — per barrier group, every unit's kind, step, written
  rectangles, index arrays and slices, plus the ``PlanStats`` counters
  and the plan's index count (every index array of every unit).

Integer arrays hash by their int64 values and the plan records index
*counts*, not bytes, so the digests pin what a plan computes, not the
width it stores it at.  The digests were recorded before the
tessellation builder and the compiler were rewritten to work from the
rectangle table, and re-recorded in this width-independent form before
the table and the index arrays went to 32 bits; any change to a
schedule or a plan — one action, one unit, one index — fails here.
Regenerate (only from a tree whose plans are known good) with::

    PYTHONPATH=src python -m tests.engine.test_golden_digests --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

pytestmark = pytest.mark.engine

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_digests.json")

KERNELS = ("heat1d", "heat2d", "heat3d", "life", "fdtd2d")
SCHEMES = ("tess", "tess-unmerged", "diamond", "hexagonal", "mwd",
           "pochoir", "spatial", "naive")
#: shapes off the block period, plus one with a 0-cell axis
SHAPES = {
    1: ((37,), (0,)),
    2: ((21, 18), (0, 9)),
    3: ((11, 9, 7), (6, 0, 5)),
}
#: layers wider than the compiler's pairwise-check cut-off
LARGE = {1: (603,), 2: (70, 66), 3: (20, 18, 17)}
NDIM = {"heat1d": 1, "heat2d": 2, "heat3d": 3, "life": 2, "fdtd2d": 2}


def _cases():
    """``(case id, kernel, RunConfig fields, compile options)``."""
    out = []
    for kernel in KERNELS:
        d = NDIM[kernel]
        for scheme in SCHEMES:
            for shape in SHAPES[d]:
                for steps in (0, 1, 7):      # 7 = one full phase + 3
                    out.append((kernel, dict(scheme=scheme, shape=shape,
                                             steps=steps, b=4), {}))
            out.append((kernel, dict(scheme=scheme, shape=LARGE[d],
                                     steps=9, b=4), {}))
        for scheme in ("tess", "tess-unmerged"):
            shape = SHAPES[d][0]
            out.append((kernel, dict(scheme=scheme, shape=shape, steps=7,
                                     b=3, core_widths=(2,) * d), {}))
            if d > 1:
                out.append((kernel, dict(scheme=scheme, shape=shape,
                                         steps=7, b=3,
                                         uncut_dims=(d - 1,)), {}))
                out.append((kernel, dict(scheme=scheme, shape=LARGE[d],
                                         steps=6, b=4, uncut_dims=(0,)),
                            {}))
        for scheme in ("tess", "mwd", "naive"):
            for opts in ({"fuse": False}, {"batch_threshold": 0}):
                out.append((kernel, dict(scheme=scheme, shape=LARGE[d],
                                         steps=9, b=4), opts))
    for kernel in ("heat1d", "heat2d"):
        d = NDIM[kernel]
        out.append((kernel, dict(scheme="overlapped", shape=SHAPES[d][0],
                                 steps=7, b=4), {}))
        out.append((kernel, dict(scheme="skewed", shape=LARGE[d],
                                 steps=7, b=4), {}))
    # mutated schedules
    out.append(("heat2d", dict(scheme="tess", shape=(21, 18), steps=7, b=4,
                               mutations=("shift-region@1",)), {}))
    out.append(("heat1d", dict(scheme="tess", shape=LARGE[1], steps=9, b=4,
                               mutations=("drop-action@2",)), {}))
    out.append(("heat2d", dict(scheme="naive", shape=(21, 18), steps=7, b=4,
                               mutations=("merge-groups@0",)), {}))
    # an operator without a batched kernel: smalls become slices too
    out.append(("varcoef2d", dict(scheme="tess", shape=(40, 36), steps=7,
                                  b=4), {"batch_threshold": 64}))
    for name in HANDMADE:
        out.append(("heat2d", dict(handmade=name), {}))
    return [(_case_id(k, cfg, opts), k, cfg, opts) for k, cfg, opts in out]


def _handmade(name):
    """Schedules no builder emits, for the compiler's fallbacks and for
    rows the builders never produce."""
    from repro.runtime.schedule import RegionAction as A, RegionSchedule

    if name == "overlap-large":     # > PAIRWISE_MAX rectangles per layer
        sched = RegionSchedule("handmade-overlap-large", (160, 12), 2)
        for t in (0, 1):
            for i in range(75):
                sched.add(t, [A(t, ((2 * i, 2 * i + 2), (0, 12)))])
        sched.add(0, [A(0, ((5, 7), (0, 12)))])     # overlaps in group 0
        return sched
    sched = RegionSchedule(f"handmade-{name}", (16, 12), 2,
                           redundant=(name == "redundant"))
    if name == "nonmonotone":      # a task stepping back in time
        sched.add(0, [A(1, ((0, 8), (0, 12))), A(0, ((0, 8), (0, 12)))])
        sched.add(0, [A(0, ((8, 16), (0, 12))), A(1, ((8, 16), (0, 12)))])
    elif name == "overlap-small":
        sched.add(0, [A(0, ((0, 8), (0, 12)))])
        sched.add(0, [A(0, ((6, 16), (0, 12)))])
        sched.add(1, [A(1, ((0, 8), (0, 12)))])
        sched.add(1, [A(1, ((8, 16), (0, 12)))])
    else:                           # empty rows, an empty task, groups
        sched.add(3, [A(1, ((0, 16), (0, 12)))])   # added out of order
        sched.add(0, [A(0, ((2, 2), (0, 12))), A(0, ((0, 9), (0, 12)))])
        sched.add(0, [])
        sched.add(0, [A(0, ((9, 16), (0, 5))), A(0, ((9, 16), (7, 5)))])
        sched.add(1, [A(0, ((9, 16), (5, 12)))])
    return sched


HANDMADE = ("nonmonotone", "overlap-small", "overlap-large", "ragged",
            "redundant")


def _case_id(kernel, cfg, opts):
    parts = [kernel] + [f"{k}={v}" for k, v in cfg.items()]
    parts += [f"{k}={v}" for k, v in opts.items()]
    return ",".join(str(p).replace(" ", "") for p in parts)


def build_case(kernel, cfg, opts):
    from repro import get_stencil
    from repro.api import RunConfig
    from repro.api.builder import ScheduleBuilder
    from repro.engine.plan import compile_plan
    from repro.stencils.custom import variable_coefficient

    if kernel == "varcoef2d":
        spec = variable_coefficient(2, cfg["shape"])
    else:
        spec = get_stencil(kernel)
    if "handmade" in cfg:
        sched = _handmade(cfg["handmade"])
    else:
        config = RunConfig(**cfg).normalized()
        sched = ScheduleBuilder().build(spec, config).schedule
    return sched, compile_plan(spec, sched, **opts)


# -- canonical forms ---------------------------------------------------

def _canon(x):
    if isinstance(x, np.ndarray):
        if np.issubdtype(x.dtype, np.integer):
            # by value, whatever the storage width
            x, kind = x.astype(np.int64), "int"
        else:
            kind = str(x.dtype)
        return ["nd", kind, list(x.shape),
                hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()]
    if isinstance(x, slice):
        return ["sl", _canon(x.start), _canon(x.stop), _canon(x.step)]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, (tuple, list)):
        return [_canon(e) for e in x]
    if hasattr(x, "signature"):                 # a staged Stage
        return ["stage", _canon(x.signature())]
    if hasattr(type(x), "__slots__"):           # a private ghost-zone task
        return [type(x).__name__] + [_canon(getattr(x, s))
                                     for s in type(x).__slots__]
    raise TypeError(f"no canonical form for {type(x).__name__}")


#: unit attributes hashed besides kind, step and written rectangles
UNIT_ATTRS = ("sp", "dp", "out_sl", "in_sls", "centre_sl", "coeffs", "idx",
              "off_flats", "centre_off", "stage_ops", "copy_sls",
              "pad_shape", "num_fields", "field_size", "ptasks")

STAT_FIELDS = ("tasks", "actions", "groups", "stream_units", "batches",
               "batched_actions", "sliced_actions", "fused_actions",
               "fallback_groups")


def index_arrays(unit):
    """Every flat index array a unit holds: a batch's ``idx`` and each
    stage's position array of a staged batch."""
    out = [unit.idx] if isinstance(getattr(unit, "idx", None),
                                   np.ndarray) else []
    for op in getattr(unit, "stage_ops", ()):
        out += [x for x in op if isinstance(x, np.ndarray)]
    return out


def index_count(plan) -> int:
    """Indices the plan holds, over every unit of every stream."""
    return sum(a.size for stream in plan.streams for unit in stream
               for a in index_arrays(unit))


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def schedule_digest(sched) -> str:
    return _sha([
        sched.scheme, list(sched.shape), sched.steps,
        bool(sched.private_tasks), bool(sched.redundant),
        # raw values: json refuses NumPy integers, so the view must
        # hold plain Python ints, as the object-built schedules do
        [[task.group, task.label, [[a.t, a.region] for a in task.actions]]
         for task in sched.tasks],
    ])


def stats_digest(sched) -> str:
    from repro.runtime.schedule import schedule_stats

    return _sha(sorted((k, _canon(v))
                       for k, v in schedule_stats(sched).items()))


def plan_digest(plan) -> str:
    streams = []
    for stream in plan.streams:
        units = []
        for unit in stream:
            rec = [type(unit).__name__, int(unit.t),
                   [[t, r] for t, r in unit.writes()]]
            for attr in UNIT_ATTRS:
                if hasattr(unit, attr):
                    rec.append([attr, _canon(getattr(unit, attr))])
            units.append(rec)
        streams.append(units)
    return _sha([
        plan.scheme, list(plan.shape), plan.steps, bool(plan.private),
        list(plan.group_ids), streams,
        [[f, getattr(plan.stats, f)] for f in STAT_FIELDS],
        ["index_count", index_count(plan)],
    ])


def digests(kernel, cfg, opts):
    sched, plan = build_case(kernel, cfg, opts)
    return {"schedule": schedule_digest(sched),
            "stats": stats_digest(sched),
            "plan": plan_digest(plan)}


# -- the test ------------------------------------------------------------

CASES = _cases()


def _golden():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return _golden()


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(cid for cid, *_ in CASES)


@pytest.mark.parametrize("cid,kernel,cfg,opts", CASES,
                         ids=[c[0] for c in CASES])
def test_matches_golden(golden, cid, kernel, cfg, opts):
    assert digests(kernel, cfg, opts) == golden[cid]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.engine.test_golden_digests --write")
    out = {cid: digests(k, cfg, opts) for cid, k, cfg, opts in CASES}
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} cases to {DATA}")
