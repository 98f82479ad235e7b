"""Address-stream generation for the cache simulator.

Turns a :class:`~repro.runtime.schedule.RegionSchedule` into the
line-granular memory access stream a single core would issue executing
it sequentially, and drives a :class:`~repro.machine.cache.CacheHierarchy`
with it.  Grids are laid out row-major with 8-byte elements; the two
ping-pong buffers live at disjoint base addresses.

Accesses are generated at cache-line granularity per region row (a
row of a rectangle touches a contiguous byte range per offset; offsets
along the unit-stride dimension collapse into one widened range, which
is also what real hardware sees).  Exact but slow — use on small
instances to validate the analytic traffic model.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.machine.cache import CacheHierarchy, SetAssociativeCache
from repro.machine.spec import MachineSpec
from repro.runtime.schedule import RegionSchedule
from repro.stencils.spec import StencilSpec


def _row_ranges(
    spec: StencilSpec,
    shape: Tuple[int, ...],
    region,
    t: int,
    itemsize: int,
    bases: Tuple[int, int],
) -> Iterator[Tuple[int, int, bool]]:
    """(start_byte, end_byte, is_write) ranges of one region update."""
    d = len(shape)
    padded = tuple(n + 2 * h for n, h in zip(shape, spec.halo))
    strides = [itemsize] * d
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * padded[j + 1]
    halo = spec.halo
    src_base = bases[t % 2]
    dst_base = bases[(t + 1) % 2]
    # unit-stride extents of the read set: min/max offset in last dim
    last_offs = [o[-1] for o in spec.offsets]
    lo_off, hi_off = min(last_offs), max(last_offs)
    # distinct non-unit-stride offset combinations
    lead_offs = sorted({o[:-1] for o in spec.offsets})
    outer = [range(lo, hi) for lo, hi in region[:-1]]
    (rlo, rhi) = region[-1]
    for idx in itertools.product(*outer):
        # source reads: one widened range per leading-offset combo
        for loff in lead_offs:
            base = src_base
            for j, (i, o, h) in enumerate(zip(idx, loff, halo[:-1])):
                base += (i + o + h) * strides[j]
            start = base + (rlo + lo_off + halo[-1]) * itemsize
            end = base + (rhi + hi_off + halo[-1]) * itemsize
            yield (start, end, False)
        # destination write range
        base = dst_base
        for j, (i, h) in enumerate(zip(idx, halo[:-1])):
            base += (i + h) * strides[j]
        yield (
            base + (rlo + halo[-1]) * itemsize,
            base + (rhi + halo[-1]) * itemsize,
            True,
        )


def simulate_schedule_cache(
    spec: StencilSpec,
    schedule: RegionSchedule,
    machine: MachineSpec,
    levels: Sequence[str] = ("l1", "l2", "llc"),
) -> CacheHierarchy:
    """Run a schedule's sequential access stream through the caches.

    Returns the hierarchy (inspect per-level stats and
    ``memory_traffic_bytes``).  Intended for small instances — cost is
    proportional to total lines touched.
    """
    size_of = {
        "l1": machine.l1_bytes,
        "l2": machine.l2_bytes,
        "llc": machine.llc_bytes,
    }
    hier = CacheHierarchy([
        SetAssociativeCache(size_of[name], machine.cache_line)
        for name in levels
    ])
    itemsize = np.dtype(spec.dtype).itemsize
    padded_points = 1
    for n, h in zip(schedule.shape, spec.halo):
        padded_points *= n + 2 * h
    buf_bytes = padded_points * itemsize
    # separate the two buffers by an odd number of cache lines to avoid
    # pathological aliasing between them
    gap = ((buf_bytes // machine.cache_line) + 17) * machine.cache_line
    bases = (0, gap)
    line = machine.cache_line
    groups = schedule.groups()
    for group in sorted(groups):
        for task in groups[group]:
            for a in task.actions:
                for start, end, is_write in _row_ranges(
                    spec, schedule.shape, a.region, a.t, itemsize, bases
                ):
                    first = start // line
                    last = (end - 1) // line if end > start else first - 1
                    for ln in range(first, last + 1):
                        hier.access(ln * line, is_write=is_write)
    return hier
