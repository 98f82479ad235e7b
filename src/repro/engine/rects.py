"""Array algorithms over rectangle tables (rows of ``lo``/``hi``).

The compiled engine lowers a schedule's
:class:`~repro.runtime.schedule.ScheduleTable` with these: flat-index
expansion of many rectangles at once, the exact same-step
write-disjointness proof (Theorem 3.5's disjoint half) and the greedy
rectangle fusion fixpoint, each a fixed number of NumPy passes over
every layer at once instead of a Python loop per rectangle.

Table columns are int32 (:class:`~repro.runtime.schedule.ScheduleTable`);
every product or composite key over them promotes to int64 before it
multiplies.  Flat indices come back at the narrowest width the buffer
they address allows (:func:`index_dtype`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: layers of at most this many rectangles prove disjointness pairwise;
#: larger ones by duplicate flat indices
PAIRWISE_MAX = 64
#: points (or rectangle pairs) one vectorised pass materialises at once
CHUNK = 1 << 16


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``arange(c)`` for every ``c`` in ``counts``, concatenated."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def index_dtype(extent: int):
    """The dtype of flat indices into a buffer of ``extent`` elements:
    int32 below 2**31, else ``np.intp``."""
    return np.int32 if extent <= np.iinfo(np.int32).max else np.intp


def flat_indices(lo: np.ndarray, hi: np.ndarray, halo: Sequence[int],
                 strides: Sequence[int], extent: int) -> np.ndarray:
    """Flat padded-buffer indices of rectangles' cells.

    Rectangle by rectangle (rows of ``lo``/``hi``), each in C order —
    one vectorised expansion for any number of rectangles: rows of the
    leading axes first, then each row's contiguous run (``strides`` are
    C-order element strides, so the last one is 1).  ``extent`` is the
    flat size of the buffer the indices address (padded points ×
    fields); it picks their dtype (:func:`index_dtype`).  The
    arithmetic runs in int64 whatever the width of ``lo``/``hi``.
    """
    ext = np.maximum(hi - lo, 0).astype(np.int64)
    nrows = np.prod(ext[:, :-1], axis=1) * (ext[:, -1] > 0)
    rect = np.repeat(np.arange(len(lo)), nrows)
    local = ragged_arange(nrows)
    start = (lo[rect] + np.asarray(halo, dtype=np.int64)) @ \
        np.asarray(strides, dtype=np.int64)
    for j in range(lo.shape[1] - 2, -1, -1):
        local, offset = np.divmod(local, ext[rect, j])
        start += offset * strides[j]
    # cell i of the row starting at ``start`` is ``start + i``
    runs = ext[rect, -1]
    first = np.cumsum(runs) - runs
    flat = np.arange(int(runs.sum()), dtype=index_dtype(extent))
    flat += np.repeat(start - first, runs)
    return flat


def run_starts(*cols: np.ndarray) -> np.ndarray:
    """Rows where any column differs from the row before (row 0 too)."""
    n = len(cols[0])
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    for col in cols:
        diff = col[1:] != col[:-1]
        change[1:] |= diff if diff.ndim == 1 else diff.any(axis=1)
    return np.flatnonzero(change)


def chunks(weights: np.ndarray, budget: int = CHUNK):
    """Consecutive ``[i, j)`` item ranges of about ``budget`` weight
    (a single heavier item gets a range of its own)."""
    ends = np.cumsum(weights)
    i, n = 0, len(weights)
    while i < n:
        base = ends[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(ends, base + budget, "right")))
        yield i, j
        i = j


def overlapping_layers(starts: np.ndarray, sizes: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray,
                       halo: Sequence[int],
                       strides: Sequence[int]) -> np.ndarray:
    """Layers whose rectangles are not pairwise disjoint (exact).

    Theorem 3.5's disjoint half.  Rows ``starts[k]:starts[k] +
    sizes[k]`` are layer ``k``'s (non-empty) rectangles.  Layers of up
    to :data:`PAIRWISE_MAX` rectangles test every pair of boxes; larger
    ones expand their cells' flat indices and look for a duplicate.
    Both run in chunks, so memory stays bounded by the larger of one
    chunk and one layer, never the whole schedule.
    """
    bad = np.zeros(len(sizes), dtype=bool)
    small = np.flatnonzero((sizes >= 2) & (sizes <= PAIRWISE_MAX))
    if small.size:
        # every (i, j > i) pair of rows inside one small layer
        layer = np.repeat(small, sizes[small])
        first = np.repeat(starts[small], sizes[small])
        row = first + ragged_arange(sizes[small])
        partners = first + np.repeat(sizes[small], sizes[small]) - row - 1
        for i, j in chunks(partners):
            a = np.repeat(row[i:j], partners[i:j])
            b = a + 1 + ragged_arange(partners[i:j])
            hit = np.ones(a.size, dtype=bool)
            for axis in range(lo.shape[1]):
                hit &= (np.maximum(lo[a, axis], lo[b, axis])
                        < np.minimum(hi[a, axis], hi[b, axis]))
            bad[np.repeat(layer[i:j], partners[i:j])[hit]] = True
    large = np.flatnonzero(sizes > PAIRWISE_MAX)
    if large.size:
        # every flat index is below ``cells``; a cell of the k-th layer
        # of a chunk gets key k * cells + flat, below part.size * cells
        cells = int(strides[0]) * (int(hi[:, 0].max()) + int(halo[0]))
        points = np.prod(hi - lo, axis=1, dtype=np.int64)
        csum = np.concatenate(([0], np.cumsum(points)))
        weight = csum[starts[large] + sizes[large]] - csum[starts[large]]
        for i, j in chunks(weight):
            part = large[i:j]
            rows = (np.repeat(starts[part], sizes[part])
                    + ragged_arange(sizes[part]))
            offset = np.repeat(np.arange(part.size, dtype=np.int64) * cells,
                               sizes[part])
            keys = flat_indices(lo[rows], hi[rows], halo, strides,
                                part.size * cells)
            keys += np.repeat(offset, points[rows])
            keys.sort()
            dup = keys[1:][keys[1:] == keys[:-1]]
            bad[part[dup // cells]] = True
    return bad


def intersecting_pairs(key_a: np.ndarray, lo_a: np.ndarray, hi_a: np.ndarray,
                       key_b: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray):
    """Every ``(i, j)`` with ``key_a[i] == key_b[j]`` whose boxes meet.

    Boxes are rows ``[lo, hi)`` of each set, all non-empty; keys are
    non-negative integers.  A spatial hash joins the sets: buckets are
    as wide as the median box extent along each axis, each box lands in
    every bucket it overlaps, and a pair counts only in the bucket that
    holds the low corner of its intersection, so it comes back once.
    Returns index arrays ``(i, j)`` in no particular order; candidates
    are compared in chunks of about :data:`CHUNK`.
    """
    lo_a, hi_a, lo_b, hi_b = (np.asarray(x, dtype=np.int64)
                              for x in (lo_a, hi_a, lo_b, hi_b))
    if not (len(lo_a) and len(lo_b)):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    lo, hi = np.concatenate((lo_a, lo_b)), np.concatenate((hi_a, hi_b))
    side = np.maximum(np.median(hi - lo, axis=0).astype(np.int64), 1)
    origin = lo.min(axis=0)
    nb = (hi.max(axis=0) - 1 - origin) // side + 1
    strides = np.cumprod(np.append(1, nb[:0:-1]))[::-1]
    buckets = int(np.prod(nb))

    def entries(key, lo, hi):
        """(box, bucket, key * buckets + bucket) of every box's buckets,
        sorted by the last (sorted queries search fastest)."""
        first = (lo - origin) // side
        last = (hi - 1 - origin) // side + 1
        box = np.repeat(np.arange(len(lo)), np.prod(last - first, axis=1))
        bucket = flat_indices(first, last, np.zeros_like(side), strides,
                              buckets).astype(np.int64)
        comp = np.asarray(key, np.int64)[box] * buckets + bucket
        order = np.argsort(comp, kind="stable")
        return box[order], bucket[order], comp[order]

    box_a, bucket_a, comp_a = entries(key_a, lo_a, hi_a)
    box_b, _, comp_b = entries(key_b, lo_b, hi_b)
    left = np.searchsorted(comp_b, comp_a, "left")
    count = np.searchsorted(comp_b, comp_a, "right") - left
    # one contiguous column per bound and axis: 1-D gathers are cheaper
    cols = [np.ascontiguousarray(x.T) for x in (lo_a, hi_a, lo_b, hi_b)]
    out_a, out_b = [], []
    for i, j in chunks(count):
        n = count[i:j]
        entry = np.repeat(np.arange(i, j), n)
        a = box_a[entry]
        b = box_b[np.repeat(left[i:j], n) + ragged_arange(n)]
        hit, corner = True, 0
        for (la, ha, lb, hb), o, s, st in zip(zip(*cols), origin, side,
                                              strides):
            low = np.maximum(la[a], lb[b])
            hit = hit & (low < np.minimum(ha[a], hb[b]))
            corner = corner + (low - o) // s * st
        hit &= corner == bucket_a[entry]
        out_a.append(a[hit])
        out_b.append(b[hit])
    return np.concatenate(out_a), np.concatenate(out_b)


def fuse_layers(layer: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Greedy rectangle fusion of every layer at once.

    Two rectangles merge when they agree on every axis but one and are
    adjacent (``hi == lo``) along it.  Each axis pass orders a layer's
    rectangles by *chain* (the rectangles agreeing off the axis) in
    first-appearance order, then by ``lo`` along the axis, and merges
    adjacent runs.  A layer repeats full sweeps over the axes until a
    sweep merges nothing, and the order it is left in is its final
    order.  Rows must arrive grouped by layer in ascending order, each
    layer's rectangles pairwise disjoint; returns ``(layer, lo, hi)``
    in the same layout.
    """
    d = lo.shape[1]
    done = []
    while layer.size:
        merged = np.zeros(int(layer[-1]) + 1, dtype=bool)
        for axis in range(d):
            others = [j for j in range(d) if j != axis]
            # chain = (layer, off-axis bounds); number chains by first row
            by_chain = np.lexsort([hi[:, j] for j in others[::-1]]
                                  + [lo[:, j] for j in others[::-1]]
                                  + [layer])
            starts = run_starts(layer[by_chain], lo[by_chain][:, others],
                                 hi[by_chain][:, others])
            chain = np.empty(layer.size, dtype=np.int64)
            chain[by_chain] = np.repeat(by_chain[starts],
                                        np.diff(np.append(starts, layer.size)))
            order = np.lexsort((lo[:, axis], chain))
            layer, lo, hi, chain = layer[order], lo[order], hi[order], \
                chain[order]
            joins = np.flatnonzero((chain[1:] == chain[:-1])
                                   & (lo[1:, axis] == hi[:-1, axis])) + 1
            if joins.size:
                merged[layer[joins]] = True
                keep = np.ones(layer.size, dtype=bool)
                keep[joins] = False
                heads = np.flatnonzero(keep)
                tails = np.append(heads[1:], layer.size) - 1
                grown = hi[heads]
                grown[:, axis] = hi[tails, axis]
                layer, lo, hi = layer[heads], lo[heads], grown
        final = ~merged[layer]
        done.append((layer[final], lo[final], hi[final]))
        layer, lo, hi = layer[~final], lo[~final], hi[~final]
    layer, lo, hi = (np.concatenate(c) for c in zip(*done))
    order = np.argsort(layer, kind="stable")
    return layer[order], lo[order], hi[order]
