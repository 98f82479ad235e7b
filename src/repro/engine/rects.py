"""Array algorithms over rectangle tables (rows of ``lo``/``hi``).

The compiled engine lowers a schedule's
:class:`~repro.runtime.schedule.ScheduleTable` with these: flat-index
expansion of many rectangles at once, the exact same-step
write-disjointness proof (Theorem 3.5's disjoint half) and the greedy
rectangle fusion fixpoint, each a fixed number of NumPy passes over
every layer at once instead of a Python loop per rectangle.
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


def flat_indices(lo: np.ndarray, hi: np.ndarray, halo: Sequence[int],
                 strides: Sequence[int]) -> np.ndarray:
    """Flat padded-buffer indices of rectangles' cells.

    Rectangle by rectangle (rows of ``lo``/``hi``), each in C order —
    one vectorised expansion for any number of rectangles: rows of the
    leading axes first, then each row's contiguous run (``strides`` are
    C-order element strides, so the last one is 1).
    """
    ext = np.maximum(hi - lo, 0)
    nrows = np.prod(ext[:, :-1], axis=1, dtype=np.int64) * (ext[:, -1] > 0)
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
    flat = np.arange(int(runs.sum()), dtype=np.intp)
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
        # of a chunk gets key k * cells + flat
        cells = int(strides[0]) * (int(hi[:, 0].max()) + int(halo[0]))
        points = np.prod(hi - lo, axis=1)
        csum = np.concatenate(([0], np.cumsum(points)))
        weight = csum[starts[large] + sizes[large]] - csum[starts[large]]
        for i, j in chunks(weight):
            part = large[i:j]
            rows = (np.repeat(starts[part], sizes[part])
                    + ragged_arange(sizes[part]))
            offset = np.repeat(np.arange(part.size) * cells, sizes[part])
            keys = flat_indices(lo[rows], hi[rows], halo, strides)
            keys += np.repeat(offset, points[rows])
            keys.sort()
            dup = keys[1:][keys[1:] == keys[:-1]]
            bad[part[dup // cells]] = True
    return bad


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
