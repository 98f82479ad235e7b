"""Allocation-free stencil kernels for compiled plans.

The naive operator path (:meth:`LinearStencilOperator.apply`) allocates
one fresh temporary per neighbour tap per region action (``out += view
* c``) and rebuilds every slice tuple from the region geometry on every
call.  For the thousands of small region actions a tessellated schedule
emits, those allocations and the per-call slice construction dominate
the run time on this substrate.

This module provides the two bit-identical rewrites the compiled
engine uses:

* **slice kernels** — the operator loop expressed as
  ``np.multiply``/``np.add`` with ``out=`` into a reusable per-thread
  scratch arena, consuming slice tuples precomputed at plan-compile
  time.  Per point, the float operation sequence is exactly the naive
  one (``((v0*c0) + v1*c1) + v2*c2 ...``), so results are bit-identical.
* **batch kernels** — many small same-step write-disjoint actions
  executed as one gather → compute → scatter over precomputed flat
  index arrays.  Elementwise arithmetic is independent of array
  layout, so this too is bit-identical while replacing thousands of
  tiny ufunc dispatches with a handful of large ones.

  A batch's indices are stored at 32 bits where the buffer allows
  (:func:`repro.engine.rects.index_dtype`) and widened once per call:
  ``ish = idx + base`` with ``base = min(0, *tap offsets)`` fixed at
  compile time, so every ``ish`` is a valid non-negative index.  Tap
  ``k`` then gathers ``flat_src[off_k - base:]`` at ``ish`` and the
  scatter writes ``flat_dst[-base:]`` at ``ish`` — one index pass per
  unit instead of one per tap.  ``base`` is clamped at 0 because a
  linear operator may be one-sided (every offset positive).

**Bounds are proven once, not per call.**  Every gather is the bound
``ndarray.take(ish, out=..., mode="clip")``.  The default
``mode="raise"`` fills a temporary and copies it into ``out`` on every
call, so that ``out`` stays untouched if an index fails.
:func:`repro.engine.plan.check_bounds` instead proves every batch
index in bounds once per plan, and the engine entry points refuse
buffers of another layout, so ``clip`` never clamps.  The
many-instance kernels gather from the whole C-contiguous ``[N, P]``
buffer at ``idx + shift``: ``take`` would copy a column-sliced view in
full first.

Scratch buffers live in a :class:`ScratchArena`: one geometric-growth
1D array per (name, dtype), reshaped into views on demand — zero
steady-state allocation.  Arenas are per-thread (:func:`thread_arena`)
so compiled plans can be shared by the threaded executor.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "ScratchArena",
    "thread_arena",
    "linear_slices",
    "linear_batch",
    "linear_batch_many",
    "life_slices",
    "life_batch",
    "life_batch_many",
    "put_many",
    "take_many",
    "widen",
]


class ScratchArena:
    """Reusable scratch buffers: one growable 1D array per name/dtype.

    ``get(name, n, dtype)`` returns a length-``n`` view; the backing
    array grows geometrically and is never shrunk, so after warm-up no
    call allocates.  Not thread-safe — use one arena per thread
    (:func:`thread_arena`).
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: Dict[Tuple[str, object], np.ndarray] = {}

    def get(self, name: str, n: int, dtype) -> np.ndarray:
        key = (name, dtype)
        buf = self._bufs.get(key)
        if buf is None or buf.shape[0] < n:
            cap = max(n, 2 * buf.shape[0] if buf is not None else n)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[key] = buf
        return buf[:n]

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs.values())


_local = threading.local()


def thread_arena() -> ScratchArena:
    """The calling thread's scratch arena (created on first use)."""
    arena = getattr(_local, "arena", None)
    if arena is None:
        arena = ScratchArena()
        _local.arena = arena
    return arena


# ---------------------------------------------------------------------------
# linear (weighted-sum) kernels
# ---------------------------------------------------------------------------

def linear_slices(src, dst, out_sl, in_sls, coeffs, arena) -> None:
    """One region action of a linear stencil, via precomputed slices.

    Bit-identical to :meth:`LinearStencilOperator.apply`: the first tap
    multiplies into the output, each further tap multiplies into scratch
    and adds in place — the same per-point float sequence as
    ``out += view * c``, minus the temporary allocation.
    """
    out = dst[out_sl]
    np.multiply(src[in_sls[0]], coeffs[0], out=out)
    if len(coeffs) > 1:
        tmp = arena.get("lin", out.size, out.dtype).reshape(out.shape)
        for sl, c in zip(in_sls[1:], coeffs[1:]):
            np.multiply(src[sl], c, out=tmp)
            np.add(out, tmp, out=out)


def widen(idx, base, arena, name: str = "bidx") -> np.ndarray:
    """``idx + base`` as ``np.intp`` in arena buffer ``name``: a batch
    unit's one index pass.  A copy then an in-place add: ``np.add(idx,
    base, out=, dtype=np.intp)`` allocates a ufunc cast buffer per
    call."""
    ish = arena.get(name, idx.shape[0], np.intp)
    np.copyto(ish, idx)
    if base:
        np.add(ish, base, out=ish)
    return ish


def take_many(flat, ish, shift, out, arena) -> None:
    """``out[:] = flat[:, ish + shift]`` over a C-contiguous ``[N, P]``
    ``flat``: shifting the indices, not the view, keeps the source
    contiguous so ``take`` gathers in place."""
    if shift:
        tap = arena.get("btap", ish.shape[0], np.intp)
        ish = np.add(ish, shift, out=tap)
    flat.take(ish, axis=1, out=out, mode="clip")


def put_many(flat, ish, shift, vals) -> None:
    """``flat[:, ish + shift] = vals``, one instance at a time: N 1-D
    scatters beat one 2-D fancy assignment, and write the same values
    to the same places."""
    for row, v in zip(flat, vals):
        row[shift:][ish] = v


def linear_batch(flat_src, flat_dst, idx, base, off_flats, coeffs,
                 arena) -> None:
    """Many same-step actions of a linear stencil as one gather/scatter.

    ``idx`` holds the flat (padded-array) indices of every output
    point; tap ``k`` reads ``flat_src[idx + off_flats[k]]``, gathered
    at the widened ``idx + base``.  The accumulation order per point
    matches the naive operator exactly.
    """
    n = idx.shape[0]
    ish = widen(idx, base, arena)
    acc = arena.get("bacc", n, flat_src.dtype)
    g = arena.get("bg", n, flat_src.dtype)
    flat_src[off_flats[0] - base:].take(ish, out=acc, mode="clip")
    np.multiply(acc, coeffs[0], out=acc)
    for off, c in zip(off_flats[1:], coeffs[1:]):
        flat_src[off - base:].take(ish, out=g, mode="clip")
        np.multiply(g, c, out=g)
        np.add(acc, g, out=acc)
    flat_dst[-base:][ish] = acc


def linear_batch_many(flat_src, flat_dst, idx, off_flats, coeffs,
                      arena) -> None:
    """:func:`linear_batch` across a leading instance axis.

    ``flat_src``/``flat_dst`` are ``[N, P]`` views of N stacked padded
    buffers; ``idx`` holds the per-instance flat indices (identical for
    every instance, so one gather with ``axis=1`` serves the whole
    batch).  Per point the float sequence is exactly the single-instance
    one — the batch axis only widens the arrays.
    """
    n = flat_src.shape[0]
    m = idx.shape[0]
    ish = widen(idx, 0, arena)
    acc = arena.get("bacc", n * m, flat_src.dtype).reshape(n, m)
    g = arena.get("bg", n * m, flat_src.dtype).reshape(n, m)
    take_many(flat_src, ish, off_flats[0], acc, arena)
    np.multiply(acc, coeffs[0], out=acc)
    for off, c in zip(off_flats[1:], coeffs[1:]):
        take_many(flat_src, ish, off, g, arena)
        np.multiply(g, c, out=g)
        np.add(acc, g, out=acc)
    put_many(flat_dst, ish, 0, acc)


# ---------------------------------------------------------------------------
# Game-of-Life kernels
# ---------------------------------------------------------------------------

def life_slices(src, dst, out_sl, in_sls, centre_idx, arena) -> None:
    """One region action of the Conway rule with preallocated buffers.

    ``in_sls`` lists the neighbour slices (centre excluded),
    ``centre_idx`` the centre slice.  All arithmetic is exact integer /
    boolean work, so buffer reuse cannot change results.
    """
    centre = src[centre_idx]
    n = arena.get("nbuf", centre.size, np.uint8).reshape(centre.shape)
    np.copyto(n, src[in_sls[0]])
    for sl in in_sls[1:]:
        np.add(n, src[sl], out=n)
    born = arena.get("b1", centre.size, np.bool_).reshape(centre.shape)
    two = arena.get("b2", centre.size, np.bool_).reshape(centre.shape)
    alive = arena.get("b3", centre.size, np.bool_).reshape(centre.shape)
    np.equal(n, 3, out=born)
    np.equal(n, 2, out=two)
    np.equal(centre, 1, out=alive)
    np.logical_and(alive, two, out=two)
    np.logical_or(born, two, out=born)
    out = dst[out_sl]
    np.copyto(out, born, casting="unsafe")


def life_batch(flat_src, flat_dst, idx, base, off_flats, centre_off,
               arena) -> None:
    """Batched Conway rule over flat indices (gather → rule → scatter)."""
    m = idx.shape[0]
    ish = widen(idx, base, arena)
    n = arena.get("nbuf", m, np.uint8)
    g = arena.get("gbuf", m, np.uint8)
    flat_src[off_flats[0] - base:].take(ish, out=n, mode="clip")
    for off in off_flats[1:]:
        flat_src[off - base:].take(ish, out=g, mode="clip")
        np.add(n, g, out=n)
    centre = arena.get("cbuf", m, np.uint8)
    flat_src[centre_off - base:].take(ish, out=centre, mode="clip")
    born = arena.get("b1", m, np.bool_)
    two = arena.get("b2", m, np.bool_)
    alive = arena.get("b3", m, np.bool_)
    np.equal(n, 3, out=born)
    np.equal(n, 2, out=two)
    np.equal(centre, 1, out=alive)
    np.logical_and(alive, two, out=two)
    np.logical_or(born, two, out=born)
    out = arena.get("obuf", m, np.uint8)
    np.copyto(out, born, casting="unsafe")
    flat_dst[-base:][ish] = out


def life_batch_many(flat_src, flat_dst, idx, off_flats, centre_off,
                    arena) -> None:
    """:func:`life_batch` across a leading instance axis (exact
    integer/boolean work, so the widened buffers cannot change results).
    """
    nn = flat_src.shape[0]
    m = idx.shape[0]
    ish = widen(idx, 0, arena)
    n = arena.get("nbuf", nn * m, np.uint8).reshape(nn, m)
    g = arena.get("gbuf", nn * m, np.uint8).reshape(nn, m)
    take_many(flat_src, ish, off_flats[0], n, arena)
    for off in off_flats[1:]:
        take_many(flat_src, ish, off, g, arena)
        np.add(n, g, out=n)
    centre = arena.get("cbuf", nn * m, np.uint8).reshape(nn, m)
    take_many(flat_src, ish, centre_off, centre, arena)
    born = arena.get("b1", nn * m, np.bool_).reshape(nn, m)
    two = arena.get("b2", nn * m, np.bool_).reshape(nn, m)
    alive = arena.get("b3", nn * m, np.bool_).reshape(nn, m)
    np.equal(n, 3, out=born)
    np.equal(n, 2, out=two)
    np.equal(centre, 1, out=alive)
    np.logical_and(alive, two, out=two)
    np.logical_or(born, two, out=born)
    out = arena.get("obuf", nn * m, np.uint8).reshape(nn, m)
    np.copyto(out, born, casting="unsafe")
    put_many(flat_dst, ish, 0, out)
