"""Tessellation blocks and their per-step update rectangles.

A stage-``i`` block is identified by its set of *glued* dimensions
``S`` (``|S| = i``) and, per dimension, a base interval: a lattice
*plateau* for glued dimensions (the starting region of the block) or a
lattice *core* for ending dimensions.  At phase-local step ``s`` the
block updates the hyper-rectangle

* glued dims: base dilated by ``s·σ_j`` (the block grows from its
  starting region),
* ending dims: base dilated by ``(b-1-s)·σ_j`` (the block shrinks
  toward its ending region),

clipped to the domain — exactly the ``xmin``/``xmax`` bounds the
paper's artifact C code computes (§4.2, coarsened form).  Because every
per-step update set is a rectangle, a whole block step is one
vectorised :meth:`~repro.stencils.spec.StencilSpec.apply_region` call.

:meth:`TessBlock.region_at` is the scalar form (block executors,
distributed ranks, the sanitizer); :func:`block_rectangles` evaluates
the same formula for every block of a stage and every ``s`` at once,
which is how :func:`repro.core.schedules.tess_schedule` builds its
rectangle table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.profiles import Interval, TessLattice
from repro.stencils.spec import Region, region_size


@dataclass(frozen=True)
class TessBlock:
    """One tessellation block of one stage.

    Attributes
    ----------
    stage: number of glued dimensions ``i``.
    glued: the glued dimension set (sorted tuple).
    base: per-dimension base interval in extended coordinates —
        a plateau for glued dims, a core for ending dims.
    """

    stage: int
    glued: Tuple[int, ...]
    base: Tuple[Interval, ...]

    def region_at(self, s: int, b: int, slopes: Sequence[int],
                  shape: Sequence[int]) -> Region:
        """Clipped update rectangle at phase-local step ``s``."""
        if not 0 <= s < b:
            raise ValueError(f"local step {s} out of range for b={b}")
        out: List[Tuple[int, int]] = []
        gset = set(self.glued)
        for j, ((lo, hi), sig, n) in enumerate(zip(self.base, slopes, shape)):
            r = s * sig if j in gset else (b - 1 - s) * sig
            out.append((max(0, lo - r), min(int(n), hi + r)))
        return tuple(out)

    def bounding_box(self, b: int, slopes: Sequence[int],
                     shape: Sequence[int]) -> Region:
        """Union of all per-step rectangles (max dilation per dim)."""
        out: List[Tuple[int, int]] = []
        for (lo, hi), sig, n in zip(self.base, slopes, shape):
            r = (b - 1) * sig
            out.append((max(0, lo - r), min(int(n), hi + r)))
        return tuple(out)

    def total_points(self, b: int, slopes: Sequence[int],
                     shape: Sequence[int]) -> int:
        """Total point-updates this block performs in a full phase."""
        return sum(
            region_size(self.region_at(s, b, slopes, shape))
            for s in range(b)
        )


def block_rectangles(bases: Sequence[Sequence[Interval]],
                     glued_sets: Sequence[Sequence[int]], b: int,
                     slopes: Sequence[int], shape: Sequence[int]):
    """:meth:`TessBlock.region_at` for a whole product of blocks.

    The blocks are ``itertools.product(*bases)`` (last axis fastest).
    For each glued set — one *part* per set, so the §4.3 merged
    ``B_d``/``B_0`` pair can share its plateau bases — returns
    ``(blk, s, lo, hi)`` with one row per non-empty ``(block, s)``
    rectangle, block-major then ``s``.  ``blk`` numbers, in product
    order, the blocks that have a non-empty rectangle in some part;
    the second return value is how many such numbers there are.
    """
    d = len(bases)
    ks = np.arange(b, dtype=np.int64)
    geo = []
    for glued in glued_sets:
        dims = []
        for j in range(d):
            base = np.array(bases[j], dtype=np.int64).reshape(-1, 2)
            r = (ks if j in glued else b - 1 - ks) * int(slopes[j])
            lo = np.maximum(0, base[:, :1] - r)
            hi = np.minimum(int(shape[j]), base[:, 1:] + r)
            dims.append((lo, hi))
        geo.append(dims)
    # an axis interval empty at every s in every part joins no block
    keep = [
        np.flatnonzero(np.logical_or.reduce(
            [(dims[j][1] > dims[j][0]).any(axis=1) for dims in geo]))
        for j in range(d)
    ]
    counts = [len(k) for k in keep]
    nblocks = int(np.prod(counts))
    parts = []
    for dims in geo:
        lohi = [(lo[keep[j]], hi[keep[j]]) for j, (lo, hi) in enumerate(dims)]
        mask = np.ones(counts + [b], dtype=bool)
        for j, (lo, hi) in enumerate(lohi):
            axis_shape = [1] * d + [b]
            axis_shape[j] = counts[j]
            mask &= (hi > lo).reshape(axis_shape)
        blk, s = np.nonzero(mask.reshape(nblocks, b))
        at = np.unravel_index(blk, counts)
        parts.append((
            blk, s,
            np.stack([lo[at[j], s] for j, (lo, _) in enumerate(lohi)], 1),
            np.stack([hi[at[j], s] for j, (_, hi) in enumerate(lohi)], 1),
        ))
    return parts, nblocks


def enumerate_stage_blocks(lattice: TessLattice, stage: int,
                           slopes: Sequence[int]) -> Iterator[TessBlock]:
    """All stage-``stage`` blocks whose footprint touches the domain.

    Requires every axis profile to expose plateaus (non-empty gaps) —
    true for uniform/coarse/stretched profiles with the default
    periods.
    """
    d = lattice.ndim
    b = lattice.b
    shape = lattice.shape
    cores = [p.cores for p in lattice.profiles]
    plateaus = [p.plateaus() for p in lattice.profiles]
    for S in itertools.combinations(range(d), stage):
        gset = set(S)
        choices = [
            plateaus[j] if j in gset else cores[j] for j in range(d)
        ]
        if any(len(c) == 0 for c in choices):
            # an axis with no cores (uncut) never acts as an ending
            # dimension; an axis with no plateau never acts as glued —
            # this subset simply contributes no blocks
            continue
        for base in itertools.product(*choices):
            blk = TessBlock(stage=stage, glued=tuple(S), base=tuple(base))
            bbox = blk.bounding_box(b, slopes, shape)
            if region_size(bbox) == 0:
                continue
            yield blk


@dataclass(frozen=True)
class StagePlan:
    """All blocks of one stage of a phase (they run concurrently)."""

    stage: int
    blocks: Tuple[TessBlock, ...]


@dataclass(frozen=True)
class PhasePlan:
    """One full phase: stages ``0..d`` in order, barrier between each."""

    lattice: TessLattice
    slopes: Tuple[int, ...]
    stages: Tuple[StagePlan, ...]

    @property
    def b(self) -> int:
        return self.lattice.b

    def num_blocks(self) -> int:
        return sum(len(sp.blocks) for sp in self.stages)

    def num_barriers(self) -> int:
        """Synchronisations per phase (one after each stage)."""
        return len(self.stages)


def build_phase_plan(lattice: TessLattice,
                     slopes: Sequence[int]) -> PhasePlan:
    """Enumerate every stage's blocks for one phase of this lattice."""
    d = lattice.ndim
    stages = tuple(
        StagePlan(
            stage=i,
            blocks=tuple(enumerate_stage_blocks(lattice, i, slopes)),
        )
        for i in range(d + 1)
    )
    return PhasePlan(lattice=lattice, slopes=tuple(slopes), stages=stages)
