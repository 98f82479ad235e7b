"""Slab partitioning of the tessellated grid across ranks.

The data space is cut into contiguous slabs along one axis (dimension
0 by default — the standard distributed-stencil decomposition); a
tessellation block is *owned* by the rank whose slab contains the low
corner of its base interval along the partition axis.  Because block
update regions extend at most ``(b-1)·σ`` beyond their base and reads
one more slope, a ghost band of width ``b·σ + max base width`` around
each slab bounds everything a rank ever reads or writes outside its
own slab.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.profiles import TessLattice
from repro.stencils.spec import region_is_empty


@dataclass(frozen=True)
class SlabPartition:
    """Contiguous slab partition along one axis."""

    shape: Tuple[int, ...]
    ranks: int
    axis: int = 0

    def __post_init__(self):
        if self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if not 0 <= self.axis < len(self.shape):
            raise ValueError(f"axis {self.axis} out of range")
        if self.ranks > self.shape[self.axis]:
            raise ValueError(
                f"{self.ranks} ranks exceed extent "
                f"{self.shape[self.axis]} along axis {self.axis}"
            )

    def bounds(self) -> List[Tuple[int, int]]:
        """Half-open slab interval of every rank along the axis."""
        n = self.shape[self.axis]
        cuts = [round(r * n / self.ranks) for r in range(self.ranks + 1)]
        return [(cuts[r], cuts[r + 1]) for r in range(self.ranks)]

    def owner_of(self, coord: int) -> int:
        """Rank owning a coordinate along the partition axis."""
        n = self.shape[self.axis]
        c = min(max(int(coord), 0), n - 1)
        for r, (lo, hi) in enumerate(self.bounds()):
            if lo <= c < hi:
                return r
        raise AssertionError("unreachable: bounds cover [0, n)")

    def owner_of_box(self, box: Sequence[Tuple[int, int]]) -> int:
        """Rank owning a block: the owner of its low corner."""
        return self.owner_of(box[self.axis][0])

    def ghost_width(self, lattice: TessLattice) -> int:
        """Band width that bounds all out-of-slab reads and writes.

        A block is owned by the rank holding the low corner of its
        bounding box, so everything it touches lies within the block's
        full axis extent — ``2(b-1)·σ`` of dilation plus the widest
        base interval — plus one read slope.
        """
        prof = lattice.profiles[self.axis]
        base = prof.core_width if prof.core_width is not None else 1
        plateau = max(
            (hi - lo for lo, hi in prof.plateaus()), default=base
        )
        return (2 * (lattice.b - 1) + 1) * prof.sigma + max(base, plateau)


def build_ownership(lattice: TessLattice, part: SlabPartition):
    """Per-rank, per-stage block ownership of the tessellation plan.

    Returns ``(plan, owned)`` where ``plan`` is the
    :class:`~repro.core.blocks.PhasePlan` and ``owned[r][s]`` lists the
    blocks of stage ``s`` owned by rank ``r`` — the single definition
    shared by the simulated executor and the structural sanitizer, so
    both agree on who computes what.
    A block belongs to the rank holding the low corner of its clipped
    bounding box; degenerate (empty) blocks fall to rank 0, which never
    applies their (empty) regions.
    """
    from repro.core.blocks import build_phase_plan

    shape = part.shape
    slopes = tuple(p.sigma for p in lattice.profiles)
    plan = build_phase_plan(lattice, slopes)
    b = lattice.b

    def _owner(blk) -> int:
        bbox = blk.bounding_box(b, slopes, shape)
        if region_is_empty(bbox):
            return 0
        return part.owner_of_box(bbox)

    owned = [
        [[blk for blk in sp.blocks if _owner(blk) == r]
         for sp in plan.stages]
        for r in range(part.ranks)
    ]
    return plan, owned
