"""Executable message-passing simulation of the distributed scheme.

Each rank holds its own pair of (full-size, for simplicity) ping-pong
arrays but only relies on values inside its slab plus a ghost band.
Execution follows the tessellation's stage structure:

1. every rank executes the blocks it owns (by base low corner);
2. at the stage barrier, neighbouring ranks exchange *boundary bands*:
   each rank sends the ghost-band-wide strip adjacent to its slab
   edges — both parity buffers, since a band's points sit at mixed
   time levels mid-phase.

The result is compared bitwise against the naive reference in the
test-suite: a missing exchange makes the numerics diverge, so the §4.1
communication plan is *validated*, not just asserted.  A band narrower
than the lattice requires is refused before execution.
Message counts/bytes are tallied into :class:`CommStats`.

Fault tolerance (see ``docs/resilience.md``): the exchange consults an
optional :class:`~repro.runtime.faults.FaultPlan` — a ``drop`` fault
skips a rank's boundary-band send, a ``garble`` fault delivers NaN —
and a **divergence detector** cross-checks, after every stage, that
each neighbour pair agrees on every point either rank updated inside
their shared ``±ghost`` window (the induction invariant "arrays
correct on slab ⊕ ghost", checked where it is falsifiable).  Phase
boundaries are global consistency points — every rank's pair is
complete there — so with ``resilient=True`` the simulator snapshots
all ranks' buffers per phase and, on detected divergence, restores and
replays the phase (re-sending what a burned-out transient fault
dropped).  Replay is deterministic, so a recovered run is bit-identical
to a fault-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.profiles import TessLattice
from repro.distributed.partition import SlabPartition, build_ownership
from repro.runtime.errors import GhostDivergenceError
from repro.runtime.faults import FaultPlan
from repro.runtime.tracing import ExecutionTrace
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec, region_is_empty


@dataclass
class CommStats:
    """Tally of the exchanges (and injected faults) of a distributed run."""

    messages: int = 0
    bytes_sent: int = 0
    stage_bytes: Dict[int, int] = field(default_factory=dict)
    #: exchanges skipped by injected ``drop`` faults
    drops: int = 0
    #: exchanges delivered as NaN by injected ``garble`` faults
    garbles: int = 0
    #: neighbour-pair consistency checks run by the detector
    divergence_checks: int = 0
    #: phases replayed from their checkpoint after a detection
    phase_restarts: int = 0

    def record(self, stage_idx: int, nbytes: int) -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        self.stage_bytes[stage_idx] = (
            self.stage_bytes.get(stage_idx, 0) + nbytes
        )

    def describe_resilience(self) -> str:
        """One-line report of the failure/recovery counters."""
        return (
            f"drops={self.drops} garbles={self.garbles} "
            f"phase_restarts={self.phase_restarts} "
            f"divergence_checks={self.divergence_checks}"
        )

    @property
    def had_faults(self) -> bool:
        return bool(self.drops or self.garbles or self.phase_restarts)


def _execute_distributed(
    spec: StencilSpec,
    grid: Grid,
    lattice: TessLattice,
    steps: int,
    ranks: int,
    axis: int = 0,
    *,
    fault_plan: Optional[FaultPlan] = None,
    check_divergence: bool = False,
    resilient: bool = False,
    max_phase_restarts: int = 2,
    ghost_override: Optional[int] = None,
    trace: Optional[ExecutionTrace] = None,
    budget=None,
) -> Tuple[np.ndarray, CommStats]:
    """Rank simulation (the ``distributed`` backend's engine).

    Returns the assembled interior at time ``steps`` plus the
    communication statistics.  Dirichlet boundaries only (like the
    paper's evaluated configuration).

    ``fault_plan`` injects ``drop``/``garble`` exchange faults
    (addressed by global stage counter, ``task`` = source rank);
    ``check_divergence`` runs the neighbour-consistency detector after
    every stage; ``resilient`` additionally checkpoints each phase and
    replays it on detection (up to ``max_phase_restarts`` times per
    phase) instead of raising.  ``ghost_override`` widens the exchanged
    band beyond the lattice-derived width; a band narrower than that
    can serve wrong values, so it raises :class:`ValueError` naming
    the required width before any rank replica is allocated (with
    ``sanitize=True``, ``Session``'s pre-flight reports it first).
    """
    if spec.is_periodic:
        raise ValueError("distributed executor assumes Dirichlet boundaries")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if resilient:
        check_divergence = True
    part = SlabPartition(grid.shape, ranks, axis=axis)
    slopes = tuple(p.sigma for p in lattice.profiles)
    b = lattice.b
    ghost_required = part.ghost_width(lattice)
    ghost = ghost_required if ghost_override is None else int(ghost_override)
    if ghost < ghost_required:
        raise ValueError(
            f"ghost band width {ghost} is below the required width "
            f"{ghost_required} for this lattice over {ranks} ranks along "
            f"axis {axis}; pass ghost >= {ghost_required} or leave it "
            f"unset")
    bounds = part.bounds()
    itemsize = np.dtype(spec.dtype).itemsize

    # per-rank replicas of the ping-pong pair
    locals_: List[List[np.ndarray]] = [
        [buf.copy() for buf in grid.buffers] for _ in range(ranks)
    ]
    # block ownership, fixed across phases (shared definition)
    plan, owned = build_ownership(lattice, part)
    stats = CommStats()
    interior = spec.interior_slices(grid.shape)
    n_axis = grid.shape[axis]

    def _axis_window(lo: int, hi: int) -> Tuple[slice, ...]:
        window = [slice(None)] * len(grid.shape)
        window[axis] = slice(max(0, lo), min(n_axis, hi))
        return tuple(window)

    def exchange(stage_idx: int, dirty: List[np.ndarray]) -> None:
        """Writers push their fresh points to neighbours.

        Per stage, every grid point is updated by at most one block
        (the tessellation's uniqueness property), so each rank's dirty
        mask identifies the values it is authoritative for; copying
        those — both parity buffers, the pair a block leaves behind —
        to neighbours whose ghost range covers them restores the
        induction invariant (arrays correct on slab ⊕ ghost).  Blocks
        of different stage families overlap in axis extent with
        different owners for d ≥ 2, which is why dirtiness is tracked
        per point, not per axis line.
        """
        for src in range(ranks):
            fault, probed = None, False
            for dst in (src - 1, src + 1):
                if not 0 <= dst < ranks:
                    continue
                dlo, dhi = bounds[dst]
                window = _axis_window(dlo - ghost, dhi + ghost)
                mask = dirty[src][window]
                pts = int(mask.sum())
                if pts == 0:
                    continue
                if fault_plan is not None and not probed:
                    # probe lazily so a fault only burns a hit when a
                    # transfer was actually due from this source rank
                    fault = fault_plan.exchange_fault(stage_idx, src)
                    probed = True
                if fault is not None and fault.kind == "drop":
                    stats.drops += 1
                    if trace is not None:
                        trace.record_event(
                            "exchange-fault", stage_idx,
                            detail=f"drop {src}->{dst}")
                    continue
                for parity in (0, 1):
                    src_int = locals_[src][parity][interior][window]
                    dst_int = locals_[dst][parity][interior][window]
                    if fault is not None and fault.kind == "garble":
                        if np.issubdtype(spec.dtype, np.integer):
                            # ints cannot hold NaN; deliver off-by-one
                            # garbage the detector can still flag
                            np.copyto(dst_int, src_int + 1, where=mask)
                        else:
                            np.copyto(dst_int, np.nan, where=mask)
                    else:
                        np.copyto(dst_int, src_int, where=mask)
                if fault is not None and fault.kind == "garble":
                    stats.garbles += 1
                    if trace is not None:
                        trace.record_event(
                            "exchange-fault", stage_idx,
                            detail=f"garble {src}->{dst}")
                stats.record(stage_idx, 2 * pts * itemsize)

    def detect_divergence(stage_idx: int, dirty: List[np.ndarray]) -> None:
        """Cross-check neighbour pairs on their shared boundary window.

        After a correct exchange, ranks ``r`` and ``r+1`` must agree on
        every point *either* of them updated this stage inside the
        ``±ghost_required`` window around their boundary: the updater
        is authoritative and the window lies inside both receive
        ranges.  Points updated by other ranks are excluded (they are
        legitimately unknown to one side).
        """
        for r in range(ranks - 1):
            hi = bounds[r][1]
            window = _axis_window(hi - ghost_required, hi + ghost_required)
            mask = dirty[r][window] | dirty[r + 1][window]
            stats.divergence_checks += 1
            if not mask.any():
                continue
            bad = 0
            for parity in (0, 1):
                a = locals_[r][parity][interior][window]
                c = locals_[r + 1][parity][interior][window]
                # exchanged copies are bitwise-identical, so exact
                # inequality is the right test; NaN != NaN also flags
                # garbled payloads
                bad += int(((a != c) & mask).sum())
            if bad:
                raise GhostDivergenceError(stage_idx, r, r + 1, bad)

    from repro.api.driver import phase_windows

    if budget is not None:
        budget.check("distributed entry")
    stage_counter = 0
    for tt, span in phase_windows(0, steps, b):
        if budget is not None:
            budget.check(f"phase t={tt}")
        phase_ckpt = (
            [[buf.copy() for buf in bufs] for bufs in locals_]
            if resilient else None
        )
        attempts = 0
        while True:
            try:
                for si, sp in enumerate(plan.stages):
                    stage_idx = stage_counter + si
                    if budget is not None:
                        budget.check(f"stage {stage_idx}")
                    dirty = [np.zeros(grid.shape, dtype=bool)
                             for _ in range(ranks)]
                    for r in range(ranks):
                        bufs = locals_[r]
                        for blk in owned[r][si]:
                            for s in range(span):
                                region = blk.region_at(s, b, slopes,
                                                       grid.shape)
                                if region_is_empty(region):
                                    continue
                                spec.apply_region(
                                    bufs[(tt + s) % 2],
                                    bufs[(tt + s + 1) % 2],
                                    region,
                                )
                                idx = tuple(slice(lo, hi)
                                            for lo, hi in region)
                                dirty[r][idx] = True
                    exchange(stage_idx, dirty)
                    if check_divergence:
                        detect_divergence(stage_idx, dirty)
                break
            except GhostDivergenceError:
                attempts += 1
                if not resilient or attempts > max_phase_restarts:
                    raise
                for r in range(ranks):
                    for parity in (0, 1):
                        np.copyto(locals_[r][parity],
                                  phase_ckpt[r][parity])
                stats.phase_restarts += 1
                if trace is not None:
                    trace.record_event(
                        "restore", stage_counter,
                        detail=f"phase replay at t={tt} "
                               f"(attempt {attempts + 1})")
        stage_counter += len(plan.stages)

    # assemble: each rank contributes its own slab at the final time
    out = np.zeros(grid.shape, dtype=spec.dtype)
    for r, (lo, hi) in enumerate(bounds):
        sl = [slice(None)] * len(grid.shape)
        sl[axis] = slice(lo, hi)
        out[tuple(sl)] = locals_[r][steps % 2][interior][tuple(sl)]
    return out, stats
