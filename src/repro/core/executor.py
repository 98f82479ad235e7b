"""Block-level tessellation executors.

Two executors drive the rectangle-per-step block schedule of
:mod:`repro.core.blocks`.  No backend runs them; the tests call them
directly as oracles for the schedule builders and the compiled plans:

* :func:`_run_blocked` — the plain phase/stage structure of §3: per
  phase, stages ``0..d`` in order (barrier after each), every block of
  a stage independent.
* :func:`_run_merged` — §4.3: the last stage of each phase and the first
  stage of the next are fused into one task per block (the
  ``B_d + B_0`` (d+1)-dimensional diamond), alternating lattice levels
  between phases exactly like the artifact code's ``level = 1 - level``.
  This removes one synchronisation per phase and reuses the block's
  working set across the phase boundary.

Both support Dirichlet boundaries only, like the paper's artifact
("In this work we only implement the non-periodic boundary
condition"); periodic runs go through the pointwise executor.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.blocks import TessBlock, build_phase_plan
from repro.core.pointwise import check_lattice
from repro.core.profiles import AxisProfile, TessLattice
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec, region_is_empty, region_size

BlockHook = Callable[[str, int, TessBlock, int], None]
"""Callback ``(kind, phase_start, block, points_updated)``; ``kind`` is
``"stage<i>"`` or ``"merged"``."""


def make_lattice(
    spec: StencilSpec,
    shape: Sequence[int],
    b: int,
    core_widths: Optional[Sequence[int]] = None,
    periods: Optional[Sequence[Optional[int]]] = None,
    phases: Optional[Sequence[int]] = None,
    uncut_dims: Sequence[int] = (),
) -> TessLattice:
    """Convenience lattice builder matching a stencil spec.

    Defaults to the merge-compatible coarse lattice (core width =
    slope, period = ``2·w + 2(b-1)σ``) — the paper's uniform lattice
    when the slope is 1.  Dimensions listed in ``uncut_dims`` get a
    constant profile (§4.2's "leave the unit-stride dimension uncut").
    """
    d = spec.ndim
    shape = tuple(int(n) for n in shape)
    uncut = {int(j) for j in uncut_dims}
    if any(not 0 <= j < d for j in uncut):
        raise ValueError(f"uncut_dims {sorted(uncut)} out of range for d={d}")
    slopes = spec.slopes
    core_widths = (tuple(core_widths) if core_widths is not None
                   else tuple(slopes))
    periods = tuple(periods) if periods is not None else (None,) * d
    phase_offs = tuple(phases) if phases is not None else (0,) * d
    profs = []
    for j in range(d):
        if j in uncut:
            profs.append(AxisProfile.uncut(
                shape[j], b, sigma=slopes[j], periodic=spec.is_periodic))
        else:
            profs.append(AxisProfile.coarse(
                shape[j], b, sigma=slopes[j], core_width=core_widths[j],
                period=periods[j], phase=phase_offs[j],
                periodic=spec.is_periodic))
    return TessLattice(tuple(profs))


def _lattice_slopes(lattice: TessLattice) -> Tuple[int, ...]:
    """Dilation rates of block regions: the profiles' own slopes.

    Regions must grow/shrink in the same units the distance arrays are
    measured in; using a larger profile slope than the stencil's is
    allowed (merely conservative), so dilation always follows the
    profile.
    """
    return tuple(p.sigma for p in lattice.profiles)


def _apply_block_steps(
    spec: StencilSpec,
    grid: Grid,
    block: TessBlock,
    b: int,
    slopes: Sequence[int],
    tt: int,
    span: int,
) -> int:
    """Run a block's clipped steps ``s = 0..span-1`` of phase ``tt``."""
    points = 0
    for s in range(span):
        region = block.region_at(s, b, slopes, grid.shape)
        if region_is_empty(region):
            continue
        src = grid.at(tt + s)
        dst = grid.at(tt + s + 1)
        spec.apply_region(src, dst, region)
        points += region_size(region)
    return points


def _run_stage(
    spec: StencilSpec,
    grid: Grid,
    blocks: Sequence[TessBlock],
    kind: str,
    b: int,
    slopes: Sequence[int],
    tt: int,
    span: int,
    on_block: Optional[BlockHook],
) -> None:
    """Run one stage's blocks for phase ``tt`` (the shared stage body)."""
    for block in blocks:
        n = _apply_block_steps(spec, grid, block, b, slopes, tt, span)
        if on_block is not None:
            on_block(kind, tt, block, n)


def _run_blocked(
    spec: StencilSpec,
    grid: Grid,
    lattice: TessLattice,
    steps: int,
    t0: int = 0,
    on_block: Optional[BlockHook] = None,
    validate: bool = True,
) -> np.ndarray:
    """Unmerged block walk."""
    from repro.api.driver import phase_windows

    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if spec.is_periodic:
        raise ValueError(
            "block executor supports Dirichlet boundaries only; use "
            "run_pointwise for periodic stencils"
        )
    check_lattice(spec, grid, lattice)
    if validate:
        lattice.validate()
    plan = build_phase_plan(lattice, _lattice_slopes(lattice))
    b = lattice.b
    slopes = _lattice_slopes(lattice)
    t_end = t0 + steps
    for tt, span in phase_windows(t0, t_end, b):
        for stage_plan in plan.stages:
            _run_stage(spec, grid, stage_plan.blocks,
                       f"stage{stage_plan.stage}", b, slopes, tt, span,
                       on_block)
    return grid.interior(t_end)


def _merged_bases(lattice: TessLattice) -> List[Tuple[Tuple[int, int], ...]]:
    """Products of plateau intervals — bases of the merged diamonds."""
    plats = [p.plateaus() for p in lattice.profiles]
    if any(len(pl) == 0 for pl in plats):
        raise ValueError("merging requires a plateau on every axis")
    return [tuple(base) for base in itertools.product(*plats)]


def _run_merged(
    spec: StencilSpec,
    grid: Grid,
    lattice: TessLattice,
    steps: int,
    t0: int = 0,
    on_block: Optional[BlockHook] = None,
    validate: bool = True,
) -> np.ndarray:
    """Merged block walk; needs the merging condition (plateau width ==
    core width), which :func:`make_lattice` guarantees by default."""
    from repro.api.driver import phase_windows

    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if spec.is_periodic:
        raise ValueError("merged executor supports Dirichlet boundaries only")
    check_lattice(spec, grid, lattice)
    if validate:
        lattice.validate()
    d = lattice.ndim
    b = lattice.b
    slopes = _lattice_slopes(lattice)
    for j, p in enumerate(lattice.profiles):
        if p.core_width is not None and p.core_width < p.sigma:
            raise ValueError(
                f"merging requires core width >= slope along dim {j} "
                f"(got {p.core_width} < {p.sigma}): a B_0 block's first "
                f"reads must not reach a neighbouring merged diamond"
            )
    levels = [lattice, lattice.shifted_to_plateaus()]
    if validate:
        levels[1].validate()
    plans = [build_phase_plan(lv, slopes) for lv in levels]
    t_end = t0 + steps
    # the lowest active stage (#uncut axes) plays the B_0 role
    omin = sum(1 for p in lattice.profiles if not p.cores)

    # prologue: the very first lowest stage runs unmerged
    span0 = min(b, t_end - t0)
    if span0 > 0:
        _run_stage(spec, grid, plans[0].stages[omin].blocks,
                   f"stage{omin}", b, slopes, t0, span0, on_block)

    level = 0
    for tt, span in phase_windows(t0, t_end, b):
        span_next = min(b, max(0, t_end - tt - b))
        cur = levels[level]
        # interior stages between the merge endpoints
        for stage_plan in plans[level].stages[omin + 1:d]:
            _run_stage(spec, grid, stage_plan.blocks,
                       f"stage{stage_plan.stage}", b, slopes, tt, span,
                       on_block)
        # merged stage: B_d of this phase + B_0 of the next, same base
        all_dims = tuple(range(d))
        for base in _merged_bases(cur):
            bd = TessBlock(stage=d, glued=all_dims, base=base)
            n = _apply_block_steps(spec, grid, bd, b, slopes, tt, span)
            if span_next > 0:
                b0 = TessBlock(stage=0, glued=(), base=base)
                n += _apply_block_steps(
                    spec, grid, b0, b, slopes, tt + b, span_next
                )
            if on_block is not None:
                on_block("merged", tt, bd, n)
        level = 1 - level
    return grid.interior(t_end)
