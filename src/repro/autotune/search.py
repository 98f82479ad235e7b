"""Tile-size search: simulated-machine or measured-wallclock objective.

Two objectives share one search:

* ``objective="simulate"`` (default, historical behaviour) scores a
  configuration by simulated execution time on a given machine/core
  count — the search never executes the stencil, so it is cheap enough
  to sweep dozens of configurations;
* ``objective="wallclock"`` really runs each candidate schedule through
  the compiled engine and scores it by measured min-of-``repeat``
  seconds.  Probes fetch their plan from the engine's
  :class:`~repro.engine.cache.PlanCache` keyed by the tile parameters,
  so re-probing a configuration (grid-search/coordinate-descent
  revisits, repeat sweeps) re-times the *same* compiled plan instead of
  recompiling — the second probe of identical params is a cache hit,
  observable on ``cache.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.machine.model import SimResult, simulate
from repro.machine.spec import MachineSpec
from repro.stencils.spec import StencilSpec


@dataclass(frozen=True)
class MeasuredResult:
    """Wall-clock analogue of :class:`SimResult` for measured probes."""

    time_s: float
    points: int

    @property
    def gstencils(self) -> float:
        if self.time_s <= 0:
            return 0.0
        return self.points / self.time_s / 1e9


@dataclass(frozen=True)
class TuneResult:
    """One evaluated configuration."""

    b: int
    core_widths: Tuple[int, ...]
    result: Union[SimResult, MeasuredResult]

    @property
    def time_s(self) -> float:
        return self.result.time_s

    @property
    def measured(self) -> bool:
        return isinstance(self.result, MeasuredResult)

    def describe(self) -> str:
        kind = "measured" if self.measured else "simulated"
        return (
            f"b={self.b} core_widths={self.core_widths}: "
            f"{self.result.gstencils:.3f} GStencil/s "
            f"({self.result.time_s * 1e3:.2f} ms {kind})"
        )


def candidate_depths(shape: Sequence[int], steps: int,
                     slopes: Sequence[int]) -> List[int]:
    """Sensible time-tile depths: powers of two up to the geometry cap."""
    cap = min(
        max(1, (min(int(n) for n in shape)) // (4 * max(slopes))),
        max(1, steps),
    )
    out = []
    b = 2
    while b <= cap:
        out.append(b)
        b *= 2
    return out or [1]


def _evaluate(spec: StencilSpec, shape: Sequence[int], steps: int,
              machine: MachineSpec, cores: int, b: int,
              core_widths: Sequence[int], merged: bool,
              objective: str = "simulate", cache=None,
              repeat: int = 3) -> Optional[TuneResult]:
    from repro.api import RunConfig, Session

    config = RunConfig(
        scheme="tess" if merged else "tess-unmerged",
        shape=tuple(int(n) for n in shape), steps=steps, b=b,
        core_widths=tuple(int(w) for w in core_widths),
    )
    session = Session(spec, cache=cache)
    try:
        built = session.build(config)
    except ValueError:
        return None
    sched = built.schedule
    # the table, not the object view: a probe never builds actions
    table = sched.table()
    if not table.num_tasks:
        return None
    if objective == "wallclock":
        from repro.perf.wallclock import time_plan

        plan = session.lower(sched, built.params)
        secs, _ = time_plan(plan, repeat=repeat, warmup=1)
        res: Union[SimResult, MeasuredResult] = MeasuredResult(
            time_s=secs, points=int(table.points().sum()))
    elif objective == "simulate":
        res = simulate(spec, sched, machine, cores)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return TuneResult(b=b, core_widths=tuple(core_widths), result=res)


def grid_search(
    spec: StencilSpec,
    shape: Sequence[int],
    steps: int,
    machine: MachineSpec,
    cores: int,
    depths: Optional[Iterable[int]] = None,
    width_factors: Iterable[int] = (1, 2, 4),
    merged: bool = True,
    objective: str = "simulate",
    cache=None,
    repeat: int = 3,
) -> List[TuneResult]:
    """Sweep ``b`` × isotropic core-width factors; sorted best-first.

    ``width_factors`` multiply the per-axis slope to form core widths
    (the paper sets "other parameters to the half or double of the
    blocking size" — the same neighbourhood this sweep covers).
    ``objective="wallclock"`` times compiled plans instead of
    simulating (see module docstring); ``cache``/``repeat`` configure
    that path.
    """
    if depths is None:
        depths = candidate_depths(shape, steps, spec.slopes)
    results: List[TuneResult] = []
    for b in depths:
        for f in width_factors:
            widths = [max(sg, f * sg * b // 2) for sg in spec.slopes]
            r = _evaluate(spec, shape, steps, machine, cores, b, widths,
                          merged, objective=objective, cache=cache,
                          repeat=repeat)
            if r is not None:
                results.append(r)
    results.sort(key=lambda r: r.time_s)
    return results


def tune_tessellation(
    spec: StencilSpec,
    shape: Sequence[int],
    steps: int,
    machine: MachineSpec,
    cores: int,
    merged: bool = True,
    rounds: int = 2,
    objective: str = "simulate",
    cache=None,
    repeat: int = 3,
) -> TuneResult:
    """Coordinate descent: best ``b`` first, then per-axis widths.

    Starts from the best isotropic grid-search point and repeatedly
    tries halving/doubling each axis width independently (anisotropic
    coarsening is the point of §4.2 — e.g. the paper's 128×256×64
    Heat-2D blocking).  With ``objective="wallclock"`` every probe
    scores by measured compiled-plan time; configurations revisited
    across rounds hit the plan cache instead of recompiling.
    """
    coarse = grid_search(spec, shape, steps, machine, cores, merged=merged,
                         objective=objective, cache=cache, repeat=repeat)
    if not coarse:
        raise ValueError("no feasible tessellation configuration found")
    best = coarse[0]
    d = spec.ndim
    for _ in range(rounds):
        improved = False
        for axis in range(d):
            for factor in (0.5, 2.0):
                widths = list(best.core_widths)
                w = max(spec.slopes[axis], int(round(widths[axis] * factor)))
                if w == widths[axis]:
                    continue
                widths[axis] = w
                cand = _evaluate(spec, shape, steps, machine, cores,
                                 best.b, widths, merged,
                                 objective=objective, cache=cache,
                                 repeat=repeat)
                if cand is not None and cand.time_s < best.time_s:
                    best = cand
                    improved = True
        if not improved:
            break
    return best
