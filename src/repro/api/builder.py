"""ScheduleBuilder — StencilSpec + RunConfig -> schedule (+ lattice).

The second pipeline stage: turn a stencil spec and a
:class:`~repro.api.config.RunConfig` into the
:class:`~repro.runtime.schedule.RegionSchedule` every backend consumes
(and, for the tessellation family, the :class:`TessLattice` the
lattice-walking backends and the distributed runtimes need).  This is
the scheme dispatch that used to live privately inside the CLI —
hoisted here so the CLI, the autotuner, the bench harness and the
examples all build schedules identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api.config import RunConfig
from repro.stencils.spec import StencilSpec

__all__ = ["BuiltSchedule", "ScheduleBuilder", "SCHEMES",
           "SCHEDULE_NAMES"]

#: schemes the builder can construct (mirrors the CLI choices)
SCHEMES = ["naive", "spatial", "tess", "tess-unmerged", "diamond",
           "pochoir", "mwd", "skewed", "hexagonal", "overlapped"]

#: configuration scheme name -> the ``RegionSchedule.scheme`` its build
#: carries (the plan-cache key holds the latter)
SCHEDULE_NAMES = {
    "tess": "tessellation-merged",
    "tess-unmerged": "tessellation",
    "pochoir": "cache-oblivious+ws",
    "skewed": "time-skewed",
}


@dataclass
class BuiltSchedule:
    """What one build produces: schedule, optional lattice, identity."""

    schedule: object  #: RegionSchedule
    lattice: object = None  #: TessLattice for the tessellation family
    #: parameters the schedule was derived from (plan-cache identity)
    params: Tuple = ()


class ScheduleBuilder:
    """Build region schedules (and lattices) from a RunConfig."""

    def default_shape(self, spec: StencilSpec) -> Tuple[int, ...]:
        return {1: (20_000,), 2: (256, 256), 3: (48, 48, 48)}[spec.ndim]

    def lattice(self, spec: StencilSpec, shape: Tuple[int, ...],
                config: RunConfig):
        """The tessellation lattice for ``config`` (tess family only)."""
        from repro.core import make_lattice

        return make_lattice(
            spec, shape, config.b,
            core_widths=config.core_widths,
            uncut_dims=config.uncut_dims,
        )

    def plan_key(self, spec: StencilSpec, config: RunConfig,
                 shape: Tuple[int, ...]) -> Tuple:
        """The plan-cache key of what :meth:`build` would return.

        Derived from the configuration alone, without building: equal
        to :func:`repro.engine.cache.plan_key` of the built schedule
        with the default lowering options.  A builder that builds
        differently from this one must key differently too.
        """
        from repro.engine.cache import make_key

        scheme = SCHEDULE_NAMES.get(config.scheme, config.scheme)
        return make_key(spec, tuple(int(n) for n in shape), config.steps,
                        scheme, config.tile_params())

    def build(self, spec: StencilSpec, config: RunConfig,
              shape: Optional[Tuple[int, ...]] = None) -> BuiltSchedule:
        """Construct the schedule (+ lattice) for one configuration.

        Scheme-specific default tile parameters match the historical
        CLI behaviour exactly; ``config.mutations`` are applied last
        (and are part of the returned identity ``params`` so mutated
        schedules never collide with clean ones in the plan cache).
        """
        from repro.baselines import (
            diamond_schedule, hexagonal_schedule, mwd_schedule,
            naive_schedule, overlapped_schedule, skewed_schedule,
            spatial_schedule, trapezoid_schedule,
        )
        from repro.core.schedules import tess_schedule
        from repro.runtime import RegionSchedule, levelize

        scheme = config.scheme
        steps = config.steps
        b = config.b
        if shape is None:
            shape = (tuple(config.shape) if config.shape is not None
                     else self.default_shape(spec))
        shape = tuple(int(n) for n in shape)

        lattice = None
        if scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
            )
        if any(n == 0 for n in shape):
            # empty interior: every scheme degenerates to an empty
            # schedule (the lattice builders cannot even represent a
            # 0-cell axis)
            sched = RegionSchedule(
                scheme=SCHEDULE_NAMES.get(scheme, scheme), shape=shape,
                steps=steps)
        elif scheme == "naive":
            sched = naive_schedule(spec, shape, steps, chunks=8)
        elif scheme == "spatial":
            tile = config.tile or tuple(max(4, n // 8) for n in shape)
            sched = spatial_schedule(spec, shape, steps, tile)
        elif scheme in ("tess", "tess-unmerged"):
            lattice = self.lattice(spec, shape, config)
            sched = tess_schedule(spec, shape, lattice, steps,
                                  merged=(scheme == "tess"))
        elif scheme == "diamond":
            sched = diamond_schedule(spec, shape, b, steps)
        elif scheme == "pochoir":
            sched = levelize(spec, trapezoid_schedule(
                spec, shape, steps, base_dt=max(2, b // 2)))
        elif scheme == "mwd":
            sched = mwd_schedule(spec, shape, b, steps)
        elif scheme == "skewed":
            width = max(spec.slopes[0], max(4, shape[0] // 8))
            sched = skewed_schedule(spec, shape, steps, width)
        elif scheme == "hexagonal":
            sched = hexagonal_schedule(spec, shape, b, steps,
                                       hex_width=max(b, 2))
        else:  # overlapped
            tile = config.tile or tuple(max(4, n // 8) for n in shape)
            sched = overlapped_schedule(spec, shape, steps, tile,
                                        max(1, b // 2))

        if config.mutations:
            from repro.runtime.mutations import apply_mutation

            for spec_str in config.mutations:
                sched = apply_mutation(sched, spec_str)

        return BuiltSchedule(schedule=sched, lattice=lattice,
                             params=config.tile_params())
