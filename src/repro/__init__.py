"""repro — a full Python reproduction of "Tessellating Stencils" (SC'17).

Public API surface:

* **the unified execution pipeline** — :mod:`repro.api`
  (:func:`repro.api.run`, :class:`repro.api.Session`,
  :class:`repro.api.RunConfig`, the backend registry);
* stencil kernels and grids — :mod:`repro.stencils`;
* the tessellation scheme (the paper's contribution) — :mod:`repro.core`;
* competing tiling schemes (Pluto-style diamond, Pochoir-style
  cache-oblivious, time skewing, overlapped, naive) —
  :mod:`repro.baselines`;
* task graphs and the threaded runtime — :mod:`repro.runtime`;
* the simulated 2x12-core machine used to regenerate the paper's
  figures — :mod:`repro.machine`;
* analytic performance models — :mod:`repro.perf`;
* tile-size auto-tuning — :mod:`repro.autotune`;
* the per-figure experiment harness — :mod:`repro.bench`.
"""

from repro.stencils import (
    Grid,
    LinearStage,
    StagedSpec,
    StencilSpec,
    get_stencil,
    get_system,
    make_grid,
    make_staged,
    reference_sweep,
    system_names,
)
from repro.core import (
    AxisProfile,
    TessLattice,
    make_lattice,
    run_pointwise,
)
from repro.api import (
    RunConfig,
    RunResult,
    RunStats,
    Session,
    run,
)

__version__ = "4.3.0"

__all__ = [
    "Grid",
    "LinearStage",
    "StagedSpec",
    "StencilSpec",
    "get_stencil",
    "get_system",
    "make_grid",
    "make_staged",
    "reference_sweep",
    "system_names",
    "AxisProfile",
    "TessLattice",
    "make_lattice",
    "run_pointwise",
    "RunConfig",
    "RunResult",
    "RunStats",
    "Session",
    "run",
    "__version__",
]
