"""The paper's primary contribution: the two-level tessellation scheme.

Layered bottom-up:

* :mod:`~repro.core.timefunc` — update-time functions (Lemmas 3.2/3.4,
  Theorems 3.5/3.6);
* :mod:`~repro.core.geometry` — block-shape combinatorics (Table 1,
  Lemma 3.1);
* :mod:`~repro.core.profiles` — generalised per-dimension distance
  profiles (uniform lattice, §4.2 coarsening, §3.6 supernodes and
  stretched blocks);
* :mod:`~repro.core.blocks` — block enumeration and per-step update
  rectangles;
* :mod:`~repro.core.pointwise` / :mod:`~repro.core.executor` — the
  mask-oracle executor and the production block executors (plain and
  §4.3 merged);
* :mod:`~repro.core.iteration_space` — the paper's Tables 2/3
  regenerated;
* :mod:`~repro.core.paper1d` / :mod:`~repro.core.paper2d` — literal
  transcriptions of the artifact C codes.
"""

from repro.core.profiles import AxisProfile, TessLattice
from repro.core.blocks import TessBlock, StagePlan, PhasePlan, build_phase_plan
from repro.core.pointwise import run_pointwise
from repro.core.executor import make_lattice

__all__ = [
    "AxisProfile",
    "TessLattice",
    "TessBlock",
    "StagePlan",
    "PhasePlan",
    "build_phase_plan",
    "run_pointwise",
    "make_lattice",
]
