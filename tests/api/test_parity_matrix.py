"""Parity matrix: every registered backend x every builder scheme.

Each supported cell must reproduce the naive reference sweep
*bit-identically* (same dtype, shape and bytes — not ``np.array_equal``,
which equates ``-0.0`` and ``0.0``, and not allclose: every executor
performs the same per-point arithmetic, only the traversal order
differs).  Each unsupported cell must refuse with a typed
:class:`BackendUnsupported` carrying the backend name and a reason —
never a silent wrong answer, never an untyped crash.

The matrix includes the two degenerate axes the executors historically
disagreed on:

* ``steps=0`` — the empty schedule (the result is the initial grid);
* a truncated final phase (``steps`` not a multiple of the time-tile
  depth ``b``) on a truncated shape (grid size not a multiple of the
  block period, so the lattice carries a stretched block).
"""

import pytest

from repro.api import RunConfig, run
from repro.api.backends import BackendUnsupported, backend_names
from repro.api.builder import SCHEMES
from repro.stencils import Grid, heat1d, reference_sweep

pytestmark = pytest.mark.api

#: grid size deliberately not a multiple of the block period (b=4) so
#: every lattice in the matrix carries one stretched block per axis
SHAPE = (50,)
B = 4
#: 0 = empty schedule; 6 = one full phase of depth 4 + a truncated
#: phase of depth 2
STEPS_CASES = (0, 6)

#: which schemes each backend must run; every other cell must refuse.
#: This table is the API contract — changing it is an API change.
SUPPORTED = {
    "serial": set(SCHEMES) - {"overlapped"},
    "compiled": set(SCHEMES),
    "batched": set(SCHEMES) - {"overlapped"},
    "threaded": set(SCHEMES) - {"overlapped"},
    "resilient": set(SCHEMES) - {"overlapped"},
    "distributed": {"tess"},
    "elastic": {"tess"},
    "baseline:pointwise": {"tess", "tess-unmerged"},
    "baseline:blocked": {"tess", "tess-unmerged"},
    "baseline:merged": {"tess"},
    "baseline:overlapped": {"overlapped"},
}

#: staged systems: the tiled executors run every non-overlapped scheme
#: (redundant-halo recomputation would duplicate stage side buffers);
#: single-field lattice walkers and the overlapped baseline refuse.
STAGED_SUPPORTED = {
    "serial": set(SCHEMES) - {"overlapped"},
    "compiled": set(SCHEMES) - {"overlapped"},
    "batched": set(SCHEMES) - {"overlapped"},
    "threaded": set(SCHEMES) - {"overlapped"},
    "resilient": set(SCHEMES) - {"overlapped"},
    "distributed": set(),
    "elastic": set(),
    "baseline:pointwise": set(),
    "baseline:blocked": set(),
    "baseline:merged": set(),
    "baseline:overlapped": set(),
}

_EXTRA_MARKS = {
    "elastic": (pytest.mark.dist,),  # spawns real rank processes
    "compiled": (pytest.mark.engine,),
    "batched": (pytest.mark.engine,),
}

BACKEND_PARAMS = [
    pytest.param(name, marks=_EXTRA_MARKS.get(name, ()))
    for name in backend_names()
]


def _bitwise(ref, out):
    return (ref.dtype == out.dtype and ref.shape == out.shape
            and ref.tobytes() == out.tobytes())


def test_support_table_covers_registry():
    """The contract table and the registry must list the same backends."""
    assert sorted(SUPPORTED) == backend_names()


@pytest.fixture(scope="module")
def references():
    spec = heat1d()
    return {
        steps: reference_sweep(spec, Grid(spec, SHAPE, seed=0), steps)
        for steps in STEPS_CASES
    }


@pytest.mark.parametrize("steps", STEPS_CASES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_cell(backend, scheme, steps, references):
    spec = heat1d()
    config = RunConfig(shape=SHAPE, steps=steps, scheme=scheme, b=B,
                       backend=backend, threads=2, ranks=2)

    if scheme in SUPPORTED[backend]:
        result = run(spec, config)
        assert _bitwise(references[steps], result.interior), (
            f"{backend} x {scheme} (steps={steps}) diverged from the "
            f"reference sweep"
        )
        assert result.stats.backend == backend
        assert result.stats.scheme == scheme
        assert result.stats.steps == steps
    else:
        with pytest.raises(BackendUnsupported) as excinfo:
            run(spec, config)
        err = excinfo.value
        assert err.backend == backend
        assert err.reason, "refusal must carry a human-readable reason"
        assert backend in str(err)


def test_staged_support_table_covers_registry():
    assert sorted(STAGED_SUPPORTED) == backend_names()


@pytest.fixture(scope="module")
def staged_references():
    from repro.stencils.systems import fdtd1d

    spec = fdtd1d()
    return {
        steps: reference_sweep(spec, Grid(spec, SHAPE, seed=0), steps)
        for steps in STEPS_CASES
    }


@pytest.mark.stages
@pytest.mark.parametrize("steps", STEPS_CASES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_staged_cell(backend, scheme, steps, staged_references):
    from repro.stencils.systems import fdtd1d

    spec = fdtd1d()
    config = RunConfig(shape=SHAPE, steps=steps, scheme=scheme, b=B,
                       backend=backend, threads=2, ranks=2)

    if scheme in STAGED_SUPPORTED[backend]:
        result = run(spec, config)
        assert _bitwise(staged_references[steps], result.interior), (
            f"staged {backend} x {scheme} (steps={steps}) diverged from "
            f"the per-stage oracle"
        )
    else:
        with pytest.raises(BackendUnsupported) as excinfo:
            run(spec, config)
        err = excinfo.value
        assert err.backend == backend
        assert err.reason, "refusal must carry a human-readable reason"


def test_refusal_is_a_value_error():
    """Legacy callers catch ValueError; the typed refusal must still be
    one."""
    spec = heat1d()
    with pytest.raises(ValueError):
        run(spec, RunConfig(shape=SHAPE, steps=4, scheme="naive", b=B,
                            backend="baseline:merged"))


def test_periodic_only_on_pointwise():
    """Periodic boundaries: baseline:pointwise runs them, every other
    backend refuses before touching a buffer."""
    from repro import get_stencil

    spec = get_stencil("heat1d", boundary="periodic")
    ref = reference_sweep(spec, Grid(spec, (48,), seed=0), 8)
    for backend in backend_names():
        config = RunConfig(shape=(48,), steps=8, scheme="tess", b=B,
                           backend=backend)
        if backend == "baseline:pointwise":
            result = run(spec, config)
            assert _bitwise(ref, result.interior)
        else:
            with pytest.raises(BackendUnsupported):
                run(spec, config)
