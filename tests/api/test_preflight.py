"""The sanitizer pre-flight: one place, one report, for every backend.

``Session`` is the only place the pre-flight runs.  With
``sanitize=True`` every backend that has one — the schedule backends
check the built schedule, ``distributed`` the rank-local plan with its
ghost band — must

* report it the same way: ``RunResult.sanitizer``,
  ``phases["sanitize"]`` and exactly one ``sanitize`` trace event;
* raise :class:`SanitizerViolation` before the executor runs, so the
  caller's buffers are untouched and no rank starts.

Lattice backends walk the :class:`TessLattice`, never a built schedule,
so they refuse what they would otherwise drop without a word: planted
schedule mutations always, and ``sanitize=True`` when they have no
pre-flight.

Without the pre-flight, ``distributed`` still refuses a ghost band
narrower than its lattice needs, with a :class:`ValueError` raised
before any rank replica exists: such a band would serve wrong bits.
"""

import pytest

from repro.api import RunConfig, Session
from repro.api.backends import BackendUnsupported
from repro.runtime import SanitizerViolation
from repro.runtime.tracing import ExecutionTrace
from repro.stencils import Grid, heat1d

pytestmark = pytest.mark.api

SHAPE = (50,)

#: every backend with a pre-flight
PREFLIGHT_BACKENDS = ("serial", "compiled", "batched", "threaded",
                      "resilient", "distributed")

#: backends that walk the lattice instead of a built schedule
LATTICE_BACKENDS = ("baseline:pointwise", "distributed")


def _config(backend, **extra):
    return RunConfig(shape=SHAPE, steps=6, b=4, backend=backend,
                     threads=2, ranks=2, **extra)


def _bytes(grid):
    return [buf.tobytes() for buf in grid.buffers]


@pytest.mark.parametrize("backend", PREFLIGHT_BACKENDS)
def test_preflight_is_reported_the_same_way(backend):
    trace = ExecutionTrace(scheme="tess")
    result = Session(heat1d()).run(
        _config(backend, sanitize=True, verify=True, trace=trace))
    assert result.stats.verified
    assert result.sanitizer is not None and result.sanitizer.ok
    assert "sanitize" in result.stats.phases
    counts = trace.event_counts()
    assert counts.get("sanitize") == 1
    assert "violation" not in counts


@pytest.mark.parametrize("backend", PREFLIGHT_BACKENDS)
def test_violation_raises_before_the_executor_runs(backend, monkeypatch):
    import repro.distributed.exec as dexec

    def tripwire(*args, **kwargs):
        raise AssertionError("the executor ran despite a violation")

    # no simulated rank may start after a violation
    monkeypatch.setattr(dexec, "_execute_distributed", tripwire)
    spec = heat1d()
    bad = ({"ghost": 1} if backend == "distributed"
           else {"mutations": ("drop-action@0",)})
    grid = Grid(spec, SHAPE, seed=0)
    before = _bytes(grid)
    trace = ExecutionTrace(scheme="tess")
    with pytest.raises(SanitizerViolation) as exc:
        Session(spec).run(_config(backend, sanitize=True, trace=trace,
                                  **bad), grid=grid)
    assert exc.value.violations
    assert _bytes(grid) == before
    counts = trace.event_counts()
    assert counts.get("sanitize") == 1
    assert counts.get("violation", 0) >= 1


@pytest.mark.parametrize("backend", LATTICE_BACKENDS)
def test_lattice_backends_refuse_inputs_they_would_drop(backend):
    refused = [{"mutations": ("drop-action@0",)}]
    if backend not in PREFLIGHT_BACKENDS:
        refused.append({"sanitize": True})
    spec = heat1d()
    for extra in refused:
        grid = Grid(spec, SHAPE, seed=0)
        before = _bytes(grid)
        with pytest.raises(BackendUnsupported) as exc:
            Session(spec).run(_config(backend, **extra), grid=grid)
        assert exc.value.backend == backend
        assert _bytes(grid) == before


@pytest.mark.parametrize("kernel,shape,ghost", [
    ("heat1d", (400,), 1),
    ("heat2d", (96, 96), 1),
    ("heat2d", (96, 96), 2),
])
def test_undersized_ghost_refused_without_preflight(kernel, shape, ghost):
    """Each of these ran to a wrong grid in 3.x unless a check was on."""
    from repro import get_stencil

    spec = get_stencil(kernel)
    grid = Grid(spec, shape, seed=0)
    before = _bytes(grid)
    config = RunConfig(shape=shape, steps=16, b=4, backend="distributed",
                       ranks=4, ghost=ghost, verify=True)
    with pytest.raises(ValueError, match="required width") as exc:
        Session(spec).run(config, grid=grid)
    assert not isinstance(exc.value, (BackendUnsupported,
                                      SanitizerViolation))
    assert _bytes(grid) == before
