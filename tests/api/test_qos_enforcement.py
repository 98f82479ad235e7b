"""QoS enforcement matrix: every registered backend honours the policy.

Acceptance criteria from the QoS PR, parity-matrix style:

* a pre-cancelled token stops every backend with
  :class:`RunCancelled` — including the empty ``steps=0`` schedule
  (every executor checks the budget at entry);
* an already-expired deadline stops every backend with
  :class:`RunDeadlineExceeded` naming the boundary it fired at;
* a one-byte memory ceiling is refused by every backend with
  :class:`AdmissionRejected` *before any buffer is allocated*;
* the fallback chain degrades across backends, records every hop in
  ``RunStats.degradations`` and recovers bit-identically;
* a config with no policy takes the exact pre-QoS code path (the
  budget/admission machinery is provably never invoked).
"""

import numpy as np
import pytest

from repro.api import (
    CancelToken,
    QoSPolicy,
    RunConfig,
    Session,
    run,
)
from repro.api.backends import BackendUnsupported, backend_names
from repro.runtime.errors import (
    RunCancelled,
    RunDeadlineExceeded,
)
from repro.runtime.qos import AdmissionRejected, estimate_peak_bytes
from repro.stencils import Grid, heat1d, reference_sweep

pytestmark = [pytest.mark.api, pytest.mark.qos]

SHAPE = (50,)
B = 4
STEPS = 6

_EXTRA_MARKS = {
    "compiled": (pytest.mark.engine,),
}

BACKEND_PARAMS = [
    pytest.param(name, marks=_EXTRA_MARKS.get(name, ()))
    for name in backend_names()
]


def _config(backend, steps=STEPS, **kw):
    # every backend runs 'tess' except the ghost-zone executor, which
    # only accepts its own scheme — the point here is enforcement, not
    # the support table (tests/api/test_parity_matrix.py owns that)
    scheme = "overlapped" if backend == "baseline:overlapped" else "tess"
    return RunConfig(shape=SHAPE, steps=steps, scheme=scheme, b=B,
                     backend=backend, threads=2, ranks=2, **kw)


# -- the enforcement sweep -------------------------------------------

@pytest.mark.parametrize("steps", (0, STEPS))
@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_expired_deadline_stops_every_backend(backend, steps):
    config = _config(backend, steps=steps,
                     qos=QoSPolicy(deadline_s=1e-9))
    with pytest.raises(RunDeadlineExceeded) as excinfo:
        run(heat1d(), config)
    err = excinfo.value
    assert err.deadline_s == 1e-9
    assert err.elapsed_s > err.deadline_s
    assert err.where, "the error must name the boundary it fired at"


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_precancelled_token_stops_every_backend(backend):
    token = CancelToken()
    token.cancel()
    config = _config(backend, qos=QoSPolicy(cancel_token=token))
    with pytest.raises(RunCancelled):
        run(heat1d(), config)


@pytest.mark.parametrize("backend", BACKEND_PARAMS)
def test_admission_ceiling_refuses_every_backend(backend):
    config = _config(backend, qos=QoSPolicy(max_memory_bytes=1))
    with pytest.raises(AdmissionRejected) as excinfo:
        run(heat1d(), config)
    err = excinfo.value
    assert err.backend == backend
    assert err.estimated_bytes > err.limit_bytes == 1


def test_generous_policy_changes_nothing():
    """A policy nowhere near its limits must not perturb the result."""
    spec = heat1d()
    ref = reference_sweep(spec, Grid(spec, SHAPE, seed=0), STEPS)
    token = CancelToken()
    config = _config("serial", qos=QoSPolicy(
        deadline_s=3600.0, cancel_token=token,
        max_memory_bytes=1 << 40))
    result = run(spec, config)
    assert np.array_equal(ref, result.interior)
    assert result.stats.degradations == []


# -- mid-run deadline (not just the entry check) ---------------------

def test_midrun_deadline_fires_at_group_boundary():
    """A stall fault burns the budget mid-run; the deadline must fire
    at a later cooperative boundary, not only at entry."""
    from repro.runtime.faults import FaultPlan, FaultSpec

    spec = heat1d()
    plan = FaultPlan([FaultSpec("stall", group=1, task=0, stall_s=0.3)])
    config = _config("threaded", qos=QoSPolicy(deadline_s=0.1),
                     fault_plan=plan)
    with pytest.raises(RunDeadlineExceeded) as excinfo:
        run(spec, config)
    assert excinfo.value.elapsed_s >= 0.1
    assert "entry" not in excinfo.value.where


# -- zero-overhead default -------------------------------------------

def test_no_policy_never_touches_qos_machinery(monkeypatch):
    """config.qos is None must take the exact pre-QoS code path: the
    budget is never armed, admission is never consulted."""
    import repro.runtime.qos as qos_mod

    def boom(*a, **kw):
        raise AssertionError("QoS machinery invoked without a policy")

    monkeypatch.setattr(qos_mod.RunBudget, "from_policy", boom)
    monkeypatch.setattr(qos_mod, "admit", boom)
    spec = heat1d()
    ref = reference_sweep(spec, Grid(spec, SHAPE, seed=0), STEPS)
    result = run(spec, _config("serial"))
    assert np.array_equal(ref, result.interior)

    # sanity: with a policy the same patch trips, proving the gate
    with pytest.raises(AssertionError):
        run(spec, _config("serial", qos=QoSPolicy(deadline_s=60.0)))


# -- fallback chain --------------------------------------------------

def test_fallback_recovers_from_unsupported_backend():
    """baseline:pointwise refuses scheme 'naive'; the chain lands on
    serial and the result is bit-identical to the reference."""
    spec = heat1d()
    ref = reference_sweep(spec, Grid(spec, SHAPE, seed=0), STEPS)
    config = RunConfig(shape=SHAPE, steps=STEPS, scheme="naive", b=B,
                       backend="baseline:pointwise",
                       qos=QoSPolicy(fallback=("serial",)))
    result = run(spec, config)
    assert np.array_equal(ref, result.interior)
    assert result.stats.backend == "serial"
    (hop,) = result.stats.degradations
    assert hop["from"] == "baseline:pointwise"
    assert hop["to"] == "serial"
    assert hop["error"] == "BackendUnsupported"
    assert hop["detail"]


def test_fallback_chain_dedupes_and_exhausts():
    spec = heat1d()
    # pointwise repeated in its own chain is skipped; distributed also
    # refuses 'naive', so the chain exhausts and re-raises the last
    # refusal
    config = RunConfig(shape=SHAPE, steps=STEPS, scheme="naive", b=B,
                       backend="baseline:pointwise",
                       qos=QoSPolicy(fallback=("baseline:pointwise",
                                               "distributed")))
    with pytest.raises(BackendUnsupported) as excinfo:
        run(spec, config)
    assert excinfo.value.backend == "distributed"


def test_fallback_recovers_from_admission_rejection():
    """A ceiling between the replicated distributed footprint (one
    buffer pair per rank on top of the grid's own) and the lean serial
    footprint: distributed is refused at admission (before any rank
    replica is allocated), serial runs."""
    spec = heat1d()
    lean = _config("serial")
    fat = _config("distributed")
    lo = estimate_peak_bytes(spec, SHAPE, lean)
    hi = estimate_peak_bytes(spec, SHAPE, fat)
    assert lo < hi
    config = _config("distributed", qos=QoSPolicy(
        max_memory_bytes=(lo + hi) // 2, fallback=("serial",)))
    ref = reference_sweep(spec, Grid(spec, SHAPE, seed=0), STEPS)
    result = run(spec, config)
    assert np.array_equal(ref, result.interior)
    (hop,) = result.stats.degradations
    assert hop["from"] == "distributed"
    assert hop["error"] == "AdmissionRejected"


def test_cancellation_is_never_retried():
    """The shared token stays tripped across hops: a cancelled run
    stays cancelled even with a willing fallback chain."""
    token = CancelToken()
    token.cancel()
    config = _config("threaded", qos=QoSPolicy(
        cancel_token=token, fallback=("serial", "baseline:pointwise")))
    with pytest.raises(RunCancelled):
        run(heat1d(), config)


def test_deadline_hop_rearms_a_fresh_budget(monkeypatch):
    """Per-attempt deadline semantics: the hop after a deadline expiry
    re-enters the pipeline and re-arms, and the hop is recorded."""
    spec = heat1d()
    ref = reference_sweep(spec, Grid(spec, SHAPE, seed=0), STEPS)
    real = Session._pipeline_once
    calls = []

    def flaky(self, config, **kw):
        calls.append(config.backend)
        if config.backend == "threaded":
            raise RunDeadlineExceeded("group 1", 0.2, 0.1)
        return real(self, config, **kw)

    monkeypatch.setattr(Session, "_pipeline_once", flaky)
    config = _config("threaded", qos=QoSPolicy(
        deadline_s=60.0, fallback=("serial",)))
    result = run(spec, config)
    assert calls == ["threaded", "serial"]
    assert np.array_equal(ref, result.interior)
    (hop,) = result.stats.degradations
    assert (hop["from"], hop["to"], hop["error"]) == (
        "threaded", "serial", "RunDeadlineExceeded")


def test_fallback_restores_caller_grid_between_hops(monkeypatch):
    """A hop that mutated the caller's buffers mid-run must not leak
    its partial state into the next attempt."""
    spec = heat1d()
    grid = Grid(spec, SHAPE, init="random", seed=7)
    ref = reference_sweep(spec, grid.copy(), STEPS)
    pristine = [buf.copy() for buf in grid.buffers]
    real = Session._pipeline_once
    seen = []

    def vandal(self, config, **kw):
        if config.backend == "threaded":
            kw["grid"].buffers[0][:] = np.nan  # partial mid-run state
            raise RunDeadlineExceeded("group 2", 0.2, 0.1)
        seen.append([buf.copy() for buf in kw["grid"].buffers])
        return real(self, config, **kw)

    monkeypatch.setattr(Session, "_pipeline_once", vandal)
    config = _config("threaded", qos=QoSPolicy(
        deadline_s=60.0, fallback=("serial",)))
    result = Session(spec).execute(grid, config=config)
    for before, after in zip(pristine, seen[0]):
        assert np.array_equal(before, after), "hop saw vandalised state"
    assert np.array_equal(ref, result.interior)


def test_fallback_records_trace_events():
    from repro.runtime.tracing import ExecutionTrace

    spec = heat1d()
    trace = ExecutionTrace(scheme="naive")
    config = RunConfig(shape=SHAPE, steps=STEPS, scheme="naive", b=B,
                       backend="baseline:pointwise", trace=trace,
                       qos=QoSPolicy(fallback=("serial",)))
    result = run(spec, config)
    assert result.stats.degradations
    kinds = [e.kind for e in trace.events]
    assert "fallback" in kinds
    (ev,) = [e for e in trace.events if e.kind == "fallback"]
    assert ev.label == "baseline:pointwise"
    assert "serial" in ev.detail
