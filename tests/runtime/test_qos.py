"""Unit tests for the QoS primitives (:mod:`repro.runtime.qos`).

Policy validation/normalization, the cancel token, the armed run
budget (deadline + cancellation precedence) and the admission
estimator.  End-to-end enforcement across every registered backend
lives in ``tests/api/test_qos_enforcement.py``.
"""

import time

import pytest

from repro import get_stencil
from repro.api import RunConfig
from repro.runtime.errors import (
    EXIT_DEADLINE,
    ExecutionError,
    RunCancelled,
    RunDeadlineExceeded,
)
from repro.runtime.qos import (
    AdmissionRejected,
    CancelToken,
    QoSPolicy,
    RunBudget,
    admit,
    estimate_peak_bytes,
)

pytestmark = pytest.mark.qos


# -- error taxonomy --------------------------------------------------

def test_error_types_and_exit_code():
    assert EXIT_DEADLINE == 9
    assert issubclass(RunDeadlineExceeded, ExecutionError)
    assert issubclass(RunCancelled, ExecutionError)
    assert issubclass(AdmissionRejected, ValueError)
    e = RunDeadlineExceeded("group 3", 1.5, 1.0)
    assert e.where == "group 3"
    assert "group 3" in str(e)
    assert "1.500" in str(e) and "1.000" in str(e)
    r = AdmissionRejected("distributed", 1000, 10)
    assert (r.backend, r.estimated_bytes, r.limit_bytes) == (
        "distributed", 1000, 10)


# -- CancelToken -----------------------------------------------------

def test_cancel_token_is_idempotent_and_shared():
    tok = CancelToken()
    assert not tok.cancelled
    tok.cancel()
    tok.cancel()
    assert tok.cancelled


# -- QoSPolicy -------------------------------------------------------

def test_policy_normalized_validates_and_canonicalizes():
    p = QoSPolicy(deadline_s=1.0, fallback=("threads", "sequential"))
    n = p.normalized()
    # aliases resolve to canonical registry names
    assert n.fallback == ("threaded", "serial")
    with pytest.raises(ValueError):
        QoSPolicy(deadline_s=0.0).normalized()
    with pytest.raises(ValueError):
        QoSPolicy(deadline_s=-1.0).normalized()
    with pytest.raises(ValueError):
        QoSPolicy(max_memory_bytes=0).normalized()
    with pytest.raises(ValueError):
        QoSPolicy(fallback=("no-such-backend",)).normalized()


def test_runconfig_normalizes_embedded_policy():
    cfg = RunConfig(qos=QoSPolicy(fallback=("threads",))).normalized()
    assert cfg.qos.fallback == ("threaded",)
    with pytest.raises(ValueError):
        RunConfig(qos=QoSPolicy(deadline_s=-3.0)).normalized()


# -- RunBudget -------------------------------------------------------

def test_budget_from_policy_arms_only_when_needed():
    assert RunBudget.from_policy(None) is None
    # a pure admission policy needs no clock
    assert RunBudget.from_policy(
        QoSPolicy(max_memory_bytes=1 << 30)) is None
    assert RunBudget.from_policy(QoSPolicy(deadline_s=5.0)) is not None
    assert RunBudget.from_policy(
        QoSPolicy(cancel_token=CancelToken())) is not None


def test_budget_deadline_expiry():
    b = RunBudget(deadline_s=0.02)
    b.check("early")  # inside budget: no raise
    assert not b.expired()
    time.sleep(0.03)
    assert b.expired()
    assert b.remaining() < 0
    with pytest.raises(RunDeadlineExceeded) as excinfo:
        b.check("phase t=4")
    assert excinfo.value.where == "phase t=4"
    assert excinfo.value.deadline_s == 0.02


def test_budget_unbounded_without_deadline():
    b = RunBudget(token=CancelToken())
    assert b.remaining() is None
    assert not b.expired()
    b.check("anywhere")


def test_cancellation_outranks_deadline():
    tok = CancelToken()
    b = RunBudget(deadline_s=1e-9, token=tok)
    tok.cancel()
    time.sleep(0.001)  # both tripped: the token must win
    assert b.expired() and b.cancelled()
    with pytest.raises(RunCancelled):
        b.check("group 0")


# -- admission estimator ---------------------------------------------

def _cfg(**kw):
    return RunConfig(shape=(100,), steps=8, scheme="tess", b=4,
                     **kw).normalized()


def test_estimate_scales_with_shape_dtype_and_backend():
    spec = get_stencil("heat1d")
    base = estimate_peak_bytes(spec, (100,), _cfg())
    assert base > 100 * 8  # at least one padded float64 pair
    assert estimate_peak_bytes(spec, (200,), _cfg()) > base
    # backend families that replicate buffers cost more
    assert estimate_peak_bytes(
        spec, (100,), _cfg(backend="resilient")) > base
    dist = estimate_peak_bytes(
        spec, (100,), _cfg(backend="distributed", ranks=4))
    assert dist > estimate_peak_bytes(
        spec, (100,), _cfg(backend="distributed", ranks=2))
    # verify=True adds the snapshot + reference pair
    assert estimate_peak_bytes(spec, (100,), _cfg(verify=True)) > base
    # int8 cells (life) are cheaper than float64 cells (heat2d)
    assert estimate_peak_bytes(get_stencil("life"), (100, 100), _cfg()) < \
        estimate_peak_bytes(get_stencil("heat2d"), (100, 100), _cfg())


def test_admit_refuses_over_budget_and_passes_under():
    spec = get_stencil("heat1d")
    cfg = _cfg(qos=QoSPolicy(max_memory_bytes=1))
    with pytest.raises(AdmissionRejected) as excinfo:
        admit(spec, (100,), cfg)
    assert excinfo.value.limit_bytes == 1
    assert excinfo.value.estimated_bytes > 1
    roomy = _cfg(qos=QoSPolicy(max_memory_bytes=1 << 30))
    assert 0 < admit(spec, (100,), roomy) <= 1 << 30
    # no ceiling -> admit everything without estimating
    assert admit(spec, (100,), _cfg()) == 0
    assert admit(spec, (100,), _cfg(qos=QoSPolicy(deadline_s=1.0))) == 0
