"""Fault injection and recovery in the distributed simulator.

Exercises the ISSUE 1 distributed acceptance path: dropped/garbled
ghost-band exchanges are *detected* by the neighbour-consistency
(divergence) detector, and with ``resilient=True`` are *repaired* by
phase checkpoint/replay to results bit-identical to a fault-free run.
An under-sized ghost band is refused before any rank replica exists.
"""

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice, reference_sweep
from repro.distributed.exec import _execute_distributed
from repro.runtime import FaultPlan, FaultSpec, GhostDivergenceError

pytestmark = pytest.mark.faults


def _bitwise(ref, out):
    return (ref.dtype == out.dtype and ref.shape == out.shape
            and ref.tobytes() == out.tobytes())


def _setup(kernel="heat1d", shape=(400,), steps=16, b=4, ranks=4):
    spec = get_stencil(kernel)
    lat = make_lattice(spec, shape, b)
    grid = Grid(spec, shape, seed=0)
    ref = reference_sweep(spec, grid.copy(), steps)
    base, _ = _execute_distributed(spec, grid.copy(), lat, steps, ranks)
    return spec, lat, grid, ref, base


class TestDivergenceDetector:
    def test_clean_run_no_false_positives_1d(self):
        spec, lat, grid, ref, base = _setup()
        out, stats = _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                         check_divergence=True)
        assert np.array_equal(base, out)
        assert stats.divergence_checks > 0

    @pytest.mark.parametrize("kernel,shape,steps,b,ranks", [
        ("heat2d", (64, 64), 12, 4, 3),
        ("life", (48, 48), 8, 2, 3),
    ])
    def test_clean_run_no_false_positives_nd(self, kernel, shape, steps,
                                             b, ranks):
        spec, lat, grid, ref, base = _setup(kernel, shape, steps, b, ranks)
        out, stats = _execute_distributed(spec, grid.copy(), lat, steps,
                                         ranks, check_divergence=True)
        assert np.array_equal(base, out)

    def test_dropped_exchange_detected(self):
        spec, lat, grid, ref, base = _setup()
        plan = FaultPlan([FaultSpec("drop", group=2, task=1)])
        with pytest.raises(GhostDivergenceError) as ei:
            _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                fault_plan=plan, check_divergence=True)
        assert ei.value.stage == 2
        assert ei.value.mismatched_points > 0

    def test_garbled_exchange_detected(self):
        spec, lat, grid, ref, base = _setup()
        plan = FaultPlan([FaultSpec("garble", group=1, task=0)])
        with pytest.raises(GhostDivergenceError):
            _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                fault_plan=plan, check_divergence=True)

    def test_undersized_ghost_band_caught_not_silent(self):
        """An under-sized band would serve wrong values, so the run is
        refused up front — with or without the detector — naming the
        width the lattice requires."""
        spec, lat, grid, ref, base = _setup()
        for detect in (False, True):
            with pytest.raises(ValueError, match="required width 8"):
                _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                    ghost_override=1,
                                    check_divergence=detect)
        # the required width itself, and anything wider, still runs
        for ghost in (8, 9):
            out, _ = _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                         ghost_override=ghost)
            assert _bitwise(ref, out)

    def test_integer_kernel_garble_detected(self):
        spec, lat, grid, ref, base = _setup("life", (48, 48), 8, 2, 3)
        plan = FaultPlan([FaultSpec("garble", group=1, task=0)])
        with pytest.raises(GhostDivergenceError):
            _execute_distributed(spec, grid.copy(), lat, 8, 3,
                                fault_plan=plan, check_divergence=True)


class TestPhaseRecovery:
    def test_dropped_exchange_recovers_bit_identical(self):
        spec, lat, grid, ref, base = _setup()
        plan = FaultPlan([FaultSpec("drop", group=2, task=1)])
        out, stats = _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                         fault_plan=plan, resilient=True)
        assert _bitwise(base, out)
        assert _bitwise(ref, out)
        assert stats.drops >= 1
        assert stats.phase_restarts == 1

    def test_garbled_exchange_recovers_bit_identical(self):
        spec, lat, grid, ref, base = _setup()
        plan = FaultPlan([FaultSpec("garble", group=5, task=2)])
        out, stats = _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                         fault_plan=plan, resilient=True)
        assert np.array_equal(base, out)
        assert stats.garbles >= 1
        assert stats.phase_restarts == 1

    def test_multiple_transient_drops_recover(self):
        spec, lat, grid, ref, base = _setup()
        plan = FaultPlan([FaultSpec("drop", group=g, task=g % 3)
                          for g in (1, 4, 9)])
        out, stats = _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                         fault_plan=plan, resilient=True)
        assert np.array_equal(base, out)
        assert stats.phase_restarts >= 1

    def test_recovery_in_2d(self):
        spec, lat, grid, ref, base = _setup("heat2d", (64, 64), 12, 4, 3)
        plan = FaultPlan([FaultSpec("drop", group=3, task=1)])
        out, stats = _execute_distributed(spec, grid.copy(), lat, 12, 3,
                                         fault_plan=plan, resilient=True)
        assert np.array_equal(base, out)
        assert stats.phase_restarts >= 1

    def test_persistent_drop_exhausts_restarts(self):
        spec, lat, grid, ref, base = _setup()
        plan = FaultPlan([FaultSpec("drop", group=2, task=1,
                                    max_hits=10_000)])
        with pytest.raises(GhostDivergenceError):
            _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                fault_plan=plan, resilient=True,
                                max_phase_restarts=2)

    def test_fault_free_resilient_identical(self):
        spec, lat, grid, ref, base = _setup()
        out, stats = _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                         resilient=True)
        assert np.array_equal(base, out)
        assert stats.phase_restarts == 0
