"""Elastic process runtime: recovery to bit-identical results.

The tentpole acceptance properties:

* the fault-free process runtime matches both the in-process simulator
  and the naive reference **exactly** (bit-identical);
* every process-level fault kind — ``kill_rank``, ``stall_rank``,
  ``drop_msg``, ``flip_bits`` — injected mid-run on runs with >= 2
  ranks is healed back to the bit-identical result (respawn + phase
  replay for kills, straggler cull + replay for stalls, retransmit for
  transient message loss/corruption), including a seeded chaos sweep
  mixing all kinds across 8 seeds;
* exhausted budgets surface as *typed* errors — ``RankLostError``,
  ``ExchangeTimeoutError``, ``ChecksumMismatchError`` — instead of
  hangs;
* checkpoint spill files live in a per-run temp directory that is gone
  after success and after a coordinator abort.
"""

import glob
import os
import tempfile

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice, reference_sweep
from repro.distributed import (
    ElasticConfig,
    RetryPolicy,
)
from repro.distributed.exec import _execute_distributed
from repro.distributed.elastic import _execute_elastic
from repro.distributed.partition import SlabPartition, build_ownership
from repro.runtime import (
    ChecksumMismatchError,
    ExchangeTimeoutError,
    FaultPlan,
    FaultSpec,
    RankLostError,
)
from repro.runtime.tracing import ExecutionTrace

pytestmark = [pytest.mark.dist, pytest.mark.faults]

#: watchdog timings tightened so recovery tests converge in seconds
FAST = dict(stall_timeout_s=0.6, heartbeat_timeout_s=1.5, deadline_s=60.0)


def _setup(kernel="heat1d", shape=(400,), steps=16, b=4, ranks=4):
    spec = get_stencil(kernel)
    lat = make_lattice(spec, shape, b)
    grid = Grid(spec, shape, seed=0)
    base, _ = _execute_distributed(spec, grid.copy(), lat, steps, ranks)
    return spec, lat, grid, base


def _stages_total(spec, shape, steps, b, ranks):
    lat = make_lattice(spec, shape, b)
    plan, _ = build_ownership(lat, SlabPartition(shape, ranks))
    return ((steps + b - 1) // b) * len(plan.stages)


class TestFaultFree:
    @pytest.mark.parametrize("kernel,shape,steps,b,ranks", [
        ("heat1d", (400,), 16, 4, 4),
        ("heat2d", (64, 64), 12, 4, 3),
    ])
    def test_matches_simulator_and_reference(self, kernel, shape, steps,
                                             b, ranks):
        spec, lat, grid, base = _setup(kernel, shape, steps, b, ranks)
        ref = reference_sweep(spec, grid.copy(), steps)
        out, stats = _execute_elastic(spec, grid.copy(), lat, steps, ranks)
        assert np.array_equal(base, out)
        assert np.array_equal(ref, out)
        assert stats.messages > 0 and stats.bytes_sent > 0
        assert stats.heartbeats > 0
        assert not stats.had_faults

    def test_single_rank_and_zero_steps(self):
        spec, lat, grid, _ = _setup()
        out, _ = _execute_elastic(spec, grid.copy(), lat, 16, 1)
        assert np.array_equal(reference_sweep(spec, grid.copy(), 16), out)
        out0, _ = _execute_elastic(spec, grid.copy(), lat, 0, 3)
        assert np.array_equal(grid.interior(0), out0)

    def test_periodic_boundary_rejected(self):
        spec = get_stencil("heat1d", boundary="periodic")
        lat = make_lattice(spec, (64,), 4)
        with pytest.raises(ValueError, match="Dirichlet"):
            _execute_elastic(spec, Grid(spec, (64,), seed=0), lat, 4, 2)


class TestSingleFaultRecovery:
    """One injected fault of each kind, mid-run, >= 2 ranks affected."""

    @pytest.mark.parametrize("fault,expect", [
        (FaultSpec("kill_rank", group=3, task=1),
         dict(respawns=1, phase_restarts=1)),
        (FaultSpec("stall_rank", group=2, task=2, stall_s=30.0),
         dict(phase_restarts=1)),
        (FaultSpec("drop_msg", group=1, task=1),
         dict(drops=1, retries=1)),
        (FaultSpec("flip_bits", group=2, task=0),
         dict(checksum_failures=1, retries=1)),
    ], ids=["kill_rank", "stall_rank", "drop_msg", "flip_bits"])
    def test_bit_identical_recovery(self, fault, expect):
        spec, lat, grid, base = _setup()
        trace = ExecutionTrace(scheme="elastic")
        out, stats = _execute_elastic(
            spec, grid.copy(), lat, 16, 4,
            fault_plan=FaultPlan([fault]),
            config=ElasticConfig(**FAST), trace=trace,
        )
        assert np.array_equal(base, out), f"{fault.describe()} diverged"
        for key, floor in expect.items():
            assert getattr(stats, key) >= floor, (key, stats)
        counts = trace.event_counts()
        assert counts.get("commit", 0) >= 4
        assert counts.get("heartbeat", 0) == 4  # one summary per rank
        if "respawns" in expect:
            assert counts.get("respawn", 0) >= 1
            assert counts.get("restore", 0) >= 1

    def test_kill_two_ranks_same_run(self):
        spec, lat, grid, base = _setup()
        plan = FaultPlan([FaultSpec("kill_rank", group=2, task=0),
                          FaultSpec("kill_rank", group=5, task=3)])
        out, stats = _execute_elastic(spec, grid.copy(), lat, 16, 4,
                                     fault_plan=plan,
                                     config=ElasticConfig(**FAST))
        assert np.array_equal(base, out)
        assert stats.respawns >= 2

    def test_persistent_kill_fires_across_respawns(self):
        """xN kills re-fire N times before the rank stays up."""
        spec, lat, grid, base = _setup()
        plan = FaultPlan([FaultSpec("kill_rank", group=3, task=1,
                                    max_hits=2)])
        out, stats = _execute_elastic(
            spec, grid.copy(), lat, 16, 4, fault_plan=plan,
            config=ElasticConfig(max_respawns=3, max_phase_restarts=6,
                                 **FAST))
        assert np.array_equal(base, out)
        assert stats.respawns >= 2


class TestChaosSweep:
    """Seeded chaos: all four kinds mixed, 8 seeds, bit-identical."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_process_faults_recover(self, seed):
        spec, lat, grid, base = _setup("heat1d", (240,), 12, 4, 3)
        stages = _stages_total(spec, (240,), 12, 4, 3)
        plan = FaultPlan.random_process(stages, 3, rate=0.25, seed=seed,
                                        stall_s=30.0)
        out, stats = _execute_elastic(
            spec, grid.copy(), lat, 12, 3, fault_plan=plan,
            config=ElasticConfig(max_phase_restarts=8, max_respawns=4,
                                 **FAST),
        )
        assert np.array_equal(base, out), (
            f"seed {seed} ({plan.describe()}) diverged"
        )

    def test_sweep_actually_injects_every_kind(self):
        """Guard against a sweep that silently tests nothing."""
        stages = _stages_total(get_stencil("heat1d"), (240,), 12, 4, 3)
        kinds = set()
        for seed in range(8):
            plan = FaultPlan.random_process(stages, 3, rate=0.25,
                                            seed=seed)
            kinds.update(f.kind for f in plan.faults)
        assert kinds == {"kill_rank", "stall_rank", "drop_msg",
                         "flip_bits"}

    def test_per_rank_substreams_stable_across_rank_count(self):
        """Rank r draws the same faults whether 2 or 8 ranks exist."""
        few = FaultPlan.random_process(12, 2, rate=0.3, seed=7)
        many = FaultPlan.random_process(12, 8, rate=0.3, seed=7)
        of = lambda p, r: [f.describe() for f in p.faults if f.task == r]
        for r in range(2):
            assert of(few, r) == of(many, r)


class TestStructuredFailures:
    """Exhausted budgets end in typed errors, never hangs."""

    def test_respawn_budget_exhausted_raises_rank_lost(self):
        spec, lat, grid, _ = _setup()
        plan = FaultPlan([FaultSpec("kill_rank", group=3, task=1)])
        with pytest.raises(RankLostError) as ei:
            _execute_elastic(spec, grid.copy(), lat, 16, 4,
                            fault_plan=plan,
                            config=ElasticConfig(max_respawns=0, **FAST))
        assert ei.value.rank == 1 and ei.value.cause == "dead"

    def test_persistent_drop_raises_exchange_timeout(self):
        spec, lat, grid, _ = _setup()
        plan = FaultPlan([FaultSpec("drop_msg", group=1, task=1,
                                    max_hits=10 ** 6)])
        with pytest.raises(ExchangeTimeoutError) as ei:
            _execute_elastic(spec, grid.copy(), lat, 16, 4,
                            fault_plan=plan,
                            config=ElasticConfig(max_phase_restarts=0,
                                                 **FAST))
        assert ei.value.stage == 1 and ei.value.src == 1

    def test_persistent_corruption_raises_checksum_mismatch(self):
        spec, lat, grid, _ = _setup()
        plan = FaultPlan([FaultSpec("flip_bits", group=1, task=1,
                                    max_hits=10 ** 6)])
        with pytest.raises(ChecksumMismatchError) as ei:
            _execute_elastic(spec, grid.copy(), lat, 16, 4,
                            fault_plan=plan,
                            config=ElasticConfig(max_phase_restarts=0,
                                                 **FAST))
        assert ei.value.stage == 1 and ei.value.src == 1


class TestSpillFileLifecycle:
    """Per-run temp dir: gone on success AND on coordinator abort."""

    def _leftovers(self, parent):
        return (glob.glob(os.path.join(parent, "repro-elastic-*"))
                + glob.glob(os.path.join(parent, "**", "*.npz"),
                            recursive=True))

    def test_no_leak_on_success(self, tmp_path):
        spec, lat, grid, base = _setup()
        cfg = ElasticConfig(checkpoint_dir=str(tmp_path), **FAST)
        out, _ = _execute_elastic(
            spec, grid.copy(), lat, 16, 4,
            fault_plan=FaultPlan([FaultSpec("kill_rank", group=3,
                                            task=1)]),
            config=cfg)
        assert np.array_equal(base, out)
        assert self._leftovers(str(tmp_path)) == []

    def test_no_leak_on_coordinator_abort(self, tmp_path):
        spec, lat, grid, _ = _setup()
        cfg = ElasticConfig(checkpoint_dir=str(tmp_path), max_respawns=0,
                            **FAST)
        with pytest.raises(RankLostError):
            _execute_elastic(
                spec, grid.copy(), lat, 16, 4,
                fault_plan=FaultPlan([FaultSpec("kill_rank", group=3,
                                                task=1)]),
                config=cfg)
        assert self._leftovers(str(tmp_path)) == []

    def test_default_dir_is_system_tmp_and_cleaned(self):
        spec, lat, grid, _ = _setup()
        before = set(glob.glob(os.path.join(tempfile.gettempdir(),
                                            "repro-elastic-*")))
        _execute_elastic(spec, grid.copy(), lat, 8, 2,
                        config=ElasticConfig(**FAST))
        after = set(glob.glob(os.path.join(tempfile.gettempdir(),
                                           "repro-elastic-*")))
        assert after <= before


class TestStatsAndTraceSchema:
    """CommStats: one schema for the simulated and process paths."""

    def test_same_counter_schema_as_simulator(self):
        spec, lat, grid, _ = _setup()
        _, sim = _execute_distributed(spec, grid.copy(), lat, 8, 2)
        _, ela = _execute_elastic(spec, grid.copy(), lat, 8, 2,
                                 config=ElasticConfig(**FAST))
        assert set(vars(sim)) == set(vars(ela))
        assert "retries" in ela.describe_resilience()
        assert "respawns" in sim.describe_resilience()

    def test_retry_and_crc_counters_reach_the_report(self):
        spec, lat, grid, _ = _setup()
        out, stats = _execute_elastic(
            spec, grid.copy(), lat, 16, 4,
            fault_plan=FaultPlan([FaultSpec("flip_bits", group=2,
                                            task=0)]),
            config=ElasticConfig(**FAST))
        assert stats.checksum_failures >= 1
        assert stats.retries >= 1
        text = stats.describe_resilience()
        assert "checksum_failures=" in text and "retries=" in text

    def test_elastic_retry_policy_is_configurable(self):
        spec, lat, grid, base = _setup()
        cfg = ElasticConfig(retry=RetryPolicy(timeout_s=0.1,
                                              max_retries=5), **FAST)
        out, _ = _execute_elastic(
            spec, grid.copy(), lat, 16, 4,
            fault_plan=FaultPlan([FaultSpec("drop_msg", group=1,
                                            task=2)]),
            config=cfg)
        assert np.array_equal(base, out)

    def test_sanitize_preflight_rejects_undersized_ghost(self):
        from repro.api import RunConfig, Session
        from repro.runtime import SanitizerViolation

        spec, lat, grid, _ = _setup()
        config = RunConfig(backend="elastic", steps=8, ranks=4, ghost=1,
                           sanitize=True)
        with pytest.raises(SanitizerViolation):
            Session(spec).execute(grid.copy(), config=config, lattice=lat)
