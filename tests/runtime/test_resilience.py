"""Fault-injection and recovery tests for the resilience layer.

The headline property (ISSUE 1 acceptance): a run with injected
transient faults plus checkpoint/restart recovery produces results
*bit-identical* to a fault-free run — for the tessellation and the
baselines — because every restart deterministically replays the same
region applications on restored state.
"""

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice
from repro.baselines import diamond_schedule, naive_schedule
from repro.core.schedules import tess_schedule
from repro.runtime import (
    ExecutionError,
    FaultPlan,
    FaultSpec,
    GuardViolation,
    InjectedFault,
    ResiliencePolicy,
)
from repro.runtime.resilience import _execute_resilient
from repro.runtime.schedule import _execute_schedule
from repro.runtime.threadpool import _execute_threaded
from repro.runtime.schedule import RegionAction, RegionSchedule
from repro.runtime.tracing import ExecutionTrace

pytestmark = pytest.mark.faults

SPEC = get_stencil("heat2d")
SHAPE = (40, 40)
STEPS = 12
B = 4


def _tess():
    lat = make_lattice(SPEC, SHAPE, B)
    return tess_schedule(SPEC, SHAPE, lat, STEPS, merged=True)


def _schedules():
    return {
        "tess": _tess(),
        "naive": naive_schedule(SPEC, SHAPE, STEPS, chunks=4),
        "diamond": diamond_schedule(SPEC, SHAPE, B, STEPS),
    }


class _SleepClock:
    """Stands in for the ``time`` module: only ``sleep`` moves the clock."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def schedules():
    return _schedules()


@pytest.fixture(scope="module")
def references(schedules):
    out = {}
    for name, sched in schedules.items():
        g = Grid(SPEC, SHAPE, seed=0)
        out[name] = _execute_schedule(SPEC, g, sched).copy()
    return out


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(["crash@2", "corrupt@0/3", "drop@1x99"])
        assert [f.kind for f in plan.faults] == ["crash", "corrupt", "drop"]
        assert plan.faults[1].task == 3
        assert plan.faults[2].max_hits == 99

    @pytest.mark.parametrize("bad", ["boom@1", "crash", "crash@-1",
                                     "crash@1/2/3", "drop@"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse([bad])

    def test_random_is_deterministic(self):
        a = FaultPlan.random(20, rate=0.5, seed=7, max_task=3)
        b = FaultPlan.random(20, rate=0.5, seed=7, max_task=3)
        assert [f.describe() for f in a.faults] == \
               [f.describe() for f in b.faults]
        c = FaultPlan.random(20, rate=0.5, seed=8, max_task=3)
        assert [f.describe() for f in a.faults] != \
               [f.describe() for f in c.faults]

    def test_hits_burn_out_and_reset(self):
        plan = FaultPlan([FaultSpec("crash", group=0, task=0)])
        assert plan.crash_fault(0, 0) is not None
        assert plan.crash_fault(0, 0) is None  # transient: burned out
        plan.reset()
        assert plan.crash_fault(0, 0) is not None

    def test_wildcard_task_matches_any(self):
        plan = FaultPlan([FaultSpec("crash", group=1, task=None)])
        assert plan.crash_fault(1, 5) is not None

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("explode", group=0)


class TestRecoveryBitIdentical:
    """Seeded property-style sweep: transient faults recover exactly."""

    def test_fault_free_matches_sequential(self, schedules, references):
        for name, sched in schedules.items():
            g = Grid(SPEC, SHAPE, seed=0)
            out, report = _execute_resilient(SPEC, g, sched)
            assert np.array_equal(references[name], out), name
            assert report.restores == 0 and report.task_retries == 0

    @pytest.mark.parametrize("scheme", ["tess", "naive", "diamond"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_transient_faults_recover(self, scheme, seed,
                                             schedules, references):
        sched = schedules[scheme]
        plan = FaultPlan.random(sched.num_groups, rate=0.5, seed=seed,
                                max_task=1)
        g = Grid(SPEC, SHAPE, seed=0)
        out, report = _execute_resilient(SPEC, g, sched, fault_plan=plan,
                                        num_threads=4)
        assert np.array_equal(references[scheme], out)
        if plan.faults:
            assert plan.total_hits > 0  # the plan actually fired

    def test_crash_corrupt_stall_combined(self, schedules, references):
        sched = schedules["tess"]
        plan = FaultPlan([
            FaultSpec("crash", group=1, task=0),
            FaultSpec("corrupt", group=3, task=1),
            FaultSpec("stall", group=2, task=0, stall_s=0.03),
        ])
        policy = ResiliencePolicy(task_deadline_s=0.02)
        g = Grid(SPEC, SHAPE, seed=0)
        trace = ExecutionTrace(scheme=sched.scheme)
        out, report = _execute_resilient(SPEC, g, sched, policy=policy,
                                        fault_plan=plan, num_threads=4,
                                        trace=trace)
        assert np.array_equal(references["tess"], out)
        assert report.task_retries >= 2      # crash + stalled deadline
        assert report.guard_violations == 1  # the silent corruption
        assert report.restores >= 1          # repaired from checkpoint
        kinds = trace.event_counts()
        assert kinds.get("retry", 0) >= 2
        assert kinds.get("restore", 0) >= 1
        assert kinds.get("checkpoint", 0) == report.checkpoints_taken

    def test_checkpoint_interval_zero_replays_from_start(self, schedules,
                                                         references):
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("corrupt", group=3, task=0)])
        policy = ResiliencePolicy(checkpoint_interval=0)
        g = Grid(SPEC, SHAPE, seed=0)
        out, report = _execute_resilient(SPEC, g, sched, policy=policy,
                                        fault_plan=plan)
        assert np.array_equal(references["tess"], out)
        assert report.checkpoints_taken == 1  # the initial snapshot only
        assert report.restores == 1

    def test_task_retry_is_not_naive_rerun(self, schedules, references,
                                           monkeypatch):
        """Stall-after-completion then retry: the undo log matters.

        A stalled task has already applied all its actions when the
        deadline trips; blindly re-running it would read its own
        same-parity writes and silently corrupt the grid (this was a
        real bug — the undo log restores the task's write footprint
        before every retry).  The executor's clock only advances in
        ``sleep``, so the deadline trips on the stalled task alone, not
        on a task a loaded machine happens to slow down.
        """
        from repro.runtime import resilience

        monkeypatch.setattr(resilience, "time", _SleepClock())
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("stall", group=2, task=0,
                                    stall_s=0.03)])
        policy = ResiliencePolicy(task_deadline_s=0.01)
        g = Grid(SPEC, SHAPE, seed=0)
        out, report = _execute_resilient(SPEC, g, sched, policy=policy,
                                        fault_plan=plan)
        assert np.array_equal(references["tess"], out)
        assert report.task_retries == 1


class TestFailurePaths:
    def test_persistent_crash_raises_structured(self, schedules):
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("crash", group=2, task=0,
                                    max_hits=1000)])
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ExecutionError) as ei:
            _execute_resilient(SPEC, g, sched, fault_plan=plan,
                              num_threads=4)
        assert ei.value.group == 2
        assert ei.value.scheme == sched.scheme
        assert ei.value.attempts >= 3  # retries + restarts exhausted

    def test_persistent_crash_degrades_to_sequential(self, schedules):
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("crash", group=2, task=0,
                                    max_hits=1000)])
        g = Grid(SPEC, SHAPE, seed=0)
        try:
            _execute_resilient(SPEC, g, sched, fault_plan=plan,
                              num_threads=4,
                              trace=(tr := ExecutionTrace(sched.scheme)))
        except ExecutionError:
            pass
        assert tr.event_counts().get("degrade", 0) >= 1

    def test_zero_tolerance_policy_fails_fast(self, schedules):
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("crash", group=1, task=0)])
        policy = ResiliencePolicy(max_task_retries=0, max_group_restarts=0)
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ExecutionError):
            _execute_resilient(SPEC, g, sched, policy=policy,
                              fault_plan=plan)

    def test_guard_violation_when_no_restarts_left(self, schedules):
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("corrupt", group=1, task=0)])
        policy = ResiliencePolicy(max_task_retries=0, max_group_restarts=0)
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(GuardViolation) as ei:
            _execute_resilient(SPEC, g, sched, policy=policy,
                              fault_plan=plan)
        assert ei.value.group == 1

    def test_wall_deadline_turns_stall_into_structured_error(self,
                                                             schedules):
        """A wedged worker cannot hang the run past the wall budget.

        The stall here sleeps far longer than the whole-run deadline;
        without the wall clock the run would block for the full
        ``stall_s`` (and forever, for a real wedge).  With it, the
        sleeping task is interrupted and a typed
        :class:`StallTimeoutError` names the stalled task — not
        retried, not replayed (the budget is global).
        """
        import time as _time

        from repro.runtime import StallTimeoutError

        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("stall", group=2, task=0,
                                    stall_s=30.0)])
        policy = ResiliencePolicy(wall_deadline_s=0.25)
        g = Grid(SPEC, SHAPE, seed=0)
        t0 = _time.perf_counter()
        with pytest.raises(StallTimeoutError) as ei:
            _execute_resilient(SPEC, g, sched, policy=policy,
                              fault_plan=plan)
        elapsed = _time.perf_counter() - t0
        assert elapsed < 10.0, "stall was served instead of interrupted"
        assert ei.value.group == 2
        assert ei.value.deadline_s == pytest.approx(0.25)
        assert ei.value.elapsed_s >= 0.25
        # StallTimeoutError is an ExecutionError: the CLI maps it to
        # the structured exit code 3 rather than a hang or traceback
        assert isinstance(ei.value, ExecutionError)

    def test_wall_deadline_not_tripped_by_healthy_run(self, schedules,
                                                      references):
        policy = ResiliencePolicy(wall_deadline_s=120.0)
        g = Grid(SPEC, SHAPE, seed=0)
        out, _ = _execute_resilient(SPEC, g, schedules["tess"],
                                   policy=policy)
        assert np.array_equal(references["tess"], out)

    def test_structural_preflight(self):
        sched = RegionSchedule(scheme="bad", shape=SHAPE, steps=2)
        sched.add(0, [RegionAction(t=5, region=((0, 4), (0, 4)))])
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ValueError, match="outside"):
            _execute_resilient(SPEC, g, sched)

    def test_private_tasks_rejected(self, schedules):
        sched = RegionSchedule(scheme="ghost", shape=SHAPE, steps=STEPS,
                               private_tasks=True)
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ValueError, match="private"):
            _execute_resilient(SPEC, g, sched)


class TestThreadedFailFast:
    """Satellite: _execute_threaded cancels + raises structured errors."""

    def test_crash_raises_execution_error(self, schedules):
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("crash", group=1, task=0)])
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ExecutionError) as ei:
            _execute_threaded(SPEC, g, sched, num_threads=4,
                             fault_plan=plan)
        assert ei.value.group == 1
        assert ei.value.scheme == sched.scheme
        assert isinstance(ei.value.__cause__, InjectedFault)

    def test_error_reports_cancelled_tasks(self, schedules):
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("crash", group=1, task=0)])
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ExecutionError, match="cancelled"):
            _execute_threaded(SPEC, g, sched, num_threads=2,
                             fault_plan=plan)

    def test_clean_run_unchanged(self, schedules, references):
        g = Grid(SPEC, SHAPE, seed=0)
        out = _execute_threaded(SPEC, g, schedules["tess"], num_threads=4)
        assert np.array_equal(references["tess"], out)
