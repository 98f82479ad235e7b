"""Fault-injection and recovery tests for the resilience layer.

The headline property (ISSUE 1 acceptance): a run with injected
transient faults plus checkpoint/restart recovery produces results
*bit-identical* to a fault-free run — for the tessellation and the
baselines — because every restart deterministically replays the same
region applications on restored state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Grid, get_stencil, make_lattice
from repro.api import RunConfig, Session
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
from repro.stencils import reference_sweep

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


def _patch_clock(mp):
    """Give the executor and its task body one :class:`_SleepClock`."""
    from repro.runtime import resilience, threadpool

    clock = _SleepClock()
    mp.setattr(resilience, "time", clock)
    mp.setattr(threadpool, "time", clock)


def _same_bytes(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


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
            assert report.restores == 0

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

    def test_crash_corrupt_stall_combined(self, schedules, references,
                                          monkeypatch):
        # only the stall may trip the deadline: an overrun elsewhere in
        # group 3 would fail it before the guard saw the corruption
        _patch_clock(monkeypatch)
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
        # the crash, the overrun and the corruption each replay a group
        assert report.restores >= 3
        assert report.guard_violations == 1  # the silent corruption
        kinds = trace.event_counts()
        assert kinds.get("restore", 0) == report.restores
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

    def test_group_replay_is_not_naive_rerun(self, schedules, references,
                                             monkeypatch):
        """Stall-after-completion then replay from the barrier snapshot.

        A stalled task has already applied all its actions when the
        deadline trips; blindly re-running it would read its own
        same-parity writes and silently corrupt the grid.  Replaying
        the group from the checkpoint restores the whole buffer pair
        first.  The executor's clock only advances in ``sleep``, so the
        deadline trips on the stalled task alone, not on a task a
        loaded machine happens to slow down.
        """
        _patch_clock(monkeypatch)
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("stall", group=2, task=0,
                                    stall_s=0.03)])
        policy = ResiliencePolicy(task_deadline_s=0.01)
        g = Grid(SPEC, SHAPE, seed=0)
        out, report = _execute_resilient(SPEC, g, sched, policy=policy,
                                        fault_plan=plan)
        assert np.array_equal(references["tess"], out)
        assert report.restores == 1


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
        policy = ResiliencePolicy(max_group_restarts=0)
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ExecutionError):
            _execute_resilient(SPEC, g, sched, policy=policy,
                              fault_plan=plan)

    def test_guard_violation_when_no_restarts_left(self, schedules):
        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("corrupt", group=1, task=0)])
        policy = ResiliencePolicy(max_group_restarts=0)
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(GuardViolation) as ei:
            _execute_resilient(SPEC, g, sched, policy=policy,
                              fault_plan=plan)
        assert ei.value.group == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wall_deadline_turns_stall_into_structured_error(self,
                                                             schedules,
                                                             threads):
        """A wedged worker cannot hang the run past the wall budget.

        The stall here sleeps far longer than the whole-run deadline;
        without the wall clock the run would block for the full
        ``stall_s`` (and forever, for a real wedge).  With it, the
        sleeping task is interrupted and a typed
        :class:`StallTimeoutError` names the stalled task — not
        replayed (the budget is global), and raised as itself even
        when a pooled group caught it in a worker.
        """
        import time as _time

        from repro.runtime import StallTimeoutError

        sched = schedules["tess"]
        plan = FaultPlan([FaultSpec("stall", group=2, task=0,
                                    stall_s=30.0)])
        policy = ResiliencePolicy(wall_deadline_s=0.25)
        g = Grid(SPEC, SHAPE, seed=0)
        t0 = _time.perf_counter()
        trace = ExecutionTrace(scheme=sched.scheme)
        with pytest.raises(StallTimeoutError) as ei:
            _execute_resilient(SPEC, g, sched, policy=policy,
                              fault_plan=plan, num_threads=threads,
                              trace=trace)
        elapsed = _time.perf_counter() - t0
        assert trace.event_counts().get("restore", 0) == 0
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


#: staged systems and the shapes their recovery is pinned on
STAGED = {"fdtd1d": (200,), "fdtd2d": (48, 48),
          "shallow_water": (48, 48), "gray_scott": (48, 48)}


class TestStagedRecovery:
    """Staged systems (leading field axis) recover bit-identically."""

    @pytest.fixture(scope="class", params=sorted(STAGED))
    def staged(self, request):
        spec = get_stencil(request.param)
        shape = STAGED[request.param]
        sched = tess_schedule(spec, shape, make_lattice(spec, shape, B), 8,
                              merged=True)
        ref = reference_sweep(spec, Grid(spec, shape, seed=0), 8)
        return spec, shape, sched, ref

    def test_stall_overrun_replays_bit_identically(self, staged,
                                                   monkeypatch):
        spec, shape, sched, ref = staged
        _patch_clock(monkeypatch)
        fired = 0
        for group in range(4):
            for task in range(3):
                plan = FaultPlan([FaultSpec("stall", group=group, task=task,
                                            stall_s=0.05)])
                out, report = _execute_resilient(
                    spec, Grid(spec, shape, seed=0), sched,
                    policy=ResiliencePolicy(task_deadline_s=0.04),
                    fault_plan=plan)
                assert _same_bytes(out, ref), (group, task)
                assert report.restores == plan.total_hits
                fired += plan.total_hits
        assert fired > 0

    def test_corrupt_poisons_every_field(self, staged):
        spec, shape, sched, ref = staged
        fired = 0
        for group in range(4):
            for task in range(3):
                plan = FaultPlan([FaultSpec("corrupt", group=group,
                                            task=task)])
                out, report = _execute_resilient(
                    spec, Grid(spec, shape, seed=0), sched, fault_plan=plan)
                assert report.guard_violations == plan.total_hits, \
                    (group, task)
                assert _same_bytes(out, ref), (group, task)
                fired += plan.total_hits
        assert fired > 0


class TestIntegerCorrupt:
    """An integer grid cannot hold NaN: ``corrupt`` raises instead."""

    SHAPE = (48, 48)

    @pytest.fixture(scope="class")
    def life(self):
        spec = get_stencil("life")
        sched = tess_schedule(spec, self.SHAPE,
                              make_lattice(spec, self.SHAPE, B), 8,
                              merged=True)
        ref = reference_sweep(spec, Grid(spec, self.SHAPE, seed=0), 8)
        return spec, sched, ref

    def test_threaded_raises(self, life):
        spec, sched, _ = life
        plan = FaultPlan.parse(["corrupt@2/0"])
        with pytest.raises(ExecutionError) as ei:
            _execute_threaded(spec, Grid(spec, self.SHAPE, seed=0), sched,
                              num_threads=2, fault_plan=plan)
        assert isinstance(ei.value.__cause__, InjectedFault)
        assert ei.value.group == 2
        assert plan.total_hits == 1

    def test_resilient_replays_once(self, life):
        spec, sched, ref = life
        plan = FaultPlan.parse(["corrupt@2/0"])
        out, report = _execute_resilient(
            spec, Grid(spec, self.SHAPE, seed=0), sched, fault_plan=plan,
            num_threads=2)
        assert _same_bytes(out, ref)
        assert report.restores == 1 and plan.total_hits == 1

    def test_persistent_corrupt_raises(self, life):
        spec, sched, _ = life
        plan = FaultPlan.parse(["corrupt@2/0x1000"])
        with pytest.raises(ExecutionError) as ei:
            _execute_resilient(spec, Grid(spec, self.SHAPE, seed=0), sched,
                               fault_plan=plan, num_threads=2)
        assert ei.value.group == 2
        assert isinstance(ei.value.__cause__, InjectedFault)


#: differential property: kernels and systems, 1D and 2D, float and int
PROPERTY_SHAPES = {"heat1d": 1, "heat2d": 2, "life": 2, "fdtd1d": 1,
                   "fdtd2d": 2}

property_cases = st.tuples(
    st.sampled_from(sorted(PROPERTY_SHAPES)),
    st.integers(min_value=1, max_value=40),       # edge of the shape
    st.integers(min_value=0, max_value=12),       # steps
    st.sampled_from((2, 4)),                      # b
    st.sampled_from(("tess", "tess-unmerged", "diamond", "naive")),
    st.sampled_from(("naive", "compiled")),       # engine
    st.integers(min_value=1, max_value=2),        # threads
    st.integers(min_value=0, max_value=3),        # checkpoint_interval
    st.integers(min_value=0, max_value=2**16),    # fault seed
)


@given(property_cases)
@settings(max_examples=40, deadline=None)
def test_recovery_is_bit_identical_or_refused(case):
    """Every drawn run refuses up front or recovers bit-identically.

    Transient crash, corrupt and stall faults are drawn per group; the
    clock only moves in ``sleep``, so only a stall trips the task
    deadline.  A persistent crash at a drawn group must name it.
    """
    (kernel, edge, steps, b, scheme, engine, threads, interval,
     seed) = case
    spec = get_stencil(kernel)
    shape = (edge,) * PROPERTY_SHAPES[kernel]
    config = RunConfig(shape=shape, steps=steps, scheme=scheme, b=b,
                       backend="resilient", engine=engine,
                       threads=threads,
                       resilience=ResiliencePolicy(
                           checkpoint_interval=interval,
                           task_deadline_s=0.01))
    session = Session(spec)
    grid = Grid(spec, shape, seed=3)
    before = [buf.copy() for buf in grid.buffers]
    with pytest.MonkeyPatch.context() as mp:
        _patch_clock(mp)
        try:
            sched = session.build(config, shape).schedule
            plan = FaultPlan.random(sched.num_groups, rate=0.4, seed=seed,
                                    kinds=("crash", "corrupt", "stall"),
                                    max_task=2)
            result = session.run(config, grid=grid, fault_plan=plan)
        except ValueError:
            # a typed refusal (BackendUnsupported, AdmissionRejected,
            # ...) comes before any buffer is written
            assert all(_same_bytes(x, y)
                       for x, y in zip(before, grid.buffers))
            return
        ref = reference_sweep(spec, Grid(spec, shape, seed=3), steps)
        assert _same_bytes(result.interior, ref), plan.describe()

        gids = sorted(sched.groups())
        if not gids:
            return
        gid = gids[seed % len(gids)]
        dead = FaultPlan([FaultSpec("crash", group=gid, task=0,
                                    max_hits=1000)])
        with pytest.raises(ExecutionError) as ei:
            session.run(config, grid=Grid(spec, shape, seed=3),
                        fault_plan=dead)
        assert ei.value.group == gid
