"""Schedule sanitizer: clean schemes, seeded mutations, wiring.

The headline guarantees tested here:

* every shipped scheme (all baselines, tessellation merged/unmerged,
  §3.6 stretched and high-order configs, §4.2 coarsened lattices)
  sanitizes **clean**, and
* every seeded mutation kind — dropped action, shifted region,
  premature group merge, undersized ghost band — is **detected** on at
  least three schemes, with the violation naming the offending
  group/task/step.

Together these pin down the sanitizer's false-positive and
false-negative behaviour on the whole scheme zoo.
"""

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice
from repro.api import RunConfig, Session
from repro.cli import SCHEMES, _build_schedule
from repro.core.profiles import AxisProfile, TessLattice
from repro.core.schedules import tess_schedule
from repro.distributed.partition import SlabPartition
from repro.runtime import (
    RegionAction,
    RegionSchedule,
    SanitizerViolation,
    apply_mutation,
    drop_action,
    merge_groups,
    sanitize_distributed_plan,
    sanitize_schedule,
    shift_region,
    verify_schedule,
)
from repro.runtime.tracing import ExecutionTrace

pytestmark = pytest.mark.sanitizer


def build(scheme, kernel="heat1d", shape=(300,), steps=8, b=4):
    return _build_schedule(get_stencil(kernel), shape, steps, scheme, b)


class TestCleanSchemes:
    """All shipped schemes must sanitize clean (no false positives)."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kernel,shape", [
        ("heat1d", (300,)),
        ("heat2d", (48, 48)),
        ("life", (40, 40)),
    ])
    def test_scheme_is_clean(self, scheme, kernel, shape):
        spec = get_stencil(kernel)
        sched = _build_schedule(spec, shape, 8, scheme, 4)
        report = sanitize_schedule(spec, sched)
        assert report.ok, report.describe()
        assert report.actions_checked > 0

    @pytest.mark.parametrize("n", [37, 101])
    def test_stretched_lattice_is_clean(self, n):
        """§3.6: grid size not a multiple of the period (Fig. 6)."""
        spec = get_stencil("heat1d")
        prof = AxisProfile.stretched(n, b=4, sigma=spec.slopes[0])
        sched = tess_schedule(spec, (n,), TessLattice((prof,)), 12)
        report = sanitize_schedule(spec, sched)
        assert report.ok, report.describe()
        assert verify_schedule(spec, sched)

    @pytest.mark.parametrize("kernel,shape", [
        ("1d5p", (200,)),          # high-order: slope 2
        ("heat3d", (14, 14, 14)),
        ("3d27p", (14, 14, 14)),
    ])
    @pytest.mark.parametrize("merged", [True, False])
    def test_high_order_and_3d_clean(self, kernel, shape, merged):
        spec = get_stencil(kernel)
        lat = make_lattice(spec, shape, 3)
        sched = tess_schedule(spec, shape, lat, 6, merged=merged)
        report = sanitize_schedule(spec, sched)
        assert report.ok, report.describe()

    def test_coarsened_lattice_clean(self):
        """§4.2 coarsening with the merge-compatible period."""
        spec = get_stencil("heat2d")
        b, w = 3, 4
        profs = tuple(
            AxisProfile.coarse(24, b, sigma=1, core_width=w,
                               period=2 * w + 2 * (b - 1))
            for _ in range(2)
        )
        sched = tess_schedule(spec, (24, 24), TessLattice(profs), 6,
                              merged=True)
        assert sanitize_schedule(spec, sched).ok

    def test_periodic_spec_rejected(self):
        spec = get_stencil("heat1d", boundary="periodic")
        sched = RegionSchedule(scheme="x", shape=(16,), steps=1)
        with pytest.raises(ValueError, match="periodic"):
            sanitize_schedule(spec, sched)


# the three structural mutation kinds, each applied to >= 3 schemes;
# (scheme, group-to-mutate) pairs chosen so the mutation is actually
# illegal (merging the first two groups of the skewed wavefront is
# legal — both tiles are at the same step — so skewed merges group 1)
DROP_CASES = ["tess", "tess-unmerged", "diamond", "mwd", "naive",
              "pochoir", "hexagonal", "spatial"]
SHIFT_CASES = DROP_CASES + ["skewed"]
MERGE_CASES = [("tess", 0), ("diamond", 0), ("mwd", 0), ("naive", 0),
               ("pochoir", 0), ("hexagonal", 0), ("skewed", 1)]


class TestSeededMutations:
    """Every mutation kind is caught, naming group/task/step."""

    @pytest.mark.parametrize("scheme", DROP_CASES)
    def test_dropped_action_detected(self, scheme):
        spec = get_stencil("heat1d")
        sched = build(scheme)
        report = sanitize_schedule(spec, drop_action(sched, 0, 0))
        assert not report.ok
        kinds = report.kinds()
        assert "gap" in kinds or "missing-dependence" in kinds
        assert any(v.step is not None for v in report.violations)

    @pytest.mark.parametrize("scheme", SHIFT_CASES)
    def test_shifted_region_detected(self, scheme):
        spec = get_stencil("heat1d")
        sched = build(scheme)
        report = sanitize_schedule(spec, shift_region(sched, 0, 0))
        assert not report.ok
        kinds = report.kinds()
        assert ("double-write" in kinds or "gap" in kinds
                or "out-of-bounds" in kinds)

    @pytest.mark.parametrize("scheme,group", MERGE_CASES)
    def test_merged_groups_detected(self, scheme, group):
        spec = get_stencil("heat1d")
        sched = build(scheme)
        report = sanitize_schedule(spec, merge_groups(sched, group))
        assert not report.ok
        kinds = report.kinds()
        assert "missing-dependence" in kinds or "race" in kinds

    def test_violation_names_group_task_step(self):
        spec = get_stencil("heat1d")
        sched = build("tess")
        report = sanitize_schedule(spec, merge_groups(sched, 0))
        v = report.violations[0]
        assert v.group is not None
        assert v.task
        assert v.step is not None
        text = v.describe()
        assert f"group {v.group}" in text
        assert f"step {v.step}" in text
        assert v.task in text

    def test_out_of_bounds_shift_detected(self):
        """Shifting the domain-edge region past the boundary."""
        spec = get_stencil("heat1d")
        sched = build("naive")
        report = sanitize_schedule(
            spec, shift_region(sched, 0, 0, delta=-1))
        assert not report.ok
        assert "out-of-bounds" in report.kinds()

    @pytest.mark.parametrize("mutate", [
        lambda s: drop_action(s, 0, 0),
        lambda s: shift_region(s, 0, 0),
        lambda s: merge_groups(s, 0),
        lambda s: shift_region(s, 0, 0, action=-1),
    ])
    def test_private_task_mutations_detected(self, mutate):
        """Ghost-zone (overlapped) schedules get the private battery."""
        spec = get_stencil("heat1d")
        sched = build("overlapped")
        report = sanitize_schedule(spec, mutate(sched))
        assert not report.ok

    def test_mutators_do_not_modify_input(self):
        spec = get_stencil("heat1d")
        sched = build("tess")
        before = sum(len(t.actions) for t in sched.tasks)
        drop_action(sched, 0, 0)
        shift_region(sched, 0, 0)
        merge_groups(sched, 0)
        assert sum(len(t.actions) for t in sched.tasks) == before
        assert sanitize_schedule(spec, sched).ok

    def test_apply_mutation_spec_parsing(self):
        sched = build("naive")
        mutated = apply_mutation(sched, "drop-action@0/1")
        assert sum(len(t.actions) for t in mutated.tasks) == \
            sum(len(t.actions) for t in sched.tasks) - 1
        with pytest.raises(ValueError, match="bad mutation spec"):
            apply_mutation(sched, "drop-action")
        with pytest.raises(ValueError, match="unknown mutation kind"):
            apply_mutation(sched, "explode@0")
        with pytest.raises(ValueError, match="no tasks in barrier group"):
            apply_mutation(sched, "drop-action@999")


class TestRedundancyDeclaration:
    """Double writes pass only when the schedule declares them."""

    def _double_write(self):
        spec = get_stencil("heat1d")
        sched = RegionSchedule(scheme="dup", shape=(16,), steps=1)
        sched.add(0, [RegionAction(t=0, region=((0, 16),))], label="a")
        sched.add(1, [RegionAction(t=0, region=((0, 16),))], label="b")
        return spec, sched

    def test_undeclared_double_write_flagged(self):
        spec, sched = self._double_write()
        report = sanitize_schedule(spec, sched)
        assert "double-write" in report.kinds()

    def test_declared_redundant_passes(self):
        spec, sched = self._double_write()
        assert sanitize_schedule(spec, sched, redundant=True).ok
        sched.redundant = True
        assert sanitize_schedule(spec, sched).ok

    def test_overlapped_ships_declared_redundant(self):
        sched = build("overlapped")
        assert sched.redundant and sched.private_tasks

    def test_redundant_gap_still_flagged(self):
        spec = get_stencil("heat1d")
        sched = RegionSchedule(scheme="dup", shape=(16,), steps=1,
                               redundant=True)
        sched.add(0, [RegionAction(t=0, region=((0, 8),))], label="a")
        report = sanitize_schedule(spec, sched)
        assert "gap" in report.kinds()


class TestExecutorWiring:
    """The sanitize pre-flight, which ``Session`` runs for every backend."""

    def _mutated(self):
        spec = get_stencil("heat1d")
        return spec, merge_groups(build("tess"), 0)

    def test_verify_schedule_sanitize_flag(self):
        spec, bad = self._mutated()
        assert verify_schedule(spec, build("tess"), sanitize=True)
        with pytest.raises(SanitizerViolation):
            verify_schedule(spec, bad, sanitize=True)

    def test_execute_threaded_preflight(self):
        spec, bad = self._mutated()
        session = Session(spec)
        config = RunConfig(backend="threaded", threads=2, sanitize=True)
        out = session.execute(Grid(spec, (300,), seed=1), build("tess"),
                              config=config).interior
        assert np.isfinite(out).all()
        g = Grid(spec, (300,), seed=1)
        before = [buf.tobytes() for buf in g.buffers]
        with pytest.raises(SanitizerViolation):
            session.execute(g, bad, config=config)
        assert [buf.tobytes() for buf in g.buffers] == before

    def test_execute_resilient_preflight_and_trace(self):
        spec, bad = self._mutated()
        session = Session(spec)
        trace = ExecutionTrace(scheme="tess")
        result = session.execute(Grid(spec, (300,), seed=1), build("tess"),
                                 backend="resilient", sanitize=True,
                                 trace=trace)
        assert result.stats.resilience.groups_run > 0
        assert trace.event_counts().get("sanitize") == 1
        trace_bad = ExecutionTrace(scheme="tess")
        with pytest.raises(SanitizerViolation) as exc:
            session.execute(Grid(spec, (300,), seed=1), bad,
                            backend="resilient", sanitize=True,
                            trace=trace_bad)
        assert exc.value.violations
        counts = trace_bad.event_counts()
        assert counts.get("sanitize") == 1
        assert counts.get("violation", 0) >= 1

    def test_sanitizer_violation_is_guard_subclass(self):
        """exit-code layering: callers catching GuardViolation still see
        sanitizer findings, but the CLI maps them to exit 5 first."""
        from repro.runtime.errors import GuardViolation

        spec, bad = self._mutated()
        report = sanitize_schedule(spec, bad)
        with pytest.raises(GuardViolation):
            report.raise_if_violations()


class TestDistributedGhostBand:
    """Rank-local plans: clean at the required width, loud below it."""

    @pytest.mark.parametrize("kernel,shape", [
        ("heat1d", (400,)), ("heat2d", (48, 48)),
    ])
    def test_required_width_is_clean(self, kernel, shape):
        spec = get_stencil(kernel)
        lat = make_lattice(spec, shape, 4)
        report = sanitize_distributed_plan(spec, lat, 12, 4)
        assert report.ok, report.describe()

    @pytest.mark.parametrize("kernel,shape,ranks", [
        ("heat1d", (400,), 4),
        ("heat1d", (400,), 2),
        ("heat2d", (48, 48), 3),
    ])
    def test_undersized_ghost_detected(self, kernel, shape, ranks):
        spec = get_stencil(kernel)
        lat = make_lattice(spec, shape, 4)
        report = sanitize_distributed_plan(spec, lat, 12, ranks, ghost=1)
        assert not report.ok
        assert set(report.kinds()) == {"ghost-band"}
        v = report.violations[0]
        assert "rank" in v.detail and "required ghost width" in v.detail
        assert v.task and v.step is not None and v.group is not None

    @pytest.mark.parametrize("ghost", [5, 7])
    def test_band_the_executor_refuses_is_reported(self, ghost):
        """Every read fits a band of 5 here, but the executor refuses
        any band below ``SlabPartition.ghost_width`` (8): the pre-flight
        must not pass a run the executor then refuses."""
        spec = get_stencil("heat1d")
        lat = make_lattice(spec, (400,), 4)
        required = SlabPartition((400,), 4).ghost_width(lat)
        assert required == 8
        report = sanitize_distributed_plan(spec, lat, 16, 4, ghost=ghost)
        assert set(report.kinds()) == {"ghost-band"}
        assert f"required ghost width is {required}" \
            in report.violations[0].detail

    @pytest.mark.parametrize("n", [37, 101])
    def test_stretched_lattice_plan_is_clean(self, n):
        """§3.6 stretched blocks: clean at the lattice-derived width."""
        spec = get_stencil("heat1d")
        prof = AxisProfile.stretched(n, b=4, sigma=spec.slopes[0])
        lat = TessLattice((prof,))
        report = sanitize_distributed_plan(spec, lat, 12, 3)
        assert report.ok, report.describe()
        assert report.actions_checked > 0

    @pytest.mark.parametrize("n", [37, 101])
    def test_stretched_lattice_undersized_ghost_reports_width(self, n):
        """The violation must *name* the required band width: stretched
        plateaus widen it beyond the uniform-lattice value, so a caller
        fixing the band needs the number, not just a failure."""
        spec = get_stencil("heat1d")
        prof = AxisProfile.stretched(n, b=4, sigma=spec.slopes[0])
        lat = TessLattice((prof,))
        required = SlabPartition((n,), 3).ghost_width(lat)
        report = sanitize_distributed_plan(spec, lat, 12, 3, ghost=1)
        assert not report.ok
        assert set(report.kinds()) == {"ghost-band"}
        assert f"required ghost width is {required}" \
            in report.violations[0].detail

    def test_periodic_grid_lattice_plan_is_clean(self):
        """A lattice with an explicit (non-default) period still yields
        a clean distributed plan at its required width."""
        spec = get_stencil("heat2d")
        b, w = 3, 4
        period = 2 * w + 2 * (b - 1)
        lat = make_lattice(spec, (48, 48), b, core_widths=(w, w),
                           periods=(period, period))
        report = sanitize_distributed_plan(spec, lat, 9, 3)
        assert report.ok, report.describe()

    def test_periodic_grid_lattice_undersized_ghost_detected(self):
        spec = get_stencil("heat2d")
        b, w = 3, 4
        period = 2 * w + 2 * (b - 1)
        lat = make_lattice(spec, (48, 48), b, core_widths=(w, w),
                           periods=(period, period))
        required = SlabPartition((48, 48), 3).ghost_width(lat)
        report = sanitize_distributed_plan(spec, lat, 9, 3, ghost=1)
        assert not report.ok
        assert f"required ghost width is {required}" \
            in report.violations[0].detail

    def test_execute_distributed_preflight(self):
        spec = get_stencil("heat1d")
        lat = make_lattice(spec, (400,), 4)
        g = Grid(spec, (400,), seed=0)
        session = Session(spec)
        config = RunConfig(backend="distributed", steps=8, ranks=4,
                           sanitize=True)
        out = session.execute(g.copy(), config=config, lattice=lat).interior
        assert np.isfinite(out).all()
        with pytest.raises(SanitizerViolation):
            session.execute(g.copy(), config=config, lattice=lat, ghost=1)


class TestReportSurface:
    def test_report_describe_and_counters(self):
        spec = get_stencil("heat1d")
        report = sanitize_schedule(spec, build("tess"))
        text = report.describe()
        assert "clean" in text and "actions" in text
        assert report.steps_checked == 8
        assert report.pairs_checked > 0
        assert report.seconds >= 0

    def test_structure_violations_short_circuit(self):
        """A malformed schedule reports structure errors only (the
        deeper checks would be meaningless)."""
        spec = get_stencil("heat1d")
        sched = RegionSchedule(scheme="x", shape=(16,), steps=2)
        sched.add(0, [RegionAction(t=7, region=((0, 16),))], label="late")
        report = sanitize_schedule(spec, sched)
        assert set(report.kinds()) == {"structure"}

    def test_exit_code_constant(self):
        from repro.runtime.errors import EXIT_GUARD, EXIT_SANITIZER

        assert EXIT_SANITIZER == 5
        assert EXIT_SANITIZER != EXIT_GUARD
