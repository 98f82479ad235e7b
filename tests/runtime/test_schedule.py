"""Tests for the RegionSchedule substrate."""

import numpy as np
import pytest

from repro.runtime.schedule import (
    RegionAction,
    RegionSchedule,
    ScheduledTask,
    _execute_schedule,
    schedule_stats,
)
from repro.stencils import Grid, heat1d, heat2d


class TestRegionAction:
    def test_points(self):
        assert RegionAction(0, ((0, 4), (1, 3))).points == 8
        assert RegionAction(0, ((2, 2),)).points == 0


class TestScheduledTask:
    def test_points_and_time_range(self):
        t = ScheduledTask(group=0, actions=[
            RegionAction(2, ((0, 3),)), RegionAction(3, ((1, 2),)),
        ])
        assert t.points == 4
        assert t.time_range == (2, 4)

    def test_empty_task(self):
        t = ScheduledTask(group=0, actions=[])
        assert t.points == 0
        assert t.time_range == (0, 0)
        assert t.bounding_box() is None
        assert t.footprint_points() == 0

    def test_bounding_box_union(self):
        t = ScheduledTask(group=0, actions=[
            RegionAction(0, ((2, 5), (0, 1))),
            RegionAction(1, ((0, 3), (4, 6))),
        ])
        assert t.bounding_box() == ((0, 5), (0, 6))
        assert t.footprint_points() == 30


class TestRegionSchedule:
    def test_groups_and_num_groups(self):
        s = RegionSchedule("x", (10,), 4)
        s.add(0, [RegionAction(0, ((0, 10),))])
        s.add(2, [RegionAction(1, ((0, 10),))])
        assert s.num_groups == 3
        assert sorted(s.groups()) == [0, 2]

    def test_validate_structure_catches_bad_time(self):
        s = RegionSchedule("x", (10,), 2)
        s.add(0, [RegionAction(5, ((0, 10),))])
        with pytest.raises(ValueError):
            s.validate_structure()

    def test_validate_structure_catches_bad_rank(self):
        s = RegionSchedule("x", (10,), 2)
        s.add(0, [RegionAction(0, ((0, 10), (0, 1)))])
        with pytest.raises(ValueError):
            s.validate_structure()

    def test_validate_structure_catches_negative_group(self):
        s = RegionSchedule("x", (10,), 2)
        s.add(-1, [RegionAction(0, ((0, 10),))])
        with pytest.raises(ValueError):
            s.validate_structure()


class TestExecuteSchedule:
    def test_runs_in_group_order(self):
        spec = heat1d()
        g = Grid(spec, (8,), seed=0)
        s = RegionSchedule("manual", (8,), 2)
        # deliberately add groups out of order: execution sorts them
        s.add(1, [RegionAction(1, ((0, 8),))])
        s.add(0, [RegionAction(0, ((0, 8),))])
        out = _execute_schedule(spec, g, s)
        g2 = Grid(spec, (8,), seed=0)
        from repro.stencils import reference_sweep
        ref = reference_sweep(spec, g2, 2)
        assert np.allclose(out, ref)

    def test_rejects_periodic(self):
        spec = heat1d("periodic")
        g = Grid(spec, (8,), seed=0)
        s = RegionSchedule("x", (8,), 1)
        with pytest.raises(ValueError):
            _execute_schedule(spec, g, s)

    def test_rejects_shape_mismatch(self):
        spec = heat1d()
        g = Grid(spec, (9,), seed=0)
        s = RegionSchedule("x", (8,), 1)
        with pytest.raises(ValueError):
            _execute_schedule(spec, g, s)


class TestStats:
    def test_stats_fields(self):
        spec = heat2d()
        s = RegionSchedule("x", (4, 4), 2)
        s.add(0, [RegionAction(0, ((0, 4), (0, 4)))])
        s.add(1, [RegionAction(1, ((0, 4), (0, 4)))])
        st = schedule_stats(s)
        assert st["tasks"] == 2
        assert st["groups"] == 2
        assert st["total_point_updates"] == 32
        assert st["required_point_updates"] == 32
        assert st["redundancy"] == 0.0
        assert st["max_group_width"] == 1


class TestVerifySchedule:
    """``verify_schedule`` compares bytes, so one ulp is a failure."""

    @staticmethod
    def _nudged(monkeypatch, nudge):
        import repro.runtime.schedule as schedule_mod

        real = schedule_mod._execute_schedule

        def nudged(spec, grid, schedule, budget=None):
            out = real(spec, grid, schedule, budget=budget)
            out[(1,) * out.ndim] = nudge(out[(1,) * out.ndim])
            return out

        monkeypatch.setattr(schedule_mod, "_execute_schedule", nudged)

    def _sched(self):
        from repro.baselines import naive_schedule

        spec = heat2d()
        return spec, naive_schedule(spec, (12, 12), 4, chunks=3)

    def test_clean_schedule_verifies(self):
        from repro.runtime.schedule import verify_schedule

        spec, sched = self._sched()
        assert verify_schedule(spec, sched) is True

    def test_one_ulp_fails(self, monkeypatch):
        from repro.runtime.schedule import verify_schedule

        spec, sched = self._sched()
        self._nudged(monkeypatch, lambda v: np.nextafter(v, np.inf))
        assert verify_schedule(spec, sched) is False

    def test_flipped_life_cell_fails(self, monkeypatch):
        from repro.baselines import naive_schedule
        from repro.runtime.schedule import verify_schedule
        from repro.stencils import get_stencil

        spec = get_stencil("life")
        sched = naive_schedule(spec, (12, 12), 4, chunks=3)
        self._nudged(monkeypatch, lambda v: 1 - v)
        assert verify_schedule(spec, sched) is False

    def test_no_tolerance_parameters(self):
        import inspect

        from repro.runtime.schedule import verify_schedule

        params = inspect.signature(verify_schedule).parameters
        assert "rtol" not in params and "atol" not in params
