"""Tests for the analytic performance models and wall-clock helpers."""

import json

import pytest

from repro.baselines import naive_schedule
from repro.machine.spec import paper_machine
from repro.perf import (
    arithmetic_intensity,
    machine_balance,
    naive_traffic_bytes,
    roofline_time_s,
    time_schedule,
    timetile_traffic_bytes,
)
from repro.perf.wallclock import check_regression, restored
from repro.stencils import Grid, d3p27, heat1d, heat2d, heat3d


class TestArithmeticIntensity:
    def test_streaming_intensity(self):
        spec = heat2d()  # 9 flops, 24 bytes
        assert arithmetic_intensity(spec) == pytest.approx(9 / 24)

    def test_uncached_lower(self):
        spec = heat2d()
        assert (arithmetic_intensity(spec, cached=False)
                < arithmetic_intensity(spec, cached=True))

    def test_box_has_higher_intensity(self):
        assert (arithmetic_intensity(d3p27())
                > arithmetic_intensity(heat3d()))


class TestTrafficFormulas:
    def test_naive_formula(self):
        spec = heat1d()
        assert naive_traffic_bytes(spec, (100,), 10) == 3 * 8 * 100 * 10

    def test_timetile_reduction(self):
        spec = heat2d()
        naive = naive_traffic_bytes(spec, (64, 64), 32)
        tiled = timetile_traffic_bytes(spec, (64, 64), 32, b=8)
        # 2/3 factor per phase and b-fold fewer phases
        assert tiled == pytest.approx(naive * 2 / (3 * 8))

    def test_timetile_rounds_phases_up(self):
        spec = heat1d()
        t1 = timetile_traffic_bytes(spec, (10,), 9, b=4)  # 3 phases
        t2 = timetile_traffic_bytes(spec, (10,), 8, b=4)  # 2 phases
        assert t1 > t2

    def test_timetile_bad_b(self):
        with pytest.raises(ValueError):
            timetile_traffic_bytes(heat1d(), (10,), 4, b=0)


class TestRoofline:
    def test_compute_bound(self):
        m = paper_machine()
        t = roofline_time_s(m, 1, flops=1e9, traffic_bytes=1.0)
        assert t == pytest.approx(1e9 / m.flop_rate)

    def test_memory_bound(self):
        m = paper_machine()
        t = roofline_time_s(m, 24, flops=1.0, traffic_bytes=1e9)
        assert t == pytest.approx(1e9 / m.total_mem_bw)

    def test_machine_balance_decreases_with_cores(self):
        m = paper_machine()
        # more cores -> more flops per byte available... flops grow
        # linearly, bandwidth saturates: balance rises
        assert machine_balance(m, 24) > machine_balance(m, 2)

    def test_bad_cores(self):
        with pytest.raises(ValueError):
            roofline_time_s(paper_machine(), 0, 1.0, 1.0)


class TestWallclock:
    def test_time_schedule_returns_output(self):
        spec = heat1d()
        sched = naive_schedule(spec, (64,), 4)
        seconds, out = time_schedule(spec, sched)
        assert seconds > 0
        assert out.shape == (64,)

    def test_time_schedule_private(self):
        from repro.baselines import overlapped_schedule

        spec = heat1d()
        sched = overlapped_schedule(spec, (40,), 4, (10,), 2)
        seconds, out = time_schedule(spec, sched)
        assert seconds > 0 and out.shape == (40,)


class TestBenchHarness:
    """The shared ``--check`` gate and restore wrapper of the bench scripts."""

    ROWS = [{"name": "a", "n": 1, "speedup": 10.0},
            {"name": "a", "n": 8, "speedup": 4.0}]

    @staticmethod
    def key(row):
        return (row["name"], row["n"])

    def baseline(self, tmp_path, env=None):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"env": env, "rows": self.ROWS}))
        return str(path)

    def test_rows_within_tolerance_pass(self, tmp_path):
        rows = [dict(r, speedup=0.8 * r["speedup"]) for r in self.ROWS]
        assert check_regression(rows, self.baseline(tmp_path), 0.25,
                                self.key)

    def test_regressed_row_fails_and_is_named(self, tmp_path, capsys):
        rows = [self.ROWS[0], dict(self.ROWS[1], speedup=2.9)]
        assert not check_regression(rows, self.baseline(tmp_path), 0.25,
                                    self.key)
        assert "a/8: speedup 2.90x" in capsys.readouterr().err

    def test_rows_match_by_the_given_key(self, tmp_path):
        # keyed by name alone, the n=1 row meets the n=8 baseline row
        rows = [dict(self.ROWS[0], speedup=3.5)]
        path = self.baseline(tmp_path)
        assert not check_regression(rows, path, 0.25, self.key)
        assert check_regression(rows, path, 0.25, lambda r: (r["name"],))

    def test_no_common_row_fails(self, tmp_path):
        rows = [{"name": "b", "n": 1, "speedup": 99.0}]
        assert not check_regression(rows, self.baseline(tmp_path), 0.25,
                                    self.key)

    def test_env_mismatch_only_warns(self, tmp_path, capsys):
        path = self.baseline(tmp_path, env={"cpus": 64})
        assert check_regression(self.ROWS, path, 0.25, self.key,
                                env={"cpus": 2})
        assert "WARNING" in capsys.readouterr().err

    def test_restored_starts_every_run_from_init(self):
        grid = Grid(heat1d(), (32,), seed=0)
        init = [buf.copy() for buf in grid.buffers]

        def bump():
            grid.buffers[0] += 1.0
            return grid.buffers[0].copy()

        run = restored(grid, init, bump)
        assert run().tobytes() == run().tobytes()
