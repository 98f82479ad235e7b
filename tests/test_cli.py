"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCliRun:
    def test_run_tess_verifies(self, capsys):
        rc = main(["run", "heat1d", "--shape", "400", "--steps", "12",
                   "--scheme", "tess", "-b", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified against naive sweep: OK" in out

    @pytest.mark.parametrize("scheme", ["naive", "diamond", "pochoir",
                                        "mwd", "overlapped",
                                        "tess-unmerged"])
    def test_all_schemes(self, scheme, capsys):
        rc = main(["run", "heat1d", "--shape", "300", "--steps", "8",
                   "--scheme", scheme, "-b", "4"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_run_threaded(self, capsys):
        rc = main(["run", "heat2d", "--shape", "60", "60", "--steps", "6",
                   "--scheme", "tess", "-b", "2", "--threads", "2"])
        assert rc == 0

    def test_life_integer_kernel(self, capsys):
        rc = main(["run", "life", "--shape", "48", "48", "--steps", "6",
                   "--scheme", "diamond", "-b", "2"])
        assert rc == 0

    def test_unknown_kernel_maps_to_usage_exit(self, capsys):
        rc = main(["run", "heat9d"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestCliResilience:
    """Structured exit codes and the --resilient/--inject flag pair."""

    def test_resilient_recovers_injected_faults(self, capsys):
        rc = main(["run", "heat2d", "--shape", "48", "48", "--steps", "8",
                   "-b", "4", "--threads", "2", "--resilient",
                   "--inject", "crash@1/0", "--inject", "corrupt@3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience:" in out
        assert "verified against naive sweep: OK" in out

    def test_persistent_crash_exits_3(self, capsys):
        rc = main(["run", "heat1d", "--shape", "300", "--steps", "8",
                   "-b", "4", "--inject", "crash@1x999"])
        assert rc == 3
        assert "execution failed:" in capsys.readouterr().err

    def test_fail_fast_corruption_exits_4(self, capsys):
        rc = main(["run", "heat1d", "--shape", "300", "--steps", "8",
                   "-b", "4", "--fail-fast", "--inject", "corrupt@1"])
        assert rc == 4
        assert "guard violation:" in capsys.readouterr().err

    def test_bad_inject_spec_exits_2(self, capsys):
        rc = main(["run", "heat1d", "--inject", "explode@1"])
        assert rc == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_dist_resilient_recovers_dropped_exchange(self, capsys):
        rc = main(["dist", "heat1d", "--shape", "400", "--steps", "16",
                   "-b", "4", "--ranks", "4", "--resilient",
                   "--inject", "drop@2/1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified OK" in out
        assert "phase_restarts=1" in out

    def test_dist_undersized_ghost_exits_2(self, capsys):
        rc = main(["dist", "heat1d", "--shape", "400", "--steps", "16",
                   "-b", "4", "--ranks", "4", "--check-divergence",
                   "--ghost", "1"])
        assert rc == 2
        assert "required width 8" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["kill_rank", "stall_rank",
                                      "drop_msg", "flip_bits"])
    def test_removed_process_fault_kinds_exit_2(self, kind, capsys):
        rc = main(["dist", "heat1d", "--shape", "400", "--steps", "16",
                   "-b", "4", "--ranks", "4", "--inject", f"{kind}@3/1"])
        assert rc == 2
        assert "bad fault spec" in capsys.readouterr().err


@pytest.mark.sanitizer
class TestCliSanitize:
    """The sanitize subcommand and the --sanitize/--mutate flag pair."""

    def test_sanitize_clean_scheme_exits_0(self, capsys):
        rc = main(["sanitize", "tess", "--kernel", "heat1d",
                   "--steps", "8", "-b", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_sanitize_all_schemes_exits_0(self, capsys):
        rc = main(["sanitize", "all", "--kernel", "heat1d",
                   "--steps", "6", "-b", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("clean") >= 8

    def test_sanitize_mutated_exits_5(self, capsys):
        rc = main(["sanitize", "tess", "--kernel", "heat1d",
                   "--steps", "8", "-b", "4",
                   "--mutate", "drop-action@0"])
        err = capsys.readouterr().err
        assert rc == 5
        assert "sanitizer violation:" in err
        assert "group" in err and "step" in err

    def test_run_sanitize_clean_exits_0(self, capsys):
        rc = main(["run", "heat1d", "--shape", "300", "--steps", "8",
                   "--scheme", "tess", "-b", "4", "--sanitize"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sanitizer:" in out and "clean" in out
        assert "verified against naive sweep: OK" in out

    def test_run_sanitize_mutated_exits_5(self, capsys):
        rc = main(["run", "heat1d", "--shape", "300", "--steps", "8",
                   "--scheme", "tess", "-b", "4", "--sanitize",
                   "--mutate", "shift-region@0"])
        assert rc == 5
        assert "sanitizer violation:" in capsys.readouterr().err

    def test_dist_sanitize_undersized_ghost_exits_5(self, capsys):
        rc = main(["dist", "heat1d", "--shape", "400", "--steps", "8",
                   "-b", "4", "--ranks", "4", "--ghost", "1",
                   "--sanitize"])
        err = capsys.readouterr().err
        assert rc == 5
        assert "ghost-band" in err and "required ghost width" in err

    @pytest.mark.parametrize("ghost", ["5", "7"])
    def test_dist_sanitize_refused_ghost_exits_5(self, ghost, capsys):
        """The pre-flight reports a band the executor would refuse
        (exit 2 after a clean pre-flight, before the fix)."""
        rc = main(["dist", "heat1d", "--shape", "400", "--steps", "16",
                   "-b", "4", "--ranks", "4", "--ghost", ghost,
                   "--sanitize"])
        assert rc == 5
        assert "required ghost width is 8" in capsys.readouterr().err

    def test_dist_sanitize_clean_exits_0(self, capsys):
        rc = main(["dist", "heat1d", "--shape", "400", "--steps", "8",
                   "-b", "4", "--ranks", "4", "--sanitize"])
        assert rc == 0
        assert "verified OK" in capsys.readouterr().out

    def test_sanitize_distributed_plan_via_ranks(self, capsys):
        rc = main(["sanitize", "tess", "--kernel", "heat1d",
                   "--steps", "8", "-b", "4", "--ranks", "4",
                   "--ghost", "1"])
        assert rc == 5
        assert "ghost-band" in capsys.readouterr().err

    def test_bad_mutate_spec_exits_2(self, capsys):
        rc = main(["sanitize", "tess", "--mutate", "explode@0"])
        assert rc == 2
        assert "unknown mutation kind" in capsys.readouterr().err


class TestCliShow:
    def test_show_renders_rows(self, capsys):
        rc = main(["show", "--scheme", "tess", "-n", "32",
                   "--steps", "8", "-b", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("t=") == 8

    def test_show_pochoir(self, capsys):
        rc = main(["show", "--scheme", "pochoir", "-n", "32",
                   "--steps", "6", "-b", "4"])
        assert rc == 0


class TestCliTableAndTune:
    def test_table(self, capsys):
        rc = main(["table", "--max-dim", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stages per phase" in out

    def test_tune(self, capsys):
        rc = main(["tune", "heat1d", "--shape", "2000", "--steps", "16",
                   "--cores", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best configuration" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "heat1d", "--scheme", "magic"])


class TestCliDist:
    def test_dist_verifies_and_scales(self, capsys):
        rc = main(["dist", "heat1d", "--shape", "200", "--steps", "8",
                   "-b", "4", "--ranks", "3", "--nodes", "1", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified OK" in out
        assert "speedup" in out
