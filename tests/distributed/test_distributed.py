"""Tests for the distributed-memory tessellation (§4.1 built out)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Grid, get_stencil, make_lattice, reference_sweep
from repro.distributed import (
    ClusterSpec,
    SlabPartition,
    communication_plan,
    simulate_distributed,
)
from repro.distributed.exec import _execute_distributed
from repro.distributed.plan import plan_totals
from repro.machine.spec import paper_machine


def _bitwise(ref, out):
    return (ref.dtype == out.dtype and ref.shape == out.shape
            and ref.tobytes() == out.tobytes())


class TestPartition:
    def test_bounds_cover_domain(self):
        p = SlabPartition((100,), 7)
        bs = p.bounds()
        assert bs[0][0] == 0 and bs[-1][1] == 100
        assert all(b1[1] == b2[0] for b1, b2 in zip(bs, bs[1:]))

    def test_balanced_sizes(self):
        p = SlabPartition((100,), 7)
        sizes = [hi - lo for lo, hi in p.bounds()]
        assert max(sizes) - min(sizes) <= 1

    def test_owner_lookup(self):
        p = SlabPartition((12,), 3)
        assert p.owner_of(0) == 0
        assert p.owner_of(11) == 2
        assert p.owner_of(-5) == 0      # clamped
        assert p.owner_of(99) == 2      # clamped

    def test_owner_of_box_uses_low_corner(self):
        p = SlabPartition((12, 8), 3)
        assert p.owner_of_box(((7, 11), (0, 8))) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SlabPartition((10,), 0)
        with pytest.raises(ValueError):
            SlabPartition((10,), 11)
        with pytest.raises(ValueError):
            SlabPartition((10,), 2, axis=1)

    def test_ghost_width_covers_block_extent(self):
        spec = get_stencil("heat1d")
        lat = make_lattice(spec, (100,), 5)
        g = SlabPartition((100,), 4).ghost_width(lat)
        # 2(b-1)σ + σ + max(base) = 8 + 1 + plateau(1)
        assert g >= 2 * 4 + 1 + 1


class TestExecuteDistributed:
    @pytest.mark.parametrize("kernel,shape,b,ranks", [
        ("heat1d", (80,), 4, 3),
        ("1d5p", (90,), 3, 3),
        ("heat2d", (30, 24), 3, 2),
        ("2d9p", (28, 26), 2, 3),
        ("life", (24, 20), 2, 3),
        ("heat3d", (16, 12, 10), 2, 2),
        ("3d27p", (14, 12, 10), 2, 2),
    ])
    def test_matches_reference(self, kernel, shape, b, ranks):
        spec = get_stencil(kernel)
        steps = 2 * b + 1
        g1 = Grid(spec, shape, seed=4)
        g2 = g1.copy()
        ref = reference_sweep(spec, g1, steps)
        out, stats = _execute_distributed(spec, g2, make_lattice(spec, shape, b),
                                         steps, ranks)
        assert _bitwise(ref, out)
        assert stats.messages > 0 and stats.bytes_sent > 0

    @given(st.integers(40, 90), st.integers(2, 4), st.integers(2, 4),
           st.integers(0, 12))
    @settings(max_examples=15, deadline=None)
    def test_random_1d(self, n, b, ranks, steps):
        spec = get_stencil("heat1d")
        g1 = Grid(spec, (n,), seed=n)
        g2 = g1.copy()
        ref = reference_sweep(spec, g1, steps)
        out, _ = _execute_distributed(spec, g2, make_lattice(spec, (n,), b),
                                     steps, ranks)
        assert _bitwise(ref, out)

    def test_single_rank_no_comm(self):
        spec = get_stencil("heat1d")
        g = Grid(spec, (40,), seed=1)
        out, stats = _execute_distributed(
            spec, g, make_lattice(spec, (40,), 3), 6, ranks=1
        )
        assert stats.messages == 0

    def test_second_axis_partition(self):
        spec = get_stencil("heat2d")
        shape = (20, 36)
        g1 = Grid(spec, shape, seed=2)
        g2 = g1.copy()
        ref = reference_sweep(spec, g1, 7)
        out, _ = _execute_distributed(spec, g2, make_lattice(spec, shape, 3),
                                     7, ranks=3, axis=1)
        assert _bitwise(ref, out)

    def test_rejects_periodic(self):
        spec = get_stencil("heat1d", boundary="periodic")
        g = Grid(spec, (40,), seed=0)
        lat = make_lattice(spec, (40,), 2)
        with pytest.raises(ValueError):
            _execute_distributed(spec, g, lat, 4, 2)


class TestCommunicationPlan:
    def test_plan_nonempty_and_neighborly(self):
        spec = get_stencil("heat2d")
        lat = make_lattice(spec, (40, 30), 3)
        entries = communication_plan(spec, (40, 30), lat, 4)
        assert entries
        for e in entries:
            assert abs(e.src - e.dst) == 1  # slab partition: neighbours
            assert e.bytes > 0

    def test_plan_scales_with_cross_section(self):
        spec = get_stencil("heat2d")
        lat_a = make_lattice(spec, (40, 20), 2)
        lat_b = make_lattice(spec, (40, 60), 2)
        a = plan_totals(communication_plan(spec, (40, 20), lat_a, 2))
        c = plan_totals(communication_plan(spec, (40, 60), lat_b, 2))
        assert c["total_bytes"] == pytest.approx(3 * a["total_bytes"], rel=0.01)

    def test_single_rank_plan_empty(self):
        spec = get_stencil("heat1d")
        lat = make_lattice(spec, (40,), 2)
        assert communication_plan(spec, (40,), lat, 1) == []

    def test_exec_bytes_bound_plan_bytes(self):
        """The executable exchange over-sends relative to the minimal
        analytic plan (whole dirty windows, both buffers), never the
        other way around."""
        spec = get_stencil("heat1d")
        shape = (96,)
        b = 4
        lat = make_lattice(spec, shape, b)
        g = Grid(spec, shape, seed=0)
        _, stats = _execute_distributed(spec, g, lat, b, 3)
        plan = plan_totals(communication_plan(spec, shape, lat, 3))
        assert stats.bytes_sent >= plan["total_bytes"]


class TestClusterModel:
    def test_simulation_fields(self):
        spec = get_stencil("heat2d")
        shape = (400, 400)
        lat = make_lattice(spec, shape, 8)
        cl = ClusterSpec(nodes=4, node=paper_machine())
        r = simulate_distributed(spec, shape, lat, 32, cl)
        assert r.time_s > 0
        assert r.comm_bytes > 0
        assert 0 <= r.comm_fraction < 1
        assert r.gstencils > 0

    def test_more_nodes_more_comm(self):
        spec = get_stencil("heat2d")
        shape = (400, 400)
        lat = make_lattice(spec, shape, 8)
        r2 = simulate_distributed(spec, shape, lat, 32,
                                  ClusterSpec(2, paper_machine()))
        r8 = simulate_distributed(spec, shape, lat, 32,
                                  ClusterSpec(8, paper_machine()))
        assert r8.comm_bytes > r2.comm_bytes

    def test_strong_scaling_speedup(self):
        spec = get_stencil("heat2d")
        shape = (1600, 1600)
        lat = make_lattice(spec, shape, 16)
        t1 = simulate_distributed(spec, shape, lat, 32,
                                  ClusterSpec(1, paper_machine())).time_s
        t4 = simulate_distributed(spec, shape, lat, 32,
                                  ClusterSpec(4, paper_machine())).time_s
        assert t4 < t1

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(0, paper_machine())
        spec = get_stencil("heat1d")
        lat = make_lattice(spec, (100,), 4)
        cl = ClusterSpec(2, paper_machine())
        with pytest.raises(ValueError):
            simulate_distributed(spec, (100,), lat, -1, cl)
        with pytest.raises(ValueError):
            simulate_distributed(spec, (100,), lat, 8, cl,
                                 cores_per_node=999)
