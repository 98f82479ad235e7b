"""Cross-module integration tests.

These exercise the whole stack at once — physics-level checks that the
kernels solve what they claim to solve, long multi-phase equivalence
runs across every executor, and end-to-end pipelines combining
tessellation, codegen and the distributed substrate.
"""

import numpy as np
import pytest

from repro import (
    Grid,
    get_stencil,
    make_lattice,
    reference_sweep,
    run_pointwise,
)
from repro.core.executor import _run_blocked, _run_merged
from repro.core.codegen import run_generated
from repro.core.paper1d import run_paper1d
from repro.core.paper2d import run_paper2d
from repro.core.profiles import AxisProfile, TessLattice
from repro.distributed.exec import _execute_distributed


def _bitwise(ref, out):
    return (ref.dtype == out.dtype and ref.shape == out.shape
            and ref.tobytes() == out.tobytes())


class TestHeatPhysics:
    """The heat kernels must behave like discrete heat equations."""

    def test_sine_mode_decays_exponentially(self):
        """On a periodic domain, u(x) = sin(kx) is an eigenfunction of
        the 3-point smoother with eigenvalue 1 - 0.25(1 - cos k)."""
        spec = get_stencil("heat1d", boundary="periodic")
        n = 64
        k = 2 * np.pi / n
        grid = Grid(spec, (n,), init="zeros")
        x = np.arange(n)
        grid.interior(0)[...] = np.sin(k * x)
        steps = 40
        lat = TessLattice((AxisProfile.uniform(n, 4, periodic=True),))
        out = run_pointwise(spec, grid, lat, steps)
        lam = 1.0 - 0.25 * (1.0 - np.cos(k))
        expect = lam ** steps * np.sin(k * x)
        assert np.allclose(out, expect, atol=1e-12)

    def test_maximum_principle(self):
        """Weighted averages never create new extrema."""
        spec = get_stencil("heat2d")
        grid = Grid(spec, (24, 24), seed=3)
        u0 = grid.interior(0).copy()
        lat = make_lattice(spec, (24, 24), 3)
        out = _run_merged(spec, grid, lat, 9)
        assert out.max() <= u0.max() + 1e-12
        assert out.min() >= min(u0.min(), 0.0) - 1e-12

    def test_diffusion_smooths(self):
        """Total variation decreases monotonically under diffusion."""
        spec = get_stencil("heat1d")
        grid = Grid(spec, (100,), seed=7)
        tv = [np.abs(np.diff(grid.interior(0))).sum()]
        for t in range(8):
            reference_sweep(spec, grid, 1, t0=t)
            tv.append(np.abs(np.diff(grid.interior(t + 1))).sum())
        assert all(b <= a + 1e-12 for a, b in zip(tv, tv[1:]))

    def test_3d_impulse_spreads_symmetrically(self):
        spec = get_stencil("heat3d")
        grid = Grid(spec, (15, 15, 15), init="impulse")
        lat = make_lattice(spec, (15, 15, 15), 2)
        out = _run_blocked(spec, grid, lat, 5)
        # symmetry of the star kernel: all axis permutations agree
        assert np.allclose(out, out.transpose(1, 0, 2))
        assert np.allclose(out, out.transpose(2, 1, 0))
        assert np.allclose(out, out[::-1, :, :])


class TestLongRunEquivalence:
    """Many phases, odd geometry, all executors, one answer."""

    @pytest.mark.parametrize("kernel", ["heat2d", "2d9p", "life"])
    def test_2d_long_run(self, kernel):
        spec = get_stencil(kernel)
        shape = (37, 41)
        steps = 25  # > 8 phases at b=3, truncated tail
        g = Grid(spec, shape, seed=13)
        ref = reference_sweep(spec, g.copy(), steps)
        lat = make_lattice(spec, shape, 3)
        outs = {
            "pointwise": run_pointwise(spec, g.copy(), lat, steps),
            "blocked": _run_blocked(spec, g.copy(), lat, steps),
            "merged": _run_merged(spec, g.copy(), lat, steps),
            "generated": run_generated(spec, g.copy(), steps, 3),
            "paper2d": run_paper2d(spec, g.copy(), 10, 10, 2, steps),
        }
        outs["distributed"], _ = _execute_distributed(
            spec, g.copy(), lat, steps, ranks=3
        )
        for name, out in outs.items():
            assert _bitwise(ref, out), name

    def test_1d_long_run(self):
        spec = get_stencil("heat1d")
        n, steps = 300, 70
        g = Grid(spec, (n,), seed=21)
        ref = reference_sweep(spec, g.copy(), steps)
        lat = make_lattice(spec, (n,), 8)
        for out in (
            _run_merged(spec, g.copy(), lat, steps),
            run_paper1d(spec, g.copy(), 32, 8, steps),
            run_generated(spec, g.copy(), steps, 8),
        ):
            assert _bitwise(ref, out)

    def test_resume_mid_run(self):
        """Executors compose across t0 offsets (phase re-alignment)."""
        spec = get_stencil("heat2d")
        shape = (20, 22)
        g1 = Grid(spec, shape, seed=5)
        g2 = g1.copy()
        lat = make_lattice(spec, shape, 2)
        ref = reference_sweep(spec, g1, 10)
        _run_blocked(spec, g2, lat, 4)
        out = _run_blocked(spec, g2, lat, 6, t0=4)
        assert _bitwise(ref, out)


class TestFloat32:
    def test_single_precision_pipeline(self):
        from repro.stencils.operators import LinearStencilOperator
        from repro.stencils.spec import StencilSpec

        op = LinearStencilOperator(
            [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)],
            [0.5, 0.125, 0.125, 0.125, 0.125],
            dtype=np.float32,
        )
        spec = StencilSpec("heat2d-f32", 2, op)
        g = Grid(spec, (20, 20), seed=2)
        assert g.at(0).dtype == np.float32
        ref = reference_sweep(spec, g.copy(), 6)
        lat = make_lattice(spec, (20, 20), 2)
        out = _run_merged(spec, g.copy(), lat, 6)
        assert out.dtype == np.float32
        assert _bitwise(ref, out)
