"""Stencil code generation — the paper's stated future work (§6).

    "Future work will design a tool to automatically generate the
    stencil codes based on the proposed framework."

This module is that tool for the Python substrate: given a stencil's
dimensionality and slopes plus tessellation parameters, it emits a
*flat, self-contained* source string in the style of the paper's
artifact codes — explicit per-dimension ``lo/hi`` bound arithmetic,
one loop nest per stage, no library calls besides a single
``apply(t, region)`` callback — then compiles it to a callable.

Generated code is specialised at generation time: dimension count,
slopes, stage subsets and dilation directions are unrolled into
straight-line bound computations, exactly the specialisation a C code
generator would perform.  The test-suite validates generated executors
bit-for-bit against :func:`repro.core.executor._run_blocked`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.core.executor import make_lattice
from repro.core.profiles import TessLattice
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


def generate_tess_source(
    ndim: int,
    slopes: Sequence[int],
    func_name: str = "tess_run",
) -> str:
    """Emit the source of a ``d``-dimensional tessellation driver.

    The generated function has the signature::

        def tess_run(apply, shape, steps, b, core_widths, periods, phases):
            ...

    where ``apply(t, region)`` advances the half-open hyper-rectangle
    ``region`` from global time ``t`` to ``t + 1``.  Stage loops are
    fully unrolled over the ``C(d, i)`` glued-dimension subsets; block
    bases are enumerated by explicit core/plateau arithmetic on the
    per-axis lattice (period/phase/width), matching
    :mod:`repro.core.blocks`.
    """
    if ndim < 1:
        raise ValueError(f"ndim must be >= 1, got {ndim}")
    slopes = tuple(int(s) for s in slopes)
    if len(slopes) != ndim or any(s < 1 for s in slopes):
        raise ValueError(f"bad slopes {slopes} for ndim {ndim}")

    lines = []
    emit = lines.append
    emit(f"def {func_name}(apply, shape, steps, b, core_widths, periods, phases):")
    emit(f'    """Generated {ndim}D tessellation driver (slopes={slopes})."""')
    for j in range(ndim):
        emit(f"    n{j} = shape[{j}]")
        emit(f"    w{j} = core_widths[{j}]")
        emit(f"    p{j} = periods[{j}]")
        emit(f"    f{j} = phases[{j}] % p{j}")
        emit(f"    s{j} = {slopes[j]}")
        # plateau geometry: theta = (b-1)*sigma + 1 offsets from cores
        emit(f"    th{j} = (b - 1) * s{j} + 1")
        # core index range covering the dilated domain
        emit(f"    klo{j} = -((f{j} + p{j} + b * s{j}) // p{j}) - 1")
        emit(f"    khi{j} = (n{j} + p{j} + b * s{j} - f{j}) // p{j} + 1")
    emit("    tt = 0")
    emit("    while tt < steps:")
    emit("        span = min(b, steps - tt)")

    # one fully specialised loop nest per (stage, glued subset)
    for stage in range(ndim + 1):
        for glued in itertools.combinations(range(ndim), stage):
            gset = set(glued)
            emit(f"        # stage {stage}, glued dims {sorted(gset)}")
            indent = "        "
            for j in range(ndim):
                emit(f"{indent}for k{j} in range(klo{j}, khi{j} + 1):")
                indent += "    "
                if j in gset:
                    # plateau of the gap following core k
                    emit(f"{indent}base_lo{j} = f{j} + k{j} * p{j} + w{j} "
                         f"+ th{j} - 1")
                    emit(f"{indent}base_hi{j} = f{j} + k{j} * p{j} + p{j} "
                         f"- th{j} + 1")
                    emit(f"{indent}if base_hi{j} <= base_lo{j}: continue")
                else:
                    emit(f"{indent}base_lo{j} = f{j} + k{j} * p{j}")
                    emit(f"{indent}base_hi{j} = base_lo{j} + w{j}")
            emit(f"{indent}for s in range(span):")
            indent += "    "
            for j in range(ndim):
                if j in gset:
                    emit(f"{indent}lo{j} = base_lo{j} - s * s{j}")
                    emit(f"{indent}hi{j} = base_hi{j} + s * s{j}")
                else:
                    emit(f"{indent}lo{j} = base_lo{j} - (b - 1 - s) * s{j}")
                    emit(f"{indent}hi{j} = base_hi{j} + (b - 1 - s) * s{j}")
                emit(f"{indent}if lo{j} < 0: lo{j} = 0")
                emit(f"{indent}if hi{j} > n{j}: hi{j} = n{j}")
                emit(f"{indent}if hi{j} <= lo{j}: continue")
            region = ", ".join(f"(lo{j}, hi{j})" for j in range(ndim))
            emit(f"{indent}apply(tt + s, ({region},))")
    emit("        tt += b")
    return "\n".join(lines) + "\n"


def generate_kernel_source(
    spec: StencilSpec,
    func_name: str = "stencil_apply",
) -> str:
    """Emit a specialised region kernel for a linear stencil.

    The generated function has the signature
    ``stencil_apply(src, dst, region)`` on halo-padded arrays, with the
    offsets and coefficients burned into straight-line slice
    arithmetic — the in-core half of the paper's envisioned code
    generator (the driver half is :func:`generate_tess_source`).
    """
    from repro.stencils.operators import LinearStencilOperator

    op = spec.operator
    if not isinstance(op, LinearStencilOperator):
        raise ValueError(
            f"kernel generation supports linear stencils, not "
            f"{type(op).__name__}"
        )
    d = spec.ndim
    halo = spec.halo
    lines = [f"def {func_name}(src, dst, region):"]
    emit = lines.append
    emit(f'    """Generated {spec.name} kernel '
         f'({spec.num_neighbors}-point, slopes={spec.slopes})."""')
    for j in range(d):
        emit(f"    lo{j}, hi{j} = region[{j}]")
        emit(f"    if hi{j} <= lo{j}: return")

    def slices(off):
        return ", ".join(
            f"lo{j} + {halo[j] + off[j]}:hi{j} + {halo[j] + off[j]}"
            for j in range(d)
        )

    first_off, first_c = op.offsets[0], op.coeffs[0]
    emit(f"    out = dst[{slices((0,) * d)}]")
    emit(f"    numpy.multiply(src[{slices(first_off)}], {first_c!r}, "
         f"out=out)")
    for off, c in zip(op.offsets[1:], op.coeffs[1:]):
        emit(f"    out += src[{slices(off)}] * {c!r}")
    return "\n".join(lines) + "\n"


def compile_kernel(spec: StencilSpec,
                   func_name: str = "stencil_apply") -> Callable:
    """Compile the generated kernel source into a callable."""
    source = generate_kernel_source(spec, func_name=func_name)
    namespace: Dict[str, object] = {"numpy": np}
    exec(compile(source, f"<generated kernel {spec.name}>", "exec"),
         namespace)  # noqa: S102
    fn = namespace[func_name]
    fn.__source__ = source
    return fn


def compile_tess(
    ndim: int,
    slopes: Sequence[int],
    func_name: str = "tess_run",
) -> Callable:
    """Compile the generated source into a callable driver."""
    source = generate_tess_source(ndim, slopes, func_name=func_name)
    namespace: Dict[str, object] = {}
    code = compile(source, f"<generated {func_name} d={ndim}>", "exec")
    exec(code, namespace)  # noqa: S102 - code we just generated
    fn = namespace[func_name]
    fn.__source__ = source  # keep for inspection/tests
    return fn


def run_generated(
    spec: StencilSpec,
    grid: Grid,
    steps: int,
    b: int,
    core_widths: Sequence[int] | None = None,
    lattice: TessLattice | None = None,
) -> np.ndarray:
    """Convenience wrapper: generate, compile and run on a grid.

    The lattice (or ``b``/``core_widths``) fixes the tessellation
    parameters exactly as :func:`repro.core.executor.make_lattice`
    would; the generated driver performs the same updates as
    :func:`repro.core.executor._run_blocked`.
    """
    if spec.is_periodic:
        raise ValueError("generated drivers support Dirichlet boundaries")
    if lattice is None:
        lattice = make_lattice(spec, grid.shape, b, core_widths=core_widths)
    for p in lattice.profiles:
        if p.period is None:
            raise ValueError(
                "code generation needs structurally periodic axes "
                "(uniform/coarse profiles)"
            )
    driver = compile_tess(spec.ndim, [p.sigma for p in lattice.profiles])
    from repro.stencils.operators import LinearStencilOperator

    if isinstance(spec.operator, LinearStencilOperator):
        # fully generated pipeline: specialised kernel + driver
        kernel = compile_kernel(spec)

        def apply(t: int, region: Tuple[Tuple[int, int], ...]) -> None:
            kernel(grid.at(t), grid.at(t + 1), region)
    else:
        def apply(t: int, region: Tuple[Tuple[int, int], ...]) -> None:
            spec.apply_region(grid.at(t), grid.at(t + 1), region)

    driver(
        apply,
        grid.shape,
        steps,
        lattice.b,
        [p.core_width for p in lattice.profiles],
        [p.period for p in lattice.profiles],
        [p.phase for p in lattice.profiles],
    )
    return grid.interior(steps)
