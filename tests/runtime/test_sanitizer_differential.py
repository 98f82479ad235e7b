"""The table sanitizer against the object-view oracle it replaced.

``tests/runtime/sanitizer_oracle.py`` keeps the pure-Python interval
checks :mod:`repro.runtime.sanitizer` used to run over the object view.
The property here draws random schedules — random lattices for the
tessellation, every scheme of the zoo, kernels of one to three
dimensions — and every seeded mutation kind at a random group and
task, and requires both sanitizers to reach the same verdict and, with
the violation cap lifted, the same set of violation kinds.  The cap
stops collection between groups, so under it a report can stop before
the check that would add a kind.

Also here: the rectangle join both passes rest on, against brute
force, and the cases the object-view checker got wrong or the table
passes must not.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import get_stencil, make_lattice
from repro.cli import SCHEMES, _build_schedule
from repro.core.profiles import AxisProfile, TessLattice
from repro.core.schedules import tess_schedule
from repro.engine.rects import intersecting_pairs
from repro.runtime import (
    MUTATION_KINDS,
    RegionAction,
    RegionSchedule,
    apply_mutation,
    sanitize_schedule,
)
from repro.runtime import sanitizer
from tests.core.test_random_profiles import random_profile
from tests.runtime import sanitizer_oracle as oracle

pytestmark = pytest.mark.sanitizer

KERNELS = ("heat1d", "1d5p", "heat2d", "life", "heat3d")
#: the largest extent per axis, by rank: the oracle is quadratic
MAX_EXTENT = {1: 64, 2: 16, 3: 8}


@contextmanager
def uncapped():
    """Both sanitizers collect every violation."""
    caps = sanitizer._MAX_VIOLATIONS, oracle._MAX_VIOLATIONS
    sanitizer._MAX_VIOLATIONS = oracle._MAX_VIOLATIONS = 1 << 30
    try:
        yield
    finally:
        sanitizer._MAX_VIOLATIONS, oracle._MAX_VIOLATIONS = caps


def random_axis(draw, n: int, b: int, sigma: int) -> AxisProfile:
    """A lattice axis whose cores are the zero runs of a random
    1-Lipschitz profile (uncut when the walk never reaches zero)."""
    zero = np.flatnonzero(random_profile(draw, n, b, sigma).dist == 0)
    if not zero.size:
        return AxisProfile.uncut(n, b, sigma)
    cut = np.flatnonzero(np.diff(zero) > 1)
    lo = zero[np.r_[0, cut + 1]].tolist()
    hi = (zero[np.r_[cut, zero.size - 1]] + 1).tolist()
    return AxisProfile.from_cores(n, b, list(zip(lo, hi)), sigma)


@st.composite
def schedules(draw):
    kernel = draw(st.sampled_from(KERNELS))
    spec = get_stencil(kernel)
    scheme = draw(st.sampled_from(SCHEMES))
    b = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 2 * b + 2))
    shape = tuple(draw(st.integers(1, MAX_EXTENT[spec.ndim]))
                  for _ in range(spec.ndim))
    if scheme == "tess-unmerged":
        lattice = TessLattice(tuple(
            random_axis(draw, n, b, sigma)
            for n, sigma in zip(shape, spec.slopes)))
        sched = tess_schedule(spec, shape, lattice, steps)
    elif scheme == "tess":
        # merging needs periodic structure: random core widths, phases
        # and uncut axes on the merge-compatible period
        lattice = make_lattice(
            spec, shape, b,
            core_widths=[draw(st.integers(1, 3)) for _ in shape],
            phases=[draw(st.integers(0, 7)) for _ in shape],
            uncut_dims=draw(st.sets(st.integers(0, spec.ndim - 1))))
        sched = tess_schedule(spec, shape, lattice, steps, merged=True)
    else:
        sched = _build_schedule(spec, shape, steps, scheme, b)
    return spec, sched


def mutants(draw, sched):
    """One mutant per kind, at a random group and task (kinds that do
    not apply there, such as merging the last group, are skipped)."""
    gids = sorted({task.group for task in sched.tasks})
    for kind in MUTATION_KINDS:
        choices = gids[:-1] if kind == "merge-groups" else gids
        if not choices:
            continue
        group = draw(st.sampled_from(choices))
        width = sum(task.group == group for task in sched.tasks)
        task = draw(st.integers(0, width - 1))
        try:
            yield apply_mutation(sched, f"{kind}@{group}/{task}")
        except ValueError:      # a task with no action to drop or shift
            continue


def assert_agree(spec, sched):
    new, old = sanitize_schedule(spec, sched), oracle.sanitize_schedule(
        spec, sched)
    assert new.ok == old.ok, (new.describe(), old.describe())
    with uncapped():
        new, old = sanitize_schedule(spec, sched), \
            oracle.sanitize_schedule(spec, sched)
    assert set(new.kinds()) == set(old.kinds()), (
        new.describe(), old.describe())


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_table_and_oracle_agree(data):
    spec, sched = data.draw(schedules())
    assert_agree(spec, sched)
    for mutant in mutants(data.draw, sched):
        assert_agree(spec, mutant)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_join_matches_brute_force(data, d):
    def boxes(n):
        lo = np.array(data.draw(st.lists(
            st.lists(st.integers(-5, 30), min_size=d, max_size=d),
            min_size=n, max_size=n)), dtype=np.int64).reshape(n, d)
        ext = np.array(data.draw(st.lists(
            st.lists(st.integers(1, 12), min_size=d, max_size=d),
            min_size=n, max_size=n)), dtype=np.int64).reshape(n, d)
        keys = np.array(data.draw(st.lists(
            st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)
        return keys, lo, lo + ext

    ka, la, ha = boxes(data.draw(st.integers(0, 25)))
    kb, lb, hb = boxes(data.draw(st.integers(0, 25)))
    i, j = intersecting_pairs(ka, la, ha, kb, lb, hb)
    want = sorted(
        (x, y) for x in range(len(ka)) for y in range(len(kb))
        if ka[x] == kb[y]
        and np.all(np.maximum(la[x], lb[y]) < np.minimum(ha[x], hb[y])))
    assert sorted(zip(i.tolist(), j.tolist())) == want


def test_a_table_built_schedule_keeps_its_object_view_unbuilt():
    spec = get_stencil("heat2d")
    sched = tess_schedule(spec, (48, 48), make_lattice(spec, (48, 48), 4),
                          8, merged=True)
    assert sched._tasks is None
    assert sanitize_schedule(spec, sched).ok
    assert sched._tasks is None


def test_an_inverted_range_is_a_structure_finding():
    """``lo > hi`` is malformed, not empty; ``lo == hi`` stays allowed
    (the degenerate-input builders emit such rows)."""
    spec = get_stencil("heat1d")
    sched = RegionSchedule(scheme="x", shape=(10,), steps=1)
    sched.add(0, [RegionAction(t=0, region=((0, 10),))], label="a")
    sched.add(1, [RegionAction(t=0, region=((7, 3),))], label="b")
    report = sanitize_schedule(spec, sched)
    assert report.kinds() == {"structure": 1}
    v = report.violations[0]
    assert (v.task, v.step, v.region) == ("b", 0, ((7, 3),))
    sched = RegionSchedule(scheme="x", shape=(10,), steps=1)
    sched.add(0, [RegionAction(t=0, region=((0, 10),))], label="a")
    sched.add(1, [RegionAction(t=0, region=((3, 3),))], label="b")
    assert sanitize_schedule(spec, sched).ok


def test_a_region_of_the_wrong_rank_is_a_structure_finding():
    spec = get_stencil("heat1d")
    sched = RegionSchedule(scheme="x", shape=(10,), steps=1)
    sched.add(0, [RegionAction(t=0, region=((0, 10), (0, 1)))], label="a")
    report = sanitize_schedule(spec, sched)
    assert set(report.kinds()) == {"structure"}
    assert "'a'" in report.violations[0].detail


def test_a_doubly_written_step_can_hide_a_hole():
    """Over a step written twice, the writes' intersections with a
    footprint can sum to its volume with a hole left in it: the
    volume identity holds only over disjoint writes."""
    spec = get_stencil("heat1d")
    sched = RegionSchedule(scheme="x", shape=(8,), steps=2)
    sched.add(0, [RegionAction(t=0, region=((0, 4),))], label="a")
    sched.add(1, [RegionAction(t=0, region=((0, 4),))], label="b")
    sched.add(2, [RegionAction(t=1, region=((0, 8),))], label="c")
    for check in (sanitize_schedule, oracle.sanitize_schedule):
        report = check(spec, sched)
        assert set(report.kinds()) == {"double-write", "missing-dependence"}
        hole = next(v for v in report.violations
                    if v.kind == "missing-dependence")
        assert (hole.task, hole.region) == ("c", ((4, 8),))
