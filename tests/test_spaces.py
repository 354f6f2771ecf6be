import json
import math
import random
from fractions import Fraction as F
from itertools import combinations, product
from operator import mul
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vclab.spaces
from vclab import (
    CoSingletonSpace,
    DiscreteDistribution,
    HalfspaceSpace,
    Instance,
    IntervalSpace,
    MultiSample,
    ThresholdSpace,
    approximation_error,
    restriction_errors,
    sem_learner,
)
from vclab.cli import main
from vclab.combinatorics import growth_function, vc_dimension
from vclab.spaces import AffineWitnesses, fm_witness
from conftest import (
    SWEPT_FM_WITNESS,
    fm_solve,
    kernel_table,
    points,
    reference_fm_witness,
    sweep_dichotomies,
    sweep_table,
)


def one_dim_halfspace_oracle(values):
    """Independent oracle for 1-d halfspaces 1[w*x + b >= 0]: on sorted
    points these realize exactly the closed-cut suffixes (w > 0), the
    closed-cut prefixes (w < 0), and the two constants (w = 0)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    labelings = set()
    for cut in range(len(values) + 1):
        suffix = [0] * len(values)
        prefix = [0] * len(values)
        for pos in range(cut, len(values)):
            suffix[order[pos]] = 1
        for pos in range(0, cut):
            prefix[order[pos]] = 1
        labelings.add(tuple(suffix))
        labelings.add(tuple(prefix))
    return labelings


class TestHalfspaceEnumeration:
    def test_dim1_matches_cut_oracle(self):
        rng = random.Random(61)
        for _ in range(40):
            k = rng.randint(1, 5)
            values = rng.sample(range(-10, 11), k)
            got = set(kernel_table([(0, (v, 1)) for v in values]))
            assert got == one_dim_halfspace_oracle(values)

    def test_plane_general_position_counts(self):
        # points in general position: 2 * (C(m-1,0) + C(m-1,1) + C(m-1,2))
        pts = [Instance.point(0, 0), Instance.point(1, 0),
               Instance.point(0, 1), Instance.point(2, 3),
               Instance.point(3, 1)]
        space = HalfspaceSpace(2)
        for m in (3, 4, 5):
            best = max(len(space.dichotomies(subset))
                       for subset in combinations(pts, m))
            from math import comb
            assert best == 2 * sum(comb(m - 1, i) for i in range(3))

    def test_sampled_labelings_are_found(self):
        """Soundness oracle: any labeling realized by a concrete (w, b) must
        be in the enumerated set."""
        rng = random.Random(62)
        for _ in range(25):
            k = rng.randint(1, 4)
            pts = [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                   for _ in range(k)]
            if len(set(pts)) != k:
                continue
            enumerated = set(kernel_table([(0, (x, y, 1)) for x, y in pts]))
            for _ in range(200):
                w1, w2, b = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)),
                             F(rng.randint(-9, 9)))
                lab = tuple(1 if w1 * x + w2 * y + b >= 0 else 0
                            for x, y in pts)
                assert lab in enumerated

    def test_duplicate_point_dimensions_rejected(self):
        space = HalfspaceSpace(2)
        with pytest.raises(ValueError):
            space.dichotomies([Instance.point(1)])


class TestFmWitness:
    def test_infeasible_strict_cycle(self):
        # x > 0 and -x > 0
        constraints = [((F(1),), F(0), True), ((F(-1),), F(0), True)]
        assert fm_solve(constraints, 1) is None

    def test_boundary_feasible_only_non_strict(self):
        # x >= 3 and x <= 3 feasible; strict variant infeasible
        closed = [((F(1),), F(-3), False), ((F(-1),), F(3), False)]
        assert fm_solve(closed, 1) == (F(3),)
        half_open = [((F(1),), F(-3), True), ((F(-1),), F(3), False)]
        assert fm_solve(half_open, 1) is None

    def test_strict_bound_wins_a_tie(self):
        # x >= c and x > c tie at c; the strict bound decides the witness
        # whatever order the two rows are visited in.
        for c in range(-4, 5):
            for strict_first in (False, True):
                lower = [((F(1),), F(-c), strict_first),
                         ((F(1),), F(-c), not strict_first)]
                upper = [((F(-1),), F(c), strict_first),
                         ((F(-1),), F(c), not strict_first)]
                assert fm_solve(lower, 1) == (F(c + 1),)
                assert fm_solve(upper, 1) == (F(c - 1),)
                assert fm_solve(lower[:1] + upper[:1], 1) == \
                    (None if strict_first else (F(c),))

    def test_strict_bound_wins_a_tie_between_unreduced_bounds(self):
        # v0 = 1/2 is solved first, so v1's bounds are weighed over the
        # common denominator 2.  v1 + v0 - 1 >= 0 and 2 v1 + c v0 + k >= 0
        # (k = -1 - c/2) both bound v1 by 1/2, written over different
        # denominators; the strict one decides the witness, one step past
        # the tie, in whichever order the rows are met.
        fix = [((F(2), F(0)), F(-1), False), ((F(-2), F(0)), F(1), False)]
        for sign in (1, -1):
            for c in (0, 4, 8, -4, -8):
                for strict_first in (False, True):
                    ties = [((F(sign), F(sign)), F(-sign), strict_first),
                            ((F(sign * c), F(2 * sign)),
                             F(-sign * (2 + c), 2), not strict_first)]
                    constraints = fix + ties
                    want = (F(1, 2), F(1, 2) + sign)
                    assert reference_fm_witness(constraints, 2) == want
                    assert fm_solve(constraints, 2) == want
                    assert fm_solve(fix + ties[::-1], 2) == want

    def test_random_systems_verified(self):
        rng = random.Random(63)
        feasible = 0
        for _ in range(150):
            nvars = rng.randint(1, 3)
            constraints = []
            for _ in range(rng.randint(1, 5)):
                coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(nvars))
                constraints.append((coeffs, F(rng.randint(-4, 4)),
                                    rng.random() < 0.4))
            witness = fm_solve(constraints, nvars)
            if witness is None:
                # cross-check with a coarse grid: no grid point n / 2 may
                # satisfy a system that elimination called infeasible
                # (integer coefficients, so 2 * total is an integer)
                rows = [(2 * int(const), [int(c) for c in coeffs], strict)
                        for coeffs, const, strict in constraints]
                for cand in product(range(-12, 13), repeat=nvars):
                    sat = all(
                        (total > 0 if strict else total >= 0)
                        for const2, coeffs, strict in rows
                        for total in [const2 + sum(map(mul, coeffs, cand))])
                    assert not sat
                continue
            feasible += 1
            for coeffs, const, strict in constraints:
                total = const + sum(c * v for c, v in zip(coeffs, witness))
                assert total > 0 if strict else total >= 0
        assert feasible >= 30


def reference_halfspace_dichotomies(rows, strict):
    out = []
    for labeling in product((0, 1), repeat=len(rows)):
        constraints = []
        for (const, coeffs), lab in zip(rows, labeling):
            if lab == 1:
                constraints.append((coeffs, const, strict))
            else:
                constraints.append((tuple(-c for c in coeffs), -const,
                                    not strict))
        witness = reference_fm_witness(constraints, len(rows[0][1]))
        if witness is not None:
            out.append((labeling, witness))
    return out


RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fm_witness_matches_fraction_reference(data):
    """Random rational systems, strict and non-strict mixed: the integer
    kernel returns an integer point with den > 0 whose values are the
    reference's witness, Fraction for Fraction, or None in the same
    cases."""
    nvars = data.draw(st.integers(1, 3))
    constraint = st.tuples(st.tuples(*[RATIONALS] * nvars), RATIONALS,
                           st.booleans())
    constraints = data.draw(st.lists(constraint, min_size=1, max_size=6))
    got = fm_solve(constraints, nvars)
    assert got == reference_fm_witness(constraints, nvars)
    assert got is None or all(type(v) is F for v in got)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tied_bounds_over_a_common_denominator(data):
    """v0 is fixed to a fraction p/d with d > 1, and v1 gets two lower (or
    two upper) bounds of one value t, one strict and one not, from
    different primitive rows, so they meet as unequal (num, q) pairs over
    the denominator d.  The strict one wins the tie: v1 = t + 1 (t - 1),
    the reference's witness."""
    v0 = data.draw(RATIONALS)
    assume(v0.denominator > 1)
    t = data.draw(RATIONALS)
    sign = data.draw(st.sampled_from([1, -1]))
    constraints = [((F(1), F(0)), -v0, False), ((F(-1), F(0)), v0, False)]
    for strict in data.draw(st.permutations([False, True])):
        a = sign * data.draw(st.integers(1, 6))
        c = data.draw(RATIONALS)
        # c v0 + a v1 + k = 0 at v1 = t, and a v1 >= -c v0 - k bounds v1
        # from below when a > 0, from above when a < 0.
        constraints.append(((c, F(a)), -a * t - c * v0, strict))
    assume(vclab.spaces._primitive(*constraints[2][:2]) !=
           vclab.spaces._primitive(*constraints[3][:2]))
    got = fm_solve(constraints, 2)
    assert got == reference_fm_witness(constraints, 2) == (v0, t + sign)


@pytest.mark.parametrize("system, match", [
    ([((0, 1), True), ((0, -1), False)], "empty interval"),
    ([((-1, 1), False), ((0, -1), False)], "failed its input system")],
    ids=["strict-tie", "final-check"])
def test_a_wrong_stage_system_raises(monkeypatch, system, match):
    """v > 0 with v <= 0, and v >= 1 with v <= 0, are infeasible.  A stage
    system that loses the combination proving it lets back-substitution
    meet the strict tie at 0, or choose the midpoint 1/2, which fails
    v >= 1: a bug, not an infeasible system."""
    assert fm_witness(system, 1) is None
    monkeypatch.setattr(vclab.spaces, "_eliminate", lambda system: set())
    with pytest.raises(AssertionError, match=match):
        fm_witness(system, 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_halfspace_dichotomies_match_fraction_reference(data):
    """Random affine rows (const, coeffs), closed and open, and often of
    constant 0: the kernel's labelings and witnesses, in lexicographic
    order, are those of Fraction elimination."""
    nvars = data.draw(st.integers(1, 3))
    const = RATIONALS | st.just(F(0))
    rows = data.draw(st.lists(st.tuples(const, st.tuples(
        *[RATIONALS] * nvars)), min_size=1, max_size=5))
    strict = data.draw(st.booleans())
    assert list(kernel_table(rows, strict).items()) == \
        reference_halfspace_dichotomies(rows, strict)


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:]
                                              for r in rows[1:]])
               for j in range(len(rows)))


def affinely_independent(group):
    """The Gram determinant of the differences to the first point is
    nonzero."""
    diffs = [[a - b for a, b in zip(p, group[0])] for p in group[1:]]
    return not diffs or _det([[sum(map(mul, u, v)) for v in diffs]
                              for u in diffs]) != 0


def in_general_position(pts, dim):
    """Every min(n, dim + 1) of the n points are affinely independent, so
    no dim + 1 of them lie on a common affine hyperplane."""
    return all(map(affinely_independent,
                   combinations(pts, min(len(pts), dim + 1))))


def cover_count(n, dim):
    """Cover (1965): the number of labelings of n points in general
    position in R^dim realized by affine halfspaces."""
    return 2 * sum(math.comb(n - 1, i) for i in range(dim + 1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cover_count_in_general_position(data):
    """On points in general position the table's ``len`` is Cover's count
    before any FM call, and equals the number of labelings its first
    ``in`` grows (``_label_tree``, or the affine dependence rule on at most
    dim + 2 points).  In the plane and in space the same space then meets
    the points with the third moved onto the line through the first two:
    no Cover count is taken for them, and their count is the sweep's."""
    dim = data.draw(st.integers(1, 3))
    pts = data.draw(st.lists(st.tuples(*[st.integers(-20, 20)] * dim),
                             min_size=1, max_size=7, unique=True))
    assume(in_general_position(pts, dim))
    space = HalfspaceSpace(dim)
    calls = []

    def counted(constraints, nvars):
        calls.append(constraints)
        return fm_witness(constraints, nvars)
    with mock.patch.object(vclab.spaces, "fm_witness", counted):
        table = space.dichotomies([Instance.point(*p) for p in pts])
        assert len(table) == cover_count(len(pts), dim) and calls == []
        assert sum(1 for _ in table) == len(table)
    if dim >= 2 and len(pts) >= 3:
        p, q = pts[:2]
        moved = [*pts[:2], tuple(2 * b - a for a, b in zip(p, q)), *pts[3:]]
        assume(len(set(moved)) == len(moved))
        count = space.dichotomy_count([Instance.point(*x) for x in moved])
        assert count == len(sweep_table(moved))
        assert count < cover_count(len(pts), dim)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cover_count_bounds_any_distinct_points(data):
    dim = data.draw(st.integers(1, 3))
    pts = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                             min_size=1, max_size=7, unique=True))
    count = HalfspaceSpace(dim).dichotomy_count(
        [Instance.point(*p) for p in pts])
    assert count <= cover_count(len(pts), dim)


POINT_SETS = st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(*[st.integers(-2, 2) | st.integers(-30, 30)] * dim),
    min_size=1, max_size=9, unique=True))


COORDS = st.integers(-3, 3) | st.builds(F, st.integers(-6, 6),
                                        st.integers(2, 3))
MIXED_POINT_SETS = st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(*[COORDS] * dim), min_size=1, max_size=6, unique=True))


@settings(max_examples=40, deadline=None)
@given(MIXED_POINT_SETS, st.data())
def test_kept_rows_match_a_fresh_space(pts, data):
    """One space keeps each point's rows across queries: overlapping
    subsets, met in shuffled order, give the labelings, key order and
    witnesses of a fresh space and of a full sweep."""
    pool = [Instance.point(*p) for p in pts]
    space = HalfspaceSpace(len(pts[0]))
    seen = set()
    for _ in range(data.draw(st.integers(2, 5))):
        subset = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=5, unique=True))
        table = space.dichotomies(subset)
        fresh = HalfspaceSpace(len(pts[0])).dichotomies(subset)
        sweep = sweep_table(subset)
        assert list(table) == list(fresh) == \
            [lab for lab, _ in sweep]
        assert [h.key for h in table.values()] == \
            [h.key for h in fresh.values()] == \
            [("halfspace", *params) for _, params in sweep]
        seen.update(subset)
        assert space._entries.keys() == seen


@st.composite
def rule_point_sets(draw, most=None):
    """At most dim + 2 (or ``most``) distinct points, dim in {1, 2, 3}, of
    integer and fractional coordinates, often with several of them moved
    onto the line through the first two, so collinear sets and shared
    coordinates are common."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, most or dim + 2))
    pts = draw(st.lists(st.tuples(*[COORDS] * dim), min_size=n, max_size=n,
                        unique=True))
    on_line = draw(st.integers(0, n))
    if on_line >= 3:
        (p, q), rest = pts[:2], pts[on_line:]
        ts = draw(st.lists(st.sampled_from([F(-1), F(1, 2), F(2), F(-2, 3),
                                            F(3), F(1, 3), F(-3, 2)]),
                           min_size=on_line - 2, max_size=on_line - 2,
                           unique=True))
        pts = [p, q, *(tuple(a + t * (b - a) for a, b in zip(p, q))
                       for t in ts), *rest]
        assume(len(set(pts)) == n)
    return draw(st.permutations(pts))


def affine_kernel_dimension(pts) -> int:
    """n minus the rank of the rows (x, 1), by Fraction elimination."""
    rows = [[F(v) for v in (*p, 1)] for p in pts]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            f = r[col] / pivot[col]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return len(pts) - rank


@settings(max_examples=150, deadline=None)
@given(rule_point_sets())
def test_rule_matches_the_sweep(pts):
    """On at most dim + 2 points the table gives the keys, order, ``len``,
    ``in`` and witnesses of the prefix-tree table (the rule switched off)
    and of a full sweep.  A count makes no FM call exactly when the affine
    kernel has dimension at most 1."""
    instances = [Instance.point(*p) for p in pts]
    dim = len(pts[0])
    calls = []

    def counted(constraints, nvars):
        calls.append(constraints)
        return fm_witness(constraints, nvars)
    with mock.patch.object(vclab.spaces, "fm_witness", counted):
        table = HalfspaceSpace(dim).dichotomies(instances)
    assert (calls == []) == (affine_kernel_dimension(pts) <= 1)
    with mock.patch.object(vclab.spaces, "_affine_dependence",
                           lambda rows: None):
        swept = HalfspaceSpace(dim).dichotomies(instances)
    sweep = sweep_table(pts)
    assert len(table) == len(swept) == len(sweep)
    assert list(table) == list(swept) == \
        [lab for lab, _ in sweep]
    assert [lab in table for lab in product((0, 1), repeat=len(pts))] == \
        [lab in swept for lab in product((0, 1), repeat=len(pts))]
    assert [h.key for h in table.values()] == \
        [h.key for h in swept.values()] == \
        [("halfspace", *params) for _, params in sweep]


@settings(max_examples=40, deadline=None)
@given(POINT_SETS | rule_point_sets(most=9))
def test_complement_closed_table_matches_full_sweep(pts):
    """Up to 9 points: small coordinate ranges, and points moved onto a
    line, make collinear sets and shared coordinates common.  The table,
    with the rule and with the rule switched off (so always the prefix
    tree), solves at most half the labelings and reads the rest on demand,
    yet gives the keys, order, ``len`` and ``in`` of a full sweep, and the
    sweep's witness for each labeling."""
    instances = [Instance.point(*p) for p in pts]
    sweep = sweep_table(pts)
    realized = {lab for lab, _ in sweep}
    tables = [HalfspaceSpace(len(pts[0])).dichotomies(instances)]
    with mock.patch.object(vclab.spaces, "_affine_dependence",
                           lambda rows: None):
        tables.append(HalfspaceSpace(len(pts[0])).dichotomies(instances))
    for table in tables:
        assert len(table) == len(sweep)
        assert all((lab in table) == (lab in realized)
                   for lab in product((0, 1), repeat=len(pts)))
        assert [(lab, h.key) for lab, h in table.items()] == \
            [(lab, ("halfspace", *params)) for lab, params in sweep]


AFFINE_ROWS = st.integers(1, 3).flatmap(lambda nvars: st.lists(
    st.tuples(RATIONALS, st.tuples(*[RATIONALS] * nvars)),
    min_size=1, max_size=9))
POINT_ROWS = rule_point_sets(most=9).map(lambda pts: [(0, (*p, 1))
                                                      for p in pts])


@settings(max_examples=25, deadline=None)
@given(AFFINE_ROWS | POINT_ROWS, st.booleans())
def test_halfspace_dichotomies_match_the_sweep(rows, strict):
    """Up to 9 rows (const, coeffs), closed and open: random affine rows
    in up to 3 variables, and the rows (0, (x, 1)) of halfspaces on
    collinear and shared-coordinate points.  The kernel gives the sweep's
    labelings and witnesses, in lexicographic order."""
    assert list(kernel_table(rows, strict).items()) == \
        sweep_dichotomies(rows, strict)


ENTRIES = st.integers(-2, 2) | st.integers(-40, 40)


@st.composite
def kernel_systems(draw):
    """n <= 7 rows (const, coeffs, strict) in k <= 4 variables (n <= 6 for
    k = 4): closed ones, of constant 0 and last coefficient of one sign,
    or affine ones; all strict, none, or each drawn.  Entries of -2..2 make
    dependent rows and shared points common, entries of -40..40 general
    position."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6 if k == 4 else 7))
    closed, sign = draw(st.booleans()), draw(st.sampled_from([1, -1]))
    strict = draw(st.sampled_from([False, True, None]))
    rows = []
    for _ in range(n):
        coeffs = draw(st.lists(ENTRIES, min_size=k, max_size=k))
        if closed:
            coeffs[-1] = sign * draw(st.integers(1, 3))
        rows.append((0 if closed else draw(ENTRIES), tuple(coeffs),
                     draw(st.booleans()) if strict is None else strict))
    return rows


@settings(max_examples=100, deadline=None)
@given(kernel_systems())
@example([(0, (1,), False), (0, (1,), True)])
def test_kernel_count_matches_the_sweep(system):
    """``AffineWitnesses`` against ``fm_witness`` on every labeling's full
    system: its ``len``, taken before anything decides the table, is the
    number of feasible labelings, ``in`` answers each labeling as the
    sweep does, and iteration lists them in lexicographic order.  Rows in
    general position, found here by Laplace determinants, have Cover's
    count when closed (constant 0, one strictness, a column of one sign)
    and Sauer's otherwise, and make no FM call before a read.  Closed
    rows of mixed strictness, as in the example, are not closed: v = 0
    gives (1, 0), no cell of v > 0 or v < 0 does."""
    n, k = len(system), len(system[0][1])
    entries = [vclab.spaces._affine_entry(const, coeffs, strict)
               for const, coeffs, strict in system]
    labelings = list(product((0, 1), repeat=n))
    realized = [lab for lab in labelings if SWEPT_FM_WITNESS(
        [entry[b] for entry, b in zip(entries, lab)], k) is not None]
    calls = []

    def counted(constraints, nvars):
        calls.append(constraints)
        return fm_witness(constraints, nvars)
    with mock.patch.object(vclab.spaces, "fm_witness", counted):
        table = AffineWitnesses(entries)
        count, built = len(table), len(calls)
    assert count == len(realized)
    assert [lab in table for lab in labelings] == \
        [lab in realized for lab in labelings]
    assert list(table) == realized
    closed = not any(const for const, _, _ in system) and len(
        {strict for _, _, strict in system}) == 1 and any(
        len({v > 0 for v in column}) == 1 and 0 not in column
        for column in zip(*(coeffs for _, coeffs, _ in system)))
    general = n >= k and all(_det(group) for group in combinations(
        [coeffs for _, coeffs, _ in system], k)) and (closed or all(
            _det([(const, *coeffs) for const, coeffs, _ in group])
            for group in combinations(system, k + 1)))
    if general:
        assert built == 0
        assert count == (cover_count(n, k - 1) if closed
                         else sum(math.comb(n, i) for i in range(k + 1)))


def plane_points_in_general_position(rng, n, span=50):
    """n distinct integer points of [-span, span]^2, no three collinear."""
    pts = []
    while len(pts) < n:
        cand = (rng.randint(-span, span), rng.randint(-span, span))
        if cand not in pts and in_general_position([*pts, cand], 2):
            pts.append(cand)
    return pts


@settings(max_examples=8, deadline=None)
@given(st.integers(8, 14), st.integers(0, 2 ** 32))
def test_cover_count_up_to_14_points_of_the_plane(n, seed):
    """The count is Cover's; the tree the first ``in`` grows agrees."""
    pts = plane_points_in_general_position(random.Random(seed), n, span=1000)
    table = HalfspaceSpace(2).dichotomies([Instance.point(*p) for p in pts])
    assert len(table) == cover_count(n, 2)
    assert sum(1 for _ in table) == cover_count(n, 2)


def test_each_pool_point_made_primitive_once(monkeypatch):
    """``vc_dimension`` and ``growth_function`` over a pool of 8 build each
    point's rows once, for all the subsets and FM calls they make."""
    primitive_calls, fm_calls = [], []
    primitive = vclab.spaces._primitive

    def counted_primitive(coeffs, const):
        primitive_calls.append((const, *coeffs))
        return primitive(coeffs, const)

    def counted_fm(system, nvars):
        fm_calls.append(system)
        return fm_witness(system, nvars)
    monkeypatch.setattr(vclab.spaces, "_primitive", counted_primitive)
    monkeypatch.setattr(vclab.spaces, "fm_witness", counted_fm)
    pool = [Instance.point(*p) for p in
            [(0, 0), (3, 1), (1, 4), (2, 2), (5, 5), (-1, 3), (4, -2),
             (F(1, 2), F(7, 3))]]
    space = HalfspaceSpace(2)
    verdict = vc_dimension(space, pool)
    assert verdict.value == 3 and verdict.status == "exact"
    assert growth_function(space, 5, pool) == 22
    assert len(fm_calls) > 100
    assert sorted(primitive_calls) == sorted((0, *p.coords, 1) for p in pool)


HALFSPACE_2D = '{"kind": "halfspace-family", "dim": 2}'


def _not_independent(monkeypatch):
    """Make every table see no rows in general position, so that each is
    decided, and grown if need be, when it is built."""
    monkeypatch.setattr(vclab.spaces, "_independent",
                        lambda rows, first: False)


class TestCoverRule:
    """A table of at least dim + 1 points in general position takes
    Cover's count as its length and is decided when first read; any other
    table is decided when it is built.  A grown table's count above
    Cover's, or off it in general position, raises."""

    GENERAL = [Instance.point(*p) for p in
               [(0, 0), (3, 1), (1, 4), (-1, 3), (4, -2), (6, 5)]]

    @pytest.mark.parametrize("coords", [
        [(0, 0), (1, 0), (2, 0), (0, 1), (5, 3), (-1, 4)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (2, 3, 5)],
    ], ids=["collinear-triple", "coplanar-quadruple"])
    def test_a_degenerate_pool_does_not_take_the_rule(self, fm_calls,
                                                       coords):
        """Six points with one collinear triple in the plane, or one
        coplanar quadruple in space, grow their table when it is built;
        their count is the sweep's, 30 and 50, below Cover's 32 and 52."""
        dim = len(coords[0])
        table = HalfspaceSpace(dim).dichotomies(
            [Instance.point(*p) for p in coords])
        assert fm_calls
        assert len(table) == len(sweep_table(coords)) < cover_count(6, dim)

    @staticmethod
    def patch_tree(monkeypatch, change):
        """Route every ``_label_tree`` through ``change``."""
        tree = vclab.spaces._label_tree
        monkeypatch.setattr(vclab.spaces, "_label_tree",
                            lambda *args: change(tree(*args)))

    @staticmethod
    def extra_labeling(tree):
        """The tree with one more labeling of first bit 0."""
        n = len(next(iter(tree)))
        return {**tree, next(lab for lab in product((0, 1), repeat=n)
                             if lab[0] == 0 and lab not in tree): None}

    def test_the_six_points_are_in_general_position(self):
        assert in_general_position([p.coords for p in self.GENERAL], 2)
        assert len(HalfspaceSpace(2).dichotomies(self.GENERAL)) == 32

    def test_an_extra_labeling_raises(self, monkeypatch):
        """One labeling too many is a bug, whether or not the points are
        seen to be in general position: built at once when they are not,
        grown at the first ``in`` when they are."""
        self.patch_tree(monkeypatch, self.extra_labeling)
        table = HalfspaceSpace(2).dichotomies(self.GENERAL)
        assert len(table) == 32
        with pytest.raises(AssertionError, match="34 labelings, Cover's 32"):
            (0,) * 6 in table
        _not_independent(monkeypatch)
        with pytest.raises(AssertionError, match="34 labelings, Cover's 32"):
            HalfspaceSpace(2).dichotomies(self.GENERAL)

    def test_a_missing_labeling_raises_in_general_position(self,
                                                          monkeypatch):
        """One labeling too few raises only when the points are in general
        position, on every read; below Cover's count is no bug otherwise."""
        self.patch_tree(monkeypatch,
                        lambda tree: dict(list(tree.items())[:-1]))
        table = HalfspaceSpace(2).dichotomies(self.GENERAL)
        for _ in range(2):
            with pytest.raises(AssertionError,
                               match="30 labelings, Cover's 32"):
                (0,) * 6 in table
        _not_independent(monkeypatch)
        assert len(HalfspaceSpace(2).dichotomies(self.GENERAL)) == 30

    def growth(self, tmp_path, pool, m):
        (tmp_path / "space.json").write_text(HALFSPACE_2D)
        assert main(["growth", "--space", str(tmp_path / "space.json"),
                     f"--pool={pool}", "--m", str(m), "--out",
                     str(tmp_path)]) == 0
        return json.loads((tmp_path / "report.json").read_text()
                          )["result"]["value"]

    def test_growth_on_the_bench_pool_through_the_grown_table(
            self, tmp_path, monkeypatch, fm_calls):
        """``perfbench``'s seed-0 ``oracle`` growth pool: 7 points in
        general position.  ``growth --m 7`` reads Cover's count, 44, with
        no FM call; the table grown with general position unseen has 44
        labelings too, the value ``growth`` read before it took Cover's
        count."""
        pool = "-2,15;11,-11;-9,7;-17,-13;-5,-11;2,-2;4,-19"
        assert self.growth(tmp_path, pool, 7) == 44 and fm_calls == []
        _not_independent(monkeypatch)
        assert self.growth(tmp_path, pool, 7) == 44 and fm_calls

    @pytest.mark.parametrize("m, value", [(7, 40), (9, 58)])
    def test_growth_on_a_grid_pool(self, tmp_path, m, value):
        """No 7 points of the grid {0, 1, 2}^2 are in general position, so
        every table is grown; the values, pinned from before ``growth``
        took Cover's count, are below Cover's counts 44 and 74."""
        pool = ";".join(f"{x},{y}" for x in range(3) for y in range(3))
        assert self.growth(tmp_path, pool, m) == value < cover_count(m, 2)


class TestComplementClosure:
    """A table of more than dim + 2 points, or of points whose affine
    kernel has dimension 2 or more, grows its labelings whose first bit is
    0 point by point: one FM call per realized first-bit-0 prefix of its
    first n - 1 points, and one for each other witness when it is read."""

    COORDS = [(0, 0), (3, 1), (1, 4), (2, 2), (5, 5)]
    PTS = [Instance.point(*p) for p in COORDS]
    MORE = PTS + [Instance.point(-1, 3), Instance.point(4, -2)]

    def test_count_len_and_in_solve_one_system_per_realized_prefix(
            self, fm_calls):
        """The first 1..7 points have 2, 4, 8, 14, 20, 30 and 40 labelings,
        half of them with first bit 0."""
        space = HalfspaceSpace(2)
        for n, calls in ((5, 1 + 2 + 4 + 7), (6, 24), (7, 39)):
            prefixes = [sweep_table(self.MORE[:j]) for j in range(1, n)]
            assert calls == sum(len(sweep) // 2 for sweep in prefixes)
            sweep = [lab for lab, _ in sweep_table(self.MORE[:n])]
            fm_calls.clear()
            assert space.dichotomy_count(self.MORE[:n]) == len(sweep)
            assert len(fm_calls) == calls
            fm_calls.clear()
            table = space.dichotomies(self.MORE[:n])
            assert len(table) == len(sweep)
            assert [lab for lab in product((0, 1), repeat=n)
                    if lab in table] == list(table) == sweep
            assert len(fm_calls) == calls

    def test_a_kernel_of_dimension_2_grows_a_prefix_tree(self, fm_calls):
        """Four collinear points in the plane are at most dim + 2 points,
        but their affine kernel has dimension 2.  The first j of them have
        j labelings whose first bit is 0, so the tree makes 1 + 2 + 3 FM
        calls where a sweep makes 2^3."""
        pts = [Instance.point(i, 2 * i + 1) for i in range(4)]
        sweep = [lab for lab, _ in sweep_table(pts)]
        fm_calls.clear()
        table = HalfspaceSpace(2).dichotomies(pts)
        assert len(fm_calls) == 6
        assert list(table) == sweep and len(table) == 8

    def test_each_complement_witness_is_solved_once(self, fm_calls):
        table = HalfspaceSpace(2).dichotomies(self.PTS)
        assert len(fm_calls) == 1 + 2 + 4 + 7
        lab = next(lab for lab in table if lab[0] == 1)
        assert table[lab] is table[lab]
        assert len(fm_calls) == 1 + 2 + 4 + 7 + 1
        # (2, 2) lies between (0, 0) and (5, 5), so it cannot be labeled 0
        # while both are labeled 1.
        with pytest.raises(KeyError):
            table[(1, 0, 1, 0, 1)]
        assert (1, 0, 1, 0, 1) not in table

    @staticmethod
    def patch_first_bit_1(monkeypatch, change, size=None):
        """Route the systems of first-bit-1 labelings, of ``size``
        constraints when it is given, through ``change``: their first
        constraint (row, strict) is the closed label-1 side of point 0."""
        def patched(constraints, nvars):
            witness = fm_witness(constraints, nvars)
            if constraints[0][1] or size not in (None, len(constraints)):
                return witness
            return change(witness)
        monkeypatch.setattr(vclab.spaces, "fm_witness", patched)

    @staticmethod
    def wrong_witness(w):
        # Point 0 is the origin, so b < 0 puts it on the 0 side; the point
        # is (den, den*w, den*b), so b - 1000 is den*b - 1000*den.
        return w and (*w[:-1], w[-1] - 1000 * w[0])

    def _check_raises(self, tmp_path, match, sem_match=None):
        """The table of the 5 points raises when the complement
        (1, 1, 1, 1, 1) is read, and so does ``pac-sim``, whose sem finds
        that labeling best-first from its prefix, with ``sem_match``."""
        table = HalfspaceSpace(2).dichotomies(self.PTS)
        assert len(table) == 20
        with pytest.raises(AssertionError, match=match):
            table[(1,) * 5]
        self._pac_sim_raises(tmp_path, sem_match or match, 1)

    def _pac_sim_raises(self, tmp_path, match, label):
        """``pac-sim --exact --m 5`` with sem, on the 5 points all labeled
        ``label``: the last multiset it enumerates draws each point once,
        and sem reads the witness of that constant labeling of all 5, the
        one labeling with no error.  Every earlier draw has at most 4
        distinct points."""
        (tmp_path / "space.json").write_text(HALFSPACE_2D)
        (tmp_path / "dist.json").write_text(json.dumps(
            {"support": [[list(p), label] for p in self.COORDS],
             "weights": ["1/5"] * 5}))
        with pytest.raises(AssertionError, match=match):
            main(["pac-sim", "--space", str(tmp_path / "space.json"),
                  "--dist", str(tmp_path / "dist.json"), "--m", "5",
                  "--eps", "0.5", "--exact", "--learner", "builtin:sem",
                  "--out", str(tmp_path)])

    def test_wrong_complement_witness_raises(self, monkeypatch, tmp_path):
        self.patch_first_bit_1(monkeypatch, self.wrong_witness, size=5)
        self._check_raises(tmp_path, "failed verification")

    def test_infeasible_complement_raises(self, monkeypatch, tmp_path):
        self.patch_first_bit_1(monkeypatch, lambda w: None, size=5)
        self._check_raises(tmp_path, "complement of a realized one",
                           "realized by the witness of its prefix but is "
                           "infeasible")

    def test_a_16_point_table_solves_one_system_per_realized_prefix(
            self, fm_calls):
        """The first j of 16 points of the plane in general position have
        Cover's count of labelings, half of them with first bit 0, so the
        table makes sum_{j<16} C(j)/2 = 575 FM calls when it is first read,
        where a sweep makes 2^15 = 32,768.  Its ``len`` makes none."""
        pts = plane_points_in_general_position(random.Random(16), 16)
        table = HalfspaceSpace(2).dichotomies([Instance.point(*p)
                                               for p in pts])
        assert len(table) == cover_count(16, 2)
        assert len(fm_calls) == 0
        assert (0,) * 16 in table
        assert sum(cover_count(j, 2) // 2 for j in range(1, 16)) == 575
        assert len(fm_calls) == 575
        assert len(table) == cover_count(16, 2)

    def test_scoring_labelings_solves_only_the_table(self, fm_calls):
        """``restriction_errors`` reads no witness: over 10 points of the
        plane in general position, scoring the table makes its tree's
        sum_{j<10} C(j)/2 = 129 FM calls, where reading every witness made
        212, one more for each of the 46 complements and the 37 labelings
        that a prefix's witness realizes.  ``approximation_error`` and
        ``sem``, which reads only the witness it returns, search instead:
        the best-first search for the labeling that gives only the last
        point in canonical order 1, with no error, follows the labels 0
        that the start v = -e_b gives, with no FM call, to the last point,
        whose label 1 makes the one call, on the labeling's full system;
        sem's one read keeps its point."""
        pts = sorted(plane_points_in_general_position(random.Random(5), 10))
        labeled = [(Instance.point(*p), int(p == pts[-1])) for p in pts]
        space = HalfspaceSpace(2)
        dist = DiscreteDistribution.uniform(labeled)
        assert sum(cover_count(j, 2) // 2 for j in range(1, 10)) == 129
        assert min(restriction_errors(space, dist.items())[1])[0] == 0
        assert len(fm_calls) == 129
        fm_calls.clear()
        assert approximation_error(space, dist) == 0
        assert len(fm_calls) == 1
        fm_calls.clear()
        h = sem_learner(space)(MultiSample.of(*labeled))
        assert [h(x) for x, _ in labeled] == [y for _, y in labeled]
        assert len(fm_calls) == 1

    @staticmethod
    def patch_systems(monkeypatch, size, change):
        """Route the result of every FM system of ``size`` constraints, or
        of fewer when ``size`` is negative, through ``change``."""
        def patched(constraints, nvars):
            witness = fm_witness(constraints, nvars)
            n = len(constraints)
            return change(witness) if (
                n == size if size > 0 else n < -size) else witness
        monkeypatch.setattr(vclab.spaces, "fm_witness", patched)

    def test_wrong_prefix_witness_raises(self, monkeypatch, tmp_path):
        """A wrong point for a prefix of at most 4 of the 5 points fails
        its integer re-check when the table is grown, in ``growth`` too."""
        self.patch_systems(monkeypatch, -5, self.wrong_witness)
        with pytest.raises(AssertionError, match="failed verification"):
            HalfspaceSpace(2).dichotomies(self.PTS)
        (tmp_path / "space.json").write_text(HALFSPACE_2D)
        with pytest.raises(AssertionError, match="failed verification"):
            main(["growth", "--space", str(tmp_path / "space.json"),
                  "--pool", ";".join(f"{x},{y}" for x, y in self.COORDS),
                  "--m", "5", "--out", str(tmp_path)])

    def test_infeasible_inherited_labeling_raises(self, monkeypatch,
                                                  tmp_path):
        """(0, 0, 0, 0, 0) is realized by the root's witness all the way
        down, so its full system is solved only when it is read."""
        self.patch_systems(monkeypatch, 5, lambda w: None)
        table = HalfspaceSpace(2).dichotomies(self.PTS)
        assert (0,) * 5 in table
        match = "realized by the witness of its prefix but is infeasible"
        with pytest.raises(AssertionError, match=match):
            table[(0,) * 5]
        self._pac_sim_raises(tmp_path, match, 0)
        table = kernel_table([(0, (*p, 1)) for p in self.COORDS])
        assert (0,) * 5 in table
        with pytest.raises(AssertionError, match=match):
            dict(table)


def _check_rule_raises(tmp_path, match):
    """The rule's table of 3 points of the plane makes no FM call until
    (1, 1, 1) is read, and ``vcdim`` reads every witness of the 3 points it
    finds shattered."""
    pts = TestComplementClosure.PTS[:3]
    table = HalfspaceSpace(2).dichotomies(pts)
    assert len(table) == 8
    with pytest.raises(AssertionError, match=match):
        table[(1, 1, 1)]
    (tmp_path / "space.json").write_text(HALFSPACE_2D)
    with pytest.raises(AssertionError, match=match):
        main(["vcdim", "--space", str(tmp_path / "space.json"),
              "--pool", "0,0;3,1;1,4", "--out", str(tmp_path)])


class TestAffineDependenceRule:
    """At most dim + 2 points whose affine kernel has dimension at most 1
    are decided by the signs of a kernel vector, with no FM call until a
    witness is read."""

    PTS = TestComplementClosure.PTS[:4]

    def test_count_len_and_in_make_no_fm_call(self, fm_calls):
        space = HalfspaceSpace(2)
        for n in range(1, len(self.PTS) + 1):
            sweep = [lab for lab, _ in sweep_table(self.PTS[:n])]
            fm_calls.clear()
            assert space.dichotomy_count(self.PTS[:n]) == len(sweep)
            table = space.dichotomies(self.PTS[:n])
            assert len(table) == len(sweep)
            assert [lab for lab in product((0, 1), repeat=n)
                    if lab in table] == list(table) == sweep
            assert fm_calls == []

    @pytest.mark.parametrize("coords", [
        [(0,), (1,), (3,)],
        [(0, 0), (3, 1), (1, 4), (2, 2)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 0)]])
    def test_a_witness_read_solves_one_system(self, fm_calls, coords):
        pts = [Instance.point(*p) for p in coords]
        space = HalfspaceSpace(len(coords[0]))
        sweep = sweep_table(coords)
        fm_calls.clear()
        assert space.dichotomy_count(pts) == len(sweep)
        table = space.dichotomies(pts)
        assert fm_calls == []
        lab, params = sweep[len(sweep) // 2]
        h = table[lab]
        assert h.key == ("halfspace", *params) and len(fm_calls) == 1
        assert table[lab] is h and len(fm_calls) == 1
        missing = next(lab for lab in product((0, 1), repeat=len(pts))
                       if lab not in table)
        with pytest.raises(KeyError):
            table[missing]
        assert len(fm_calls) == 1

    def test_in_rejects_what_is_not_a_labeling(self):
        for pts in (self.PTS[:3], TestComplementClosure.PTS):
            table = HalfspaceSpace(2).dichotomies(pts)
            n = len(pts)
            assert (0,) * n in table
            for bad in ((0,) * (n - 1), (0,) * (n + 1), (2,) + (0,) * (n - 1),
                        [0] * n, None):
                assert bad not in table

    def test_wrong_rule_witness_raises(self, monkeypatch, tmp_path):
        TestComplementClosure.patch_first_bit_1(
            monkeypatch, TestComplementClosure.wrong_witness)
        _check_rule_raises(tmp_path, "failed verification")

    def test_infeasible_rule_labeling_raises(self, monkeypatch, tmp_path):
        """An FM None on a labeling the rule calls realized is a bug."""
        TestComplementClosure.patch_first_bit_1(monkeypatch, lambda w: None)
        _check_rule_raises(tmp_path, "realized by its points' affine "
                                     "dependence but is infeasible")


def _patch_dependence(monkeypatch, change):
    """Route every result of ``_affine_dependence`` through ``change``."""
    dependence = vclab.spaces._affine_dependence

    def patched(rows):
        found = dependence(rows)
        return found and change(*found)
    monkeypatch.setattr(vclab.spaces, "_affine_dependence", patched)


# Three collinear points and one off their line: not in general position,
# so every table of all four is decided when it is built.
COLLINEAR_TRIPLE = "0,0;1,0;2,0;0,1"


def _vcdim_raises(tmp_path, match, pool=COLLINEAR_TRIPLE):
    (tmp_path / "space.json").write_text(HALFSPACE_2D)
    with pytest.raises(AssertionError, match=match):
        main(["vcdim", "--space", str(tmp_path / "space.json"),
              "--pool", pool, "--out", str(tmp_path)])


class TestRuleChecks:
    """The kernel vector and the rank certificate are checked in integers
    against the check rows before the rule is used; a wrong one is a bug,
    not bad input.  The ``vcdim`` pool has a collinear triple, so its
    four-point table takes the rule when it is built, not Cover's count."""

    PTS = [Instance.point(*map(int, p.split(",")))
           for p in COLLINEAR_TRIPLE.split(";")]

    def test_flipped_lambda_sign_raises(self, monkeypatch, tmp_path):
        def flip(lam, cert, den):
            if lam is None:
                return lam, cert, den
            k = next(i for i, v in enumerate(lam) if v)
            return [-v if i == k else v for i, v in enumerate(lam)], cert, den
        _patch_dependence(monkeypatch, flip)
        with pytest.raises(AssertionError, match="affine dependence failed"):
            HalfspaceSpace(2).dichotomy_count(self.PTS)
        _vcdim_raises(tmp_path, "affine dependence failed verification")

    def test_zero_lambda_raises(self, monkeypatch, tmp_path):
        _patch_dependence(monkeypatch, lambda lam, cert, den: (
            lam and [0] * len(lam), cert, den))
        _vcdim_raises(tmp_path, "affine dependence failed verification")

    @pytest.mark.parametrize("change", [
        lambda lam, cert, den: (lam, [c and [c[0] + 1, *c[1:]]
                                      for c in cert], den),
        lambda lam, cert, den: (lam, cert, 2 * den),
        lambda lam, cert, den: (lam, [[0] * len(c) if c else c
                                      for c in cert], 0),
        lambda lam, cert, den: (lam, [None, *cert[1:]], den),
        lambda lam, cert, den: (None, cert, den),
    ], ids=["entry", "den", "zero", "dropped", "independence"])
    def test_corrupted_rank_certificate_raises(self, monkeypatch, tmp_path,
                                               change):
        """A vcdim run meets a one-point table first (kernel 0, one
        certificate vector) and a four-point one last (a kernel vector and
        three certificate vectors), which a lam of None makes claim a
        kernel of 0 with one row left without a certificate."""
        _patch_dependence(monkeypatch, change)
        _vcdim_raises(tmp_path, "rank certificate failed verification")

    @staticmethod
    def patch_comb(monkeypatch, comb):
        """Compute Cover's count 2 * sum_{i<k} C(n - 1, i) with ``comb``."""
        monkeypatch.setattr(vclab.spaces, "math",
                            SimpleNamespace(gcd=math.gcd, comb=comb))

    def test_a_rule_claiming_every_labeling_reaches_known_vc(
            self, monkeypatch, tmp_path):
        """If Cover's count were all 2^n labelings, the 4 points of the
        plane, in general position, would be taken as shattered.  Reading
        their witnesses takes the affine dependence rule, whose count of
        14 is checked against Cover's like a grown table's, so the run
        stops there, before ``vc_dimension`` would report d=4 above the
        family's VC dimension 3."""
        self.patch_comb(monkeypatch, lambda n, i: 2 ** n if i == 0 else 0)
        _vcdim_raises(tmp_path, "14 labelings, Cover's 16",
                      pool="0,0;1,0;0,1;1,1")

    # The closed rows of (0, 0), (1, 0) and (0, 1): affinely independent,
    # so the rule decides them, all 8 labelings realized; and of three
    # points on a line, with 6.
    CORNER_ENTRIES = [vclab.spaces._affine_entry(0, (x, y, 1), False)
                      for x, y in ((0, 0), (1, 0), (0, 1))]
    LINE_ENTRIES = [vclab.spaces._affine_entry(0, (x, 0, 1), False)
                    for x in range(3)]

    def test_a_rule_count_above_the_bound_raises(self, monkeypatch):
        """With Cover's count computed 2 short, at 6, the corner points'
        8 labelings raise at the first ``in`` in general position, and
        when the table is built otherwise."""
        assert len(AffineWitnesses(self.CORNER_ENTRIES)) == 8
        self.patch_comb(monkeypatch,
                        lambda n, i, comb=math.comb: comb(n, i) - (i == 0))
        table = AffineWitnesses(self.CORNER_ENTRIES)
        assert len(table) == 6
        with pytest.raises(AssertionError, match="8 labelings, Cover's 6"):
            (0, 0, 0) in table
        _not_independent(monkeypatch)
        with pytest.raises(AssertionError, match="8 labelings, Cover's 6"):
            AffineWitnesses(self.CORNER_ENTRIES)

    def test_a_rule_count_off_a_general_bound_raises(self, monkeypatch):
        """Rows taken to be in general position have Cover's count as
        their length until the table is decided, and the rule's count must
        then equal it."""
        assert len(AffineWitnesses(self.LINE_ENTRIES)) == 6
        monkeypatch.setattr(vclab.spaces, "_independent",
                            lambda rows, first: True)
        table = AffineWitnesses(self.LINE_ENTRIES)
        assert len(table) == 8
        for decide in (list, lambda t: (0, 0, 0) in t):
            with pytest.raises(AssertionError, match="6 labelings, Cover's 8"):
                decide(table)


class TestDeferredHypotheses:
    """A halfspace table keeps each witness as a parameter tuple and builds
    its ``Hypothesis`` when it is first read."""

    PTS = TestComplementClosure.PTS

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        hypothesis = HalfspaceSpace.hypothesis

        def counted(space, params):
            calls.append(params)
            return hypothesis(space, params)
        monkeypatch.setattr(HalfspaceSpace, "hypothesis", counted)
        return calls

    def test_count_builds_none(self, built):
        space = HalfspaceSpace(2)
        sweep = sweep_table(self.PTS)
        assert space.dichotomy_count(self.PTS) == len(sweep) == 20
        table = space.dichotomies(self.PTS)
        assert len(table) == 20 and (0,) * 5 in table
        assert list(table) == sorted(table)
        assert built == []

    def test_each_read_builds_one_once(self, built):
        table = HalfspaceSpace(2).dichotomies(self.PTS)
        for lab in ((0,) * 5, (1,) * 5):
            h = table[lab]
            assert tuple(h(x) for x in self.PTS) == lab
            assert len(built) == 1 and built[0] == h.key[1:]
            assert table[lab] is h
            assert len(built) == 1
            built.clear()


class TestWitnessCheck:
    """The kernel re-checks every point it finds against the check rows of
    the labeling's points, built from the coordinates apart from the
    elimination and the rows that feed it; an elimination that returns a
    wrong witness, or a wrong row builder, is caught and is not reported
    as bad input."""

    PTS = TestComplementClosure.PTS
    # The 5 points of PTS, with a collinear triple: ``growth --m 5`` grows
    # their table, and ``vcdim`` reads the witnesses of 3 of them.
    POOL = ";".join(f"{x},{y}" for x, y in TestComplementClosure.COORDS)
    FRACTIONAL = [Instance.point(F(1, 2), 0), Instance.point(0, F(1, 3)),
                  Instance.point(F(2, 3), F(3, 4)),
                  Instance.point(F(5, 2), F(1, 5)),
                  Instance.point(F(-1, 3), F(7, 2))]

    @pytest.fixture
    def negated_witnesses(self, monkeypatch):
        # (den, -n_1, ..., -n_k): the negated values, den kept > 0.
        def negated(constraints, nvars):
            witness = fm_witness(constraints, nvars)
            return None if witness is None else (
                witness[0], *(-v for v in witness[1:]))
        monkeypatch.setattr(vclab.spaces, "fm_witness", negated)

    def test_dichotomies_raise(self, negated_witnesses):
        with pytest.raises(AssertionError):
            HalfspaceSpace(2).dichotomies(self.PTS)

    def test_rule_dichotomies_raise_when_a_witness_is_read(
            self, negated_witnesses):
        table = HalfspaceSpace(2).dichotomies(self.PTS[:3])
        with pytest.raises(AssertionError, match="failed verification"):
            table[(0, 1, 1)]

    def test_dichotomy_count_raises(self, negated_witnesses):
        """The check runs when a labeling is solved, not when its
        hypothesis is read, so a count that reads none still makes it."""
        with pytest.raises(AssertionError, match="failed verification"):
            HalfspaceSpace(2).dichotomy_count(self.PTS)

    def test_rule_count_solves_nothing_until_a_witness_is_read(
            self, negated_witnesses):
        space = HalfspaceSpace(2)
        assert space.dichotomy_count(self.PTS[:3]) == 8
        with pytest.raises(AssertionError, match="failed verification"):
            space.dichotomies(self.PTS[:3])[(0, 0, 0)]

    def test_a_witness_blind_to_the_new_point_raises(self, monkeypatch,
                                                    tmp_path):
        """A kernel that drops the last constraint of every system returns
        the prefix's own point for the label that point does not give the
        new point; the re-check of the new point's label catches it."""
        def blind(constraints, nvars):
            return fm_witness(constraints[:-1], nvars)
        monkeypatch.setattr(vclab.spaces, "fm_witness", blind)
        with pytest.raises(AssertionError, match="failed verification"):
            HalfspaceSpace(2).dichotomy_count(self.PTS)
        (tmp_path / "space.json").write_text(HALFSPACE_2D)
        with pytest.raises(AssertionError, match="failed verification"):
            main(["growth", "--space", str(tmp_path / "space.json"),
                  "--pool", self.POOL, "--m", "5", "--out", str(tmp_path)])

    def test_cli_does_not_exit_2(self, negated_witnesses, tmp_path):
        """``vcdim`` reads the witnesses of the set it finds shattered;
        ``growth --m 5`` grows the table of 5 points of the plane."""
        (tmp_path / "space.json").write_text(HALFSPACE_2D)
        for argv in (["vcdim"], ["growth", "--m", "5"]):
            with pytest.raises(AssertionError, match="failed verification"):
                main([*argv, "--space", str(tmp_path / "space.json"),
                      "--pool", self.POOL, "--out", str(tmp_path)])

    def test_wrong_rows_raise(self, denominators_dropped):
        """The 5 points are in general position, so their table grows, and
        solves with the wrong rows, when ``in`` first needs it."""
        table = HalfspaceSpace(2).dichotomies(self.FRACTIONAL)
        with pytest.raises(AssertionError, match="failed verification"):
            (0,) * 5 in table

    def test_later_points_take_labels_from_check_rows(
            self, denominators_dropped):
        """The point of a realized prefix labels the next point by that
        point's check row.  Labeled by the rows FM eliminates, which here
        drop their denominators, these four rows in one variable listed
        (0, 0, 1, 0), which no v realizes, and missed (1, 0, 0, 0), with
        no check failing."""
        rows = [(-1, (1,), False), (F(1, 2), (-3,), True),
                (-2, (F(3, 2),), False), (F(-1, 2), (-1,), False)]
        with pytest.raises(AssertionError,
                           match="witness failed verification"):
            list(AffineWitnesses([vclab.spaces._affine_entry(*row)
                                  for row in rows]))

    def test_wrong_rows_raise_when_rule_witnesses_are_read(
            self, denominators_dropped):
        table = HalfspaceSpace(2).dichotomies(self.FRACTIONAL[:3])
        assert len(table) == 8
        with pytest.raises(AssertionError, match="failed verification"):
            dict(table)

    def test_wrong_rows_do_not_exit_2(self, denominators_dropped, tmp_path):
        (tmp_path / "space.json").write_text(
            '{"kind": "halfspace-family", "dim": 2}')
        with pytest.raises(AssertionError):
            main(["vcdim", "--space", str(tmp_path / "space.json"),
                  "--pool", "1/2,0;0,1/3;2/3,3/4", "--out", str(tmp_path)])


class TestParametricWitnesses:
    def test_threshold_witnesses_reverify(self):
        space = ThresholdSpace()
        instances = points(3, 1, 2)  # unsorted on purpose
        table = space.dichotomies(instances)
        assert len(table) == 4
        for labeling, h in table.items():
            assert tuple(h(x) for x in instances) == labeling

    def test_interval_witnesses_reverify(self):
        space = IntervalSpace()
        instances = points(5, 1, 3)
        table = space.dichotomies(instances)
        assert len(table) == 7
        for labeling, h in table.items():
            assert tuple(h(x) for x in instances) == labeling

    def test_cosingleton_witnesses_reverify(self):
        space = CoSingletonSpace()
        instances = points(2, 7)
        table = space.dichotomies(instances)
        assert set(table) == {(1, 1), (0, 1), (1, 0)}
        for labeling, h in table.items():
            assert tuple(h(x) for x in instances) == labeling

    def test_atoms_rejected_by_numeric_families(self):
        with pytest.raises(ValueError):
            ThresholdSpace().dichotomies([Instance.atom("a")])


def test_the_determinant_memo_is_bounded():
    """``_independent`` keeps a bounded number of answers, the least
    recently used dropped first, however many row sets it sees."""
    independent = vclab.spaces._independent
    independent.cache_clear()
    bound = independent.cache_info().maxsize
    rows = [((i, 1), (i + 1, 1)) for i in range(bound + 50)]
    for row in rows:
        assert independent(row, 0)
    assert independent.cache_info() == (0, bound + 50, bound, bound)
    assert independent(rows[-1], 0) and independent(rows[0], 0)
    assert not independent(((2, 4), (1, 2)), 0)
    assert independent.cache_info()[:2] == (1, bound + 52)
    assert independent.cache_info().currsize == bound
