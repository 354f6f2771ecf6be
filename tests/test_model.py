import copy
import gc
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction as F
from itertools import product
from pathlib import Path
from weakref import ref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vclab
import vclab.model
from vclab import (
    CoSingletonSpace,
    DefinableSpace,
    DiscreteDistribution,
    ExplicitParams,
    ExplicitSpace,
    HalfspaceSpace,
    Hypothesis,
    Instance,
    IntervalSpace,
    MultiSample,
    Sample,
    SampledParams,
    ThresholdSpace,
    approximation_error,
    empirical_distribution,
    empirical_opt,
    loss,
    memorizing_learner,
    parse_formula,
    restriction_errors,
    sample_error,
    shatters,
    true_error,
    vc_dimension,
)
from conftest import (atoms, points, random_explicit_space, random_multisample,
                      reference_approximation_error)

X0 = Instance.atom("x0")
CONST0 = ExplicitSpace([X0], [[0]]).hypothesis_from_bits((0,))
CONST1 = ExplicitSpace([X0], [[1]]).hypothesis_from_bits((1,))


def two_constants(instances):
    n = len(instances)
    return ExplicitSpace(instances, [[0] * n, [1] * n])


class TestLoss:
    def test_constant_one_on_graph(self):
        assert loss(CONST1, Sample(X0, 1)) == 0

    def test_constant_one_misclassifies_zero_label(self):
        assert loss(CONST1, Sample(X0, 0)) == 1

    def test_threshold_at_two_on_three(self):
        h = ThresholdSpace().hypothesis(2)
        assert h(Instance.point(3)) == 1
        assert loss(h, Sample(Instance.point(3), 0)) == 1


class TestSampleError:
    def test_all_correct(self):
        zbar = MultiSample.of(("x0", 1), ("x0", 1), ("x0", 1), ("x0", 1))
        assert sample_error(CONST1, zbar) == 0

    def test_one_wrong_of_four(self):
        zbar = MultiSample.of(("x0", 1), ("x0", 1), ("x0", 1), ("x0", 0))
        assert sample_error(CONST1, zbar) == F(1, 4)

    def test_threshold_half(self):
        h = ThresholdSpace().hypothesis(2)
        zbar = MultiSample.of(((1,), 0), ((3,), 0))
        assert sample_error(h, zbar) == F(1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiSample(())


class TestTrueError:
    def test_dirac_consistent(self):
        assert true_error(CONST1, DiscreteDistribution.point_mass((X0, 1))) == 0

    def test_dirac_inconsistent(self):
        assert true_error(CONST0, DiscreteDistribution.point_mass((X0, 1))) == 1

    def test_uniform_two_points(self):
        dist = DiscreteDistribution.uniform([((1,), 1), ((2,), 0)])
        h = two_constants([Instance.point(1), Instance.point(2)]) \
            .hypothesis_from_bits((1, 1))
        assert true_error(h, dist) == F(1, 2)

    def test_naive_loop_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            space = random_explicit_space(rng)
            dist_instances = space.domain
            from conftest import random_distribution
            dist = random_distribution(rng, dist_instances)
            for h in space.hypotheses():
                naive = sum((w for z, w in dist.items()
                             if h(z.instance) != z.label), F(0))
                assert true_error(h, dist) == naive


class TestApproximationError:
    def test_consistent_hypothesis_gives_zero(self):
        dist = DiscreteDistribution.point_mass((X0, 1))
        assert approximation_error(two_constants([X0]), dist) == 0

    def test_single_hypothesis(self):
        dist = DiscreteDistribution.uniform([((1,), 1), ((2,), 0)])
        space = ExplicitSpace([Instance.point(1), Instance.point(2)], [[0, 0]])
        assert approximation_error(space, dist) == F(1, 2)

    def test_lower_bounds_every_hypothesis(self):
        rng = random.Random(5)
        from conftest import random_distribution
        for _ in range(30):
            space = random_explicit_space(rng)
            dist = random_distribution(rng, space.domain)
            opt = approximation_error(space, dist)
            errors = [true_error(h, dist) for h in space.hypotheses()]
            assert opt == min(errors)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def drawn_weights(data, k):
    """k positive weights summing to 1: k - 1 of them 1/p for primes p > k
    and the rest, so the denominators are mixed and coprime; or floats
    i / total, which the distribution renormalizes to an exact unit sum
    when they miss it."""
    if data.draw(st.booleans()):
        head = [F(1, data.draw(st.sampled_from([p for p in PRIMES if p > k])))
                for _ in range(k - 1)]
        return head + [1 - sum(head)]
    raw = data.draw(st.lists(st.integers(1, 10 ** 6), min_size=k,
                             max_size=k))
    return [r / sum(raw) for r in raw]


# Each family with a strategy for its instances.  The formula space's
# sampled source has no exact oracle, so it is scored with
# require_exact=False.
APPROXIMATION_FAMILIES = {
    "threshold": (ThresholdSpace, st.builds(
        Instance.point, st.fractions(-5, 5, max_denominator=6))),
    "interval": (IntervalSpace, st.builds(
        Instance.point, st.fractions(-5, 5, max_denominator=6))),
    "explicit": (lambda: ExplicitSpace(atoms(4), [[0, 1, 1, 0], [1, 1, 0, 0],
                                                  [0, 0, 0, 1]]),
                 st.sampled_from(atoms(5))),
    "halfspace": (lambda: HalfspaceSpace(2), st.builds(
        Instance.point, st.integers(-4, 4), st.integers(-4, 4))),
    "formula-sampled": (lambda: formula_space(
        "p * p * x <= 1", ["p"], SampledParams(budget=60, seed=1)),
        st.builds(Instance.point, st.integers(-3, 6))),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_approximation_error_matches_the_fraction_sum_reference(data):
    family = data.draw(st.sampled_from(sorted(APPROXIMATION_FAMILIES)))
    make, instances = APPROXIMATION_FAMILIES[family]
    pairs = data.draw(st.lists(st.tuples(instances, st.integers(0, 1)),
                               min_size=1, max_size=5, unique=True))
    dist = DiscreteDistribution(
        zip((Sample(x, y) for x, y in pairs),
            drawn_weights(data, len(pairs))))
    exact = family != "formula-sampled"
    assert approximation_error(make(), dist, require_exact=exact) == \
        reference_approximation_error(make(), dist, require_exact=exact)


class TestEmpiricalOpt:
    def test_shattered_sample_gives_zero(self):
        space = ExplicitSpace.full(atoms(2))
        zbar = MultiSample.of(("s0", 1), ("s1", 0))
        assert empirical_opt(space, zbar) == 0

    def test_constant_zero_against_ones(self):
        space = ExplicitSpace(points_12(), [[0, 0]])
        zbar = MultiSample.of(((1,), 1), ((2,), 1))
        assert empirical_opt(space, zbar) == 1

    def test_thresholds_half(self):
        zbar = MultiSample.of(((1,), 1), ((2,), 0))
        assert empirical_opt(ThresholdSpace(), zbar) == F(1, 2)

    def test_minimum_is_attained(self):
        rng = random.Random(23)
        for _ in range(30):
            space = random_explicit_space(rng)
            zbar = random_multisample(rng, space.domain, rng.randint(1, 6))
            opt = empirical_opt(space, zbar)
            errors = [sample_error(h, zbar) for h in space.hypotheses()]
            assert all(opt <= e for e in errors)
            assert opt in errors


def points_12():
    return [Instance.point(1), Instance.point(2)]


class TestEmpiricalDistribution:
    def test_single(self):
        dist = empirical_distribution(MultiSample.of(("a", 1)))
        assert dist.weight(Sample(Instance.atom("a"), 1)) == 1

    def test_accumulation(self):
        dist = empirical_distribution(MultiSample.of(("a", 1), ("a", 1)))
        assert dist.weight(Sample(Instance.atom("a"), 1)) == 1
        assert len(dist) == 1

    def test_two_distinct(self):
        dist = empirical_distribution(MultiSample.of(("a", 1), ("b", 0)))
        assert dist.weight(Sample(Instance.atom("a"), 1)) == F(1, 2)
        assert dist.weight(Sample(Instance.atom("b"), 0)) == F(1, 2)


class TestRealizedDichotomies:
    def test_full_class_two_points(self):
        space = ExplicitSpace.full(atoms(2))
        table = space.dichotomies(atoms(2))
        assert space.oracle_exact
        assert set(table) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_thresholds(self):
        space = ThresholdSpace()
        table = space.dichotomies(points_12())
        assert space.oracle_exact and set(table) == {(0, 0), (0, 1), (1, 1)}

    def test_cosingletons(self):
        from vclab import CoSingletonSpace
        instances = [Instance.point(i) for i in (1, 2, 3)]
        space = CoSingletonSpace()
        table = space.dichotomies(instances)
        assert space.oracle_exact
        assert set(table) == {(1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)}

    def test_explicit_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(40):
            space = random_explicit_space(rng)
            k = rng.randint(1, len(space.domain))
            subset = rng.sample(space.domain, k)
            table = space.dichotomies(subset)
            brute = {tuple(h(x) for x in subset) for h in space.hypotheses()}
            assert space.oracle_exact and set(table) == brute
            assert space.dichotomy_count(subset) == len(brute)

    def test_monotone_in_instances(self):
        rng = random.Random(9)
        for _ in range(30):
            space = random_explicit_space(rng)
            n = len(space.domain)
            small = rng.sample(space.domain, rng.randint(1, n))
            extra = [x for x in space.domain if x not in small]
            big = small + extra
            if not extra:
                continue
            assert len(space.dichotomies(small)) <= len(
                space.dichotomies(big))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSpace().dichotomies([])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bridge_identity(data):
    """true error under the empirical distribution equals the sample error."""
    nx = data.draw(st.integers(1, 4))
    domain = atoms(nx)
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=nx,
                                       max_size=nx), min_size=1, max_size=6))
    space = ExplicitSpace(domain, rows)
    m = data.draw(st.integers(1, 5))
    entries = data.draw(st.lists(
        st.tuples(st.integers(0, nx - 1), st.integers(0, 1)),
        min_size=m, max_size=m))
    zbar = MultiSample(tuple(Sample(domain[i], y) for i, y in entries))
    dist = empirical_distribution(zbar)
    for h in space.hypotheses():
        assert true_error(h, dist) == sample_error(h, zbar)


def test_restriction_errors_match_per_hypothesis_sums():
    """The witness of each scored labeling gets wrong exactly the signed
    weight of the pairs it misclassifies, and the labelings come in table
    order on the pairs' instances sorted canonically (zero-weight pairs
    included)."""
    rng = random.Random(5)
    for _ in range(60):
        space = random_explicit_space(rng, max_instances=5)
        pairs = [(Sample(rng.choice(space.domain), rng.randint(0, 1)),
                  rng.choice((0, 1, -2, F(1, 3), F(-5, 7))))
                 for _ in range(rng.randint(1, 6))]
        instances = sorted({z.instance for z, _ in pairs},
                           key=Instance.sort_key)
        witnesses, scored = restriction_errors(space, pairs)
        scored = list(scored)
        assert [lab for _, lab in scored] == \
            list(space.dichotomies(instances))
        for wrong, lab in scored:
            h = witnesses[lab]
            assert tuple(h(x) for x in instances) == lab
            assert wrong == sum(w for z, w in pairs if loss(h, z))


def scored_witnesses(space, pairs):
    """(labeling, witness key, wrong weight) of each labeling
    ``restriction_errors`` scores, its witness read from the table."""
    witnesses, scored = restriction_errors(space, pairs)
    return [(lab, witnesses[lab].key, wrong) for wrong, lab in scored]


def row_walking_dichotomies(space, instances):
    """Reference oracle: every vector of the space in order, keeping the
    first one to give each restriction."""
    positions = [space._index.get(x) for x in instances]
    witnesses = {}
    for bits in space._vectors:
        labeling = tuple(0 if p is None else bits[p] for p in positions)
        if labeling not in witnesses:
            witnesses[labeling] = space.hypothesis_from_bits(bits)
    return witnesses


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_explicit_restrictions_match_row_walk(data):
    """Spaces of up to 40 drawn rows, and spaces of 65 to 200 distinct
    vectors over 8 atoms, so that a label column is wider than a machine
    word."""
    if data.draw(st.booleans()):
        nx = data.draw(st.integers(1, 7))
        rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=nx,
                                           max_size=nx), min_size=1,
                                  max_size=40))
    else:
        nx = 8
        rows = [[(v >> j) & 1 for j in range(nx)] for v in data.draw(
            st.sets(st.integers(0, 2 ** nx - 1), min_size=65, max_size=200))]
    domain = atoms(nx)
    space = ExplicitSpace(domain, rows)
    outside = [Instance.atom(f"o{i}") for i in range(3)]
    instances = data.draw(st.lists(st.sampled_from(domain + outside),
                                   min_size=1, max_size=nx + 3, unique=True))
    table = space.dichotomies(instances)
    reference = row_walking_dichotomies(space, instances)
    assert [(lab, h.key) for lab, h in table.items()] == \
        [(lab, h.key) for lab, h in reference.items()]
    assert space.dichotomy_count(instances) == len(table)
    missing = {tuple(r) for r in product((0, 1), repeat=nx)} - \
        {tuple(r) for r in rows}
    if missing:
        with pytest.raises(ValueError):
            space.hypothesis_from_bits(min(missing))


PLANE = [Instance.point(*p) for p in [(0, 0), (3, 1), (1, 4), (2, 2), (5, 5)]]


def formula_space(text, params, source):
    return DefinableSpace(parse_formula(text, ["x"], params), source)


# Every family's table on a few instances: halfspaces on at most dim + 1
# points in general position (every labeling) and on more (the prefix
# tree), and formulas over a grid, a native closed form, an affine closed
# form and a searched sampled source.
LAZY_TABLES = {
    "explicit": (lambda: ExplicitSpace.full(atoms(3)), atoms(3)),
    "threshold": (ThresholdSpace, points(3, 1, 2)),
    "interval": (IntervalSpace, points(3, 1, 2)),
    "co-singleton": (CoSingletonSpace, points(3, 1, 2)),
    "halfspace-rule": (lambda: HalfspaceSpace(2), PLANE[:3]),
    "halfspace-tree": (lambda: HalfspaceSpace(2), PLANE),
    "formula-grid": (lambda: formula_space(
        "a <= x and x <= b", ["a", "b"],
        ExplicitParams.grid([range(5), range(5)])), points(1, 2, 3)),
    "formula-native": (lambda: formula_space(
        "p <= x", ["p"], SampledParams(budget=20)), points(1, 2, 3)),
    "formula-affine": (lambda: formula_space(
        "0 <= a * x + b", ["a", "b"], SampledParams(budget=20)),
        points(1, 2, 3)),
    "formula-sampled": (lambda: formula_space(
        "p * p * x <= 1", ["p"], SampledParams(budget=400, seed=1)),
        points(1, 2)),
    "formula-float-grid": (lambda: DefinableSpace(parse_formula(
        "a <= x and x <= b", ["x"], ["a", "b"]),
        ExplicitParams.grid([range(5), range(5)]), "float"), points(1, 2, 3)),
}
# The families whose restriction oracle is not exact: parameter search,
# and the float backend.
INEXACT_TABLES = {"formula-sampled", "formula-float-grid"}


@pytest.fixture
def built(monkeypatch):
    """The keys of the hypotheses constructed while the fixture lives."""
    keys = []
    init = Hypothesis.__init__

    def counted(self, key, fn):
        keys.append(key)
        init(self, key, fn)
    monkeypatch.setattr(Hypothesis, "__init__", counted)
    return keys


@pytest.mark.parametrize("family", sorted(LAZY_TABLES))
def test_a_table_builds_a_hypothesis_only_when_one_is_read(built, family):
    """Building, counting, ``in``, ``len`` and iteration construct no
    ``Hypothesis``; the first read of a labeling constructs exactly one,
    which a re-read returns."""
    make, instances = LAZY_TABLES[family]
    space = make()
    built.clear()
    table = space.dichotomies(instances)
    labelings = list(table)
    assert space.dichotomy_count(instances) == len(table) == \
        len(labelings) > 1
    assert all(lab in table for lab in labelings)
    assert set(table) == set(labelings)
    assert built == []
    lab = labelings[-1]
    h = table[lab]
    assert built == [h.key]
    assert table[lab] is h and built == [h.key]
    assert tuple(h(x) for x in instances) == lab


@pytest.mark.parametrize("family", sorted(LAZY_TABLES))
def test_dichotomies_is_a_mapping_whose_views_agree(family):
    """Every family's table is a ``Mapping``: its ``len``, ``in`` and
    iteration agree, and ``shatters`` reports the space's own exactness
    flag."""
    make, instances = LAZY_TABLES[family]
    space = make()
    table = space.dichotomies(instances)
    assert isinstance(table, Mapping)
    labelings = list(table)
    assert len(table) == len(set(labelings)) == len(labelings)
    assert [lab for lab in product((0, 1), repeat=len(instances))
            if lab in table] == sorted(labelings)
    assert space.oracle_exact is (family not in INEXACT_TABLES)
    assert shatters(space, instances).exact is space.oracle_exact


@pytest.mark.parametrize("family", sorted(LAZY_TABLES))
def test_a_labeling_that_is_not_a_tuple_is_not_in_a_table(family):
    """``in`` answers False for a labeling that is not a tuple, even an
    unhashable list of a realized labeling's bits, as it does for any
    labeling the table lacks."""
    make, instances = LAZY_TABLES[family]
    table = make().dichotomies(instances)
    lab = next(iter(table))
    assert lab in table
    for other in (list(lab), bytes(lab), None, {0: 1}):
        assert other not in table


def test_a_memoized_table_keeps_no_reference_to_its_space():
    """An ``ExplicitSpace`` whose memo holds a table with a read witness
    is freed when its last reference goes, without the cyclic collector:
    no witness builder of the table refers back to the space."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        space = ExplicitSpace.full(atoms(3))
        table = space.dichotomies(atoms(2))
        assert table[0, 1](atoms(3)[1]) == 1
        alive = ref(space)
        del space, table
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_explicit_space_builds_each_hypothesis_once(built):
    """``hypothesis_from_bits``, ``hypotheses()``, table witnesses and a
    memorizing learner share one ``Hypothesis`` per bit-vector, built on
    its first request, also when asked by an equal tuple of other types."""
    space = ExplicitSpace(atoms(2), [[1, 1], [True, 0.0], [0, 0]])
    built.clear()
    h = space.hypothesis_from_bits((1, 0))
    assert space.hypothesis_from_bits((1, 0)) is h
    assert space.hypothesis_from_bits((1.0, False)) is h
    assert h.key == ("explicit", (1, 0)) and built == [h.key]
    assert space.dichotomies(atoms(2))[1, 0] is h
    listed = list(space.hypotheses())
    assert [g.key[1] for g in listed] == [(0, 0), (1, 0), (1, 1)]
    assert listed[1] is h
    assert all(a is b for a, b in zip(space.hypotheses(), listed, strict=True))
    learner = memorizing_learner(ExplicitSpace.full(atoms(2)))
    samples = [MultiSample.of(*z) for z in product(
        [(x, y) for x in atoms(2) for y in (0, 1)], repeat=2)]
    built.clear()
    outputs = [learner(zbar) for zbar in samples]
    assert sorted(built) == sorted({g.key for g in outputs})
    assert len(built) == 4
    with pytest.raises(ValueError, match="not in the space"):
        space.hypothesis_from_bits((0, 1))


class TestExplicitTableMemo:
    """``ExplicitSpace.dichotomies`` keeps the tables of the last
    ``EXPLICIT_TABLE_MEMO`` instance tuples and shares them read-only."""

    def test_repeated_tuple_returns_the_same_table(self):
        space = ExplicitSpace.full(atoms(3))
        xs = atoms(3)[1:]
        table = space.dichotomies(xs)
        assert space.dichotomies(tuple(xs)) is table
        assert space.dichotomies(xs[::-1]) is not table

    def test_memo_is_bounded_least_recently_used_first(self):
        bound = vclab.model.EXPLICIT_TABLE_MEMO
        domain = atoms(50)
        space = ExplicitSpace(domain, [[0] * 50, [1] * 50])
        tuples = [(x, y) for x in domain for y in domain if x != y]
        assert len(tuples) > bound + 1
        first = space.dichotomies(tuples[0])
        kept = space.dichotomies(tuples[1])
        for xs in tuples[2:bound + 1]:
            space.dichotomies(xs)
        assert space.dichotomies(tuples[1]) is kept  # now the most recent
        space.dichotomies(tuples[bound + 1])
        assert space._table.cache_info().currsize <= bound
        assert space.dichotomies(tuples[1]) is kept
        assert space.dichotomies(tuples[0]) is not first
        assert space._table.cache_info().currsize <= bound

    def test_witnesses_are_read_only(self):
        space = ExplicitSpace.full(atoms(2))
        table = space.dichotomies(atoms(2))
        h = table[0, 1]
        with pytest.raises(TypeError):
            table[0, 1] = table[1, 0]
        assert space.dichotomies(atoms(2))[0, 1] is h

    def test_shatters_shares_and_vc_dimension_copies_the_witnesses(self):
        """``shatters`` hands over the memoized table's read-only
        witnesses; ``vc_dimension`` copies them into a dict of its own."""
        space = ExplicitSpace.full(atoms(2))
        table = space.dichotomies(atoms(2))
        shared = shatters(space, atoms(2)).witnesses
        assert shared is table
        with pytest.raises(TypeError):
            shared[0, 1] = shared[1, 0]
        copied = vc_dimension(space, atoms(2)).witnesses
        assert type(copied) is dict
        assert copied == dict(table)
        copied.clear()
        assert len(space.dichotomies(atoms(2))) == 4

    def test_warm_memo_gives_the_fresh_space_restriction_errors(self):
        rng = random.Random(11)
        for _ in range(40):
            space = random_explicit_space(rng, max_instances=5)
            rows = [[h(x) for x in space.domain] for h in space.hypotheses()]
            for _ in range(4):
                pairs = [(Sample(rng.choice(space.domain), rng.randint(0, 1)),
                          rng.choice((1, 2, F(1, 3))))
                         for _ in range(rng.randint(1, 5))]
                fresh = ExplicitSpace(space.domain, rows)
                for _ in range(2):
                    assert scored_witnesses(space, pairs) == \
                        scored_witnesses(fresh, pairs)


class TestDiscreteDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([(("a", 1), F(1, 3))])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([(("a", 1), F(0)), (("b", 1), F(1))])

    def test_float_weights_renormalized_exactly(self):
        dist = DiscreteDistribution([(("a", 1), 1 / 3), (("b", 0), 1 / 3),
                                     (("c", 1), 1 / 3)])
        assert sum(w for _, w in dist.items()) == 1

    def test_far_from_one_rejected_even_for_floats(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([(("a", 1), 0.5), (("b", 0), 0.6)])

    def test_non_finite_weight_rejected(self):
        for w in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="not a finite number"):
                DiscreteDistribution([(("a", 1), w)])
            with pytest.raises(ValueError, match="not a finite number"):
                Instance.point(w)

    def test_support_in_canonical_order(self):
        dist = DiscreteDistribution.uniform([("b", 0), ("a", 1), ("a", 0)])
        labels = [(z.instance.value, z.label) for z in dist.support]
        assert labels == sorted(labels)


class TestInstances:
    def test_atom_vector_equality_and_order(self):
        assert Instance.atom("a") == Instance.atom("a")
        assert Instance.point(1) == Instance.point(F(1))
        assert Instance.point(1) != Instance.atom("1")
        mixed = [Instance.point(2), Instance.atom("z"), Instance.point(1)]
        ordered = sorted(mixed, key=Instance.sort_key)
        assert ordered[0] == Instance.atom("z")

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Sample(X0, 2)

    def test_bits_and_labels_are_not_truncated(self):
        """1.5 is not read as 1, anywhere a bit or label is read; values
        equal to 0 or 1 are."""
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            MultiSample.of((X0, 1.5))
        with pytest.raises(ValueError, match="bit-vector entry"):
            ExplicitSpace([X0], [[1.5]])
        space = ExplicitSpace(atoms(2), [[True, 0.0], [1, 1]])
        assert len(space) == 2
        assert space.hypothesis_from_bits((1.0, False)).key == \
            ("explicit", (1, 0))
        for bits in [(1.5, 0), ("1", 0)]:
            with pytest.raises(ValueError, match="bit-vector entry"):
                space.hypothesis_from_bits(bits)

    def test_equal_instances_hash_equal(self):
        ones = [Instance.point(1), Instance.point("1"), Instance.point(1.0),
                Instance.point(F(2, 2))]
        assert len(set(ones)) == 1
        assert {hash(x) for x in ones} == {hash((F(1),))}
        for x in ones + [Instance.atom("s0"), Instance.point(F(1, 3), -2)]:
            assert hash(x) == hash(x.value)

    def test_replace_and_copy_keep_the_hash(self):
        x = Instance.point(F(1, 3), 2)
        assert Instance._fields == ("value",)
        assert x.value == (F(1, 3), F(2))
        moved = x._replace(value=(F(5, 7),))
        assert moved == Instance.point(F(5, 7))
        assert hash(moved) == hash((F(5, 7),))
        for y in (x._replace(), copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
        assert repr(x) == "Instance.point('1/3', '2')"

    def test_atom_pickled_under_another_hash_seed(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(vclab.__file__).parents[1])
        child = ("import pickle, sys\n"
                 "from vclab import Instance\n"
                 "sys.stdout.buffer.write(pickle.dumps("
                 "(hash('s0'), Instance.atom('s0'))))\n")
        out = subprocess.run(
            [sys.executable, "-c", child], check=True, capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            timeout=60).stdout
        child_hash, atom = pickle.loads(out)
        assert child_hash != hash("s0")
        assert {Instance.atom("s0"): "found"}.get(atom) == "found"

    def test_sample_pickled_under_another_hash_seed(self):
        """A ``Sample`` stores its hash as its instance does, and pickling
        recomputes both in the process that loads it."""
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(vclab.__file__).parents[1])
        child = ("import pickle, sys\n"
                 "from vclab import Instance, Sample\n"
                 "sys.stdout.buffer.write(pickle.dumps("
                 "Sample(Instance.atom('s0'), 1)))\n")
        out = subprocess.run(
            [sys.executable, "-c", child], check=True, capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            timeout=60).stdout
        z = pickle.loads(out)
        assert hash(z) == hash((Instance.atom("s0"), 1))
        assert {Sample(Instance.atom("s0"), 1): "found"}.get(z) == "found"
        for y in (z._replace(), copy.copy(z), pickle.loads(pickle.dumps(z))):
            assert y == z and hash(y) == hash(z)
        assert hash(z._replace(label=0)) == hash((z.instance, 0))

    def test_scalar_accessors(self):
        assert Instance.point(1, 2).dim == 2
        with pytest.raises(ValueError):
            Instance.atom("a").coords
        with pytest.raises(ValueError):
            Instance.point(1, 2).scalar


def exact_sort_key(x: Instance) -> tuple:
    """The canonical order with every coordinate compared exactly."""
    return (0, x.value) if x.is_atom else (1, len(x.value), x.value)


# Coordinates in groups of three that round to one float, or overflow to
# one infinity: huge values and neighbours within 1e-30 of each other, so
# that ties between floats are common; and plain fractions.
CLOSE_COORDS = st.one_of(
    st.sampled_from([F(v) + F(j, 10 ** 30) for v in (-1, 0, 1)
                     for j in (-1, 0, 1)] +
                    [F(big + k) for big in (10 ** 300, -10 ** 300, 10 ** 400,
                                            -10 ** 400) for k in (-1, 0, 1)]),
    st.fractions(max_denominator=10 ** 6))


class TestSortKey:
    """``Instance.sort_key`` puts a float before each coordinate and the
    exact value after it; the order is the exact one."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["a", "b", "a0"]).map(Instance.atom),
        st.integers(1, 3).flatmap(lambda d: st.tuples(
            *[CLOSE_COORDS] * d).map(lambda c: Instance.point(*c)))),
        min_size=2, max_size=8))
    def test_order_is_the_exact_one(self, xs):
        assert sorted(xs, key=Instance.sort_key) == sorted(
            xs, key=exact_sort_key)
        for a, b in zip(xs, xs[1:]):
            assert (a.sort_key() < b.sort_key()) == (
                exact_sort_key(a) < exact_sort_key(b))

    def test_floats_that_tie_are_broken_exactly(self):
        """Neighbours that round to one float, or past the largest one to
        an infinity, are ordered by their exact values."""
        for low, high in [(F(1), F(1) + F(1, 10 ** 30)),
                          (F(10 ** 400), F(10 ** 400 + 1)),
                          (F(-10 ** 400 - 1), F(-10 ** 400))]:
            a, b = Instance.point(low), Instance.point(high)
            assert a.sort_key()[2] == b.sort_key()[2]
            assert sorted([b, a], key=Instance.sort_key) == [a, b]
        assert Instance.point(10 ** 400).sort_key()[2] == float("inf")
        assert Instance.atom("z").sort_key() == (0, "z")


class TestDrawnMultiSample:
    # s0 carries both labels, so per-instance counts merge two entries.
    SUPPORT = tuple(Sample(x, y) for x, y in ((Instance.atom("s0"), 0),
                                              (Instance.atom("s0"), 1),
                                              (Instance.atom("s1"), 1),
                                              (Instance.atom("s2"), 0)))

    def test_count_views_match_per_sample_computation(self):
        rng = random.Random(8)
        for _ in range(50):
            k = rng.randint(1, len(self.SUPPORT))
            support = self.SUPPORT[:k]
            indices = [rng.randrange(k) for _ in range(rng.randint(1, 12))]
            counts = tuple(indices.count(i) for i in range(k))
            drawn = MultiSample.unchecked(support=support, counts=counts)
            assert drawn.m == len(indices)
            # tally() leaves out zero counts and keeps support order.
            assert list(drawn.tally()) == [
                (z, c) for z, c in zip(support, counts) if c]
            plain = MultiSample(tuple(support[i] for i in indices))
            assert dict(plain.tally()) == dict(drawn.tally())
            canonical = MultiSample(tuple(sorted(plain, key=support.index)))
            assert canonical == drawn and hash(canonical) == hash(drawn)

    def test_counts_must_agree_with_support_and_length(self):
        # The checked constructor takes samples alone; counts come only
        # through MultiSample.unchecked, from callers that built them.
        samples = (self.SUPPORT[0], self.SUPPORT[0])
        with pytest.raises(TypeError):
            MultiSample(samples, self.SUPPORT, (1, 0, 0, 0))
        assert MultiSample(samples).counts is None

    def test_counts_only_matches_canonical_order_samples(self):
        rng = random.Random(13)
        k = len(self.SUPPORT)
        for _ in range(50):
            counts = [rng.choice((0, 0, 1, 2, 5)) for _ in range(k)]
            counts[rng.randrange(k)] += 1
            drawn = MultiSample.unchecked(support=self.SUPPORT,
                                          counts=tuple(counts))
            plain = MultiSample(tuple(z for z, c in zip(self.SUPPORT, counts)
                                      for _ in range(c)))
            # The count-based views leave the samples unbuilt.
            assert drawn.m == len(drawn) == plain.m == sum(counts)
            assert dict(drawn.tally()) == dict(plain.tally())
            assert all(c >= 1 for _, c in drawn.tally())
            assert empirical_distribution(drawn) == \
                empirical_distribution(plain)
            assert "samples" not in vars(drawn)
            assert list(drawn) == list(plain)
            assert drawn.samples is drawn.samples
            assert drawn == plain and hash(drawn) == hash(plain)
            assert drawn.canonical_bytes() == plain.canonical_bytes()
            assert drawn.counts == tuple(counts)
            with pytest.raises(AttributeError):
                drawn.missing


def test_index_states_weights_count_ordered_tuples():
    from itertools import product
    from vclab.model import index_states
    for k, m in ((1, 3), (2, 1), (3, 3), (4, 2)):
        tuples = list(product(range(k), repeat=m))
        assert list(index_states(k, m, ordered=True)) == \
            [(idx, 1) for idx in tuples]
        multisets = dict(index_states(k, m, ordered=False))
        assert multisets == Counter(tuple(sorted(idx)) for idx in tuples)


class TestRecord:
    """The value classes built on ``model.Record`` behave as the frozen
    dataclasses they replace did; the reprs were captured from those."""

    def test_reprs(self):
        from vclab import parse_formula
        ast = parse_formula("a <= x and x <= b", objects=("x",),
                            params=("a", "b"))
        assert repr(ast) == (
            "FormulaAst(objects=('x',), params=('a', 'b'), root=And("
            "left=Cmp(op='<=', left=Var(name='a', pos=0), "
            "right=Var(name='x', pos=5)), right=Cmp(op='<=', "
            "left=Var(name='x', pos=11), right=Var(name='b', pos=16))))")
        verdict = vc_dimension(ThresholdSpace(),
                               [Instance.point(1), Instance.point(2)])
        assert repr(verdict) == (
            "VcVerdict(value=1, status='exact', "
            "witness_set=(Instance.point(1),), witnesses={(1,): "
            "Hypothesis(key=('threshold', Fraction(1, 1))), (0,): "
            "Hypothesis(key=('threshold', Fraction(2, 1)))}, "
            "pool=(Instance.point(1), Instance.point(2)), nodes_used=2)")

    def test_equality_and_hash(self):
        from vclab.formula import Add, Const, Sub, Var
        assert Var("x", 1) == Var("x", 2)
        assert hash(Var("x", 1)) == hash(Var("x", 2)) == hash(("x",))
        assert Var("x") != Var("y")
        a, b = Var("a"), Const(F(1))
        assert Add(a, b) == Add(a, b) and Add(a, b) != Sub(a, b)
        x = Instance.point(3)
        assert hash(Sample(x, 1)) == hash((x, 1))
        assert Sample(x, 1) == Sample(Instance.point(3), 1) != Sample(x, 0)
        h = ExplicitSpace.full([x]).hypothesis_from_bits((1,))
        assert h == vclab.model.Hypothesis(("explicit", (1,)), len)
        assert hash(h) == hash((h.key,))

    def test_sample_equality_and_hash_follow_the_fields(self):
        instances = (Instance.point(3), Instance.point(F(6, 2)),
                     Instance.point(4), Instance.atom("3"), Instance.atom("3"))
        samples = [Sample(x, y) for x in instances for y in (0, 1)]
        for a in samples:
            assert hash(a) == hash((a.instance, a.label))
            for b in samples:
                same = (a.instance.value, a.label) == \
                    (b.instance.value, b.label)
                assert (a == b) is same and (a != b) is not same
                assert not same or hash(a) == hash(b)
        z = samples[0]
        for other in ((z.instance, z.label), z.instance, 1, None):
            assert z.__eq__(other) is NotImplemented
            assert z != other and other != z
        assert len({z, Sample(Instance.point(3), 0), samples[2]}) == 1

    def test_instance_equality_compares_values(self):
        """Instances built apart with equal values are equal; atoms and
        points of other values, and an atom and a point, are not."""
        instances = (Instance.atom("a"), Instance.atom("a"),
                     Instance.atom("b"), Instance.atom("1"),
                     Instance.point(1, 2), Instance.point(F(2, 2), 2),
                     Instance.point(1, 3), Instance.point(1))
        for a in instances:
            for b in instances:
                same = a.value == b.value
                assert (a == b) is same and (a != b) is not same
                assert not same or hash(a) == hash(b)
        assert instances[0] is not instances[1]
        x = instances[4]
        for other in (x.value, Sample(x, 0), 1, None):
            assert x.__eq__(other) is NotImplemented
            assert x != other and other != x

    def test_frozen(self):
        from vclab.formula import SampledParams
        params = SampledParams()
        for record, name in ((params, "budget"), (Instance.atom("s"), "value"),
                             (Sample(X0, 1), "label"), (params, "other")):
            with pytest.raises(AttributeError):
                setattr(record, name, 5)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert params.budget == 2000

    def test_constructor_arguments(self):
        from vclab.formula import SampledParams, Var
        assert SampledParams(5, high=2.0) == \
            SampledParams(budget=5, seed=0, low=-10.0, high=2.0)
        for args, kwargs in (((), {}), ((1, 2, 3), {}), (("x", 1, 2), {}),
                             (("x",), {"name": "y"}), (("x",), {"size": 1})):
            with pytest.raises(TypeError):
                Var(*args, **kwargs)
        for cls, args in ((Sample, (X0,)), (Sample, (X0, 1, 2)),
                          (Instance, ()), (MultiSample, ())):
            with pytest.raises(TypeError):
                cls(*args)

    def test_post_init_and_replace(self):
        from vclab.formula import SampledParams
        with pytest.raises(ValueError, match="budget"):
            SampledParams(budget=0)
        with pytest.raises(ValueError, match="budget"):
            SampledParams()._replace(budget=0)
        assert SampledParams()._replace(seed=4) == SampledParams(seed=4)
        assert SampledParams._fields == ("budget", "seed", "low", "high")
        assert [getattr(SampledParams(seed=4), f)
                for f in SampledParams._fields] == [2000, 4, -10.0, 10.0]
        zbar = MultiSample.of((X0, 1))
        assert zbar._replace() == zbar
        assert zbar._replace().counts is None

    def test_copy_and_pickle(self):
        from vclab import parse_formula
        from vclab.formula import SampledParams
        ast = parse_formula("x < a", objects=("x",), params=("a",))
        for record in (SampledParams(seed=3), MultiSample.of((X0, 0)), ast):
            for twin in (copy.copy(record), copy.deepcopy(record),
                         pickle.loads(pickle.dumps(record))):
                assert twin == record and hash(twin) == hash(record)
                assert repr(twin) == repr(record)


class TestSha256:
    """The package hashes through one SHA-256 constructor: the builtin
    module's, so that importing it loads no OpenSSL, or hashlib's when
    hashlib is loaded first, so that no second copy is."""

    @pytest.mark.parametrize("data", [
        b"", b"0:0", b"table:31:a:x0:1|v:1/3,-2:0", bytes(range(256)) * 9])
    def test_digests_are_hashlib_s(self, data):
        import hashlib
        assert vclab.model.sha256(data).digest() == \
            hashlib.sha256(data).digest()
        assert vclab.model.sha256(data).hexdigest() == \
            hashlib.sha256(data).hexdigest()

    def test_importing_the_cli_loads_no_openssl(self):
        src = str(Path(vclab.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import sys, vclab.cli\n"
             "print(sorted({'_hashlib', 'hashlib'} & set(sys.modules)))"],
            check=True, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"

    def test_a_loaded_hashlib_is_reused(self):
        src = str(Path(vclab.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", "import hashlib, sys, vclab.cli\n"
             "from vclab.model import sha256\n"
             "print(sorted({'_sha256', '_sha2'} & set(sys.modules)))\n"
             "for data in (b'', b'0:0', bytes(range(256)) * 9):\n"
             "    print(sha256(data).hexdigest() == "
             "hashlib.sha256(data).hexdigest())"],
            check=True, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.split() == ["[]", "True", "True", "True"]
