import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab import (
    CoSingletonSpace,
    ExplicitSpace,
    IntervalSpace,
    ThresholdSpace,
    growth_function,
    sauer_bound,
    sauer_poly_bound,
    shatters,
    vc_dimension,
)
from conftest import atoms, points, random_explicit_space


def brute_force_vc(space: ExplicitSpace) -> int:
    """Independent oracle: check every subset of the domain directly."""
    best = 0
    pool = space.domain
    for d in range(1, len(pool) + 1):
        hit = False
        for subset in combinations(pool, d):
            restrictions = {tuple(h(x) for x in subset)
                            for h in space.hypotheses()}
            if len(restrictions) == 2 ** d:
                hit = True
                break
        if not hit:
            break
        best = d
    return best


class TestShatters:
    def test_full_class(self):
        assert shatters(ExplicitSpace.full(atoms(3)), atoms(3)).shattered

    def test_thresholds_pair_unshattered(self):
        result = shatters(ThresholdSpace(), points(1, 2))
        assert not result.shattered
        assert result.status == "not-shattered"
        labelings = set(ThresholdSpace().dichotomies(points(1, 2)))
        assert (1, 0) not in labelings

    def test_singleton_space(self):
        space = ExplicitSpace(atoms(3), [[0, 1, 0]])
        assert not shatters(space, atoms(3)).shattered

    def test_witnesses_reverify(self):
        instances = points(1, 2)
        result = shatters(IntervalSpace(), instances)
        assert result.shattered
        for labeling, h in result.witnesses.items():
            assert tuple(h(x) for x in instances) == labeling


class TestVcDimension:
    def test_singleton_is_zero(self):
        verdict = vc_dimension(ExplicitSpace(atoms(4), [[1, 0, 1, 0]]),
                               atoms(4))
        assert verdict.value == 0 and verdict.status == "exact"

    def test_full_class_is_domain_size(self):
        for d in (1, 2, 3):
            space = ExplicitSpace.full(atoms(d))
            verdict = vc_dimension(space, atoms(d))
            assert verdict.value == d and verdict.status == "exact"

    def test_thresholds_pool(self):
        verdict = vc_dimension(ThresholdSpace(), points(*range(1, 11)))
        assert verdict.value == 1 and verdict.status == "exact"

    def test_intervals(self):
        verdict = vc_dimension(IntervalSpace(), points(*range(1, 7)))
        assert verdict.value == 2 and verdict.status == "exact"

    def test_cosingletons(self):
        verdict = vc_dimension(CoSingletonSpace(), points(*range(1, 7)))
        assert verdict.value == 1 and verdict.status == "exact"

    def test_halfspaces_in_the_plane(self):
        from vclab import HalfspaceSpace, Instance
        pool = [Instance.point(0, 0), Instance.point(1, 0),
                Instance.point(0, 1), Instance.point(1, 1),
                Instance.point(2, 1)]
        verdict = vc_dimension(HalfspaceSpace(2), pool)
        assert verdict.value == 3 and verdict.status == "exact"

    def test_halfspaces_on_collinear_pool_is_lower_bound(self):
        from vclab import HalfspaceSpace, Instance
        pool = [Instance.point(i, i) for i in range(4)]
        verdict = vc_dimension(HalfspaceSpace(2), pool)
        assert verdict.value == 2 and verdict.status == "lower-bound"

    def test_matches_brute_force(self):
        rng = random.Random(77)
        for _ in range(60):
            space = random_explicit_space(rng, max_instances=5,
                                          max_hypotheses=12)
            verdict = vc_dimension(space, space.domain)
            assert verdict.status == "exact"
            assert verdict.value == brute_force_vc(space)

    def test_witness_set_is_shattered(self):
        rng = random.Random(13)
        for _ in range(30):
            space = random_explicit_space(rng)
            verdict = vc_dimension(space, space.domain)
            if verdict.value == 0:
                continue
            assert shatters(space, verdict.witness_set).shattered
            for labeling, h in verdict.witnesses.items():
                assert tuple(h(x) for x in verdict.witness_set) == labeling

    def test_vc_at_most_log2_size(self):
        rng = random.Random(4)
        for _ in range(40):
            space = random_explicit_space(rng)
            verdict = vc_dimension(space, space.domain)
            assert verdict.value <= math.log2(len(space)) + 1e-9

    def test_subfamily_vc_no_larger(self):
        rng = random.Random(15)
        for _ in range(25):
            space = random_explicit_space(rng, max_instances=5)
            rows = list(space._vectors)
            sub_rows = rng.sample(rows, rng.randint(1, len(rows)))
            sub = ExplicitSpace(space.domain, sub_rows)
            assert (vc_dimension(sub, space.domain).value
                    <= vc_dimension(space, space.domain).value)

    def test_restriction_vc_no_larger(self):
        rng = random.Random(16)
        for _ in range(25):
            space = random_explicit_space(rng, max_instances=6)
            k = rng.randint(1, len(space.domain))
            kept = sorted(rng.sample(range(len(space.domain)), k))
            restricted = ExplicitSpace(
                [space.domain[i] for i in kept],
                [[row[i] for i in kept] for row in space._vectors])
            assert (vc_dimension(restricted, restricted.domain).value
                    <= vc_dimension(space, space.domain).value)

    def test_budget_gives_lower_bound(self):
        space = ExplicitSpace.full(atoms(4))
        verdict = vc_dimension(space, atoms(4), node_budget=2)
        assert verdict.status == "lower-bound"
        assert verdict.nodes_used <= 2

    def test_budget_below_one_rejected(self):
        space = ExplicitSpace.full(atoms(4))
        for budget in (0, -3):
            with pytest.raises(ValueError, match="node budget"):
                vc_dimension(space, atoms(4), node_budget=budget)
        assert vc_dimension(space, atoms(4), node_budget=1).nodes_used == 1

    def test_limit_caps_value(self):
        space = ExplicitSpace.full(atoms(4))
        verdict = vc_dimension(space, atoms(4), limit=2)
        assert verdict.value == 2
        assert verdict.status == "lower-bound"

    def test_search_stops_at_log2_size(self):
        """|H| = 4 caps the search at 2: the first shattered pair ends it,
        with no triple tested, and certifies the value exact even when the
        pool leaves out part of the domain."""
        domain = atoms(4)
        space = ExplicitSpace(domain, [[a, b, 0, 0] for a in (0, 1)
                                       for b in (0, 1)])
        verdict = vc_dimension(space, domain)
        assert (verdict.value, verdict.status, verdict.nodes_used) == \
            (2, "exact", 2)
        verdict = vc_dimension(space, domain[:2])
        assert (verdict.value, verdict.status) == (2, "exact")

    def test_pool_smaller_than_domain_is_lower_bound(self):
        space = ExplicitSpace.full(atoms(3))
        verdict = vc_dimension(space, atoms(3)[:2])
        assert verdict.value == 2 and verdict.status == "lower-bound"


class TestGrowthFunction:
    def test_full_class(self):
        assert growth_function(ExplicitSpace.full(atoms(3)), 3, atoms(3)) == 8

    def test_thresholds(self):
        assert growth_function(ThresholdSpace(), 3, points(1, 2, 3, 4)) == 4

    def test_cosingletons(self):
        assert growth_function(CoSingletonSpace(), 2, points(1, 2, 3)) == 3

    def test_intervals(self):
        # one empty labeling plus a contiguous run for every 1 <= i <= j <= m
        assert growth_function(IntervalSpace(), 3, points(1, 2, 3, 4)) == 7

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            growth_function(ThresholdSpace(), 4, points(1, 2, 3))

    def test_full_growth_iff_m_at_most_vc(self):
        rng = random.Random(21)
        for _ in range(30):
            space = random_explicit_space(rng, max_instances=5)
            pool = space.domain
            d = vc_dimension(space, pool).value
            for m in range(1, len(pool) + 1):
                full = growth_function(space, m, pool) == 2 ** m
                assert full == (m <= d)


class TestSauerBounds:
    def test_d_zero(self):
        for m in (1, 2, 7):
            assert sauer_bound(0, m) == 1

    def test_small_m_gives_power(self):
        for d, m in ((3, 2), (5, 5), (4, 1)):
            assert sauer_bound(d, m) == 2 ** m

    def test_binomial_sum(self):
        assert sauer_bound(2, 5) == 16  # 1 + 5 + 10

    def test_poly_values(self):
        assert sauer_poly_bound(1, 3) == pytest.approx(8.154845485377136,
                                                       rel=1e-12)
        assert sauer_poly_bound(2, 4) == pytest.approx(29.5562243957226,
                                                       rel=1e-12)
        assert sauer_poly_bound(2, 5) == pytest.approx(46.18160061831656,
                                                       rel=1e-12)

    def test_poly_range_enforced(self):
        with pytest.raises(ValueError):
            sauer_poly_bound(2, 3)
        with pytest.raises(ValueError):
            sauer_poly_bound(0, 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sauer_property(data):
    """Growth values never exceed the binomial-sum bound at the computed VC
    dimension, nor the polynomial bound in its validity range."""
    nx = data.draw(st.integers(1, 5))
    domain = atoms(nx)
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=nx,
                                       max_size=nx), min_size=1, max_size=12))
    space = ExplicitSpace(domain, rows)
    d = vc_dimension(space, domain).value
    for m in range(1, nx + 1):
        g = growth_function(space, m, domain)
        assert g <= sauer_bound(d, m)
        if d >= 1 and m > d + 1:
            assert g <= sauer_poly_bound(d, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_subsets_of_shattered_sets_are_shattered(data):
    nx = data.draw(st.integers(1, 4))
    domain = atoms(nx)
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=nx,
                                       max_size=nx), min_size=1, max_size=16))
    space = ExplicitSpace(domain, rows)
    from vclab.combinatorics import shattered_subset_property
    assert shattered_subset_property(space, domain)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_counting_cross_checks(data):
    """Cross-checks of the exact VC dimension by counting: the sandwich
    #strongly shattered <= |H| <= #shattered over the subsets of the
    domain, the empty set counted in both (the upper half is Pajor's lemma;
    Anstee, Ronyai and Sali 2002).  The largest subset the loop finds
    shattered, by projecting the bit-vectors, must obey the cap
    d <= floor(log2 |H|) of Linial, Mansour and Rivest and the Sauer-Shelah
    bound |H| <= sum_{i<=d} C(n, i), and must equal the exact VC dimension.
    S is strongly shattered when one labeling of the rest of the domain
    extends to all 2^|S| labelings of S inside H."""
    nx = data.draw(st.integers(1, 5))
    domain = atoms(nx)
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=nx,
                                       max_size=nx), min_size=1, max_size=32))
    space = ExplicitSpace(domain, rows)
    vectors = [h.key[1] for h in space.hypotheses()]
    strongly = shattered = 1
    largest = 0
    for r in range(1, nx + 1):
        for subset in combinations(range(nx), r):
            rest = [i for i in range(nx) if i not in subset]
            cubes = Counter(tuple(v[i] for i in rest) for v in vectors)
            strongly += max(cubes.values()) == 2 ** r
            hit = len({tuple(v[i] for i in subset) for v in vectors}) == 2 ** r
            found = shatters(space, [domain[i] for i in subset])
            assert found.shattered == hit
            shattered += hit
            largest = max(largest, r * hit)
    assert strongly <= len(space) <= shattered
    assert largest <= len(space).bit_length() - 1
    assert len(space) <= sauer_bound(largest, nx)
    verdict = vc_dimension(space, domain)
    assert verdict.status == "exact"
    assert verdict.value == largest
