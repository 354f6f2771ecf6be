import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vclab.harness
from vclab import (
    BudgetError,
    DiscreteDistribution,
    ExplicitSpace,
    Hypothesis,
    Instance,
    MultiSample,
    Sample,
    ThresholdSpace,
    approximation_error,
    build_nfl_instance,
    builtin_learners,
    empirical_distribution,
    empirical_opt,
    estimate_pac_probability,
    estimate_ucp_probability,
    hoeffding_tail,
    loss,
    nfl_report,
    random_table_learner,
    sample_error,
    sem_learner,
    signed_deviation,
    symmetrized_deviation,
    true_error,
    u_statistic,
    v_statistic,
    wilson_interval,
)
from vclab.harness import _CHUNK, InverseCDF, draw_multisample, trial_seed
from vclab.learners import LearningFunction
from vclab.model import restriction_errors
from conftest import (
    atoms,
    heavier_first_state,
    random_distribution,
    random_explicit_space,
    random_multisample,
)


def naive_u(space, dist, zbar):
    return max(abs(true_error(h, dist) - sample_error(h, zbar))
               for h in space.hypotheses())


def naive_v(space, zbar, zbar2):
    return max(abs(sample_error(h, zbar2) - sample_error(h, zbar))
               for h in space.hypotheses())


class TestUStatistic:
    def test_singleton_consistent(self):
        space = ExplicitSpace(atoms(1), [[1]])
        dist = DiscreteDistribution.point_mass(("s0", 1))
        assert u_statistic(space, dist, MultiSample.of(("s0", 1))) == 0

    def test_two_constants_conflict(self):
        space = ExplicitSpace(atoms(1), [[0], [1]])
        dist = DiscreteDistribution.point_mass(("s0", 1))
        assert u_statistic(space, dist, MultiSample.of(("s0", 0))) == 1

    def test_empirical_distribution_zeroes_u(self):
        rng = random.Random(2)
        for _ in range(20):
            space = random_explicit_space(rng)
            zbar = random_multisample(rng, space.domain, rng.randint(1, 5))
            assert u_statistic(space, empirical_distribution(zbar), zbar) == 0

    def test_matches_naive_maximum(self):
        rng = random.Random(31)
        for _ in range(60):
            space = random_explicit_space(rng, max_instances=4)
            dist = random_distribution(rng, space.domain)
            zbar = random_multisample(rng, space.domain, rng.randint(1, 4))
            assert u_statistic(space, dist, zbar) == naive_u(space, dist, zbar)


class TestVStatistic:
    def test_identical_samples(self):
        space = ExplicitSpace.full(atoms(2))
        zbar = MultiSample.of(("s0", 1), ("s1", 0))
        assert v_statistic(space, zbar, zbar) == 0

    def test_full_class_separates_points(self):
        space = ExplicitSpace.full(atoms(2))
        assert v_statistic(space, MultiSample.of(("s0", 1)),
                           MultiSample.of(("s1", 1))) == 1

    def test_singleton_reduces_to_difference(self):
        rng = random.Random(7)
        for _ in range(20):
            space = random_explicit_space(rng, max_hypotheses=1)
            h = next(space.hypotheses())
            m = rng.randint(1, 4)
            z1 = random_multisample(rng, space.domain, m)
            z2 = random_multisample(rng, space.domain, m)
            assert v_statistic(space, z1, z2) == \
                abs(sample_error(h, z2) - sample_error(h, z1))

    def test_symmetry_and_naive(self):
        rng = random.Random(19)
        for _ in range(40):
            space = random_explicit_space(rng, max_instances=4)
            m = rng.randint(1, 4)
            z1 = random_multisample(rng, space.domain, m)
            z2 = random_multisample(rng, space.domain, m)
            v = v_statistic(space, z1, z2)
            assert v == v_statistic(space, z2, z1) == naive_v(space, z1, z2)

    def test_length_mismatch_rejected(self):
        space = ExplicitSpace.full(atoms(1))
        with pytest.raises(ValueError):
            v_statistic(space, MultiSample.of(("s0", 1)),
                        MultiSample.of(("s0", 1), ("s0", 0)))


class TestSymmetrizedDeviation:
    def test_identical_samples_zero_for_every_sigma(self):
        space = ExplicitSpace.full(atoms(2))
        zbar = MultiSample.of(("s0", 1), ("s1", 0))
        for sigma in product((-1, 1), repeat=2):
            assert symmetrized_deviation(space, zbar, zbar, sigma) == 0

    def test_all_plus_one_singleton(self):
        rng = random.Random(4)
        space = random_explicit_space(rng, max_hypotheses=1)
        h = next(space.hypotheses())
        m = 4
        z1 = random_multisample(rng, space.domain, m)
        z2 = random_multisample(rng, space.domain, m)
        expected = abs(F(sum(loss(h, b) - loss(h, a)
                             for a, b in zip(z1.samples, z2.samples)), m))
        assert symmetrized_deviation(space, z1, z2, (1,) * m) == expected

    def test_sigma_validation(self):
        space = ExplicitSpace.full(atoms(1))
        zbar = MultiSample.of(("s0", 1))
        with pytest.raises(ValueError):
            symmetrized_deviation(space, zbar, zbar, (0,))
        with pytest.raises(ValueError):
            symmetrized_deviation(space, zbar, zbar, (1, 1))

    def test_exhaustive_sign_mean_is_zero(self):
        rng = random.Random(12)
        for _ in range(20):
            space = random_explicit_space(rng, max_instances=4)
            h = rng.choice(list(space.hypotheses()))
            m = rng.randint(1, 6)
            z1 = random_multisample(rng, space.domain, m)
            z2 = random_multisample(rng, space.domain, m)
            total = sum(signed_deviation(h, z1, z2, sigma)
                        for sigma in product((-1, 1), repeat=m))
            assert total == 0


class TestRestrictionErrorCallers:
    """The callers of ``model.restriction_errors`` against per-hypothesis
    references, on zero-count multi-samples, and for their return type."""

    def test_symmetrized_matches_signed_deviation_maximum(self):
        rng = random.Random(27)
        for _ in range(60):
            space = random_explicit_space(rng, max_instances=4)
            m = rng.randint(1, 5)
            z1 = random_multisample(rng, space.domain, m)
            z2 = random_multisample(rng, space.domain, m)
            sigma = [rng.choice((-1, 1)) for _ in range(m)]
            assert symmetrized_deviation(space, z1, z2, sigma) == max(
                abs(signed_deviation(h, z1, z2, sigma))
                for h in space.hypotheses())

    @staticmethod
    def zero_count_case(rng, instances):
        """A multi-sample held as counts over a support some of whose
        entries have count 0, and a plain one with the same samples."""
        pairs = [Sample(x, y) for x in instances for y in (0, 1)]
        support = tuple(rng.sample(pairs, rng.randint(2, len(pairs))))
        m = rng.randint(1, 5)
        indices = [rng.randrange(len(support)) for _ in range(m)]
        drawn = MultiSample.unchecked(support=support, counts=tuple(
            indices.count(i) for i in range(len(support))))
        return drawn, MultiSample(tuple(drawn.samples))

    def test_zero_counts_change_nothing(self):
        rng = random.Random(37)
        threshold_points = [Instance.point(i) for i in range(6)]
        for trial in range(200):
            if trial % 2:
                space, instances = ThresholdSpace(), threshold_points
            else:
                space = random_explicit_space(rng, max_instances=5)
                instances = space.domain
            learner = sem_learner(space)
            drawn, plain = self.zero_count_case(rng, instances)
            other = random_multisample(rng, instances, plain.m)
            assert learner(drawn).key == learner(plain).key
            assert empirical_opt(space, drawn) == empirical_opt(space, plain)
            assert v_statistic(space, drawn, other) == \
                v_statistic(space, plain, other)
            assert v_statistic(space, other, drawn) == \
                v_statistic(space, other, plain)

    def test_fraction_results_when_nothing_is_wrong(self):
        # The best labeling leaves every weight slot it reads untouched, so
        # the kernel's sum is the int 0 even for Fraction weights.
        space = ExplicitSpace.full(atoms(2))
        zbar = MultiSample.of(("s0", 1), ("s1", 0), ("s1", 0))
        drawn = MultiSample.unchecked(support=tuple(dict.fromkeys(zbar)),
                                      counts=(1, 2))
        dist = empirical_distribution(zbar)
        for sample in (zbar, drawn):
            values = [approximation_error(space, dist),
                      empirical_opt(space, sample),
                      u_statistic(space, dist, sample),
                      v_statistic(space, sample, zbar),
                      symmetrized_deviation(space, sample, zbar, (1, -1, 1))]
            assert values == [0] * 5
            assert all(type(v) is F for v in values)
        flipped = MultiSample.of(("s0", 0), ("s1", 1), ("s1", 1))
        values = [v_statistic(space, zbar, flipped),
                  symmetrized_deviation(space, zbar, flipped, (1, 1, -1)),
                  u_statistic(space, dist, flipped)]
        assert values == [1, F(1, 3), 1]
        assert all(type(v) is F for v in values)


def brute_force_ucp_probability(space, dist, m, eps):
    """Independent oracle: enumerate support^m, naive per-hypothesis U."""
    eps = F(eps)
    total = F(0)
    for combo in product(list(dist.items()), repeat=m):
        zbar = MultiSample(tuple(z for z, _ in combo))
        weight = F(1)
        for _, w in combo:
            weight *= w
        if naive_u(space, dist, zbar) <= eps:
            total += weight
    return total


def fresh_outputs(learner):
    """The learner, returning a new but equal Hypothesis on every call."""
    def fn(zbar):
        h = learner(zbar)
        return Hypothesis(h.key, h.fn)
    return LearningFunction("fresh", fn, space=learner.space)


def brute_force_pac_probability(learner, space, dist, m, eps):
    """Independent oracle: enumerate support^m in order."""
    opt = approximation_error(space, dist)
    total = F(0)
    for combo in product(list(dist.items()), repeat=m):
        zbar = MultiSample(tuple(z for z, _ in combo))
        weight = F(1)
        for _, w in combo:
            weight *= w
        if true_error(learner(zbar), dist) - opt <= eps:
            total += weight
    return total


class TestEstimateUcp:
    def test_consistent_space_always_succeeds(self):
        space = ExplicitSpace(atoms(1), [[1]])
        dist = DiscreteDistribution.point_mass(("s0", 1))
        report = estimate_ucp_probability(space, dist, m=3, eps=F(1, 100),
                                          trials=50, seed=1)
        assert report.estimate == 1.0

    def test_exact_mode_two_by_two(self):
        space = ExplicitSpace(atoms(2), [[0, 1], [1, 1]])
        dist = DiscreteDistribution([(("s0", 1), F(1, 3)),
                                     (("s1", 0), F(2, 3))])
        report = estimate_ucp_probability(space, dist, m=2, eps=F(1, 3),
                                          exact=True)
        assert report.mode == "exact"
        assert report.probability == brute_force_ucp_probability(
            space, dist, 2, F(1, 3))

    def test_exact_mode_matches_brute_force_randomly(self):
        rng = random.Random(90)
        for _ in range(15):
            space = random_explicit_space(rng, max_instances=3,
                                          max_hypotheses=6)
            dist = random_distribution(rng, space.domain, max_support=3)
            m = rng.randint(1, 3)
            eps = F(rng.randint(0, 4), 4)
            report = estimate_ucp_probability(space, dist, m=m, eps=eps,
                                              exact=True)
            assert report.probability == brute_force_ucp_probability(
                space, dist, m, eps)

    def test_lost_mass_raises(self, monkeypatch):
        """A state weight off by one breaks the mass total, and exact mode
        raises rather than report a probability."""
        monkeypatch.setattr(vclab.harness, "index_states",
                            heavier_first_state(vclab.harness.index_states))
        space = ExplicitSpace(atoms(2), [[0, 1], [1, 1]])
        dist = DiscreteDistribution([(("s0", 1), F(1, 3)),
                                     (("s1", 0), F(2, 3))])
        with pytest.raises(AssertionError,
                           match="exact enumeration lost probability mass"):
            estimate_ucp_probability(space, dist, m=2, eps=F(1, 3),
                                     exact=True)

    def test_boundary_counts_as_success(self):
        # singleton with error exactly 1/2 against the empirical measure
        space = ExplicitSpace(atoms(1), [[1]])
        dist = DiscreteDistribution.uniform([("s0", 1), ("s0", 0)])
        report = estimate_ucp_probability(space, dist, m=1, eps=F(1, 2),
                                          exact=True)
        assert report.probability == 1

    def test_seed_reproducibility(self):
        space = ExplicitSpace(atoms(2), [[0, 1], [1, 0]])
        dist = DiscreteDistribution.uniform(
            [("s0", 1), ("s0", 0), ("s1", 0)])
        a = estimate_ucp_probability(space, dist, m=4, eps=0.25, trials=200,
                                     seed=5)
        b = estimate_ucp_probability(space, dist, m=4, eps=0.25, trials=200,
                                     seed=5)
        c = estimate_ucp_probability(space, dist, m=4, eps=0.25, trials=200,
                                     seed=6)
        assert a == b
        assert 0.0 <= c.estimate <= 1.0
        assert a.seed_rule == "sha256(master_seed:trial_index)"

    def test_exact_budget_refusal(self):
        # 10 support entries, m = 20: C(29, 9) multisets exceed 10^6.
        space = ExplicitSpace(atoms(5), [[0, 1, 0, 1, 0]])
        dist = DiscreteDistribution.uniform(
            [(x, y) for x in atoms(5) for y in (0, 1)])
        with pytest.raises(BudgetError) as exc:
            estimate_ucp_probability(space, dist, m=20, eps=0.5, exact=True)
        assert exc.value.required == 10_015_005

    def test_window_test_matches_u_statistic_per_trial(self):
        # Weights in quarters and m = 8 put every window edge
        # m(te -+ eps) on an integer, and some trials land on it exactly.
        space = ExplicitSpace(atoms(3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        dist = DiscreteDistribution([(("s0", 1), F(1, 4)),
                                     (("s0", 0), F(1, 4)),
                                     (("s1", 1), F(1, 4)),
                                     (("s2", 0), F(1, 4))])
        m, eps, seed, trials = 8, F(1, 4), 21, 40
        cdf = InverseCDF(dist.support, [0.25, 0.5, 0.75, 1.0])
        u_values = [u_statistic(space, dist, draw_multisample(
            cdf, m, random.Random(trial_seed(seed, t))))
            for t in range(trials)]
        assert any(u == eps for u in u_values)
        assert any(u > eps for u in u_values)
        for t in range(1, trials + 1):
            report = estimate_ucp_probability(space, dist, m=m, eps=eps,
                                              trials=t, seed=seed)
            assert report.successes == sum(u <= eps for u in u_values[:t])

    def test_full_class_on_eight_atoms_matches_u_statistic_per_trial(self):
        # 256 windows on 16 entries of weight 1/16; m = 32 and eps = 3/16
        # put every window edge on an integer, and 14 of the 60 draws
        # land on the widest window's edge.
        space = ExplicitSpace.full(atoms(8))
        dist = DiscreteDistribution.uniform(
            [(x, y) for x in space.domain for y in (0, 1)])
        m, eps, seed, trials = 32, F(3, 16), 4, 60
        assert len(space.dichotomies(dist.instances())) == 256
        cdf = InverseCDF(dist.support, [(i + 1) / 16 for i in range(16)])
        success = packed_success(space, dist, m, eps)
        u_values = []
        for t in range(trials):
            drawn = draw_multisample(cdf, m, random.Random(
                trial_seed(seed, t)))
            u_values.append(u_statistic(space, dist, drawn))
            assert success(drawn) == (u_values[-1] <= eps), t
        assert min(u_values) < eps < max(u_values) and eps in u_values
        report = estimate_ucp_probability(space, dist, m=m, eps=eps,
                                          trials=trials, seed=seed)
        assert report.successes == sum(u <= eps for u in u_values)


def packed_success(space, dist, m, eps):
    """The per-trial test that ``estimate_ucp_probability`` hands to
    ``_estimate``, taken before any trial runs."""
    captured = []
    with mock.patch.object(vclab.harness, "_estimate",
                           lambda *args: captured.append(args[-1])):
        estimate_ucp_probability(space, dist, m, eps)
    return captured[0]


def per_window_success(space, dist, m, eps, counts):
    """Whether every realized labeling's wrong count, summed entry by
    entry, lies in its unclamped window [ceil(m(te - eps)),
    floor(m(te + eps))]: the test one window at a time."""
    positions = {x: i for i, x in enumerate(dist.instances())}
    for te, lab in restriction_errors(space, dist.items())[1]:
        wrong = sum(c for c, z in zip(counts, dist.support)
                    if lab[positions[z.instance]] != z.label)
        if not (math.ceil(m * (te - eps)) <= wrong
                <= math.floor(m * (te + eps))):
            return False
    return True


# m = 1 and m next to a power of two, where the field width
# (m + 1).bit_length() + 1 steps, or any m up to 3000.
SAMPLE_LENGTHS = st.one_of(
    st.just(1),
    st.integers(1, 11).flatmap(
        lambda j: st.sampled_from([2 ** j - 1, 2 ** j, 2 ** j + 1])),
    st.integers(1, 3000))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), m=SAMPLE_LENGTHS,
       eps=st.fractions(0, 4, max_denominator=64), one_entry=st.booleans(),
       edge=st.sampled_from([None, 0, -1]))
# All of m = 2**j on one entry, with eps = 4: every window clamped on both
# sides, and a count of m in some field.
@example(seed=3, m=64, eps=F(4), one_entry=True, edge=None)
# eps = 0 on m = 1: windows with lo > hi.
@example(seed=5, m=1, eps=F(0), one_entry=False, edge=None)
# eps at the deviation and just below it: a count on a window's edge.
@example(seed=7, m=7, eps=F(0), one_entry=False, edge=0)
@example(seed=7, m=7, eps=F(0), one_entry=False, edge=-1)
# A hair below a U statistic of 0: a negative eps.
@example(seed=0, m=7, eps=F(0), one_entry=False, edge=-1)
def test_packed_window_test_matches_per_window_sums(seed, m, eps, one_entry,
                                                    edge):
    """The packed test of all windows agrees with summing each window's
    wrong counts on its own, and with the U statistic, on random spaces,
    supports and count vectors.  ``edge`` replaces eps by the draw's U
    statistic (0) or by a hair below it (-1), so that the largest
    deviation's count lies on its window's edge or just outside; below a U
    statistic of 0 that eps is negative and refused."""
    rng = random.Random(seed)
    space = random_explicit_space(rng, max_instances=4)
    dist = random_distribution(rng, space.domain, max_support=6)
    k = len(dist.support)
    if one_entry:
        counts = [0] * k
        counts[rng.randrange(k)] = m
    else:
        cuts = sorted(rng.randint(0, m) for _ in range(k - 1))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, m])]
    zbar = MultiSample.unchecked(support=dist.support, counts=tuple(counts))
    u = u_statistic(space, dist, zbar)
    if edge is not None:
        eps = u + F(edge, 4 * m * m)
    want = per_window_success(space, dist, m, eps, counts)
    assert want == (u <= eps)
    if eps < 0:
        # A hair below U = 0 is a negative eps: bad input, refused before
        # any window is built.
        with pytest.raises(ValueError, match="eps must be >= 0"):
            packed_success(space, dist, m, eps)
        return
    assert packed_success(space, dist, m, eps)(zbar) == want


def cumulative(weights):
    return list(accumulate(float(w) for w in weights))


def reference_indices(cum, m, rng):
    """The draw rule the harness reproduces from raw generator words."""
    return rng.choices(range(len(cum)), cum_weights=cum, k=m)


def reference_successes(dist, m, trials, seed, success):
    """Monte Carlo successes with each trial drawn by ``rng.choices``."""
    support = dist.support
    cum = cumulative(w for _, w in dist.items())
    successes = 0
    for t in range(trials):
        indices = reference_indices(cum, m, random.Random(trial_seed(seed, t)))
        successes += success(MultiSample(tuple(map(support.__getitem__,
                                                   indices))))
    return successes


def test_every_multi_sample_holds_one_form(monkeypatch):
    """Each multi-sample that Monte Carlo and exact mode hand to their
    success test, ordered and not, that the NFL enumerator hands to a
    learner, or that ``MultiSample.of`` builds, holds one form: its samples
    (every ordered path, NFL and ``of``) or its counts over a support
    (every other path), never both.  Its tally counts its samples."""
    space = ExplicitSpace.full(atoms(2))
    dist = DiscreteDistribution.uniform([("s0", 0), ("s0", 1), ("s1", 1)])
    held = []  # (path, fields set when the multi-sample arrived, it)

    def recorded(path, fn):
        def fn_recording(zbar):
            held.append((path, set(vars(zbar)), zbar))
            return fn(zbar)
        return fn_recording

    estimate = vclab.harness._estimate

    def estimate_recording(kind, dist, m, eps, trials, seed, exact, success,
                           ordered=False):
        path = (kind, "exact" if exact else "monte-carlo",
                "ordered" if ordered else "multiset")
        return estimate(kind, dist, m, eps, trials, seed, exact,
                        recorded(path, success), ordered)
    monkeypatch.setattr(vclab.harness, "_estimate", estimate_recording)
    learners = (sem_learner(space), random_table_learner(space, 0))
    for exact in (False, True):
        estimate_ucp_probability(space, dist, 3, F(1, 4), trials=5,
                                 exact=exact)
        for learner in learners:
            estimate_pac_probability(learner, space, dist, 3, F(1, 4),
                                     trials=5, exact=exact)
    inst = build_nfl_instance(atoms(4), 2)
    full = ExplicitSpace.full(inst.instances)
    for learner in (sem_learner(full), random_table_learner(full, 1)):
        path = ("nfl", "ordered" if not learner.order_invariant
                else "multiset")
        nfl_report(learner._replace(fn=recorded(path, learner.fn)), inst)
    recorded(("of",), lambda zbar: None)(MultiSample.of(("s0", 1), ("s0", 1)))
    forms = {}
    for path, fields, zbar in held:
        forms.setdefault(path, set()).add(frozenset(fields))
        assert dict(zbar.tally()) == Counter(zbar.samples), path
    samples, counts = frozenset({"samples"}), frozenset({"support", "counts"})
    assert forms == {
        **{(kind, mode, "multiset"): {counts} for kind in ("ucp", "pac")
           for mode in ("monte-carlo", "exact")},
        ("pac", "monte-carlo", "ordered"): {samples},
        ("pac", "exact", "ordered"): {samples},
        ("nfl", "multiset"): {samples}, ("nfl", "ordered"): {samples},
        ("of",): {samples}}


class TestDrawMultisample:
    def test_random_is_built_from_getrandbits_words(self):
        # Canary for the CPython layout the decoder relies on: random() is
        # (w0 >> 5, w1 >> 6) / 2**53 for the next two words, and
        # getrandbits(64 * n) yields the same words least significant first,
        # whether drawn in one call or several.
        rng = random.Random(2024)
        clone = random.Random()
        clone.setstate(rng.getstate())
        for _ in range(200):
            word = clone.getrandbits(64)
            w0, w1 = word & 0xFFFFFFFF, word >> 32
            assert rng.random() == ((w0 >> 5) * 2 ** 26 + (w1 >> 6)) / 2 ** 53
        assert rng.getstate() == clone.getstate()
        joined = clone.getrandbits(64 * 3).to_bytes(24, "little")
        parts = b"".join(rng.getrandbits(64).to_bytes(8, "little")
                         for _ in range(3))
        assert joined == parts

    def check_bit_identical(self, cum, m, seed):
        k = len(cum)
        support = tuple(Sample(Instance.atom(f"s{i}"), i % 2)
                        for i in range(k))
        cdf = InverseCDF(support, cum)
        reference = random.Random(seed)
        want = reference_indices(cum, m, reference)
        tally = Counter(want)
        for ordered in (False, True):
            rng = random.Random(seed)
            drawn = draw_multisample(cdf, m, rng, ordered)
            if ordered:
                assert drawn.samples == tuple(support[i] for i in want)
            else:
                assert drawn.counts == tuple(tally[i] for i in range(k))
            assert rng.getstate() == reference.getstate()

    def test_bit_identical_to_choices_on_edge_cases(self):
        thirds = [F(1, 3)] * 3
        # The thresholds of 1/3 and 1/3 + 1/1000 share a top byte.
        close = [F(1, 3), F(1, 1000), F(1997, 3000)]
        wide = [F(i % 7 + 1, 1) for i in range(300)]
        cases = [([F(1)], 1), ([F(1)], 5), ([F(1, 2)] * 2, 1),
                 ([F(1, 4), F(3, 4)], 9), (thirds, 1), (thirds, 3000),
                 (close, 3000), (wide, 1), (wide, 2000),
                 (close, _CHUNK - 1), (close, _CHUNK), (close, _CHUNK + 1),
                 (thirds, 2 * _CHUNK + 3)]
        for seed, (weights, m) in enumerate(cases):
            self.check_bit_identical(cumulative(weights), m, seed)

    def test_bit_identical_to_choices_on_random_supports(self):
        rng = random.Random(77)
        for seed in range(120):
            k = rng.choice((1, 2, 3, rng.randint(1, 20),
                            rng.randint(200, 600)))
            weights = [F(rng.randint(1, 9)) for _ in range(k)]
            if rng.random() < 0.2:
                weights[rng.randrange(k)] = F(1, 10 ** 20)
            self.check_bit_identical(cumulative(weights),
                                     rng.randint(1, 3001), seed)

    def test_bit_identical_on_thresholds(self):
        # With total 1.0, cumulative weights N / 2**53 and (N + 1) / 2**53
        # put thresholds exactly on some drawn numerators N and one above
        # them, so every rounding and comparison at a boundary shows.
        m, seed = 60, 3
        probe = random.Random(seed)
        drawn = [int(probe.random() * 2 ** 53) for _ in range(m)]
        cum = sorted(n * 2.0 ** -53 for d in drawn[::3] for n in (d, d + 1))
        self.check_bit_identical(cum + [1.0], m, seed)

    def test_counts_only_unless_ordered(self):
        dist = DiscreteDistribution.uniform([("s0", 1), ("s1", 0), ("s2", 1)])
        cdf = InverseCDF(dist.support, cumulative(w for _, w in dist.items()))
        drawn = draw_multisample(cdf, 50, random.Random(1))
        assert "samples" not in vars(drawn)
        assert drawn.samples == tuple(sorted(drawn.samples,
                                             key=Sample.sort_key))
        ordered = draw_multisample(cdf, 50, random.Random(1), ordered=True)
        assert ordered.counts is None
        assert Counter(ordered.samples) == Counter(drawn.samples)
        assert ordered.samples != drawn.samples

    def test_decoded_counts_short_of_m_raise(self):
        # With the last base dropped, draws whose top byte maps to it are
        # counted nowhere, and the counts add up to less than m.
        support = tuple(Sample(Instance.atom(f"s{i}"), 0) for i in range(3))
        cdf = InverseCDF(support, cumulative([F(1)] * 3))
        cdf.bases = cdf.bases[:-1]
        with pytest.raises(AssertionError, match="decoded .* draws, not 300"):
            draw_multisample(cdf, 300, random.Random(0))

    def test_cdf_refuses_a_support_of_non_samples(self):
        with pytest.raises(ValueError, match="support of Samples"):
            InverseCDF(("not a sample",), [1.0])

    def test_stub_words_at_every_threshold(self):
        # A generator stub hands out chosen draws N, so that each threshold
        # t is met at N = t - 1, t and t + 1.  The thresholds share top
        # bytes with different second bytes, two share both (so their draws
        # are decoded in full), and a zero weight repeats one threshold.
        # Low bits 0 and 2**37 - 1 put t - 1 or t + 1 in the next table
        # entry, or in the next top byte.
        low = (1 << 37) - 1
        thresholds = [v << 45 | s << 37 | r for v, s, r in (
            (0x00, 0x00, 1), (0x40, 0x10, 0), (0x40, 0x80, 0x1234),
            (0x40, 0x80, 0x1234), (0x40, 0x80, 0x5678), (0x41, 0x00, 0),
            (0x7F, 0x20, low), (0x7F, 0xFF, 0x99), (0xFF, 0xFF, low - 1))]
        cum = [t * 2.0 ** -53 for t in thresholds] + [1.0]
        support = tuple(Sample(Instance.atom(f"s{i}"), i % 2)
                        for i in range(len(cum)))
        cdf = InverseCDF(support, cum)
        assert cdf.thresholds == tuple(thresholds)
        draws = [n for t in thresholds for n in (t - 1, t, t + 1)
                 if 0 <= n < 1 << 53]
        # One draw per second byte of every split top byte reads each
        # table entry.
        draws += [v << 45 | s << 37 | 0x3000 for v in cdf.tables
                  for s in range(256)] + [0, (1 << 53) - 1]
        want = [bisect_right(thresholds, n) for n in draws]

        class StubRandom:
            def __init__(self):
                # random() reads N from w0 >> 5 and w1 >> 6; the low bits
                # of each word are filled to show that they are ignored.
                self.words = [(n >> 26) << 5 | 0x15
                              | ((n & (1 << 26) - 1) << 6 | 0x2A) << 32
                              for n in draws]

            def getrandbits(self, k):
                n = k // 64
                words, self.words = self.words[:n], self.words[n:]
                return sum(w << 64 * i for i, w in enumerate(words))

        drawn = draw_multisample(cdf, len(draws), StubRandom())
        assert drawn.counts == tuple(want.count(j) for j in range(len(cum)))
        ordered = draw_multisample(cdf, len(draws), StubRandom(), True)
        assert ordered.samples == tuple(support[j] for j in want)


class TestEstimateMatchesChoices:
    """Each estimate's successes equal a loop that draws every trial with
    ``rng.choices``: the ordered path for memorize and lookup learners, the
    counts path for sem and UCP."""

    SPACE = ExplicitSpace.full(atoms(3))
    DIST = DiscreteDistribution([(("s0", 1), F(1, 2)), (("s1", 0), F(1, 5)),
                                 (("s1", 1), F(1, 10)), (("s2", 1), F(1, 5))])

    def check(self, report, want, trials):
        assert report.successes == want
        assert 0 < want < trials

    def test_pac_learners(self):
        m, eps, trials, seed = 4, F(1, 4), 300, 9
        space, dist = self.SPACE, self.DIST
        opt = approximation_error(space, dist)
        full = builtin_learners(space)
        for learner in (full["memorize"], random_table_learner(space, 4),
                        full["sem"]):
            report = estimate_pac_probability(learner, space, dist, m=m,
                                              eps=eps, trials=trials,
                                              seed=seed)
            want = reference_successes(
                dist, m, trials, seed,
                lambda zbar: true_error(learner(zbar), dist) - opt <= eps)
            self.check(report, want, trials)

    def test_ucp(self):
        m, eps, trials, seed = 6, F(1, 4), 300, 10
        space = ExplicitSpace(atoms(3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        report = estimate_ucp_probability(space, self.DIST, m=m, eps=eps,
                                          trials=trials, seed=seed)
        want = reference_successes(
            self.DIST, m, trials, seed,
            lambda zbar: u_statistic(space, self.DIST, zbar) <= eps)
        self.check(report, want, trials)


class TestEstimatePac:
    def test_opt_attaining_constant_learner(self):
        from vclab import constant_learner
        space = ExplicitSpace(atoms(1), [[0], [1]])
        dist = DiscreteDistribution.point_mass(("s0", 1))
        learner = constant_learner(space.hypothesis_from_bits((1,)),
                                   space=space)
        report = estimate_pac_probability(learner, space, dist, m=2,
                                          eps=F(1, 10), trials=40, seed=0)
        assert report.estimate == 1.0

    def test_exact_mode_matches_brute_force(self):
        # sem and const0 are enumerated as multisets, memorize and random
        # learners as ordered tuples; the oracle always uses ordered tuples
        # and scores every state's output afresh.  "fresh" returns a new
        # but equal Hypothesis on every call, so the estimate's per-output
        # memo is hit through key equality, not identity.
        rng = random.Random(55)
        for _ in range(10):
            space = random_explicit_space(rng, max_instances=3,
                                          max_hypotheses=5)
            dist = random_distribution(rng, space.domain, max_support=3)
            m = rng.randint(1, 3)
            eps = F(rng.randint(1, 4), 8)
            full = builtin_learners(ExplicitSpace.full(space.domain))
            learners = [sem_learner(space),
                        random_table_learner(space, rng.randrange(100)),
                        full["const0"], full["memorize"],
                        fresh_outputs(full["memorize"])]
            for learner in learners:
                report = estimate_pac_probability(learner, learner.space,
                                                  dist, m=m, eps=eps,
                                                  exact=True)
                assert report.probability == brute_force_pac_probability(
                    learner, learner.space, dist, m, eps), learner.name

    def test_order_invariance_is_declared(self):
        space = ExplicitSpace.full(atoms(2))
        flags = {name: lf.order_invariant
                 for name, lf in builtin_learners(space).items()}
        assert flags == {"sem": True, "const0": True, "const1": True,
                         "memorize": False}
        assert not random_table_learner(space, 0).order_invariant

    def test_exact_budget_counts_enumerated_states(self):
        # k = 4, m = 10: 286 multisets, but 4^10 > 10^6 ordered tuples.
        space = ExplicitSpace.full(atoms(2))
        dist = DiscreteDistribution.uniform(
            [("s0", 1), ("s0", 0), ("s1", 1), ("s1", 0)])
        learners = builtin_learners(space)
        report = estimate_pac_probability(learners["sem"], space, dist,
                                          m=10, eps=0.5, exact=True)
        assert report.mode == "exact"
        with pytest.raises(BudgetError) as exc:
            estimate_pac_probability(learners["memorize"], space, dist,
                                     m=10, eps=0.5, exact=True)
        assert exc.value.required == 4 ** 10

    def test_exact_budget_bounds_samples_over_all_states(self):
        # Two support entries at m = 75075 (m0_pac for thresholds) is only
        # 75076 multisets, but 75076 * 75075 drawn samples: refused.  One
        # entry is a single state at any m within the sample limit.
        space = ExplicitSpace.full(atoms(2))
        learner = builtin_learners(space)["sem"]
        two = DiscreteDistribution.uniform([("s0", 1), ("s1", 0)])
        with pytest.raises(BudgetError) as exc:
            estimate_pac_probability(learner, space, two, m=75075, eps=0.1,
                                     exact=True)
        assert exc.value.required == 75076
        with pytest.raises(BudgetError) as exc:
            estimate_ucp_probability(space, two, m=10 ** 7 + 1, eps=0.1,
                                     exact=True)
        assert exc.value.required is None
        one = DiscreteDistribution.uniform([("s0", 1)])
        report = estimate_pac_probability(learner, space, one, m=10 ** 5,
                                          eps=0.1, exact=True)
        assert report.probability == 1

    def test_sem_on_thresholds_concentrates(self):
        space = ThresholdSpace()
        samples = [((i,), 1 if i >= 4 else 0) for i in range(8)]
        dist = DiscreteDistribution.uniform(samples)
        learner = sem_learner(space)
        report = estimate_pac_probability(learner, space, dist, m=60,
                                          eps=0.2, trials=200, seed=2)
        assert report.ci_high >= 0.9


class TestWilson:
    def test_basic_properties(self):
        for successes, trials in ((0, 10), (5, 10), (10, 10), (50, 100)):
            lo, hi = wilson_interval(successes, trials)
            assert 0.0 <= lo <= successes / trials <= hi <= 1.0

    def test_tightens_with_more_trials(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


def test_ucp_at_sample_bound_thresholds():
    """At the uniform-convergence sample bound for VC dimension 1, the
    success probability estimate reaches 1 - delta (CI containment)."""
    from vclab import m0_ucp
    eps = delta = 0.5
    m = m0_ucp(1, eps, delta).m0  # 3273
    space = ThresholdSpace()
    dist = DiscreteDistribution.uniform(
        [((i,), 1 if i >= 5 else 0) for i in range(10)])
    report = estimate_ucp_probability(space, dist, m=m, eps=eps, trials=200,
                                      seed=11)
    assert report.ci_high >= 1 - delta


def test_pac_at_sample_bound_thresholds():
    """At the PAC sample bound with an exact sample-error minimizer, the
    success probability estimate reaches 1 - delta (CI containment)."""
    from vclab import m0_pac
    eps = delta = 0.5
    m = m0_pac(eps, delta, d=1)
    space = ThresholdSpace()
    dist = DiscreteDistribution.uniform(
        [((i,), 1 if i >= 5 else 0) for i in range(10)])
    learner = sem_learner(space)
    report = estimate_pac_probability(learner, space, dist, m=m, eps=eps,
                                      trials=30, seed=12)
    assert report.ci_high >= 1 - delta


def test_trial_seed_is_stable():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    assert trial_seed(0, 0) != trial_seed(0, 1)
    assert trial_seed(1, 0) != trial_seed(0, 0)


def test_singleton_hoeffding_small_scale():
    """Monte-Carlo tail never exceeds the concentration bound plus three
    binomial standard errors (small-scale version of the acceptance run)."""
    space = ExplicitSpace(atoms(3), [[1, 0, 1]])
    dist = DiscreteDistribution.uniform(
        [("s0", 1), ("s1", 1), ("s2", 0)])  # single h has true error 2/3
    m, eps, trials = 80, 0.25, 1500
    report = estimate_ucp_probability(space, dist, m=m, eps=eps,
                                      trials=trials, seed=17)
    tail = 1.0 - report.estimate
    bound = hoeffding_tail(m, eps)
    se = (tail * (1 - tail) / trials) ** 0.5
    assert tail <= bound + 3 * se
