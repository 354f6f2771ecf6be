import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest

import vclab.nfl
import vclab.spaces
from vclab.cli import main
from vclab import (
    BudgetError,
    DiscreteDistribution,
    ExplicitSpace,
    HalfspaceSpace,
    Hypothesis,
    Instance,
    MultiSample,
    Sample,
    build_nfl_instance,
    builtin_learners,
    nfl_report,
    random_table_learner,
    sem_learner,
    shatters,
    table_learner,
    true_error,
)
from vclab.learners import LearningFunction
from vclab.nfl import PairingIdentityError
from conftest import atoms, heavier_first_state, reference_enumerate


def full_space(inst):
    return ExplicitSpace.full(inst.instances)


def all_labelings(inst):
    """The labelings of inst's points in lexicographic order, labeling i
    at position i."""
    return list(product((0, 1), repeat=len(inst.instances)))


class TestBuildInstance:
    def test_m1_shape(self):
        inst = build_nfl_instance(atoms(2), 1)
        assert inst.t == 4
        for i, bits in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            dist = inst.distribution(i)
            assert set(dist.support) == set(map(Sample, inst.instances, bits))
            assert sum(w for _, w in dist.items()) == 1
            assert all(w == F(1, 2) for _, w in dist.items())
        for i in (-1, 4):
            with pytest.raises(IndexError, match="not below T = 4"):
                inst.distribution(i)

    def test_each_target_labeling_has_zero_error(self):
        """Without an ambient space the instance holds the full class."""
        inst = build_nfl_instance(atoms(2), 1)
        space = inst.ambient
        assert len(space) == inst.t
        for bits, dist in zip(all_labelings(inst),
                              map(inst.distribution, range(inst.t))):
            h = space.hypothesis_from_bits(bits)
            assert true_error(h, dist) == 0

    def test_distribution_matches_eager_construction(self):
        for m in (1, 2):
            inst = build_nfl_instance(atoms(2 * m), m)
            weight = F(1, 2 * m)
            eager = [DiscreteDistribution([(Sample(x, b), weight)
                                           for x, b in zip(inst.instances,
                                                           bits)])
                     for bits in all_labelings(inst)]
            assert [inst.distribution(i) for i in range(inst.t)] == eager

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            build_nfl_instance(atoms(3), 1)

    def test_m_below_one_named_before_the_instances(self):
        for m in (0, -1):
            with pytest.raises(ValueError, match="m must be >= 1"):
                build_nfl_instance([], m)
            with pytest.raises(ValueError, match="m must be >= 1"):
                build_nfl_instance(atoms(2), m)

    def test_non_shattering_ambient_rejected(self):
        narrow = ExplicitSpace(atoms(2), [[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            build_nfl_instance(atoms(2), 1, ambient=narrow)

    def test_shattering_ambient_accepted(self):
        inst = build_nfl_instance(atoms(2), 1,
                                  ambient=ExplicitSpace.full(atoms(2)))
        assert inst.ambient is not None

    @pytest.mark.parametrize("points", [
        [(0, 0), (1, 0)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    def test_halfspace_ambient_solves_no_witness(self, monkeypatch, points):
        """Checking that halfspaces shatter the instances reads no witness,
        so Fourier-Motzkin runs only when a witness is read."""
        calls = []
        fm_witness = vclab.spaces.fm_witness

        def counted(constraints, nvars):
            calls.append(constraints)
            return fm_witness(constraints, nvars)
        monkeypatch.setattr(vclab.spaces, "fm_witness", counted)
        space = HalfspaceSpace(len(points[0]))
        inst = build_nfl_instance(points, len(points) // 2, ambient=space)
        assert calls == []
        witnesses = shatters(space, inst.instances).witnesses
        for labeling in all_labelings(inst):
            h = witnesses[labeling]
            assert tuple(map(h, inst.instances)) == labeling
        assert len(calls) == 2 ** len(points)


class TestExpectedErrors:
    def test_const0_m1_exact_values(self):
        inst = build_nfl_instance(atoms(2), 1)
        learner = builtin_learners(full_space(inst))["const0"]
        assert nfl_report(learner, inst).expected_errors == \
            (F(0), F(1, 2), F(1, 2), F(1))

    def test_sem_m1_exact_values(self):
        # derived by hand: consistent minimizers with lexicographic
        # tie-breaking toward 0 on the unseen point
        inst = build_nfl_instance(atoms(2), 1)
        learner = builtin_learners(full_space(inst))["sem"]
        assert nfl_report(learner, inst).expected_errors == \
            (F(0), F(1, 4), F(1, 4), F(1, 2))

    def test_average_lower_bound_all_builtins(self):
        for m in (1, 2):
            inst = build_nfl_instance(atoms(2 * m), m)
            space = full_space(inst)
            for learner in builtin_learners(space).values():
                errors = nfl_report(learner, inst).expected_errors
                avg = sum(errors, F(0)) / len(errors)
                assert avg >= F(1, 4)
                assert max(errors) >= F(1, 4)

    def test_matches_core_primitive_recomputation(self):
        # Per-tuple recomputation of the expected errors and of the worst
        # labeling's tail P(error > 1/8), straight from the definitions.
        for m in (1, 2):
            inst = build_nfl_instance(atoms(2 * m), m)
            space = full_space(inst)
            learners = builtin_learners(space)
            learners = [learners[name] for name in ("const0", "sem",
                                                    "memorize")]
            learners.append(random_table_learner(space, 3))
            k = (2 * m) ** m
            for learner in learners:
                report = nfl_report(learner, inst)
                for i, bits in enumerate(all_labelings(inst)):
                    dist = inst.distribution(i)
                    errors = [
                        true_error(learner(MultiSample(tuple(
                            Sample(inst.instances[a], bits[a])
                            for a in idx))), dist)
                        for idx in product(range(2 * m), repeat=m)]
                    assert report.expected_errors[i] == sum(errors, F(0)) / k
                    if i == report.argmax_index:
                        assert report.tail_probability == F(
                            sum(1 for e in errors if e > F(1, 8)), k)

    def test_budget_refusal(self):
        """m = 5 is refused when the construction is built, not when it is
        enumerated, unless it is allowed."""
        with pytest.raises(BudgetError) as exc:
            build_nfl_instance(atoms(10), 5)
        assert exc.value.required == 10 ** 5 * 2 ** 10
        inst = build_nfl_instance(atoms(10), 5, allow_large=True)
        assert inst.t == 2 ** 10

    def test_budget_refusal_reads_no_instance(self):
        def unread():
            raise AssertionError("an instance was read")
            yield
        with pytest.raises(BudgetError):
            build_nfl_instance(unread(), 30)


class TestReport:
    def test_const0_m1(self):
        inst = build_nfl_instance(atoms(2), 1)
        report = nfl_report(builtin_learners(full_space(inst))["const0"], inst)
        assert report.argmax_index == 3  # the all-ones labeling
        assert report.max_expected_error == 1
        assert report.tail_probability == 1
        assert report.opt_of_chosen == 0
        assert report.passed

    def test_all_builtins_pass_m1_m2(self):
        for m in (1, 2):
            inst = build_nfl_instance(atoms(2 * m), m)
            space = full_space(inst)
            for learner in builtin_learners(space).values():
                report = nfl_report(learner, inst)
                assert report.max_at_least_quarter
                assert report.average_at_least_quarter
                assert report.tail_at_least_seventh

    def test_random_lookup_learners_pass(self):
        inst = build_nfl_instance(atoms(4), 2)
        space = full_space(inst)
        for seed in range(10):
            report = nfl_report(random_table_learner(space, seed), inst)
            assert report.passed

    def test_report_serializes(self):
        inst = build_nfl_instance(atoms(2), 1)
        report = nfl_report(builtin_learners(full_space(inst))["sem"], inst)
        payload = report.as_dict()
        assert payload["passed"] is True
        assert payload["expected_errors"] == ["0", "1/4", "1/4", "1/2"]

    def test_histogram_row_sums_are_checked(self, monkeypatch):
        """A walk that skips the empty submask, or a state weight off by
        one, miscounts the instance tuples of a histogram row.  The Markov
        bound does not notice; the row-sum check does."""
        submasks = vclab.nfl._submasks
        patches = [("_submasks",
                    lambda mask: (s for s in submasks(mask) if s)),
                   ("index_states",
                    heavier_first_state(vclab.nfl.index_states))]
        inst = build_nfl_instance(atoms(4), 2)
        learner = builtin_learners(full_space(inst))["sem"]
        for name, patch in patches:
            with monkeypatch.context() as patched:
                patched.setattr(vclab.nfl, name, patch)
                with pytest.raises(AssertionError, match="histogram row"):
                    nfl_report(learner, inst)

    def test_unseen_point_floor_is_tight(self):
        """A learner that agrees with its sample errs only on the points it
        did not see, and averaged over the labelings it errs there half the
        time: exactly 1/2 (1 - 1/(2m))^m.  A constant learner errs on seen
        points too."""
        floors = [F(1, 4), F(9, 32), F(125, 432)]
        for m, floor in zip((1, 2, 3), floors):
            assert vclab.nfl.unseen_error_floor(m) == floor
            inst = build_nfl_instance(atoms(2 * m), m)
            learners = builtin_learners(full_space(inst))
            for name in ("sem", "memorize"):
                report = nfl_report(learners[name], inst)
                assert report.average_expected_error == floor
            assert nfl_report(learners["const0"],
                              inst).average_expected_error > floor

    def test_unseen_point_floor_is_checked(self, monkeypatch):
        """Moving each row's mass to c = 0 keeps every row sum, so only the
        unseen-point check can notice."""
        enumerate_ = vclab.nfl._enumerate

        def all_correct(learner, inst):
            return [[sum(row)] + [0] * (len(row) - 1)
                    for row in enumerate_(learner, inst)]
        monkeypatch.setattr(vclab.nfl, "_enumerate", all_correct)
        inst = build_nfl_instance(atoms(4), 2)
        learner = builtin_learners(full_space(inst))["sem"]
        with pytest.raises(AssertionError, match="unseen-point floor"):
            nfl_report(learner, inst)


class TestDeterminismProbe:
    def test_nondeterministic_learner_rejected(self):
        inst = build_nfl_instance(atoms(4), 2)
        space = full_space(inst)
        hypotheses = list(space.hypotheses())
        rng = random.Random(0)
        learner = LearningFunction("coin", lambda zbar: rng.choice(hypotheses),
                                   space=space)
        with pytest.raises(PairingIdentityError):
            nfl_report(learner, inst)

    def test_false_order_invariance_rejected(self):
        # The table learner hashes the samples in order, so the multiset
        # path would score one ordering for all of them.
        inst = build_nfl_instance(atoms(4), 2)
        learner = random_table_learner(full_space(inst), 0)._replace(
            order_invariant=True)
        with pytest.raises(PairingIdentityError):
            nfl_report(learner, inst)

    def test_ordered_path_matches_multiset_path(self):
        for m in (1, 2, 3):
            inst = build_nfl_instance(atoms(2 * m), m)
            learners = builtin_learners(full_space(inst))
            for name in ("sem", "const1"):
                learner = learners[name]
                assert learner.order_invariant
                ordered = learner._replace(order_invariant=False)
                assert nfl_report(ordered, inst) == nfl_report(learner, inst)


def counted(learner):
    """The learner with a list that records every sample it is called on."""
    calls = []

    def fn(zbar):
        calls.append(zbar)
        return learner(zbar)
    return learner._replace(fn=fn), calls


def some_table_learner(inst):
    """A lookup learner mapping a few ordered samples of inst to
    hypotheses of the full class, with a fallback."""
    space = full_space(inst)
    hypotheses = list(space.hypotheses())
    rng = random.Random(inst.m)
    table = {}
    for _ in range(4 * inst.m):
        idx = [rng.randrange(len(inst.instances)) for _ in range(inst.m)]
        labels = [rng.randint(0, 1) for _ in idx]
        zbar = MultiSample(tuple(Sample(inst.instances[a], y)
                                 for a, y in zip(idx, labels)))
        table[zbar] = rng.choice(hypotheses)
    return table_learner(space, table, default=hypotheses[-1])


class TestClassWalk:
    """``_enumerate`` adds the state weights up per class before its one
    submask walk per class; the per-sample walk of ``tests/conftest.py``
    must give the same histograms from the same learner calls."""

    def learners(self, inst):
        space = full_space(inst)
        out = builtin_learners(space)
        yield from (out[name] for name in ("sem", "memorize", "const0",
                                           "const1"))
        for seed in (0, 1, 7):
            yield random_table_learner(space, seed)
        yield some_table_learner(inst)

    def test_histograms_and_calls_match_the_per_sample_walk(self):
        for m in (1, 2, 3):
            inst = build_nfl_instance(atoms(2 * m), m)
            for learner in self.learners(inst):
                learner, calls = counted(learner)
                got = vclab.nfl._enumerate(learner, inst)
                ours = list(calls)
                calls.clear()
                assert got == reference_enumerate(learner, inst), \
                    (m, learner.name)
                assert ours == calls, (m, learner.name)

    def test_sem_over_3d_halfspaces_matches_the_per_sample_walk(self):
        space = HalfspaceSpace(3)
        inst = build_nfl_instance(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, ambient=space)
        learner, calls = counted(sem_learner(space))
        got = vclab.nfl._enumerate(learner, inst)
        ours = len(calls)
        calls.clear()
        assert got == reference_enumerate(learner, inst)
        assert ours == len(calls) > 0


class TestMaskCache:
    """``learned_mask`` evaluates an output on S once per key: equal keys
    evaluate identically (``model.Hypothesis``)."""

    def test_fresh_equal_hypotheses_give_the_shared_report(self):
        inst = build_nfl_instance(atoms(4), 2)
        space = full_space(inst)
        shared = {h.key: h for h in space.hypotheses()}
        evaluated = []

        def fresh(h):
            def fn(x):
                evaluated.append(h.key)
                return h(x)
            return Hypothesis(key=h.key, fn=fn)

        const = shared["explicit", (0, 1, 1, 0)]
        for base in (lambda zbar: const, builtin_learners(space)["memorize"]):
            evaluated.clear()
            fresh_report, shared_report = (
                nfl_report(LearningFunction("out", fn, space=space), inst)
                for fn in (lambda zbar: fresh(base(zbar)),
                           lambda zbar: shared[base(zbar).key]))
            assert fresh_report == shared_report
            # Each distinct output is evaluated once on each point of S.
            assert set(Counter(evaluated).values()) == {len(inst.instances)}


# sha256 of the JSON list of the m = 1, 2, 3 reports (``as_dict``, sorted
# keys), computed before the enumerator and the report moved to integer
# scoring: on 2m atoms, on 2m numbers with fractions, and through
# ``vclab nfl`` on its default instances 0, ..., 2m - 1.
NFL_REPORT_SHA256 = {
    ("atoms", "sem"):
        "3167e3801b2491948fc5d2a814a892f613645d8e1024b1cda4862b35f4e0fafa",
    ("atoms", "memorize"):
        "2c9ed9b6cdb73ea0aa06d3cce649cf34da3c693b91d7a3b799a17ee861fd33b9",
    ("atoms", "const0"):
        "7c15920b39067cda769c84d215db11f877b5536cfdf3dcfad4712686e4b1aabf",
    ("atoms", "const1"):
        "ed7eae421d98845d03f79e4d63dcd60653019d592e7af604a181dff7466323c8",
    ("atoms", "random:5"):
        "ad581f60d2d61b9a8dceffb95dcef32381db369d0831febf47c4d3ad995b071d",
    ("numbers", "sem"):
        "3167e3801b2491948fc5d2a814a892f613645d8e1024b1cda4862b35f4e0fafa",
    ("numbers", "memorize"):
        "2c9ed9b6cdb73ea0aa06d3cce649cf34da3c693b91d7a3b799a17ee861fd33b9",
    ("numbers", "const0"):
        "7c15920b39067cda769c84d215db11f877b5536cfdf3dcfad4712686e4b1aabf",
    ("numbers", "const1"):
        "ed7eae421d98845d03f79e4d63dcd60653019d592e7af604a181dff7466323c8",
    ("numbers", "random:5"):
        "3bb2cc60e63a513796b5ebdeeb263d5f2b987ab022e33bd40e5f1832fd44ebba",
    ("cli", "sem"):
        "3167e3801b2491948fc5d2a814a892f613645d8e1024b1cda4862b35f4e0fafa",
    ("cli", "memorize"):
        "2c9ed9b6cdb73ea0aa06d3cce649cf34da3c693b91d7a3b799a17ee861fd33b9",
    ("cli", "const0"):
        "7c15920b39067cda769c84d215db11f877b5536cfdf3dcfad4712686e4b1aabf",
    ("cli", "const1"):
        "ed7eae421d98845d03f79e4d63dcd60653019d592e7af604a181dff7466323c8",
    ("cli", "random:5"):
        "773041e214b1d240e96bf3f8053d19fc4aff3206076c58a76d19fb76f27d6b15",
}
NUMBERS = (F(1, 3), -2, F(5, 2), 7, F(-1, 6), 4)


def pinned_report(kind, learner, m, tmp_path):
    if kind == "cli":
        ref = learner if learner == "random:5" else f"builtin:{learner}"
        assert main(["nfl", "--m", str(m), "--learner", ref,
                     "--out", str(tmp_path)]) == 0
        return json.loads((tmp_path / "report.json").read_text())["result"]
    xs = (atoms(2 * m) if kind == "atoms"
          else [Instance.point(v) for v in NUMBERS[:2 * m]])
    inst = build_nfl_instance(xs, m)
    space = full_space(inst)
    lf = (random_table_learner(space, 5) if learner == "random:5"
          else builtin_learners(space)[learner])
    return nfl_report(lf, inst).as_dict()


@pytest.mark.parametrize("kind, learner", sorted(NFL_REPORT_SHA256))
def test_reports_are_byte_identical_to_the_pinned_ones(kind, learner,
                                                       tmp_path, capsys):
    reports = [pinned_report(kind, learner, m, tmp_path) for m in (1, 2, 3)]
    digest = hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == NFL_REPORT_SHA256[kind, learner]
