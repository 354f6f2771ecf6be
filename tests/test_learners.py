import hashlib
import random
from fractions import Fraction as F

import pytest

import vclab.learners
from vclab import (
    DefinableSpace,
    ExplicitSpace,
    InexactOracleError,
    Instance,
    MultiSample,
    Sample,
    SampledParams,
    ThresholdSpace,
    builtin_learners,
    empirical_opt,
    memorizing_learner,
    parse_formula,
    random_table_learner,
    sample_error,
    sem_learner,
    table_learner,
)
from vclab.formula import recognize_closed_form
from conftest import atoms, random_explicit_space, random_multisample


class TestSemLearner:
    def test_two_constants_all_ones(self):
        space = ExplicitSpace(atoms(1), [[0], [1]])
        learner = sem_learner(space)
        zbar = MultiSample.of(("s0", 1), ("s0", 1))
        h = learner(zbar)
        assert h.key == ("explicit", (1,))
        assert sample_error(h, zbar) == 0

    def test_thresholds_tie_break(self):
        learner = sem_learner(ThresholdSpace())
        zbar = MultiSample.of(((1,), 1), ((2,), 0))
        h = learner(zbar)
        assert sample_error(h, zbar) == F(1, 2)
        # minimizers are labelings 00 and 11; lexicographically least is 00,
        # whose canonical threshold witness sits just past the largest point
        assert h.key == ("threshold", F(3))

    def test_shattered_sample_fits_exactly(self):
        space = ExplicitSpace.full(atoms(3))
        learner = sem_learner(space)
        zbar = MultiSample.of(("s0", 1), ("s1", 0), ("s2", 1))
        assert sample_error(learner(zbar), zbar) == 0

    def test_exactness_on_random_spaces(self):
        rng = random.Random(42)
        for _ in range(80):
            space = random_explicit_space(rng)
            learner = sem_learner(space)
            zbar = random_multisample(rng, space.domain, rng.randint(1, 7))
            assert sample_error(learner(zbar), zbar) == \
                empirical_opt(space, zbar)

    def test_enumeration_order_does_not_matter(self):
        rng = random.Random(8)
        for _ in range(25):
            space = random_explicit_space(rng)
            rows = [list(r) for r in space._vectors]
            rng.shuffle(rows)
            permuted = ExplicitSpace(space.domain, rows)
            zbar = random_multisample(rng, space.domain, rng.randint(1, 5))
            assert sem_learner(space)(zbar).key == \
                sem_learner(permuted)(zbar).key

    def test_determinism(self):
        learner = sem_learner(ThresholdSpace())
        zbar = MultiSample.of(((1,), 1), ((2,), 0), ((3,), 1))
        assert learner(zbar).key == learner(zbar).key

    def test_inexact_oracle_refused_without_declaration(self):
        ast = parse_formula("p * p * x <= 1", ["x"], ["p"])
        assert recognize_closed_form(ast) is None
        space = DefinableSpace(ast, SampledParams(budget=50))
        assert not space.oracle_exact
        with pytest.raises(InexactOracleError):
            sem_learner(space)


class TestApply:
    def test_constant_ignores_sample(self):
        space = ExplicitSpace(atoms(2), [[1, 1]])
        h = space.hypothesis_from_bits((1, 1))
        from vclab import constant_learner
        learner = constant_learner(h, space=space)
        z1 = MultiSample.of(("s0", 0))
        z2 = MultiSample.of(("s1", 1), ("s0", 0))
        assert learner(z1) is h and learner(z2) is h


class TestNmseContract:
    def test_sem_has_zero_slack_everywhere(self):
        rng = random.Random(3)
        space = ExplicitSpace.full(atoms(2))
        learner = sem_learner(space)
        for m in (1, 2, 5):
            for _ in range(10):
                zbar = random_multisample(rng, space.domain, m)
                gap = (sample_error(learner(zbar), zbar)
                       - empirical_opt(space, zbar))
                assert gap == 0


class TestTableLearners:
    def test_lookup_and_default(self):
        space = ExplicitSpace.full(atoms(2))
        key = MultiSample.of(("s0", 1))
        mapped = space.hypothesis_from_bits((1, 1))
        fallback = space.hypothesis_from_bits((0, 0))
        learner = table_learner(space, {key: mapped}, fallback)
        assert learner(MultiSample.of(("s0", 1))) == mapped
        assert learner(MultiSample.of(("s0", 0))) == fallback

    def test_random_table_is_deterministic(self):
        space = ExplicitSpace.full(atoms(3))
        a = random_table_learner(space, seed=9)
        b = random_table_learner(space, seed=9)
        c = random_table_learner(space, seed=10)
        zbar = MultiSample.of(("s0", 1), ("s2", 0))
        assert a(zbar).key == b(zbar).key
        outputs = {random_table_learner(space, seed=s)(zbar).key
                   for s in range(12)}
        assert len(outputs) > 1
        assert c(zbar).key in {h.key for h in space.hypotheses()}


def old_canonical_bytes(zbar):
    """``MultiSample.canonical_bytes`` as it was written before each
    sample's encoding became its own method."""
    parts = []
    for z in zbar.samples:
        v = z.instance.value
        if isinstance(v, str):
            parts.append(f"a:{v}:{z.label}")
        else:
            parts.append("v:" + ",".join(str(c) for c in v) + f":{z.label}")
    return "|".join(parts).encode()


@pytest.mark.parametrize("domain", [
    atoms(3) + [Instance.atom("é|:")],
    [Instance.point(v) for v in (-2, 0, 7, 12)],
    [Instance.point(v) for v in (F(1, 3), F(-5, 2), 4, F(7, 9))],
    [Instance.point(*p) for p in ((0, 0), (1, F(1, 2)), (F(-2, 3), 5))],
], ids=["atoms", "ints", "fractions", "points-2d"])
def test_random_table_hashes_the_seed_prefix_and_canonical_bytes(
        domain, monkeypatch):
    """One learner, called on samples that use both labels of an instance
    (plain and counts-only multi-samples), hashes exactly the bytes it
    hashed before its per-sample encoding memo, and picks the vector they
    index."""
    space = ExplicitSpace.full(domain)
    learner = random_table_learner(space, seed=31)
    hashed = []
    sha256 = hashlib.sha256

    def recording(data):
        hashed.append(data)
        return sha256(data)

    monkeypatch.setattr(vclab.learners, "sha256", recording)
    rng = random.Random(len(domain))
    support = tuple(Sample(x, y) for x in domain for y in (0, 1))
    for _ in range(40):
        if rng.random() < 0.5:
            zbar = MultiSample(tuple(rng.choice(support)
                                     for _ in range(rng.randint(1, 4))))
        else:
            zbar = MultiSample.unchecked(support=support, counts=tuple(
                [rng.randint(0, 2) for _ in support[:-1]] + [1]))
        want = b"table:31:" + old_canonical_bytes(zbar)
        assert zbar.canonical_bytes() == old_canonical_bytes(zbar)
        h = learner(zbar)
        assert hashed.pop() == want
        index = int.from_bytes(sha256(want).digest()[:8], "big") % len(space)
        assert h.key == ("explicit", space._vectors[index])


class TestMemorizer:
    def test_recalls_seen_labels_and_defaults_to_zero(self):
        space = ExplicitSpace.full(atoms(3))
        learner = memorizing_learner(space)
        h = learner(MultiSample.of(("s1", 1), ("s1", 0)))
        assert h.key == ("explicit", (0, 1, 0))  # first occurrence wins

    def test_requires_explicit_space(self):
        with pytest.raises(ValueError):
            memorizing_learner(ThresholdSpace())


def test_builtin_registry():
    space = ExplicitSpace.full(atoms(2))
    names = set(builtin_learners(space))
    assert {"sem", "const0", "const1", "memorize"} <= names
    names_parametric = set(builtin_learners(ThresholdSpace()))
    assert names_parametric == {"sem"}
