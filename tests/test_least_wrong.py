"""``HypothesisSpace.least_wrong`` against the table scan it replaces:
``min(restriction_errors(...)[1])`` and the table's witness of that
labeling, for every family that answers it in its own way."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vclab.spaces
from vclab import (
    CoSingletonSpace,
    DefinableSpace,
    DiscreteDistribution,
    HalfspaceSpace,
    Instance,
    IntervalSpace,
    MultiSample,
    Sample,
    SampledParams,
    ThresholdSpace,
    approximation_error,
    empirical_opt,
    parse_formula,
    restriction_errors,
    sem_learner,
)
from vclab.cli import main
from vclab.model import label_costs
from conftest import random_explicit_space

# Small weights, zero included, so that ties are common and some instances
# weigh nothing.
WEIGHTS = st.sampled_from([0, 0, 1, 1, 2, 3, F(1, 2)])


def weighted_pairs(coords, max_size=7):
    """(sample, weight) pairs over few distinct points, so that points
    repeat, with both labels at times."""
    return st.lists(st.tuples(coords, st.integers(0, 1), WEIGHTS),
                    min_size=1, max_size=max_size).map(lambda triples: [
                        (Sample(Instance.point(*c), y), w)
                        for c, y, w in triples])


def line_pairs():
    return weighted_pairs(st.tuples(st.integers(-4, 4)))


def grid_pairs(dim, low, high, max_size):
    return weighted_pairs(st.tuples(*[st.integers(low, high)] * dim),
                          max_size)


def assert_least_is_the_scan_s(space, weighted):
    table, scored = restriction_errors(space, weighted)
    want = min(scored)
    wrong, labeling, witness = space.least_wrong(weighted)
    assert (wrong, labeling) == want
    assert witness().key == table[labeling].key


@pytest.mark.parametrize("space", [ThresholdSpace(), IntervalSpace(),
                                   CoSingletonSpace()],
                         ids=["threshold", "interval", "co-singleton"])
@settings(max_examples=60, deadline=None)
@given(weighted=line_pairs())
def test_line_sweeps_match_the_scan(space, weighted):
    assert_least_is_the_scan_s(space, weighted)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(1, 6))
def test_explicit_space_keeps_the_scan(seed, m):
    rng = random.Random(seed)
    space = random_explicit_space(rng)
    weighted = [(Sample(rng.choice(space.domain), rng.randint(0, 1)),
                 rng.choice([0, 1, 2])) for _ in range(m)]
    assert_least_is_the_scan_s(space, weighted)


@pytest.mark.parametrize("dim, low, high, size", [
    (2, -2, 2, 7), (2, -9, 9, 7), (3, -1, 1, 6)],
    ids=["plane-grid", "plane", "space-grid"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_best_first_halfspaces_match_the_scan(dim, low, high, size, data):
    """Grids put many points on a line or plane, so most tables there are
    grown, not counted; the wider plane range mostly gives general
    position."""
    weighted = data.draw(grid_pairs(dim, low, high, size))
    assert_least_is_the_scan_s(HalfspaceSpace(dim), weighted)


AFFINE_ATOM = parse_formula("0 <= a*x + b*y - 1", ["x", "y"], ["a", "b"])


@settings(max_examples=30, deadline=None)
@given(weighted=grid_pairs(2, -2, 2, 6))
def test_best_first_on_an_affine_formula_atom(weighted):
    """The atom's rows have constants, so its table is not closed under
    complement and grows from v = 0; the best-first search of its affine
    space finds the scan's least pair, and its witness key is the
    table's.  The formula space hands its search to that space."""
    space = DefinableSpace(AFFINE_ATOM, SampledParams())
    instances, costs = label_costs(space, weighted)
    affine = space.closed_form.space
    table = affine.dichotomies(instances).witness_keys
    assert not table._closed
    labeling, key = affine._least(instances, costs)
    wrong = sum(c[y] for c, y in zip(costs, labeling))
    assert (wrong, labeling) == min(
        (sum(c[y] for c, y in zip(costs, lab)), lab) for lab in table)
    assert key() == table[labeling]
    assert space.least_wrong(weighted)[:2] == (wrong, labeling)


def formula_space(text, objects, params):
    return DefinableSpace(parse_formula(text, objects, params),
                          SampledParams())


LINE_FORMULAS = [("p <= x", ["p"]), ("x != p", ["p"]), ("p != x", ["p"]),
                 ("a <= x and x <= b", ["a", "b"]),
                 ("b <= x and x <= a", ["a", "b"])]


@pytest.mark.parametrize("text, params", LINE_FORMULAS,
                         ids=[text for text, _ in LINE_FORMULAS])
@settings(max_examples=20, deadline=None)
@given(weighted=line_pairs())
def test_line_closed_forms_match_the_scan(text, params, weighted):
    """A native shape's space sweeps, and its witness, moved to the
    declared parameters and checked by the formula, is the table's."""
    space = formula_space(text, ["x"], params)
    assert space.closed_form is not None
    assert_least_is_the_scan_s(space, weighted)


@pytest.mark.parametrize("text", ["0 <= a*x + b*y - 1",
                                  "not (a*x + b*y <= 1)"])
@settings(max_examples=20, deadline=None)
@given(weighted=grid_pairs(2, -2, 2, 6))
def test_affine_closed_forms_match_the_scan(text, weighted):
    space = formula_space(text, ["x", "y"], ["a", "b"])
    assert space.closed_form.name == "affine"
    assert_least_is_the_scan_s(space, weighted)


@pytest.mark.parametrize("text, objects, params", [
    ("b <= x and x <= a", ["x"], ["a", "b"]),
    ("0 <= a*x + b*y + c", ["x", "y"], ["a", "b", "c"])],
    ids=["interval", "affine"])
def test_closed_forms_build_no_table(text, objects, params, monkeypatch):
    """Formula sem and ``approximation_error`` over a closed form search
    its space, with ``_line_table`` and ``AffineWitnesses`` raising."""
    space = formula_space(text, objects, params)
    pts = [(v, v * v - 3 * v)[:len(objects)] for v in (3, 1, 2, 5)]
    zbar = MultiSample.of(*[(p, y) for p, y in zip(pts, (1, 0, 1, 0))],
                          (pts[1], 1))
    dist = DiscreteDistribution({(pts[0], 0): F(1, 3), (pts[2], 1): F(1, 6),
                                 (pts[3], 0): F(1, 2)})
    table, scored = restriction_errors(space, zbar.tally())
    wrong, labeling = min(scored)
    want = (table[labeling].key, F(wrong, 5),
            approximation_error(space, dist))

    def no_table(*args):
        raise AssertionError("a table was built")
    monkeypatch.setattr(vclab.spaces, "_line_table", no_table)
    monkeypatch.setattr(vclab.spaces.AffineWitnesses, "__init__", no_table)
    space = formula_space(text, objects, params)
    assert (sem_learner(space)(zbar).key, empirical_opt(space, zbar),
            approximation_error(space, dist)) == want
    with pytest.raises(AssertionError, match="a table was built"):
        space.dichotomies([Instance.point(*pts[0])])


def test_a_wrong_parameter_map_fails_the_formula_check(monkeypatch):
    """``b <= x and x <= a`` takes the interval key (lo, hi) as (b, a).
    Taken in native order, a run of two points gets the empty interval
    [hi, lo]: sem and a table read both raise."""
    space = formula_space("b <= x and x <= a", ["x"], ["a", "b"])
    closed = space.closed_form
    monkeypatch.setattr(space, "closed_form", closed._replace(
        params=lambda key: key))
    zbar = MultiSample.of((0, 0), (1, 1), (2, 1), (3, 0))
    for read in (lambda: sem_learner(space)(zbar),
                 lambda: space.dichotomies(
                     [z.instance for z in zbar])[0, 1, 1, 0]):
        with pytest.raises(AssertionError, match="interval witnesses"):
            read()


@pytest.mark.parametrize("text, objects, params, bad", [
    ("0 <= a*x + b*y - 1", ["x", "y"], ["a", "b"], (1,)),
    ("0 <= a*x + b*y - 1", ["x", "y"], ["a", "b"], (1, 2, 3)),
    ("p <= x", ["x"], ["p"], (1, 2))],
    ids=["affine-short", "affine-long", "threshold"])
def test_wrong_arity_instances_are_rejected(text, objects, params, bad,
                                            tmp_path):
    """Every instance is checked against the formula's arity before the
    closed form's space reads it: ``least_wrong`` and
    ``approximation_error`` raise the table's ValueError, and sem in an
    exact ``pac-sim`` exits 2."""
    space = formula_space(text, objects, params)
    good = (0,) * len(objects)
    dist = DiscreteDistribution({(good, 1): F(1, 2), (bad, 0): F(1, 2)})
    for call in (lambda: space.least_wrong(dist.items()),
                 lambda: approximation_error(space, dist),
                 lambda: space.dichotomies(dist.instances())):
        with pytest.raises(ValueError, match="does not have arity"):
            call()
    (tmp_path / "space.json").write_text(json.dumps({
        "kind": "formula-defined", "formula": text, "objects": objects,
        "params": params, "source": {"type": "sampled"}}))
    (tmp_path / "dist.json").write_text(json.dumps({
        "support": [[list(good), 1], [list(bad), 0]],
        "weights": ["1/2", "1/2"]}))
    assert main(["pac-sim", "--space", str(tmp_path / "space.json"),
                 "--dist", str(tmp_path / "dist.json"), "--m", "1,2",
                 "--eps", "0.1", "--exact", "--learner", "builtin:sem",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("space, least", [
    (ThresholdSpace(), (0, 0, 0, 0)), (IntervalSpace(), (0, 0, 0, 0)),
    (CoSingletonSpace(), (0, 1, 1, 1)), (HalfspaceSpace(1), (0, 0, 0, 0))],
    ids=["threshold", "interval", "co-singleton", "halfspace"])
def test_zero_weights_give_the_least_labeling(space, least):
    weighted = [(Sample(Instance.point(v), v % 2), 0) for v in (3, 1, 2, 0)]
    assert space.least_wrong(weighted)[:2] == (0, least)


@pytest.mark.parametrize("space, labels, least", [
    (ThresholdSpace(), (0, 1, 0, 1), (0, 0, 0, 1)),
    (IntervalSpace(), (0, 1, 0, 1, 0), (0, 0, 0, 1, 0)),
    (IntervalSpace(), (1, 1, 0, 1), (1, 1, 0, 0)),
    (CoSingletonSpace(), (0, 1, 0, 1), (0, 1, 1, 1)),
    (HalfspaceSpace(1), (1, 0, 1), (0, 0, 1)),
    (HalfspaceSpace(1), (1, 1, 1), (1, 1, 1))],
    ids=["threshold-largest-cut", "interval-later-start",
         "interval-shorter-run", "co-singleton-earliest",
         "halfspace-tie-found-late", "halfspace-complement-half"])
def test_tie_breaks(space, labels, least):
    """The sample labels the points 0, 1, ... as given, and each least
    pair but the last has one error: cuts 1, 2 and 3 of the thresholds
    tie; the intervals [1, 1], [1, 3] and [3, 3] tie, and then [0, 1] and
    [0, 3]; the co-singletons' zeros at 0 and 2 tie; the halfspaces' (1, 0,
    0), (1, 1, 1) and (0, 0, 1) tie, the least found after prefixes of
    first bit 1 that err less.  All ones, with no error, lies in the half
    of first bit 1."""
    zbar = MultiSample.of(*[(v, y) for v, y in enumerate(labels)])
    labeling = space.least_wrong(zbar.tally())[1]
    assert labeling == least
    assert min(restriction_errors(space, zbar.tally())[1])[1] == least


@pytest.mark.parametrize("space", [ThresholdSpace(), IntervalSpace(),
                                   CoSingletonSpace()],
                         ids=["threshold", "interval", "co-singleton"])
def test_line_families_build_no_table(space, monkeypatch):
    """sem, ``empirical_opt`` and ``approximation_error`` give what the
    table gave, with ``_line_table`` raising."""
    zbar = MultiSample.of((3, 1), (1, 0), (2, 1), (1, 1), (5, 0), (4, 1))
    dist = DiscreteDistribution({(1, 0): F(1, 3), (2, 1): F(1, 6),
                                 (4, 0): F(1, 2)})
    table, scored = restriction_errors(space, zbar.tally())
    wrong, labeling = min(scored)
    want = (table[labeling].key, F(wrong, 6),
            approximation_error(space, dist))

    def no_table(*args):
        raise AssertionError("a line table was built")
    monkeypatch.setattr(vclab.spaces, "_line_table", no_table)
    assert (sem_learner(space)(zbar).key, empirical_opt(space, zbar),
            approximation_error(space, dist)) == want
    with pytest.raises(AssertionError, match="a line table"):
        space.dichotomies([Instance.point(1)])


def test_a_cover_counted_table_is_searched_not_grown(monkeypatch):
    """Twelve points of a parabola, no three on a line, have Cover's 134
    labelings, counted with no FM call.  sem on noisy labels of them
    solves fewer systems than that, and grows no label tree."""
    pts = [Instance.point(i, i * i - 5 * i) for i in range(12)]
    assert len(HalfspaceSpace(2).dichotomies(pts)) == 134
    solved = []
    solve = vclab.spaces.AffineSystem._solve

    def counted(self, labeling):
        solved.append(labeling)
        return solve(self, labeling)

    def no_tree(*args):
        raise AssertionError("a label tree was grown")
    monkeypatch.setattr(vclab.spaces.AffineSystem, "_solve", counted)
    monkeypatch.setattr(vclab.spaces, "_label_tree", no_tree)
    rng = random.Random(12)
    for _ in range(5):
        zbar = MultiSample.of(*[(x.coords, int(x.coords[1] < 0) ^ (
            rng.random() < 0.2)) for x in pts])
        solved.clear()
        h = sem_learner(HalfspaceSpace(2))(zbar)
        assert 0 < len(solved) < 134
        wrong = sum(h(z.instance) != z.label for z in zbar)
        assert wrong == empirical_opt(HalfspaceSpace(2), zbar) * 12


def test_tied_labels_are_searched_depth_first(fm_calls):
    """With both labels of each of the 12 parabola points, every labeling
    errs 12 times, and the least, all zeros, is what the start v = -e_b
    gives.  The search charges a label only what it costs above the
    point's other label, so ties add nothing and it dives straight there:
    sem solves only the system of the witness it reads, and
    ``approximation_error`` at label noise 1/2 none.  Charged whole label
    costs, it took every prefix level by level, both halves (351 calls)."""
    pts = [Instance.point(i, i * i - 5 * i) for i in range(12)]
    both = [(x, y) for x in pts for y in (0, 1)]
    zbar = MultiSample.of(*[(x.coords, y) for x, y in both])
    h = sem_learner(HalfspaceSpace(2))(zbar)
    assert [h(x) for x in pts] == [0] * 12
    assert len(fm_calls) == 1
    fm_calls.clear()
    assert approximation_error(
        HalfspaceSpace(2), DiscreteDistribution.uniform(both)) == F(1, 2)
    assert fm_calls == []
    assert min(restriction_errors(HalfspaceSpace(2), zbar.tally())[1]) == (
        12, (0,) * 12)


@pytest.mark.parametrize("space", [ThresholdSpace(), IntervalSpace(),
                                   CoSingletonSpace(), HalfspaceSpace(1)],
                         ids=["threshold", "interval", "co-singleton",
                              "halfspace"])
@pytest.mark.parametrize("bad", [Instance.atom("a"), Instance.point(1, 2)],
                         ids=["atom", "plane-point"])
def test_instances_outside_the_line_are_rejected(space, bad):
    """Every instance is checked, as the table checks them, not only the
    ones the least labeling's witness reads."""
    weighted = [(Sample(Instance.point(v), 1), 1) for v in (0, 1, 2)]
    weighted.append((Sample(bad, 0), 1))
    for call in (lambda: space.least_wrong(weighted),
                 lambda: space.dichotomies([z.instance for z, _ in weighted])):
        with pytest.raises(ValueError):
            call()
