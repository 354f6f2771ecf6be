import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vclab.formula

from vclab import (
    CoSingletonSpace,
    DefinableSpace,
    ExplicitParams,
    HalfspaceSpace,
    Instance,
    IntervalSpace,
    SampledParams,
    ThresholdSpace,
    format_formula,
    parse_formula,
    relu_graph_formula,
    shatters,
    sigmoid_network_formula,
    vc_dimension,
)
from vclab.formula import (
    Add,
    And,
    BackendError,
    Cmp,
    Const,
    Exp,
    FormulaAst,
    Implies,
    Mul,
    Neg,
    Not,
    Or,
    ParseError,
    Sub,
    Var,
    compile_formula,
    recognize_closed_form,
)
from vclab.cli import main
from vclab.model import to_fraction
from vclab.spaces import AffineWitnesses
from conftest import (
    points,
    reference_fm_witness,
    sweep_dichotomies,
    sweep_table,
)

RELU_TEXT = "(x < 0 -> y = 0) and (0 <= x -> y = x)"


class TestParser:
    def test_relu_formula(self):
        ast = parse_formula(RELU_TEXT, ["x", "y"])
        assert isinstance(ast.root, And)
        assert not ast.uses_exp
        assert ast.arity == 2 and ast.param_arity == 0

    def test_cosingleton_formula(self):
        ast = parse_formula("x != p", ["x"], ["p"])
        assert ast.root == Cmp("!=", Var("x"), Var("p"))

    def test_malformed_input_reports_column(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("x < (", ["x"])
        assert exc.value.col >= 5

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("x < q", ["x"], ["p"])
        assert "q" in str(exc.value)

    def test_quantifiers_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("forall x (x < 1)", ["x"])
        assert "quantifier" in str(exc.value)

    def test_reserved_words_cannot_be_declared(self):
        from vclab.formula import FormulaError
        with pytest.raises(FormulaError):
            parse_formula("exp < 1", ["exp"])

    def test_overlapping_partitions_rejected(self):
        from vclab.formula import FormulaError
        with pytest.raises(FormulaError):
            parse_formula("x < 1", ["x"], ["x"])

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("x < 1 y", ["x", "y"])

    def test_precedence(self):
        ast = parse_formula("a + b * c < 1", ["a", "b", "c"])
        assert ast.root.left == Add(Var("a"), Mul(Var("b"), Var("c")))
        ast2 = parse_formula("-a * b < 1", ["a", "b"])
        assert ast2.root.left == Mul(Neg(Var("a")), Var("b"))

    def test_rational_and_decimal_literals(self):
        ast = parse_formula("x < 1/3 and x < 0.5", ["x"])
        assert ast.root.left.right == Const(F(1, 3))
        assert ast.root.right.right == Const(F(1, 2))

    def test_zero_denominator_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("x < 1/0", ["x"])

    def test_parenthesized_term_vs_formula(self):
        ast = parse_formula("(x + 1) < 2", ["x"])
        assert ast.root == Cmp("<", Add(Var("x"), Const(F(1))), Const(F(2)))
        ast2 = parse_formula("((x < 2))", ["x"])
        assert ast2.root == Cmp("<", Var("x"), Const(F(2)))


ROUND_TRIP_CORPUS = [
    (RELU_TEXT, ("x", "y"), ()),
    ("x != p", ("x",), ("p",)),
    ("p <= x", ("x",), ("p",)),
    ("a <= x and x <= b", ("x",), ("a", "b")),
    ("0 <= w1 * x1 + w2 * x2 + b", ("x1", "x2"), ("w1", "w2", "b")),
    ("not (x < 1 or x = 2) -> x != 3 -> 0 <= x", ("x",), ()),
    ("x - -1 < x - (2 - 3) + 4 * (x + 1/2)", ("x",), ()),
]


@pytest.mark.parametrize("text,objects,params", ROUND_TRIP_CORPUS)
def test_parse_format_round_trip(text, objects, params):
    ast = parse_formula(text, objects, params)
    formatted = format_formula(ast)
    assert parse_formula(formatted, objects, params) == ast


def test_sigmoid_network_round_trips():
    for n, k in ((1, 1), (2, 2)):
        ast = sigmoid_network_formula(n, k)
        assert ast.uses_exp
        formatted = format_formula(ast)
        assert parse_formula(formatted, ast.objects, ast.params) == ast


class TestEval:
    def test_relu_examples(self):
        relu = compile_formula(relu_graph_formula())
        assert relu((-2, 0), ()) is True
        assert relu((3, 3), ()) is True
        assert relu((3, 0), ()) is False

    def test_relu_against_oracle(self):
        relu = compile_formula(relu_graph_formula())
        rng = random.Random(123)
        for _ in range(500):
            x = F(rng.randint(-60, 60), rng.randint(1, 10))
            y = (max(F(0), x) if rng.random() < 0.5
                 else F(rng.randint(-60, 60), rng.randint(1, 10)))
            assert relu((x, y), ()) is (y == max(F(0), x))

    def test_exact_backend_rejects_exp(self):
        ast = sigmoid_network_formula(1, 1)
        with pytest.raises(BackendError):
            compile_formula(ast, "exact")

    def test_arity_validation(self):
        predicate = compile_formula(parse_formula("x != p", ["x"], ["p"]))
        with pytest.raises(ValueError):
            predicate((1, 2), (0,))
        with pytest.raises(ValueError):
            predicate((1,), ())

    def test_backend_agreement_away_from_boundaries(self):
        ast = parse_formula("a <= x and x <= b", ["x"], ["a", "b"])
        exact = compile_formula(ast, "exact")
        inexact = compile_formula(ast, "float")
        rng = random.Random(6)
        checked = 0
        while checked < 200:
            x = F(rng.randint(-100, 100), 8)
            a = F(rng.randint(-100, 100), 8)
            b = F(rng.randint(-100, 100), 8)
            if x == a or x == b:
                continue
            assert exact((x,), (a, b)) == inexact((x,), (a, b))
            checked += 1

    def test_exp_overflow_is_inf(self):
        ast = parse_formula("exp(x) < y", ["x", "y"])
        assert compile_formula(ast, "float")((10000, 5), ()) is False


# Reference evaluator: a recursive walk over the AST that shares no code
# with compile_formula, in the same order of operations.


def _reference_term(node, env, backend):
    if isinstance(node, Const):
        return node.value if backend == "exact" else float(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Add):
        return (_reference_term(node.left, env, backend)
                + _reference_term(node.right, env, backend))
    if isinstance(node, Sub):
        return (_reference_term(node.left, env, backend)
                - _reference_term(node.right, env, backend))
    if isinstance(node, Mul):
        return (_reference_term(node.left, env, backend)
                * _reference_term(node.right, env, backend))
    if isinstance(node, Neg):
        return -_reference_term(node.term, env, backend)
    if isinstance(node, Exp):
        try:
            return math.exp(_reference_term(node.term, env, backend))
        except OverflowError:
            return math.inf
    raise TypeError(f"not a term node: {node!r}")


def _reference_formula(node, env, backend) -> bool:
    if isinstance(node, Cmp):
        left = _reference_term(node.left, env, backend)
        right = _reference_term(node.right, env, backend)
        if node.op == "<":
            return left < right
        if node.op == "<=":
            return left <= right
        if node.op == "=":
            return left == right
        return left != right
    if isinstance(node, Not):
        return not _reference_formula(node.child, env, backend)
    if isinstance(node, And):
        return (_reference_formula(node.left, env, backend)
                and _reference_formula(node.right, env, backend))
    if isinstance(node, Or):
        return (_reference_formula(node.left, env, backend)
                or _reference_formula(node.right, env, backend))
    if isinstance(node, Implies):
        return (not _reference_formula(node.left, env, backend)
                or _reference_formula(node.right, env, backend))
    raise TypeError(f"not a formula node: {node!r}")


def reference_eval(ast: FormulaAst, x, w, backend: str) -> bool:
    convert = to_fraction if backend == "exact" else (
        lambda v: float(to_fraction(v)))
    env = {name: convert(v)
           for name, v in zip(ast.objects + ast.params, (*x, *w))}
    return _reference_formula(ast.root, env, backend)


# Few distinct values, so that "=" and "!=" often compare equal operands.
VALUES = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(2)])
NAMES = ("x", "y", "p")


def terms(with_exp: bool):
    leaves = st.one_of(VALUES.map(Const), st.sampled_from(NAMES).map(Var))

    def extend(children):
        options = [st.builds(op, children, children) for op in (Add, Sub, Mul)]
        options.append(st.builds(Neg, children))
        if with_exp:
            options.append(st.builds(Exp, children))
        return st.one_of(*options)

    return st.recursive(leaves, extend, max_leaves=6)


def formulas(with_exp: bool):
    term = terms(with_exp)
    atoms = st.builds(Cmp, st.sampled_from(["<", "<=", "=", "!="]), term, term)

    def extend(children):
        return st.one_of(st.builds(Not, children),
                         *(st.builds(op, children, children)
                           for op in (And, Or, Implies)))

    return st.recursive(atoms, extend, max_leaves=4)


FORMULAS = {with_exp: formulas(with_exp) for with_exp in (False, True)}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compiled_evaluator_matches_reference(data):
    """compile_formula agrees with the tree walk on random formulas: on both
    backends without exp, on the float backend with it.  Float results
    agree exactly, because both run the same operations in the same
    order."""
    with_exp = data.draw(st.booleans())
    ast = FormulaAst(("x", "y"), ("p",), data.draw(FORMULAS[with_exp]))
    x = (data.draw(VALUES), data.draw(VALUES))
    w = (data.draw(VALUES),)
    for backend in (("float",) if ast.uses_exp else ("exact", "float")):
        assert compile_formula(ast, backend)(x, w) is \
            reference_eval(ast, x, w, backend)


def sigmoid(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t))


def test_sigmoid_network_matches_direct_network():
    rng = random.Random(99)
    for n, k in ((1, 1), (2, 2), (2, 3)):
        ast = sigmoid_network_formula(n, k)
        network = compile_formula(ast, "float")
        checked = 0
        while checked < 200:
            w = {p: rng.uniform(-4, 4) for p in ast.params}
            x = [rng.uniform(-4, 4) for _ in range(n)]
            total = w["u0"]
            for i in range(1, k + 1):
                pre = w[f"v{i}_0"] + sum(w[f"v{i}_{j}"] * x[j - 1]
                                         for j in range(1, n + 1))
                total += w[f"u{i}"] * sigmoid(pre)
            if abs(total) < 1e-9:
                continue  # resample near the decision boundary
            got = network(x, [w[p] for p in ast.params])
            assert got is (total >= 0)
            checked += 1


def declared_fm_witness(pool, index, labeling):
    """The Fraction reference elimination's witness for a labeling of
    plane points by 0 <= w1 * x1 + w2 * x2 + b, its parameters declared in
    the order that ``index`` gives into (w1, w2, b)."""
    constraints = []
    for x, lab in zip(pool, labeling):
        row = tuple((*x.coords, F(1))[i] for i in index)
        constraints.append((row, F(0), False) if lab else
                           (tuple(-c for c in row), F(0), True))
    return reference_fm_witness(constraints, len(index))


class TestDefinableSpace:
    def test_sampled_budget_below_one_rejected(self):
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget"):
                SampledParams(budget=budget)
        assert SampledParams(budget=1).budget == 1

    def test_grid_cosingletons(self):
        ast = parse_formula("x != p", ["x"], ["p"])
        space = DefinableSpace(ast, ExplicitParams.grid([[0, 1, 2]]))
        assert space.oracle_exact
        assert len(list(space.hypotheses())) == 3
        table = space.dichotomies(points(0, 1, 2))
        assert set(table) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}

    def test_grid_lists_its_product(self):
        axes = [[2, "1/2", 2], [1, 0]]
        assert ExplicitParams.grid(axes) == ExplicitParams.of(product(*axes))
        for bad in ([], [[1], []]):
            with pytest.raises(ValueError, match="every grid axis"):
                ExplicitParams.grid(bad)

    def test_sampled_cosingleton_recognized(self):
        ast = parse_formula("x != p", ["x"], ["p"])
        space = DefinableSpace(ast, SampledParams(budget=100))
        assert space.closed_form.name == "co-singleton"
        table = space.dichotomies(points(1, 2, 3))
        assert space.oracle_exact
        assert set(table) == {(1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)}

    def test_recognized_forms_match_native_spaces(self):
        """Each recognized shape, also with its parameters declared in
        another order, has the native space's labelings.  ``index`` gives,
        per declared parameter, its position in the native witness key.
        The native shapes' witnesses, and those of the halfspace declared
        in native order, are the native witnesses with their parameters
        moved to the declared positions; a halfspace declared in another
        order (``fm``) gets the Fraction reference elimination's witness
        over its declared-order rows."""
        plane = [Instance.point(0, 0), Instance.point(1, 0),
                 Instance.point(0, 1), Instance.point(2, 3)]
        cases = [
            ("p <= x", ("x",), ("p",), ThresholdSpace(), points(1, 2, 4),
             (0,), False),
            ("x != p", ("x",), ("p",), CoSingletonSpace(), points(0, 3, 5),
             (0,), False),
            ("p != x", ("x",), ("p",), CoSingletonSpace(), points(0, 3, 5),
             (0,), False),
            ("a <= x and x <= b", ("x",), ("a", "b"), IntervalSpace(),
             points(1, 2, 3, 4), (0, 1), False),
            ("b <= x and x <= a", ("x",), ("a", "b"), IntervalSpace(),
             points(1, 2, 3, 4), (1, 0), False),
            ("0 <= w1 * x1 + w2 * x2 + b", ("x1", "x2"), ("w1", "w2", "b"),
             HalfspaceSpace(2), plane[:3], (0, 1, 2), False),
            ("0 <= w1 * x1 + w2 * x2 + b", ("x1", "x2"), ("w1", "w2", "b"),
             HalfspaceSpace(2), plane, (0, 1, 2), False),
            ("0 <= w1 * x1 + w2 * x2 + b", ("x1", "x2"), ("b", "w2", "w1"),
             HalfspaceSpace(2), plane, (2, 1, 0), True),
            ("0 <= b + x2 * w2 + w1 * x1", ("x1", "x2"), ("w2", "b", "w1"),
             HalfspaceSpace(2), plane, (1, 2, 0), True),
        ]
        for text, objects, params, native, pool, index, fm in cases:
            ast = parse_formula(text, objects, params)
            predicate = compile_formula(ast)
            space = DefinableSpace(ast, SampledParams(budget=50))
            assert space.closed_form is not None
            table = space.dichotomies(pool)
            want = native.dichotomies(pool)
            assert space.oracle_exact and set(table) == set(want)
            assert space.known_vc() == native.known_vc()
            for labeling, h in table.items():
                w = h.key[1:]
                assert tuple(1 if predicate(x.coords, w) else 0
                             for x in pool) == labeling
                if fm:
                    assert w == declared_fm_witness(pool, index, labeling)
                else:
                    native_w = want[labeling].key[1:]
                    assert w == tuple(native_w[i] for i in index)

    @pytest.mark.parametrize("text, params, native", [
        ("p <= x", ["p"], ThresholdSpace),
        ("x != p", ["p"], CoSingletonSpace),
        ("b <= x and x <= a", ["a", "b"], IntervalSpace)])
    def test_native_closed_forms_read_keys_not_hypotheses(
            self, monkeypatch, text, params, native):
        """A native shape's table, and every witness read from it, is
        built from the native table's witness keys: no native
        ``Hypothesis`` is constructed."""
        calls = []
        hypothesis = native.hypothesis

        def counted(space, *args):
            calls.append(args)
            return hypothesis(space, *args)
        monkeypatch.setattr(native, "hypothesis", counted)
        space = DefinableSpace(parse_formula(text, ["x"], params),
                               SampledParams(budget=30))
        pool = points(3, 1, 2)
        table = space.dichotomies(pool)
        assert space.closed_form is not None and len(table) >= 4
        for labeling, h in dict(table).items():
            assert h.key[0] == "formula"
            assert tuple(h(x) for x in pool) == labeling
        assert calls == []

    @pytest.mark.parametrize("text, params", [
        ("p <= x", ["p"]), ("b <= x and x <= a", ["a", "b"]),
        ("0 <= a * x * x + b * x + c", ["a", "b", "c"])])
    def test_closed_forms_evaluate_only_witness_reads(self, text, params):
        """A closed form's table evaluates no atom; reading every witness
        walks the formula once per point and witness."""
        ast = parse_formula(text, ["x"], params)
        space = DefinableSpace(ast, SampledParams(budget=10))
        fills = count_atom_evaluations(space)
        pool = points(-1, 0, 2)
        table = space.dichotomies(pool)
        assert len(table) >= 4 and fills == []
        witnesses = [h.key[1:] for h in dict(table).values()]
        assert Counter((x, a) for counts in fills for x, a, _
                       in counts.elements()) == reference_atom_counts(
            ast, "exact", [x.coords for x in pool], witnesses)

    def test_finite_witnesses_are_least_tuples(self):
        """Grid and explicit sources keep, for each labeling, the least
        parameter tuple that gives it."""
        interval = parse_formula("a <= x and x <= b", ["x"], ["a", "b"])
        axis = [F(k, 2) for k in range(-2, 9)]
        ratio = parse_formula("p * x <= q", ["x"], ["p", "q"])
        rng = random.Random(3)
        listed = [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4), 2))
                  for _ in range(30)]
        cases = [(interval, ExplicitParams.grid([axis, axis]),
                  [(a, b) for a in axis for b in axis], points(0, 1, 3)),
                 (ratio, ExplicitParams.of(listed), listed, points(-1, 1, 2))]
        for ast, source, tuples, pool in cases:
            predicate = compile_formula(ast)
            least = {}
            for w in sorted(tuples):
                labeling = tuple(1 if predicate(x.coords, w) else 0
                                 for x in pool)
                least.setdefault(labeling, w)
            table = DefinableSpace(ast, source).dichotomies(pool)
            assert {lab: h.key[1:] for lab, h in table.items()} == least

    def test_interval_recognition_with_swapped_declaration_order(self):
        ast = parse_formula("b <= x and x <= a", ["x"], ["a", "b"])
        space = DefinableSpace(ast, SampledParams(budget=30))
        assert space.closed_form.name == "interval"
        got = space.dichotomies(points(1, 2, 3))
        want = IntervalSpace().dichotomies(points(1, 2, 3))
        assert space.oracle_exact and set(got) == set(want)

    def test_unrecognized_sampled_is_sound_subset(self):
        ast = parse_formula("p * p * x <= 1", ["x"], ["p"])
        assert recognize_closed_form(ast) is None
        space = DefinableSpace(ast, SampledParams(budget=400, seed=1))
        assert not space.oracle_exact
        pool = points(1, 2)
        table = space.dichotomies(pool)
        for labeling, h in table.items():
            assert tuple(h(x) for x in pool) == labeling

    def test_explicit_params(self):
        ast = parse_formula("p <= x", ["x"], ["p"])
        space = DefinableSpace(ast, ExplicitParams.of([[0], [2]]))
        table = space.dichotomies(points(1,))
        assert space.oracle_exact and set(table) == {(0,), (1,)}

    def test_inexact_oracle_gates_error_operations(self):
        from vclab import (
            DiscreteDistribution,
            InexactOracleError,
            MultiSample,
            approximation_error,
            empirical_opt,
            u_statistic,
        )
        ast = parse_formula("p * p * x <= 1", ["x"], ["p"])
        assert recognize_closed_form(ast) is None
        space = DefinableSpace(ast, SampledParams(budget=200, seed=2))
        dist = DiscreteDistribution.uniform([((1,), 1), ((2,), 0)])
        zbar = MultiSample.of(((1,), 1), ((2,), 0))
        for fn, args in ((approximation_error, (space, dist)),
                         (empirical_opt, (space, zbar)),
                         (u_statistic, (space, dist, zbar))):
            with pytest.raises(InexactOracleError):
                fn(*args)
        # opting in yields bound semantics: an upper bound for the minima,
        # a verified lower bound for the supremum
        opt = approximation_error(space, dist, require_exact=False)
        assert 0 <= opt <= 1
        low = u_statistic(space, dist, zbar, require_exact=False)
        assert 0 <= low <= 1

    def test_empty_param_list_rejected(self):
        with pytest.raises(ValueError):
            ExplicitParams.of([])

    def test_arity_mismatch_rejected(self):
        ast = parse_formula("x != p", ["x"], ["p"])
        space = DefinableSpace(ast, SampledParams())
        with pytest.raises(ValueError):
            space.dichotomies([Instance.point(1, 2)])

    def test_parameterless_formula_gives_singleton(self):
        ast = parse_formula("0 <= x", ["x"])
        space = DefinableSpace(ast, ExplicitParams.of([[]]))
        table = space.dichotomies(points(-1, 1))
        assert space.oracle_exact and set(table) == {(0, 1)}


def spellings(value: F) -> list:
    """Ways to write the rational ``value`` in a parameter list."""
    out = [value, f"{value.numerator}/{value.denominator}"]
    if value.denominator in (1, 2, 4):
        out += [float(value), str(float(value))]
    if value.denominator == 1:
        out += [int(value), str(int(value))]
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_explicit_params_sort_and_deduplicate(data):
    """Mixed spellings of the same rational, repeated tuples, tuples of one
    arity: the sorted distinct Fraction tuples."""
    arity = data.draw(st.integers(1, 3))
    value = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))
    raw = st.tuples(*[value.flatmap(lambda v: st.sampled_from(spellings(v)))]
                    * arity)
    tuples = data.draw(st.lists(raw, min_size=1, max_size=40))
    assert ExplicitParams.of(tuples).tuples == tuple(sorted(
        {tuple(to_fraction(v) for v in t) for t in tuples}))


WIDE_RATIONALS = st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                           st.integers(1, 10 ** 4))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(WIDE_RATIONALS | st.integers(-3, 3), max_size=3),
                min_size=1, max_size=60))
def test_explicit_params_of_matches_sorted_set(tuples):
    """Tuples of arity 0 to 3 mixed, of ints and of Fractions with large
    and unrelated denominators: the integer keys sort and deduplicate as
    the Fraction tuples do."""
    assert ExplicitParams.of(tuples).tuples == tuple(sorted(set(
        tuple(F(v) for v in t) for t in tuples)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(WIDE_RATIONALS | st.integers(-3, 3), max_size=3),
                min_size=1, max_size=30),
       st.lists(st.lists(WIDE_RATIONALS | st.integers(-3, 3), min_size=1,
                         max_size=4), min_size=1, max_size=3))
def test_explicit_params_keys_are_faithful(tuples, axes):
    """The integer keys of a source from ``of`` (arity 0 to 3 mixed) and
    of a grid increase strictly, each coordinate's key over its scale is
    the tuple's value, and a grid is keyed as ``of`` keys its product."""
    grid = ExplicitParams.grid(axes)
    listed = ExplicitParams.of(list(product(*axes)))
    for source in (ExplicitParams.of(tuples), grid):
        keys = source.keys
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == len(source.tuples)
        for t, key in zip(source.tuples, keys):
            assert len(key) == len(t)
            assert all(F(k, s) == v
                       for v, k, s in zip(t, key, source.scales))
    assert grid == listed
    assert (grid.keys, grid.scales) == (listed.keys, listed.scales)


# Reference for the label columns of finite sources: the witness loop they
# replaced, run over the sorted candidates.


def reference_first_witnesses(predicate, points, candidates):
    """Map each labeling of the points to the first candidate that gives
    it, stopping once all 2^n labelings are found."""
    found = {}
    for w in candidates:
        found.setdefault(tuple(1 if predicate(p, w) else 0 for p in points), w)
        if len(found) == 2 ** len(points):
            break
    return found


COORDS = st.integers(-8, 8).map(lambda k: F(k, 2))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_label_columns_match_first_witnesses(data):
    """Every source answers from label columns with the same witnesses, in
    the same order, as the first-witness loop: random formulas over random
    explicit and grid sources (up to 144 candidates) and over sampled
    sources (the loop runs over the search's candidates), both backends,
    several queries on one space, the empty point tuple included for
    finite sources."""
    with_exp = data.draw(st.booleans())
    ast = FormulaAst(("x",), ("y", "p"), data.draw(FORMULAS[with_exp]))
    kind = data.draw(st.sampled_from(["grid", "explicit", "sampled"]))
    if kind == "grid":
        source = ExplicitParams.grid(data.draw(st.lists(
            st.lists(COORDS, min_size=1, max_size=12), min_size=2,
            max_size=2)))
    elif kind == "explicit" or recognize_closed_form(ast) is not None:
        source = ExplicitParams.of(data.draw(st.lists(
            st.tuples(COORDS, COORDS), min_size=1, max_size=144)))
    else:
        source = SampledParams(budget=data.draw(st.integers(1, 300)),
                               seed=data.draw(st.integers(0, 3)))
    finite = isinstance(source, ExplicitParams)
    backend = "float" if with_exp else data.draw(
        st.sampled_from(["exact", "float"]))
    space = DefinableSpace(ast, source, backend)
    predicate = compile_formula(ast, backend)
    for _ in range(data.draw(st.integers(1, 4))):
        xs = data.draw(st.lists(COORDS, max_size=4, unique=True))
        pool = [(x,) for x in xs]
        candidates = (sorted(source.tuples) if finite else
                      vclab.formula._candidate_parameters(ast, pool, source))
        want = reference_first_witnesses(predicate, pool, candidates)
        if finite:
            assert list(space._least_witnesses(points(*xs)).items()) \
                == list(want.items())
        if xs:
            table = space.dichotomies(points(*xs))
            assert space.oracle_exact == (finite and backend == "exact")
            assert [(lab, h.key[1:]) for lab, h in table.items()] \
                == list(want.items())


def count_atom_evaluations(space: DefinableSpace) -> list[Counter]:
    """Make the space count its atom evaluations, one Counter per column
    filled (a call of the compiled formula on one point over the
    candidates), keyed by (point, atom, projection): the point and the
    values of the parameters the atom reads, both converted to the
    backend (on the exact backend, the exact inputs)."""
    fills = []
    evaluate = space._evaluate

    def extend(x, bound, care):
        fills.append(Counter())
        return evaluate(x, bound, care)

    def counted(k, test, reads):
        def test_k(x, w):
            fills[-1][x, k, tuple(w[s] for s in reads)] += 1
            return test(x, w)
        return test_k

    space._evaluate = extend
    space._atoms[:] = [(counted(k, test, reads), reads)
                       for k, (test, reads) in enumerate(space._atoms)]
    return fills


class TestLabelColumns:
    def test_vc_dimension_evaluates_each_pair_once(self):
        """The interval grid has 441 tuples but 21 values per parameter:
        each point's column is filled once, and each atom is evaluated
        exactly once per point and value of the parameter it reads, 6 x 2
        x 21 tests in all (the right atom's every group meets the left's
        mask, as each b is paired with every a)."""
        ast = parse_formula("a <= x and x <= b", ["x"], ["a", "b"])
        axis = [F(k, 2) for k in range(-2, 19)]
        space = DefinableSpace(ast, ExplicitParams.grid([axis, axis]))
        fills = count_atom_evaluations(space)
        pool = points(0, 1, 3, 4, 6, 7)
        verdict = vc_dimension(space, pool)
        assert verdict.value == 2
        assert verdict.nodes_used == 2 + 20  # every triple is tested
        assert len(fills) == len(pool)
        evaluations = sum(fills, Counter())
        assert set(evaluations.values()) == {1}
        assert evaluations.total() == len(pool) * 2 * len(axis) == 252
        assert {x for x, _, _ in evaluations} == {x.coords for x in pool}

    def test_bench_space_hashes_no_fraction(self, monkeypatch):
        """The interval grid of the ``oracle`` bench over 6 points: neither
        building the space, nor ``vc_dimension``, nor a repeated query
        hashes a ``Fraction``, and only each group's first tuple is
        converted to the backend, when the space is built."""
        ast = parse_formula("a <= x and x <= b", ["x"], ["a", "b"])
        axis = [F(k, 2) for k in range(-2, 19)]
        source = ExplicitParams.grid([axis, axis])
        pool = points(0, 1, 3, 4, 6, 7)
        hashes, converted = [], []
        fraction_hash, compile_ = F.__hash__, vclab.formula._compile

        def counted_compile(ast, backend):
            convert, evaluate, atoms = compile_(ast, backend)
            return (lambda v: converted.append(v) or convert(v),
                    evaluate, atoms)

        monkeypatch.setattr(vclab.formula, "_compile", counted_compile)
        monkeypatch.setattr(F, "__hash__",
                            lambda v: hashes.append(v) or fraction_hash(v))
        space = DefinableSpace(ast, source)
        groups = sum(map(len, space._groups))
        assert groups == 2 * len(axis)
        assert len(converted) == 2 * groups
        verdict = vc_dimension(space, pool)
        assert verdict.value == 2
        assert hashes == []
        # Two values for each group's first tuple and for each witness
        # built, one for each point.
        conversions = 2 * (groups + len(verdict.witnesses)) + len(pool)
        assert len(converted) == conversions
        assert space.dichotomy_count(pool[:3]) == 7  # all but (1, 0, 1)
        assert hashes == []
        assert len(converted) == conversions


def reference_atom_counts(ast, backend, pool, candidates) -> Counter:
    """Atom evaluations of a short-circuit walk of the formula at every
    point of the pool and candidate, keyed by (point converted to the
    backend, atom in walk order)."""
    convert = to_fraction if backend == "exact" else (
        lambda v: float(to_fraction(v)))
    index = {id(n): k for k, n in enumerate(
        n for n in vclab.formula.walk(ast.root) if isinstance(n, Cmp))}
    counts = Counter()

    def holds(node, x, env):
        if isinstance(node, Cmp):
            counts[x, index[id(node)]] += 1
            return _reference_formula(node, env, backend)
        if isinstance(node, Not):
            return not holds(node.child, x, env)
        if isinstance(node, And):
            return holds(node.left, x, env) and holds(node.right, x, env)
        if isinstance(node, Or):
            return holds(node.left, x, env) or holds(node.right, x, env)
        return not holds(node.left, x, env) or holds(node.right, x, env)

    for p in pool:
        x = tuple(map(convert, p))
        for w in candidates:
            holds(ast.root, x, dict(zip(ast.objects + ast.params,
                                        (*x, *map(convert, w)))))
    return counts


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_atoms_evaluated_at_most_as_often_as_short_circuit_walk(data):
    """Each atom is evaluated at each point at most as often as a
    short-circuit walk of every candidate: as often over a list kept for
    one query (each candidate its own group), at most as often over a
    finite source, whose candidates are grouped by the parameters each
    atom reads and whose columns are filled once per point.  Random
    formulas whose atoms read no, one or both parameters, on explicit,
    grid and sampled sources and both backends.  A closed form's table
    evaluates no atom until a witness is read, and a read walks the
    formula once per point."""
    with_exp = data.draw(st.booleans())
    ast = FormulaAst(("x",), ("y", "p"), data.draw(FORMULAS[with_exp]))
    kind = data.draw(st.sampled_from(["grid", "explicit", "sampled"]))
    if kind == "grid":
        source = ExplicitParams.grid(data.draw(st.lists(
            st.lists(COORDS, min_size=1, max_size=12), min_size=2,
            max_size=2)))
    elif kind == "explicit":
        source = ExplicitParams.of(data.draw(st.lists(
            st.tuples(COORDS, COORDS), min_size=1, max_size=144)))
    else:
        source = SampledParams(budget=data.draw(st.integers(1, 300)),
                               seed=data.draw(st.integers(0, 3)))
    finite = isinstance(source, ExplicitParams)
    backend = "float" if with_exp else data.draw(
        st.sampled_from(["exact", "float"]))
    space = DefinableSpace(ast, source, backend)
    fills = count_atom_evaluations(space)
    filled, total = set(), Counter()
    for _ in range(data.draw(st.integers(1, 4))):
        xs = data.draw(st.lists(COORDS, min_size=1, max_size=4, unique=True))
        pool = [(x,) for x in xs]
        del fills[:]
        instances = points(*xs)
        table = space.dichotomies(instances)
        got = Counter((x, a) for counts in fills
                      for x, a, _ in counts.elements())
        if finite:
            total += got
            filled.update(pool)
            continue
        if space.closed_form is not None:
            # A count evaluates nothing; a read evaluates the formula at
            # every point once, with the witness.
            assert got == Counter()
            witnesses = [h.key[1:] for h in dict(table).values()]
            assert Counter((x, a) for counts in fills for x, a, _
                           in counts.elements()) == reference_atom_counts(
                ast, backend, pool, witnesses)
            continue
        candidates = list(vclab.formula._candidate_parameters(
            ast, pool, source))
        assert got == reference_atom_counts(ast, backend, pool, candidates)
    if finite:
        want = reference_atom_counts(ast, backend, filled, source.tuples)
        assert all(total[key] <= want[key] for key in total)


class TestConvertedValues:
    """A space converts each point once per query and each candidate once
    per list, then evaluates the compiled tree; its tables must be the
    first witnesses of the public predicate, which converts on every
    call, on both backends and for every kind of source."""

    AXIS = [F(k, 3) for k in range(-4, 5)]
    POOL = points(F(1, 10), F(1, 3), F(-2, 3), 1)

    def sources(self):
        return [ExplicitParams.of([(a, b) for a in self.AXIS
                                   for b in self.AXIS[::3]]),
                ExplicitParams.grid([self.AXIS, self.AXIS]),
                SampledParams(budget=300, seed=1)]

    def test_tables_match_the_public_predicate(self):
        for text, backend in [("a * x <= b or x = a", "exact"),
                              ("a * x <= b or x = a", "float"),
                              ("exp(a * x) <= b + x", "float")]:
            ast = parse_formula(text, ["x"], ["a", "b"])
            predicate = compile_formula(ast, backend)
            for source in self.sources():
                space = DefinableSpace(ast, source, backend)
                assert space.closed_form is None
                for pool in (self.POOL[:2], self.POOL, self.POOL[1:]):
                    coords = [x.coords for x in pool]
                    candidates = (
                        source.tuples if isinstance(source, ExplicitParams)
                        else vclab.formula._candidate_parameters(
                            ast, coords, source))
                    want = reference_first_witnesses(predicate, coords,
                                                      candidates)
                    table = space.dichotomies(pool)
                    assert [(lab, h.key[1:]) for lab, h in table.items()] \
                        == list(want.items()), (text, backend, source)
                    for lab, h in table.items():
                        assert tuple(h(x) for x in pool) == lab

    def test_float_backend_rounds_once(self):
        """1/10 + 1/5 = 3/10 holds exactly but not in doubles, so the
        float backend's oracle is not exact."""
        ast = parse_formula("x + b = a", ["x"], ["a", "b"])
        source = ExplicitParams.of([(F(3, 10), F(1, 5))])
        x, w = (F(1, 10),), source.tuples[0]
        for backend, label in (("exact", 1), ("float", 0)):
            assert compile_formula(ast, backend)(x, w) == bool(label)
            space = DefinableSpace(ast, source, backend)
            table = space.dichotomies(points(x[0]))
            assert set(table) == {(label,)}
            assert table[(label,)](Instance.point(*x)) == label
            assert space.oracle_exact == (backend == "exact")


class TestAffineOracle:
    """A single < or <= atom, or its negation, affine in its k parameters
    has an exact oracle over a sampled source, with VC dimension at most
    k (Dudley 1978)."""

    def test_affine_atoms_are_exact(self):
        line = points(*range(-3, 4))
        plane = [Instance.point(0, 0), Instance.point(1, 0),
                 Instance.point(0, 1), Instance.point(1, 1)]
        cases = [("0 <= a * x * x + b * x + c", ("x",), ("a", "b", "c"),
                  line, 3),
                 ("0 <= x - p", ("x",), ("p",), line, 1),
                 ("p * x <= 1", ("x",), ("p",), line, 1),
                 ("not (0 <= w1 * x1 + w2 * x2 + b)", ("x1", "x2"),
                  ("w1", "w2", "b"), plane, 3)]
        for text, objects, params, pool, vc in cases:
            ast = parse_formula(text, objects, params)
            space = DefinableSpace(ast, SampledParams(budget=10))
            assert space.closed_form.name == "affine"
            assert space.known_vc() == len(params)
            verdict = vc_dimension(space, pool)
            assert (verdict.value, verdict.status) == (vc, "exact"), text

    def test_outside_the_affine_shape_falls_back_to_search(self):
        cases = [("p * p * x <= 1", ("x",), ("p",)),
                 ("a * a - a * a <= x", ("x",), ("a",)),
                 ("0 <= p * exp(x)", ("x",), ("p",)),
                 ("x = p", ("x",), ("p",)),
                 ("0 <= x", ("x",), ()),
                 ("0 <= x - p and x <= 2", ("x",), ("p",))]
        for text, objects, params in cases:
            assert recognize_closed_form(
                parse_formula(text, objects, params)) is None, text

    @pytest.mark.parametrize("text, params, shape", [
        ("0 <= -(a*a) + x", ("a",), None),
        ("0 <= x - -(a*b)", ("a", "b"), None),
        ("-a <= x", ("a",), "affine"),
        ("-(a) * x < 1", ("a",), "affine"),
    ])
    def test_a_negated_term_keeps_its_degree(self, text, params, shape):
        """A negation has the degree of the term it negates: -(a*a) and
        -(a*b) are quadratic, so search answers, while -a is affine."""
        form = recognize_closed_form(parse_formula(text, ["x"], params))
        assert (form and form.name) == shape

    @pytest.fixture
    def wrong_witness(self, monkeypatch):
        """The affine oracle's first labeling reads the last one's
        witness."""
        class Swapped(AffineWitnesses):
            def __getitem__(self, labeling):
                first, *_, last = self
                return super().__getitem__(
                    last if labeling == first else labeling)
        monkeypatch.setattr(vclab.spaces, "AffineWitnesses", Swapped)

    def test_wrong_witness_raises(self, wrong_witness):
        """The table counts without reading a witness; the read of the
        swapped one raises."""
        ast = parse_formula("0 <= x - p", ["x"], ["p"])
        space = DefinableSpace(ast, SampledParams(budget=10))
        table = space.dichotomies(points(1, 2))
        assert len(table) == 3 and (0, 0) in table
        table[(1, 1)]
        with pytest.raises(AssertionError, match="affine witnesses disagree"):
            table[(0, 0)]

    def test_wrong_witness_does_not_exit_2(self, wrong_witness, tmp_path):
        (tmp_path / "space.json").write_text(json.dumps(
            {"kind": "formula-defined", "formula": "0 <= x - p",
             "objects": ["x"], "params": ["p"],
             "source": {"type": "sampled", "budget": 10}}))
        with pytest.raises(AssertionError):
            main(["vcdim", "--space", str(tmp_path / "space.json"),
                  "--pool", "1;2;3", "--out", str(tmp_path)])

    # Four points of the plane in general position for a * x + b * y <= 1.
    # With denominators dropped, the rows (1, 3, -1), (1, -4, -1) and
    # (1, -1, -1) of the first three are dependent, so the table is grown.
    FRACTIONAL_POOL = "-3,1/4;4,1/4;1/2,1;1,-4"

    def test_wrong_rows_raise_when_the_table_is_listed(
            self, denominators_dropped):
        """With denominators dropped from the rows FM eliminates, the grown
        table would list 10 of its 11 labelings; the kernel checks each
        point it finds against the atom's check rows and raises while the
        table is listed, before any witness is read."""
        ast = parse_formula("a * x + b * y <= 1", ["x", "y"], ["a", "b"])
        space = DefinableSpace(ast, SampledParams())
        pool = [Instance.point(*map(F, p.split(",")))
                for p in self.FRACTIONAL_POOL.split(";")]
        with pytest.raises(AssertionError,
                           match="witness failed verification"):
            list(space.dichotomies(pool))

    def test_wrong_rows_do_not_exit_2(self, denominators_dropped, tmp_path):
        with pytest.raises(AssertionError,
                           match="witness failed verification"):
            main(["formula", "space", "--text", "a * x + b * y <= 1",
                  "--objects", "x,y", "--params", "a,b",
                  f"--pool={self.FRACTIONAL_POOL}", "--out", str(tmp_path)])


def seed5_plane_pool() -> list[Instance]:
    """10 distinct integer points of [-50, 50]^2 drawn by Random(5)."""
    rng, pool = random.Random(5), []
    while len(pool) < 10:
        p = (rng.randint(-50, 50), rng.randint(-50, 50))
        if p not in pool:
            pool.append(p)
    return [Instance.point(*p) for p in pool]


HALFSPACE_TEXT = "0 <= w1 * x1 + w2 * x2 + b"


class TestAffineKernel:
    """An affine atom's table is ``AffineWitnesses`` over its rows in the
    declared parameters, the kernel ``HalfspaceSpace`` uses: rows of
    constant 0 with one parameter of one sign in every row are closed
    under complement, so a count solves only the realized prefixes of a
    grown tree, none in general position, and a witness read solves one
    system."""

    def test_halfspace_formula_solves_no_more_than_the_space(self,
                                                            fm_calls):
        pool = seed5_plane_pool()
        ast = parse_formula(HALFSPACE_TEXT, ["x1", "x2"], ["w1", "w2", "b"])
        verdict = vc_dimension(DefinableSpace(ast, SampledParams()), pool)
        formula_calls = len(fm_calls)
        fm_calls.clear()
        native = vc_dimension(HalfspaceSpace(2), pool)
        assert (verdict.value, verdict.status) == (native.value,
                                                   native.status) == (
            3, "exact")
        assert [(lab, h.key[1:]) for lab, h in verdict.witnesses.items()] \
            == [(lab, h.key[1:]) for lab, h in native.witnesses.items()]
        assert formula_calls <= len(fm_calls) == 8

    def test_rows_are_kept_for_the_space_lifetime(self, monkeypatch):
        """A second table over the same points, here in reverse order,
        evaluates the compiled term 0 times, and has the labelings and
        witnesses of a fresh space's table."""
        calls = []
        compile_term = vclab.formula._compile_term

        def counted(node, slots, const):
            term = compile_term(node, slots, const)

            def evaluate(x, w):
                calls.append(node)
                return term(x, w)
            return evaluate
        monkeypatch.setattr(vclab.formula, "_compile_term", counted)
        pool = seed5_plane_pool()
        ast = parse_formula(HALFSPACE_TEXT, ["x1", "x2"], ["w1", "w2", "b"])
        space = DefinableSpace(ast, SampledParams())
        assert len(space.dichotomies(pool)) > 0 and calls
        calls.clear()
        table = space.dichotomies(pool[::-1])
        assert len(table) > 0 and calls == []
        fresh = DefinableSpace(ast, SampledParams()).dichotomies(pool[::-1])
        assert [(lab, h.key) for lab, h in table.items()] == \
            [(lab, h.key) for lab, h in fresh.items()]

    def test_quadratic_threshold_solves_only_witness_reads(self, fm_calls):
        """Every subset of -3..3 is in general position, as every 3 of
        its rows (0, x*x, x, 1) are independent, so no count solves a
        system; the 8 reads of the shattered triple's witnesses solve one
        system each, and evaluate the formula once per point each."""
        ast = parse_formula("0 <= a * x * x + b * x + c", ["x"],
                            ["a", "b", "c"])
        space = DefinableSpace(ast, SampledParams())
        fills = count_atom_evaluations(space)
        verdict = vc_dimension(space, points(*range(-3, 4)))
        assert (verdict.value, verdict.status) == (3, "exact")
        assert len(fm_calls) == 8
        assert [counts.total() for counts in fills] == [1] * 8 * 3

    def test_mixed_signs_are_not_closed_under_complement(self):
        """0 <= p * x on {-1, 1}: both rows have constant 0, but p has no
        one sign, and p = 0 gives (1, 1) while no p gives (0, 0)."""
        space = DefinableSpace(parse_formula("0 <= p * x", ["x"], ["p"]),
                               SampledParams())
        pool = points(-1, 1)
        table = space.dichotomies(pool)
        assert list(table) == [(0, 1), (1, 0), (1, 1)]
        assert (0, 0) not in table and len(table) == 3
        for lab, h in table.items():
            assert tuple(h(x) for x in pool) == lab

    @pytest.mark.parametrize("coords, general", [
        ([(0, 0), (3, 1), (1, 4), (-1, 3), (4, -2), (6, 5)], True),
        ([(3, 3), (1, 1), (4, 2), (2, 5), (6, 6), (7, 2)], False)],
        ids=["mixed-signs", "positive-first-inside"])
    @pytest.mark.parametrize("params, index", [
        (("b", "w2", "w1"), (2, 1, 0)), (("w2", "b", "w1"), (1, 2, 0))])
    def test_declared_order_witnesses(self, fm_calls, monkeypatch, coords,
                                      general, params, index):
        """Six points, b declared before w1 (and, on the positive points,
        w1 of one sign in every row too; the first of them lies inside the
        others' hull, so its label 1 alone is not realized, nor is its
        label 0 with every other 1, and three of them lie on a line): the
        count of the points in general position makes no FM call; a count
        with general position unseen solves one system per realized prefix
        of the first five points with first bit 0; and every witness is
        the Fraction elimination's over the declared-order rows, in the
        native table's lexicographic order."""
        pool = [Instance.point(*p) for p in coords]
        ast = parse_formula(HALFSPACE_TEXT, ["x1", "x2"], params)
        grown = sum(len(sweep_table(coords[:j])) // 2 for j in range(1, 6))
        table = DefinableSpace(ast, SampledParams()).dichotomies(pool)
        assert len(fm_calls) == (0 if general else grown)
        assert list(table) == [lab for lab, _ in sweep_table(coords)]
        for lab, h in table.items():
            assert h.key[1:] == declared_fm_witness(pool, index, lab)
        monkeypatch.setattr(vclab.spaces, "_independent",
                            lambda rows, first: False)
        fm_calls.clear()
        DefinableSpace(ast, SampledParams()).dichotomies(pool)
        assert len(fm_calls) == grown

    def test_a_labeling_over_sauers_bound_raises(self, monkeypatch,
                                                 tmp_path):
        """The rows (x, -1) of 0 <= x - p have constants, so every
        labeling is grown; one extra makes 5 of 3 points, above
        sum_{i<=1} C(3, i) = 4, a bug and not bad input.  The points are
        in general position, so ``len`` is 4 and the first ``in`` raises;
        with general position unseen, ``growth`` raises."""
        tree = vclab.spaces._label_tree

        def extra(*args):
            grown = tree(*args)
            n = len(next(iter(grown)))
            missing = next(lab for lab in product((0, 1), repeat=n)
                           if lab not in grown)
            return {**grown, missing: None}
        monkeypatch.setattr(vclab.spaces, "_label_tree", extra)
        space = {"kind": "formula-defined", "formula": "0 <= x - p",
                 "objects": ["x"], "params": ["p"],
                 "source": {"type": "sampled", "budget": 10}}
        table = DefinableSpace(parse_formula("0 <= x - p", ["x"], ["p"]),
                               SampledParams(budget=10)
                               ).dichotomies(points(1, 2, 3))
        assert len(table) == 4
        with pytest.raises(AssertionError, match="5 labelings, Sauer's 4"):
            (0, 0, 0) in table
        monkeypatch.setattr(vclab.spaces, "_independent",
                            lambda rows, first: False)
        (tmp_path / "space.json").write_text(json.dumps(space))
        with pytest.raises(AssertionError, match="5 labelings, Sauer's 4"):
            main(["growth", "--space", str(tmp_path / "space.json"),
                  "--pool", "1;2;3", "--m", "3", "--out", str(tmp_path)])

    @pytest.mark.parametrize("pool, count", [
        ([(1, 0), (0, 1), (F(1, 2), F(1, 2))], 6), ([(1, 0), (2, 0)], 3)],
        ids=["concurrent-lines", "parallel-lines"])
    def test_a_degenerate_pool_is_grown(self, fm_calls, pool, count):
        """0 <= a*x + b*y - 1 gives each point the line a*x + b*y = 1 of
        (a, b).  The three lines of the first pool meet in (1, 1), and the
        two of the second are parallel, so neither pool is in general
        position: its table is grown, and its count is the sweep's, below
        Sauer's 7 and 4."""
        ast = parse_formula("0 <= a*x + b*y - 1", ["x", "y"], ["a", "b"])
        table = DefinableSpace(ast, SampledParams()).dichotomies(
            [Instance.point(*p) for p in pool])
        assert fm_calls
        assert len(table) == count == len(sweep_dichotomies(
            [(-1, p) for p in pool]))

    def test_a_four_parameter_atom_in_general_position(
            self, fm_calls, monkeypatch, tmp_path):
        """``growth --m 7`` of u <= a*x + b*y + c*z + d over 7 integer
        points of Q^4 drawn by Random(7) reads Sauer's sum_{i<=4} C(7, i) =
        99 with no FM call, the points being in general position (Buck);
        the table grown with general position unseen has 99 labelings
        too."""
        rng = random.Random(7)
        pool = ";".join(",".join(str(rng.randint(-20, 20)) for _ in range(4))
                        for _ in range(7))
        (tmp_path / "space.json").write_text(json.dumps(
            {"kind": "formula-defined", "formula": "u <= a*x + b*y + c*z + d",
             "objects": ["u", "x", "y", "z"], "params": ["a", "b", "c", "d"],
             "source": {"type": "sampled", "budget": 10}}))

        def growth():
            assert main(["growth", "--space", str(tmp_path / "space.json"),
                         f"--pool={pool}", "--m", "7", "--out",
                         str(tmp_path)]) == 0
            return json.loads((tmp_path / "report.json").read_text()
                              )["result"]["value"]
        assert growth() == 99 and fm_calls == []
        monkeypatch.setattr(vclab.spaces, "_independent",
                            lambda rows, first: False)
        assert growth() == 99 and fm_calls

AFFINE_PARAMS = ("a", "b", "c")
AFFINE_BASIS = ("x", "x * x", "1")
GRID_AXIS = [F(k, 2) for k in range(-3, 4)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_affine_oracle_against_grid_and_sauer(data):
    """Random atoms: each parameter times x, x * x or 1, an optional
    parameter-free addend on either side, < or <=, an optional not.  Every
    labeling that a rational parameter grid realizes is in the table, the
    table has at most sum_{i<=k} C(n, i) labelings (Sauer, an independent
    check of known_vc = k), and a VC dimension search never raises."""
    k = data.draw(st.integers(1, 3))
    addends = [f"{p} * {data.draw(st.sampled_from(AFFINE_BASIS))}"
               for p in AFFINE_PARAMS[:k]]
    free = data.draw(st.sampled_from(["0", "1", "x", "2 * x * x - 1"]))
    op = data.draw(st.sampled_from(["<", "<="]))
    sides = [" + ".join(addends), free]
    if data.draw(st.booleans()):
        sides.reverse()
    text = f"{sides[0]} {op} {sides[1]}"
    if data.draw(st.booleans()):
        text = f"not ({text})"
    ast = parse_formula(text, ["x"], AFFINE_PARAMS[:k])
    assert recognize_closed_form(ast).space.known_vc() == k
    xs = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5,
                            unique=True))
    pool = points(*xs)
    space = DefinableSpace(ast, SampledParams(budget=10))
    table = space.dichotomies(pool)
    assert space.oracle_exact
    predicate = compile_formula(ast)
    grid = {tuple(1 if predicate(x.coords, w) else 0 for x in pool)
            for w in product(GRID_AXIS, repeat=k)}
    assert grid <= set(table), text
    assert len(table) <= sum(math.comb(len(pool), i) for i in range(k + 1))
    vc_dimension(space, pool)


def sampled_shatters(ast, instances, budget, seed=0):
    """Shattering over the formula's full parameter range, searched with
    the given budget where no closed form answers exactly."""
    return shatters(DefinableSpace(ast, SampledParams(budget, seed)),
                    points(*instances))


class TestShatterSearch:
    def test_cosingleton_pair_not_shattered(self):
        ast = parse_formula("x != p", ["x"], ["p"])
        verdict = sampled_shatters(ast, [1, 2], budget=400)
        assert verdict.status == "not-shattered"
        assert verdict.witnesses is None

    def test_threshold_singleton_shattered(self):
        ast = parse_formula("p <= x", ["x"], ["p"])
        verdict = sampled_shatters(ast, [1], budget=100)
        assert verdict.shattered
        predicate = compile_formula(ast)
        for labeling, h in verdict.witnesses.items():
            assert (predicate((F(1),), h.key[1:]),) == (bool(labeling[0]),)

    def test_beyond_known_vc_not_shattered(self):
        ast = parse_formula("p <= x", ["x"], ["p"])
        verdict = sampled_shatters(ast, [1, 2], budget=500)
        assert verdict.status == "not-shattered"
        ast2 = parse_formula("a <= x and x <= b", ["x"], ["a", "b"])
        verdict2 = sampled_shatters(ast2, [1, 2, 3], budget=800)
        assert verdict2.status == "not-shattered"

    def test_interval_pair_shattered(self):
        ast = parse_formula("a <= x and x <= b", ["x"], ["a", "b"])
        verdict = sampled_shatters(ast, [1, 2], budget=500)
        assert verdict.shattered

    def test_soundness_of_shattered_verdicts(self):
        rng = random.Random(14)
        pool = [
            ("x != p", ("x",), ("p",)),
            ("p <= x", ("x",), ("p",)),
            ("a <= x and x <= b", ("x",), ("a", "b")),
            ("0 <= w * x + b", ("x",), ("w", "b")),
        ]
        found = 0
        for _ in range(60):
            text, objects, params = rng.choice(pool)
            ast = parse_formula(text, objects, params)
            k = rng.randint(1, 2)
            instances = rng.sample(range(-3, 6), k)
            verdict = sampled_shatters(ast, instances, budget=400,
                                       seed=rng.randint(0, 99))
            if not verdict.shattered:
                continue
            found += 1
            predicate = compile_formula(ast)
            for labeling, h in verdict.witnesses.items():
                got = tuple(1 if predicate((F(v),), h.key[1:]) else 0
                            for v in instances)
                assert got == labeling
        assert found >= 20

    def test_grid_consistency_with_finite_class_vc(self):
        """Over the same finite parameter grid, explicit-family VC equals the
        largest size of a shattered instance set."""
        ast = parse_formula("x != p", ["x"], ["p"])
        space = DefinableSpace(ast, ExplicitParams.grid([[1, 2, 3]]))
        pool = points(1, 2, 3)
        vc = vc_dimension(space, pool).value
        largest = 0
        from itertools import combinations
        for size in range(1, len(pool) + 1):
            if not any(shatters(space, subset).shattered
                       for subset in combinations(pool, size)):
                break
            largest = size
        assert vc == largest == 1
