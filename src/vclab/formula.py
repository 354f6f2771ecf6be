"""Quantifier-free formula DSL over ordered exponential arithmetic.

Partitioned formulas phi(x_1..x_n; p_1..p_l) with object and parameter
variables, rational constants, +, -, *, exp, the comparisons < <= = !=, and
the connectives ``and or not ->``.  Parsing produces a typed AST that
round-trips through :func:`format_formula`; evaluation runs on an exact
rational backend (exp-free formulas only) or an IEEE double backend with
strict comparisons.

A formula plus a parameter source induces a hypothesis space of indicator
functions.  A finite source is one sorted list of parameter tuples (a grid
is the list of its product), and its restriction oracle is exact on the
exact backend; no oracle of the float backend, whose doubles may round a
comparison the wrong way, is claimed exact.  Over a sampled source on the
exact backend, a recognized closed form is a space that answers for the
formula's: the threshold, interval and co-singleton shapes are their
native spaces, and a single < or <= atom (or its negation) affine in the
parameters is an ``AffineSpace``, decided by Fourier-Motzkin elimination
over them; each witness is checked by the formula when a table read or
``least_wrong`` returns it.  Otherwise parameter search yields verified
subsets only, claimed exact only with no parameters, whose one tuple ()
search lists.  Every other restriction maps each labeling to the least
tuple of a candidate list that gives it, read off per-point label
columns by ``model.split_columns``; a column is filled
in one pass over all the candidates, atom by atom, each comparison
evaluated at most once per group of candidates agreeing on the
parameters it reads.  Shattering is decided by
``combinatorics.shatters`` on that space, like VC dimension and growth.
"""

from __future__ import annotations

import math
import operator
import random
import re
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from functools import reduce
from itertools import product, repeat, zip_longest

from .model import (
    Hypothesis,
    HypothesisSpace,
    Instance,
    Labeling,
    LazyWitnesses,
    Record,
    _rounded,
    check_instance_tuple,
    split_columns,
    to_fraction,
)
from .spaces import AffineSpace, CoSingletonSpace, IntervalSpace, ThresholdSpace


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        self.line = text.count("\n", 0, pos) + 1
        self.col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {self.line}, column {self.col})")


class BackendError(FormulaError):
    pass


# ---------------------------------------------------------------------------
# AST


class Const(Record):
    value: Fraction


class Var(Record):
    name: str
    pos: int = -1
    _not_compared = ("pos",)


class Add(Record):
    left: object
    right: object


class Sub(Record):
    left: object
    right: object


class Mul(Record):
    left: object
    right: object


class Neg(Record):
    term: object


class Exp(Record):
    term: object


class Cmp(Record):
    op: str  # one of < <= = !=
    left: object
    right: object


class Not(Record):
    child: object


class And(Record):
    left: object
    right: object


class Or(Record):
    left: object
    right: object


class Implies(Record):
    left: object
    right: object


class FormulaAst(Record):
    """A parsed partitioned formula: object variables, parameter variables,
    and the root node."""

    objects: tuple[str, ...]
    params: tuple[str, ...]
    root: object

    @property
    def arity(self) -> int:
        return len(self.objects)

    @property
    def param_arity(self) -> int:
        return len(self.params)

    @property
    def uses_exp(self) -> bool:
        return any(isinstance(n, Exp) for n in walk(self.root))

    @property
    def default_backend(self) -> str:
        """The backend used when none is named: ``float`` if the formula
        uses ``exp``, which the exact backend cannot evaluate, else
        ``exact``."""
        return FLOAT if self.uses_exp else EXACT


def walk(node) -> Iterator:
    yield node
    for attr in ("left", "right", "child", "term"):
        sub = getattr(node, attr, None)
        if sub is not None:
            yield from walk(sub)


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|<=|!=|[<=+\-*()])
""", re.VERBOSE)

_KEYWORDS = {"and", "or", "not", "exp"}
_QUANTIFIERS = {"forall", "exists"}
RESERVED_WORDS = _KEYWORDS | _QUANTIFIERS


class _Token(Record):
    kind: str  # num | ident | keyword | op | end
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        value = m.group()
        kind = m.lastgroup
        if kind == "ident":
            if value in _QUANTIFIERS:
                raise ParseError(
                    "quantifiers are not supported: only quantifier-free "
                    "formulas can be evaluated", text, pos)
            if value in _KEYWORDS:
                kind = "keyword"
        tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent; one backtrack point for '(' ambiguity)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, self.text, tok.pos)

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            self.error(f"expected {op!r}")
        return self.next()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in ops

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value == word

    # formula precedence: -> (right) < or < and < not < comparison

    def parse_formula(self):
        left = self.parse_or()
        if self.at_op("->"):
            self.next()
            return Implies(left, self.parse_formula())
        return left

    def parse_or(self):
        node = self.parse_and()
        while self.at_keyword("or"):
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.at_keyword("and"):
            self.next()
            node = And(node, self.parse_not())
        return node

    def parse_not(self):
        if self.at_keyword("not"):
            self.next()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self):
        if self.at_op("("):
            saved = self.i
            try:
                self.next()
                node = self.parse_formula()
                self.expect_op(")")
                return node
            except ParseError:
                self.i = saved  # '(' opened a term, not a formula
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_term()
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("<", "<=", "=", "!="):
            self.next()
            return Cmp(tok.value, left, self.parse_term())
        self.error("expected a comparison operator (< <= = !=)")

    # term precedence: +,- < * < unary - < primary

    def parse_term(self):
        node = self.parse_factor()
        while self.at_op("+", "-"):
            op = self.next().value
            right = self.parse_factor()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def parse_factor(self):
        node = self.parse_unary()
        while self.at_op("*"):
            self.next()
            node = Mul(node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.at_op("-"):
            self.next()
            return Neg(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            try:
                return Const(Fraction(tok.value))
            except ZeroDivisionError:
                self.error("rational literal with zero denominator", tok)
        if tok.kind == "ident":
            self.next()
            return Var(tok.value, tok.pos)
        if tok.kind == "keyword" and tok.value == "exp":
            self.next()
            self.expect_op("(")
            inner = self.parse_term()
            self.expect_op(")")
            return Exp(inner)
        if tok.kind == "op" and tok.value == "(":
            self.next()
            inner = self.parse_term()
            self.expect_op(")")
            return inner
        self.error("expected a term")


def parse_formula(text: str, objects: Sequence[str],
                  params: Sequence[str] = ()) -> FormulaAst:
    """Parse a partitioned formula; every variable occurring in the text
    must be declared in exactly one of the two partitions."""
    objects = tuple(objects)
    params = tuple(params)
    declared = set(objects) | set(params)
    if len(declared) != len(objects) + len(params):
        raise FormulaError("object and parameter variables must be "
                           "pairwise distinct")
    bad = declared & RESERVED_WORDS
    if bad:
        raise FormulaError(f"reserved words cannot be variables: {sorted(bad)}")
    parser = _Parser(text)
    root = parser.parse_formula()
    tail = parser.peek()
    if tail.kind != "end":
        parser.error(f"unexpected trailing input {tail.value!r}", tail)
    for node in walk(root):
        if isinstance(node, Var) and node.name not in declared:
            raise ParseError(f"undeclared variable {node.name!r}",
                             text, node.pos)
    return FormulaAst(objects=objects, params=params, root=root)


# ---------------------------------------------------------------------------
# Formatter (minimal parentheses, preserves tree shape on reparse)

_F_LEVEL = {Implies: 1, Or: 2, And: 3, Not: 4, Cmp: 5}
_T_LEVEL = {Add: 1, Sub: 1, Mul: 2, Neg: 3, Const: 4, Var: 4, Exp: 4}


def _fmt_formula(node, minimum: int) -> str:
    level = _F_LEVEL[type(node)]
    if isinstance(node, Implies):
        body = f"{_fmt_formula(node.left, 2)} -> {_fmt_formula(node.right, 1)}"
    elif isinstance(node, Or):
        body = f"{_fmt_formula(node.left, 2)} or {_fmt_formula(node.right, 3)}"
    elif isinstance(node, And):
        body = f"{_fmt_formula(node.left, 3)} and {_fmt_formula(node.right, 4)}"
    elif isinstance(node, Not):
        body = f"not {_fmt_formula(node.child, 4)}"
    else:
        body = f"{_fmt_term(node.left, 1)} {node.op} {_fmt_term(node.right, 1)}"
    return f"({body})" if level < minimum else body


def _fmt_term(node, minimum: int) -> str:
    level = _T_LEVEL[type(node)]
    if isinstance(node, Const):
        body = str(node.value)
        if node.value < 0:
            body = f"({body})"  # manual ASTs only; parser never builds these
    elif isinstance(node, Var):
        body = node.name
    elif isinstance(node, Add):
        body = f"{_fmt_term(node.left, 1)} + {_fmt_term(node.right, 2)}"
    elif isinstance(node, Sub):
        body = f"{_fmt_term(node.left, 1)} - {_fmt_term(node.right, 2)}"
    elif isinstance(node, Mul):
        body = f"{_fmt_term(node.left, 2)} * {_fmt_term(node.right, 3)}"
    elif isinstance(node, Neg):
        body = f"-{_fmt_term(node.term, 3)}"
    else:
        body = f"exp({_fmt_term(node.term, 1)})"
    return f"({body})" if level < minimum else body


def format_formula(ast: FormulaAst) -> str:
    return _fmt_formula(ast.root, 1)


# ---------------------------------------------------------------------------
# Evaluation

EXACT = "exact"
FLOAT = "float"


def _exp_overflow_safe(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
            "!=": operator.ne}


def _slots(ast: FormulaAst) -> dict[str, tuple[int, int]]:
    """Each variable's place: (1 if a parameter, index in x or in w)."""
    return {name: (in_w, i) for in_w, names in enumerate(
        (ast.objects, ast.params)) for i, name in enumerate(names)}


def _compile_term(node, slots, const):
    """A term as a function of a point x and a parameter tuple w."""
    if isinstance(node, Const):
        value = const(node.value)
        return lambda x, w: value
    if isinstance(node, Var):
        in_w, i = slots[node.name]
        return (lambda x, w: w[i]) if in_w else (lambda x, w: x[i])
    if isinstance(node, Neg):
        f = _compile_term(node.term, slots, const)
        return lambda x, w: -f(x, w)
    if isinstance(node, Exp):
        f = _compile_term(node.term, slots, const)
        return lambda x, w: _exp_overflow_safe(f(x, w))
    op = _BINARY.get(type(node))
    if op is None:
        raise TypeError(f"not a term node: {node!r}")
    f = _compile_term(node.left, slots, const)
    g = _compile_term(node.right, slots, const)
    return lambda x, w: op(f(x, w), g(x, w))


def _compile_node(node, slots, const, atoms):
    """A formula node as a mask function ``(x, bound, care) -> mask``: the
    candidates in the bit mask ``care`` at which it holds on point x.  Each
    atom is appended to ``atoms`` as ``(test(x, w), parameter slots it
    reads)``; atom k tests once per group ``(w, bits)`` of ``bound[k]``
    that meets ``care``.  The right side of ``and`` and ``->`` is evaluated
    only where the left holds, that of ``or`` only where it fails."""
    if isinstance(node, Cmp):
        k, op = len(atoms), _COMPARE[node.op]
        f = _compile_term(node.left, slots, const)
        g = _compile_term(node.right, slots, const)
        reads = sorted({slots[v.name][1] for v in walk(node)
                        if isinstance(v, Var) and slots[v.name][0]})
        atoms.append((lambda x, w: op(f(x, w), g(x, w)), tuple(reads)))

        def atom(x, bound, care):
            test, groups = bound[k]
            out = 0
            for w, bits in groups:
                hit = bits & care
                if hit and test(x, w):
                    out |= hit
            return out

        return atom
    if isinstance(node, Not):
        f = _compile_node(node.child, slots, const, atoms)
        return lambda x, bound, care: care & ~f(x, bound, care)
    if not isinstance(node, (And, Or, Implies)):
        raise TypeError(f"not a formula node: {node!r}")
    f = _compile_node(node.left, slots, const, atoms)
    g = _compile_node(node.right, slots, const, atoms)
    if isinstance(node, Or):
        def either(x, bound, care):
            left = f(x, bound, care)
            rest = care & ~left
            return (left | g(x, bound, rest)) if rest else left
        return either
    if isinstance(node, And):
        def both(x, bound, care):
            left = f(x, bound, care)
            return g(x, bound, left) if left else 0
        return both

    def implies(x, bound, care):
        left = f(x, bound, care)
        return (care & ~left | g(x, bound, left)) if left else care
    return implies


def _single(atoms, w) -> list:
    """``bound`` for the one candidate w, as bit 0."""
    return [(test, ((w, 1),)) for test, _ in atoms]


def _compile(ast: FormulaAst, backend: str) -> tuple[Callable, Callable, list]:
    """The formula compiled once for a backend, as ``(convert, evaluate,
    atoms)``: ``convert`` reads one input value, or a constant, as a value
    of the backend (an exact rational, or ``model._rounded``'s double:
    the nearest, or an infinity past the largest), ``evaluate`` is the
    root's mask function (see :func:`_compile_node`) on converted values,
    checking nothing, and ``atoms`` lists its atoms' ``(test, reads)``.
    The backend, and whether it can evaluate ``exp``, are checked here."""
    if backend not in (EXACT, FLOAT):
        raise BackendError(f"unknown backend {backend!r}")
    if backend == EXACT and ast.uses_exp:
        raise BackendError(
            "the exact backend cannot evaluate exp; use backend='float'")
    convert = to_fraction if backend == EXACT else (
        lambda v: _rounded(to_fraction(v)))
    atoms = []
    return convert, _compile_node(ast.root, _slots(ast), convert, atoms), atoms


def compile_formula(ast: FormulaAst, backend: str = EXACT
                    ) -> Callable[[Sequence, Sequence], bool]:
    """Compile the formula once into a predicate ``(x, w) -> bool``.

    The backend, and whether it can evaluate ``exp``, are checked here; the
    predicate checks the lengths of x and w.  Every input value is first
    read as an exact rational (so both backends accept the same inputs,
    "1/3" included); the float backend then rounds it once to the nearest
    double, an infinity past the largest.  Operations run in tree order on
    both backends.  The predicate converts its inputs on every call and
    evaluates the compiled formula on one candidate; ``DefinableSpace``
    converts each point and parameter tuple once and evaluates the same
    atoms over many candidates.
    """
    convert, evaluate, atoms = _compile(ast, backend)
    arity, param_arity = ast.arity, ast.param_arity

    def predicate(x: Sequence, w: Sequence) -> bool:
        if len(x) != arity:
            raise ValueError(f"expected {arity} object values, got {len(x)}")
        if len(w) != param_arity:
            raise ValueError(f"expected {param_arity} parameter values, "
                             f"got {len(w)}")
        return evaluate(tuple(map(convert, x)),
                        _single(atoms, tuple(map(convert, w))), 1) == 1

    return predicate


# ---------------------------------------------------------------------------
# Closed-form recognition


class _ClosedForm(Record):
    """A recognized shape: its space over the full parameter range, and
    ``params``, which turns that space's witness key into the formula's
    parameters in declared order."""

    name: str
    space: HypothesisSpace
    params: Callable


def _match_var(node, names) -> str | None:
    if isinstance(node, Var) and node.name in names:
        return node.name
    return None


def _param_degree(node, params) -> int:
    """The degree in the parameters of an exp-free term, read off its
    syntax: an upper bound, since addends that cancel are still counted."""
    if isinstance(node, Var):
        return 1 if node.name in params else 0
    if isinstance(node, Const):
        return 0
    if isinstance(node, Neg):
        return _param_degree(node.term, params)
    left = _param_degree(node.left, params)
    right = _param_degree(node.right, params)
    return left + right if isinstance(node, Mul) else max(left, right)


def _affine(ast: FormulaAst) -> _ClosedForm | None:
    """A single < or <= atom, or its negation, affine in its k >= 1
    parameters: u(x, w) >= 0 (> 0 when strict), each point giving the row
    (u(x, 0), u(x, e_1) - u(x, 0), ...) of an ``AffineSpace`` in k
    variables, whose witness key is w itself.  Its VC dimension is at
    most k (Dudley 1978): on k + 1 points the vectors (u(x_j, w))_j lie in
    an affine subspace of dimension <= k, so some c != 0 has c . u constant
    there, and labeling each x_j against the sign of c_j gives an orthant
    that misses it."""
    root, negated = ast.root, False
    while isinstance(root, Not):
        root, negated = root.child, not negated
    k = ast.param_arity
    if (ast.uses_exp or k == 0 or not isinstance(root, Cmp)
            or root.op not in ("<", "<=")):
        return None
    # s <= t is 0 <= t - s; not (s <= t) is 0 < s - t.
    low, high = (root.right, root.left) if negated else (root.left, root.right)
    strict = (root.op == "<") != negated
    u = Sub(high, low)
    if _param_degree(u, set(ast.params)) > 1:
        return None
    term = _compile_term(u, _slots(ast), to_fraction)
    # w = 0, then each unit vector e_i.
    units = [[int(i == j) for j in range(k)] for i in range(-1, k)]

    def row(x):
        const, *values = [term(x.coords, w) for w in units]
        return const, [v - const for v in values], strict

    return _ClosedForm("affine", AffineSpace(row, k), tuple)


def recognize_closed_form(ast: FormulaAst) -> _ClosedForm | None:
    """Detect formulas whose full parameter range has an exact restriction
    oracle: the native co-singleton, threshold and interval shapes, then
    any single comparison affine in the parameters."""
    objects, params = set(ast.objects), set(ast.params)
    order = {name: i for i, name in enumerate(ast.params)}
    root = ast.root

    if ast.arity == 1 and ast.param_arity == 1 and isinstance(root, Cmp):
        left_obj = _match_var(root.left, objects)
        right_obj = _match_var(root.right, objects)
        left_par = _match_var(root.left, params)
        right_par = _match_var(root.right, params)
        if root.op == "!=" and (
                (left_obj and right_par) or (left_par and right_obj)):
            return _ClosedForm("co-singleton", CoSingletonSpace(),
                               lambda w: (w,))
        if root.op == "<=" and left_par and right_obj:
            return _ClosedForm("threshold", ThresholdSpace(), lambda w: (w,))

    if (ast.arity == 1 and ast.param_arity == 2 and isinstance(root, And)
            and isinstance(root.left, Cmp) and isinstance(root.right, Cmp)
            and root.left.op == "<=" and root.right.op == "<="):
        lo = _match_var(root.left.left, params)
        x1 = _match_var(root.left.right, objects)
        x2 = _match_var(root.right.left, objects)
        hi = _match_var(root.right.right, params)
        if lo and hi and x1 and x2 and x1 == x2 and lo != hi:
            return _ClosedForm("interval", IntervalSpace(), lambda key: (
                key if order[lo] < order[hi] else key[::-1]))
    return _affine(ast)


# ---------------------------------------------------------------------------
# Parameter sources and definable hypothesis spaces


class ExplicitParams(Record):
    """A finite parameter family: its tuples, sorted and deduplicated, and
    each tuple's integer key: per coordinate, its numerator over that
    coordinate's lcm of denominators in ``scales``.  Keys order and tell
    apart the tuples as the tuples do, and hash as plain integers."""

    tuples: tuple[tuple[Fraction, ...], ...]
    keys: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]
    _not_compared = _not_shown = ("keys", "scales")

    @staticmethod
    def of(tuples: Sequence[Sequence]) -> "ExplicitParams":
        """Sorted and deduplicated on the integer keys."""
        out = [tuple(to_fraction(v) for v in t) for t in tuples]
        if not out:
            raise ValueError("parameter list must be non-empty")
        scales = tuple([math.lcm(*[v.denominator for v in column]) for column
                        in zip_longest(*out, fillvalue=Fraction(0))])
        keyed = {tuple([v.numerator * (s // v.denominator)
                        for v, s in zip(t, scales)]): t for t in out}
        keys = sorted(keyed)
        return ExplicitParams(tuple([keyed[k] for k in keys]), tuple(keys),
                              scales)

    @staticmethod
    def grid(axes: Sequence[Sequence]) -> "ExplicitParams":
        """A rectangular grid, one axis of values per parameter variable,
        listed as its product: sorted and distinct, as each axis is, and
        keyed as the product of the axes' keys."""
        axes = [sorted({to_fraction(v) for v in axis}) for axis in axes]
        if not axes or not all(axes):
            raise ValueError("every grid axis needs at least one value")
        scales = tuple([math.lcm(*[v.denominator for v in axis])
                        for axis in axes])
        keys = [[v.numerator * (s // v.denominator) for v in axis]
                for axis, s in zip(axes, scales)]
        return ExplicitParams(tuple(product(*axes)), tuple(product(*keys)),
                              scales)


class SampledParams(Record):
    """The full parameter space, explored by seeded random search within a
    budget.  Induced oracles are exact only for recognized closed forms."""

    budget: int = 2000
    seed: int = 0
    low: float = -10.0
    high: float = 10.0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"a sampled parameter source needs a budget "
                             f">= 1, got {self.budget}")


ParamSource = ExplicitParams | SampledParams


class DefinableSpace(HypothesisSpace):
    """Indicator functions 1[phi(. ; w)] of a formula, over a parameter
    source.

    Over a sampled source on the exact backend, the space of a recognized
    closed form answers ``dichotomies``, ``_least`` and ``known_vc``, and
    each witness key it gives, read from a table or returned by
    ``least_wrong``, is checked by the formula (:meth:`_witness`).
    Every other restriction goes through :meth:`_least_witnesses` on a
    list of candidate tuples: the source's tuples or those of search.
    Over an explicit source, the space groups the tuples once, when it is
    built: per atom, the tuples whose integer keys agree on the parameters
    it reads, each group's first tuple converted to the backend.  It keeps
    for its whole lifetime the label column of every instance it is asked
    about, keyed by the instance (which hashes its coordinates once): an
    atom is evaluated at most once per point and group (over a grid, once
    per value of what it reads), and a query hashes no ``Fraction``.
    Search's list gets columns that last one query, each tuple its own
    group.  Truth values are the public predicate's.  The oracle is exact
    over an explicit source, a closed form or no parameters, and only on
    the exact backend: a double may put a point on the wrong side.
    """

    kind = "formula-defined"

    def __init__(self, ast: FormulaAst, source: ParamSource,
                 backend: str | None = None):
        if backend is None:
            backend = ast.default_backend
        self._convert, self._evaluate, self._atoms = _compile(ast, backend)
        self.ast = ast
        self.source = source
        self.backend = backend
        self.closed_form = (recognize_closed_form(ast) if backend == EXACT
                            and isinstance(source, SampledParams) else None)
        # per atom, the groups of an explicit source's tuples whose integer
        # keys agree on the parameters it reads, each [first tuple
        # converted, bits]; and instance -> label column
        self._groups: list[list] = []
        self._columns: dict[Instance, int] = {}
        if isinstance(source, ExplicitParams):
            if set(map(len, source.keys)) != {ast.param_arity}:
                raise ValueError("parameter tuples must match the parameter "
                                 "arity")
            for _, reads in self._atoms:
                key = operator.itemgetter(*reads) if reads else lambda k: ()
                by_key = {}
                for j, k in enumerate(map(key, source.keys)):
                    if group := by_key.get(k):
                        group[1] |= 1 << j
                    else:
                        by_key[k] = [tuple(map(self._convert,
                                               source.tuples[j])), 1 << j]
                self._groups.append(list(by_key.values()))

    @property
    def oracle_exact(self) -> bool:
        return self.backend == EXACT and (
            isinstance(self.source, ExplicitParams)
            or self.closed_form is not None or self.ast.param_arity == 0)

    def known_vc(self) -> int | None:
        return (self.closed_form.space.known_vc() if self.closed_form
                else None if self.ast.param_arity else 0)

    def hypothesis(self, w: Sequence) -> Hypothesis:
        w = tuple(to_fraction(v) for v in w)
        if len(w) != self.ast.param_arity:
            raise ValueError("parameter tuple has wrong arity")
        arity, convert = self.ast.arity, self._convert
        evaluate = self._evaluate
        bound = _single(self._atoms, tuple(map(convert, w)))

        def fn(x: Instance) -> int:
            coords = x.coords
            if len(coords) != arity:
                raise ValueError(f"instance {x} does not have arity {arity}")
            return evaluate(tuple(map(convert, coords)), bound, 1)

        return Hypothesis(key=("formula",) + w, fn=fn)

    def hypotheses(self) -> Iterator[Hypothesis]:
        if isinstance(self.source, SampledParams):
            raise TypeError("the sampled parameter space is not finitely "
                            "enumerable")
        for w in self.source.tuples:
            yield self.hypothesis(w)

    def _least_witnesses(self, instances: Sequence[Instance],
                         candidates: Sequence[tuple[Fraction, ...]] | None
                         = None) -> dict[Labeling, tuple[Fraction, ...]]:
        """Map each labeling of the instances to the least candidate that
        gives it, in order of that candidate: the source's tuples when
        ``candidates`` is None, else the given list.  An instance's column
        holds its labels over all the candidates (bit j for the j-th),
        filled in one pass over the groups the space made when it was
        built; the space keeps the columns.  A given list gets columns for
        this query only, each candidate its own group."""
        convert, evaluate = self._convert, self._evaluate
        if candidates is None:
            candidates, columns, groups = (self.source.tuples, self._columns,
                                           self._groups)
        else:
            columns, groups = {}, repeat([(tuple(map(convert, w)), 1 << j)
                                          for j, w in enumerate(candidates)])
        bound = [(test, g) for (test, _), g in zip(self._atoms, groups)]
        care = (1 << len(candidates)) - 1
        for x in instances:
            if x not in columns:
                columns[x] = evaluate(tuple(map(convert, x.coords)), bound,
                                      care)
        return split_columns([columns[x] for x in instances], candidates)

    def _checked(self, instances: Sequence[Instance]) -> tuple[Instance, ...]:
        instances = check_instance_tuple(instances)
        for x in instances:
            if len(x.coords) != self.ast.arity:
                raise ValueError(f"instance {x} does not have arity "
                                 f"{self.ast.arity}")
        return instances

    def dichotomies(self, instances: Sequence[Instance]) -> LazyWitnesses:
        instances = self._checked(instances)
        if self.closed_form is not None:
            found = self.closed_form.space.dichotomies(instances).witness_keys
        elif isinstance(self.source, ExplicitParams):
            found = self._least_witnesses(instances)
        else:
            found = self._least_witnesses(instances, list(_candidate_parameters(
                self.ast, [x.coords for x in instances], self.source)))
        return LazyWitnesses(found, self._witness, instances)

    def _least(self, instances, costs):
        if self.closed_form is None:
            return super()._least(instances, costs)
        return self.closed_form.space._least(self._checked(instances), costs)

    def _witness(self, instances, labeling, key) -> Hypothesis:
        """The hypothesis of the witness key; a closed form's key is its
        space's, moved to the declared parameters, and the formula,
        evaluated at every instance once, must give the labeling."""
        if self.closed_form is None:
            return self.hypothesis_from_key(key)
        h = self.hypothesis_from_key(self.closed_form.params(key))
        if tuple(map(h, instances)) != labeling:
            raise AssertionError(f"{self.closed_form.name} witnesses disagree "
                                 f"with the formula")
        return h


# ---------------------------------------------------------------------------
# Parameter search over the sampled source


def _candidate_parameters(ast: FormulaAst, points, source: SampledParams
                          ) -> Iterator[tuple[Fraction, ...]]:
    """Up to ``source.budget`` parameter tuples: the full product of an
    axis through the points' coordinates, their midpoints, 0, 1, -1 and
    one step beyond each end when it fits the budget, then seeded uniform
    draws; a draw range that is not finite is a ``ValueError``."""
    arity = ast.param_arity
    if arity == 0:
        yield ()
        return
    coord_values = sorted({c for p in points for c in p})
    axis = set(coord_values) | {Fraction(0), Fraction(1), Fraction(-1)}
    for a, b in zip(coord_values, coord_values[1:]):
        axis.add((a + b) / 2)
    if coord_values:
        axis.add(coord_values[0] - 1)
        axis.add(coord_values[-1] + 1)
    axis = sorted(axis)
    emitted = 0
    if len(axis) ** arity <= source.budget:
        for w in product(axis, repeat=arity):
            emitted += 1
            yield w

    rng = random.Random(source.seed)
    lo = min(source.low, _rounded(coord_values[0]) - 2) if coord_values else source.low
    hi = max(source.high, _rounded(coord_values[-1]) + 2) if coord_values else source.high
    if emitted < source.budget and not math.isfinite(hi - lo):
        raise ValueError(f"cannot draw parameters from [{lo}, {hi}]: the "
                         f"range is not finite")
    while emitted < source.budget:
        emitted += 1
        yield tuple(Fraction(rng.uniform(lo, hi)) for _ in range(arity))


# ---------------------------------------------------------------------------
# Builders for the worked classifier families


def relu_graph_formula() -> FormulaAst:
    """The graph of max(0, x) as a parameter-free formula in (x, y)."""
    return parse_formula("(x < 0 -> y = 0) and (0 <= x -> y = x)",
                         objects=("x", "y"))


def sigmoid_network_formula(n_inputs: int, hidden_units: int) -> FormulaAst:
    """Thresholded two-layer sigmoid network as a formula over exp.

    Hypotheses are 1[u0 + sum_i u_i * s(v_i . x + v_i_0) >= 0] with
    s(t) = 1/(1 + exp(-t)).  The DSL has no division, so the inequality is
    emitted with denominators cleared: multiplying through by the positive
    product of all (1 + exp(-t_i)) factors preserves the sign.
    """
    if n_inputs < 1 or hidden_units < 1:
        raise ValueError("need n_inputs >= 1 and hidden_units >= 1")
    xs = tuple(f"x{j}" for j in range(1, n_inputs + 1))
    us = tuple(f"u{i}" for i in range(hidden_units + 1))
    vs = tuple(f"v{i}_{j}" for i in range(1, hidden_units + 1)
               for j in range(n_inputs + 1))
    params = us + vs

    def pre_activation(i: int):
        term = Var(f"v{i}_0")
        for j in range(1, n_inputs + 1):
            term = Add(term, Mul(Var(f"v{i}_{j}"), Var(f"x{j}")))
        return term

    def factor(i: int):
        return Add(Const(Fraction(1)), Exp(Neg(pre_activation(i))))

    all_factors = [factor(i) for i in range(1, hidden_units + 1)]
    total = Mul(Var("u0"), reduce(Mul, all_factors))
    for i in range(1, hidden_units + 1):
        others = [all_factors[j - 1] for j in range(1, hidden_units + 1)
                  if j != i]
        contribution = (Mul(Var(f"u{i}"), reduce(Mul, others)) if others
                        else Var(f"u{i}"))
        total = Add(total, contribution)
    root = Cmp("<=", Const(Fraction(0)), total)
    return FormulaAst(objects=xs, params=params, root=root)
