"""Parameterized classifier families over the rationals with exact
closed-form restriction oracles.

Each family enumerates, for a finite instance set, every realized labeling
together with a witness parameter chosen by a fixed rule, exactly:

* thresholds        h_w(x) = 1  iff  x >= w
* intervals         h_{a,b}(x) = 1  iff  a <= x <= b          (a <= b)
* co-singletons     h_w(x) = 1  iff  x != w
* halfspaces        h_{w,b}(x) = 1  iff  w . x + b >= 0

Threshold, interval and co-singleton enumeration is combinatorial on the
sorted points.  ``halfspace_dichotomies`` takes affine functions of the
parameters (the rows (x, 1) of halfspaces, or a formula atom affine in
its parameters) and decides each candidate labeling by exact
Fourier-Motzkin elimination (strict inequalities included) on primitive
integer rows, each built once for all labelings, which also produces an
exact rational witness.  Elimination and back-substitution both run in
integers; a ``Fraction`` is built only for the value chosen per variable.
``HalfspaceSpace`` solves only the labelings whose first bit is 0: the
halfspace labelings of a finite point set are closed under complement, so
each complement is known to be realized, and its witness is eliminated
when it is first read.  Every witness is checked again in integers when it
is solved, against rows built apart from the ones the elimination uses;
the table keeps parameter tuples and builds a ``Hypothesis`` only when a
witness is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Callable, Iterator, Mapping, Sequence

from .model import (
    DichotomyTable,
    Hypothesis,
    HypothesisSpace,
    Instance,
    Labeling,
    check_instance_tuple,
    to_fraction,
)


def _scalars(instances: Sequence[Instance]) -> list[Fraction]:
    return [x.scalar for x in instances]


def _argsort(values: list[Fraction]) -> tuple[list[Fraction], list[int]]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    return [values[i] for i in order], order


# ---------------------------------------------------------------------------
# Combinatorial enumerators (labeling aligned with the given instance order,
# witness = canonical parameter realizing it)


def threshold_dichotomies(values: list[Fraction]) -> list[tuple[Labeling, Fraction]]:
    srt, order = _argsort(values)
    k = len(srt)
    out = []
    for cut in range(k + 1):
        labeling = [0] * k
        for pos in range(cut, k):
            labeling[order[pos]] = 1
        w = srt[cut] if cut < k else srt[-1] + 1
        out.append((tuple(labeling), w))
    return out


def interval_dichotomies(values: list[Fraction]
                         ) -> list[tuple[Labeling, tuple[Fraction, Fraction]]]:
    srt, order = _argsort(values)
    k = len(srt)
    out = []
    empty = srt[-1] + 1
    out.append((tuple([0] * k), (empty, empty)))
    for i in range(k):
        for j in range(i, k):
            labeling = [0] * k
            for pos in range(i, j + 1):
                labeling[order[pos]] = 1
            out.append((tuple(labeling), (srt[i], srt[j])))
    return out


def cosingleton_dichotomies(values: list[Fraction]) -> list[tuple[Labeling, Fraction]]:
    k = len(values)
    out = [(tuple([1] * k), max(values) + 1)]
    for i in range(k):
        labeling = tuple(0 if j == i else 1 for j in range(k))
        out.append((labeling, values[i]))
    return out


# ---------------------------------------------------------------------------
# Exact Fourier-Motzkin elimination on integer rows

# A constraint is (coeffs, const, strict) encoding  coeffs.v + const >= 0,
# or > 0 when strict.  Inside fm_witness it becomes (row, strict) with the
# primitive integer row (const, c_1, ..., c_k): the constant first, then the
# coefficient of each variable still present, the last one eliminated next.


def _primitive(coeffs, const) -> tuple[int, ...]:
    """The row (const, *coeffs) of ints or Fractions scaled by a positive
    rational to coprime integers: times the lcm of the denominators, then
    divided by the gcd.  An all-zero row stays all zero."""
    values = (const, *coeffs)
    scale = math.lcm(*[v.denominator for v in values])
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = math.gcd(*ints)
    return tuple([v // g for v in ints] if g > 1 else ints)


def fm_witness(constraints, nvars: int) -> tuple[Fraction, ...] | None:
    """Find a rational point satisfying all linear constraints, or None.

    Each constraint (coeffs, const, strict), with int or Fraction entries,
    is scaled once to a primitive integer row.  Variables are eliminated
    from the highest index down on those rows, every combination reduced by
    its gcd and the rows of each stage deduplicated in a set.
    Back-substitution takes, per variable, the largest lower and the
    smallest upper bound (a strict bound wins a tie), then the bound itself,
    the bound plus or minus 1 when it is strict and one-sided, the midpoint,
    or 0 when unbounded.  The values found so far are carried as integer
    numerators over one common denominator, each bound as an integer pair
    over it, and bounds are compared by cross-multiplication; only the
    chosen value of each variable becomes a Fraction.  The point is checked
    against the input system in integers before it is returned as exact
    Fractions.
    """
    initial = system = {(_primitive(coeffs, const), strict)
                        for coeffs, const, strict in constraints}
    systems = []
    for _ in range(nvars):
        systems.append(system)
        lowers, uppers, reduced = [], [], set()
        for row, strict in system:
            a = row[-1]
            if a > 0:
                lowers.append((row, strict))
            elif a < 0:
                uppers.append((row, strict))
            else:
                reduced.add((row[:-1], strict))
        for lrow, lstrict in lowers:
            a = lrow[-1]
            for urow, ustrict in uppers:
                c = -urow[-1]
                row = [lv * c + uv * a for lv, uv in zip(lrow[:-1], urow)]
                g = math.gcd(*row)
                if g > 1:
                    row = [v // g for v in row]
                reduced.add((tuple(row), lstrict or ustrict))
        system = reduced
    for (const,), strict in system:
        if const < 0 or (strict and const == 0):
            return None
    # point = (den, n_1, ..., n_k): the values found so far are n_j / den.
    point = [1]
    values: list[Fraction] = []
    for system in reversed(systems):
        den = point[0]
        # A bound is num / (q * den) with q > 0, kept as (num, q); bounds
        # are compared by cross-multiplication, den > 0 cancelling.
        lo_num = hi_num = None
        lo_strict = hi_strict = False
        for row, strict in system:
            a = row[-1]
            if a == 0:
                continue
            # zip stops before a: rest = den * (const + sum_j c_j v_j).
            rest = sum(map(mul, row, point))
            if a > 0:
                # v >= -rest / (a * den)
                if lo_num is None:
                    lo_num, lo_q, lo_strict = -rest, a, strict
                else:
                    diff = -rest * lo_q - lo_num * a
                    if diff > 0 or (diff == 0 and strict):
                        lo_num, lo_q, lo_strict = -rest, a, strict
            else:
                # v <= rest / (-a * den)
                if hi_num is None:
                    hi_num, hi_q, hi_strict = rest, -a, strict
                else:
                    diff = rest * hi_q + hi_num * a
                    if diff < 0 or (diff == 0 and strict):
                        hi_num, hi_q, hi_strict = rest, -a, strict
        if lo_num is None and hi_num is None:
            value = Fraction(0)
        elif hi_num is None:
            q = lo_q * den
            value = Fraction(lo_num + q if lo_strict else lo_num, q)
        elif lo_num is None:
            q = hi_q * den
            value = Fraction(hi_num - q if hi_strict else hi_num, q)
        elif lo_num * hi_q == hi_num * lo_q:
            if lo_strict or hi_strict:
                return None
            value = Fraction(lo_num, lo_q * den)
        else:
            value = Fraction(lo_num * hi_q + hi_num * lo_q,
                             2 * lo_q * hi_q * den)
        values.append(value)
        scale = value.denominator // math.gcd(den, value.denominator)
        if scale > 1:
            point = [v * scale for v in point]
        point.append(value.numerator * (point[0] // value.denominator))
    for row, strict in initial:
        total = sum(map(mul, row, point))
        if total < 0 or (strict and total == 0):
            return None
    return tuple(values)


def halfspace_dichotomies(rows, strict: bool = False
                          ) -> list[tuple[Labeling, tuple[Fraction, ...]]]:
    """Every labeling of the rows (const, coeffs), of int or Fraction
    entries and one length of coeffs, that some rational v realizes, with
    the v ``fm_witness`` finds: label 1 means const + coeffs . v >= 0
    (> 0 when ``strict``), label 0 the negation.  Needs at least one row."""
    nvars = len(rows[0][1])
    pairs = _constraint_pairs(rows, strict)
    out = []
    for labeling in product((0, 1), repeat=len(rows)):
        constraints = [pair[lab] for pair, lab in zip(pairs, labeling)]
        witness = fm_witness(constraints, nvars)
        if witness is not None:
            out.append((labeling, witness))
    return out


def _constraint_pairs(rows, strict: bool) -> list[tuple[tuple, tuple]]:
    """Per row (const, coeffs): the primitive integer constraint of label 0
    and of label 1, built once for all labelings."""
    pairs = []
    for const, coeffs in rows:
        const, *coeffs = _primitive(coeffs, const)
        pairs.append(((tuple(-c for c in coeffs), -const, not strict),
                      (tuple(coeffs), const, strict)))
    return pairs


# ---------------------------------------------------------------------------
# Hypothesis space classes


class ThresholdSpace(HypothesisSpace):
    """Thresholds on the rational line: h_w = 1 on [w, infinity)."""

    kind = "threshold-family"

    def known_vc(self) -> int:
        return 1

    def hypothesis(self, w) -> Hypothesis:
        w = to_fraction(w)
        return Hypothesis(key=("threshold", w),
                          fn=lambda x, _w=w: 1 if x.scalar >= _w else 0)

    def hypothesis_from_key(self, key) -> Hypothesis:
        return self.hypothesis(key)

    def dichotomies(self, instances: Sequence[Instance]) -> DichotomyTable:
        instances = check_instance_tuple(instances)
        witnesses = {lab: self.hypothesis(w)
                     for lab, w in threshold_dichotomies(_scalars(instances))}
        return DichotomyTable(instances, witnesses, exact=True)


class IntervalSpace(HypothesisSpace):
    """Closed intervals on the rational line: h_{a,b} = 1 on [a, b]."""

    kind = "interval-family"

    def known_vc(self) -> int:
        return 2

    def hypothesis(self, a, b) -> Hypothesis:
        a, b = to_fraction(a), to_fraction(b)
        if a > b:
            raise ValueError("interval needs a <= b")
        return Hypothesis(key=("interval", a, b),
                          fn=lambda x, _a=a, _b=b: 1 if _a <= x.scalar <= _b else 0)

    def hypothesis_from_key(self, key) -> Hypothesis:
        a, b = key
        return self.hypothesis(a, b)

    def dichotomies(self, instances: Sequence[Instance]) -> DichotomyTable:
        instances = check_instance_tuple(instances)
        witnesses = {lab: self.hypothesis(a, b)
                     for lab, (a, b) in interval_dichotomies(_scalars(instances))}
        return DichotomyTable(instances, witnesses, exact=True)


class CoSingletonSpace(HypothesisSpace):
    """Complements of single points: h_w(x) = 1 iff x != w."""

    kind = "co-singleton-family"

    def known_vc(self) -> int:
        return 1

    def hypothesis(self, w) -> Hypothesis:
        w = to_fraction(w)
        return Hypothesis(key=("co-singleton", w),
                          fn=lambda x, _w=w: 0 if x.scalar == _w else 1)

    def hypothesis_from_key(self, key) -> Hypothesis:
        return self.hypothesis(key)

    def dichotomies(self, instances: Sequence[Instance]) -> DichotomyTable:
        instances = check_instance_tuple(instances)
        witnesses = {lab: self.hypothesis(w)
                     for lab, w in cosingleton_dichotomies(_scalars(instances))}
        return DichotomyTable(instances, witnesses, exact=True)


def _integer_vector(values) -> list[int]:
    """The rationals times the lcm of their denominators."""
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values]


class _ComplementClosedWitnesses(Mapping):
    """The witnesses of a labeling set closed under complement, given the
    parameters of its labelings whose first bit is 0, in lexicographic
    order.  The complements follow them, so the keys stay in lexicographic
    order.  A labeling's hypothesis is built by ``build`` when it is first
    read, and kept; a complement's parameters come from ``solve`` then
    (None there, an infeasible complement, is a bug).  ``in``, ``len`` and
    iteration solve and build nothing."""

    def __init__(self, first_zero: dict[Labeling, tuple],
                 solve: Callable[[Labeling], tuple | None],
                 build: Callable[[tuple], Hypothesis]):
        self._params = first_zero
        self._hypotheses: dict[Labeling, Hypothesis] = {}
        self._keys = (*first_zero, *(tuple(1 - b for b in lab)
                                     for lab in reversed(first_zero)))
        self._realized = frozenset(self._keys)
        self._solve = solve
        self._build = build

    def __getitem__(self, labeling: Labeling) -> Hypothesis:
        h = self._hypotheses.get(labeling)
        if h is None:
            if labeling not in self._realized:
                raise KeyError(labeling)
            params = self._params.get(labeling)
            if params is None:
                params = self._solve(labeling)
                if params is None:
                    raise AssertionError(
                        f"labeling {labeling} is the complement of a "
                        f"realized one but is infeasible")
            h = self._hypotheses[labeling] = self._build(params)
        return h

    def __contains__(self, labeling) -> bool:
        return labeling in self._realized

    def __iter__(self) -> Iterator[Labeling]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class HalfspaceSpace(HypothesisSpace):
    """Affine halfspaces of a fixed dimension: h = 1[w.x + b >= 0].

    On finitely many points the labelings are closed under complement: if
    (w, b) realizes L, then (-w, -b - e) realizes its complement for any
    0 < e <= min |w.x + b| over the points w.x + b < 0 (or e = 1 if none).
    """

    kind = "halfspace-family"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("halfspace dimension must be >= 1")
        self.dim = dim

    def known_vc(self) -> int:
        return self.dim + 1

    def hypothesis(self, params: Sequence) -> Hypothesis:
        params = tuple(to_fraction(p) for p in params)
        if len(params) != self.dim + 1:
            raise ValueError(f"expected {self.dim + 1} parameters (w..., b)")
        w, b = params[:-1], params[-1]

        def fn(x: Instance, _w=w, _b=b) -> int:
            coords = x.coords
            if len(coords) != len(_w):
                raise ValueError("instance dimension mismatch")
            return 1 if sum(c * v for c, v in zip(_w, coords)) + _b >= 0 else 0

        return Hypothesis(key=("halfspace",) + params, fn=fn)

    def hypothesis_from_key(self, key) -> Hypothesis:
        return self.hypothesis(key)

    def dichotomies(self, instances: Sequence[Instance]) -> DichotomyTable:
        """Fourier-Motzkin decides the labelings whose first bit is 0, and
        each witness is checked in integers then; each realized labeling
        brings its complement, whose witness is eliminated from the same
        constraint list as in a full sweep, and checked, when it is read.
        The table keeps parameter tuples and builds a labeling's
        ``Hypothesis`` when it is first read."""
        instances = check_instance_tuple(instances)
        points = []
        for x in instances:
            coords = x.coords
            if len(coords) != self.dim:
                raise ValueError(f"instance {x} is not {self.dim}-dimensional")
            points.append(coords)
        pairs = _constraint_pairs([(0, (*x, 1)) for x in points],
                                  strict=False)
        # Every witness is checked apart from the elimination and its rows:
        # (x, 1) and (w, b), each scaled by a positive integer to integers,
        # have a dot product of the same sign as w.x + b.
        rows = [_integer_vector((*x, 1)) for x in points]

        def witness(labeling: Labeling) -> tuple[Fraction, ...] | None:
            params = fm_witness([pair[lab] for pair, lab
                                 in zip(pairs, labeling)], self.dim + 1)
            if params is None:
                return None
            scaled = _integer_vector(params)
            if tuple(1 if sum(map(mul, scaled, row)) >= 0 else 0
                     for row in rows) != labeling:
                raise AssertionError("halfspace witness failed verification")
            return params

        first_zero = {}
        for rest in product((0, 1), repeat=len(points) - 1):
            labeling = (0, *rest)
            params = witness(labeling)
            if params is not None:
                first_zero[labeling] = params
        return DichotomyTable(
            instances,
            _ComplementClosedWitnesses(first_zero, witness, self.hypothesis),
            exact=True)
