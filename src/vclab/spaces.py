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
parameters (a formula atom affine in its parameters) and decides its
labelings by exact Fourier-Motzkin elimination (strict inequalities
included), grown point by point (``_label_tree``): one elimination per
realized prefix, O(n^(k+1)) for n rows in k variables, not 2^n.
``fm_witness`` works in integers from input to output: it takes primitive
integer rows, made primitive once where they are built, and returns an
integer point (den, n_1, ..., n_k) standing for the exact rational witness
v_i = n_i / den; ``halfspace_dichotomies`` turns that point into
Fractions.  ``HalfspaceSpace`` keeps each instance point's rows for its
lifetime.  A table of points in general position takes Cover's count as
its length and is decided when first read, any other table at once.  At
most dim + 2 points whose rows (x, 1) have a left kernel of dimension at
most 1 are decided by the signs of one integer kernel vector (Radon;
Motzkin), proven by a rank certificate; other point sets grow only the
labelings whose first bit is 0 (the rest are their complements), checked
against Cover's count.  Every witness is the point ``fm_witness`` finds
on its labeling's full system, re-checked in integers against check rows
built apart from the elimination's.  A table keeps the points its tree
found and solves any other when its witness is first read.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import combinations, product
from operator import mul

from .model import (
    DichotomyTable,
    Hypothesis,
    HypothesisSpace,
    Instance,
    Labeling,
    LazyWitnesses,
    check_instance_tuple,
    to_fraction,
)


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


def _line_table(space: HypothesisSpace, instances: Sequence[Instance],
                enumerate_labelings) -> DichotomyTable:
    """A table keyed by the parameters of a line family's enumerator."""
    instances = check_instance_tuple(instances)
    return DichotomyTable(instances, LazyWitnesses(dict(enumerate_labelings(
        [x.scalar for x in instances])), space.hypothesis_from_key), exact=True)


# ---------------------------------------------------------------------------
# Exact Fourier-Motzkin elimination on integer rows

# A constraint is (row, strict) with the primitive integer row
# (const, c_1, ..., c_k), encoding  const + c . v >= 0,  or > 0 when strict:
# the constant first, then the coefficient of each variable still present,
# the last one eliminated next.  A point is (den, n_1, ..., n_k) with
# den > 0, standing for v_i = n_i / den, so const + c . v has the sign of
# the row's dot product with the point.


def _primitive(coeffs, const) -> tuple[int, ...]:
    """The row (const, *coeffs) of ints or Fractions scaled by a positive
    rational to coprime integers: times the lcm of the denominators, then
    divided by the gcd.  An all-zero row stays all zero."""
    values = (const, *coeffs)
    scale = math.lcm(*[v.denominator for v in values])
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = math.gcd(*ints)
    return tuple([v // g for v in ints] if g > 1 else ints)


def fm_witness(system, nvars: int) -> tuple[int, ...] | None:
    """Find an integer point (den, n_1, ..., n_k), den > 0, whose rational
    point v_i = n_i / den satisfies every constraint of ``system``, or None.

    ``system`` holds (row, strict) pairs whose rows (const, c_1, ..., c_k)
    are already primitive integer rows (``_primitive``); they are used as
    given.  Variables are eliminated from the highest index down, every
    combination reduced by its gcd and the rows of each stage deduplicated
    in a set.  Back-substitution takes, per variable, the largest lower and
    the smallest upper bound (a strict bound wins a tie), then the bound
    itself, the bound plus or minus 1 when it is strict and one-sided, the
    midpoint, or 0 when unbounded.  The values found so far are carried as
    integer numerators over one common denominator, each bound as an
    integer pair over it, and bounds are compared by cross-multiplication;
    the chosen value is reduced by its gcd, so ``den`` is the lcm of the
    reduced denominators and each n_i / den is the value a Fraction
    elimination chooses.  The point is checked against the input system in
    integers before it is returned.
    """
    initial = system = set(system)
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
    point = [1]
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
        # The value is num / q with q > 0.
        if lo_num is None and hi_num is None:
            num, q = 0, 1
        elif hi_num is None:
            q = lo_q * den
            num = lo_num + q if lo_strict else lo_num
        elif lo_num is None:
            q = hi_q * den
            num = hi_num - q if hi_strict else hi_num
        elif lo_num * hi_q == hi_num * lo_q:
            if lo_strict or hi_strict:
                return None
            num, q = lo_num, lo_q * den
        else:
            num, q = lo_num * hi_q + hi_num * lo_q, 2 * lo_q * hi_q * den
        g = math.gcd(num, q)
        if g > 1:
            num //= g
            q //= g
        scale = q // math.gcd(den, q)
        if scale > 1:
            point = [v * scale for v in point]
        point.append(num * (point[0] // q))
    for row, strict in initial:
        total = sum(map(mul, row, point))
        if total < 0 or (strict and total == 0):
            return None
    return tuple(point)


def _fractions(point: tuple[int, ...]) -> tuple[Fraction, ...]:
    """The rational values (n_1 / den, ..., n_k / den) of an integer point."""
    den = point[0]
    return tuple(Fraction(n, den) for n in point[1:])


def _label_tree(tests, solve: Callable[[Labeling], tuple[int, ...] | None],
                prefix: Labeling, point: tuple[int, ...]
                ) -> dict[Labeling, tuple[int, ...] | None]:
    """The realized labelings of the len(tests) points that extend
    ``prefix`` (shorter than that), in lexicographic order, each with an
    integer point or None, grown one point at a time from ``point``, which
    realizes ``prefix``.  A realized prefix's point realizes the label it
    gives the next point j: 1 iff row . point >= 0 (> 0 when strict) for
    (row, strict) = tests[j].  The other label is realized iff ``solve``
    returns a point for it, which that labeling keeps.  So a table costs
    one ``solve`` per realized prefix of its first n - 1 points.  A
    labeling of all n points realized by its prefix's point gets None."""
    level = [(prefix, point)]
    for j in range(len(prefix), len(tests)):
        row, strict = tests[j]
        grown = []
        for prefix, point in level:
            dot = sum(map(mul, row, point))
            free = 1 if dot > 0 or (dot == 0 and not strict) else 0
            for lab in (0, 1):
                labeling = (*prefix, lab)
                if lab == free:
                    grown.append((labeling, point if j + 1 < len(tests)
                                  else None))
                else:
                    found = solve(labeling)
                    if found is not None:
                        grown.append((labeling, found))
        level = grown
    return dict(level)


def _solved(solve, labeling: Labeling, why: str) -> tuple[int, ...]:
    """``solve(labeling)`` for a labeling known to be realized."""
    point = solve(labeling)
    if point is None:
        raise AssertionError(f"labeling {labeling} is {why} but is infeasible")
    return point


_INHERITED = "realized by the witness of its prefix"


def halfspace_dichotomies(rows, strict: bool = False
                          ) -> list[tuple[Labeling, tuple[Fraction, ...]]]:
    """Every labeling of the rows (const, coeffs), of int or Fraction
    entries and one length of coeffs, that some rational v realizes, with
    the v ``fm_witness`` finds on the labeling's full system, as
    Fractions, in lexicographic order: label 1 means
    const + coeffs . v >= 0 (> 0 when ``strict``), label 0 the negation.
    Each row is made primitive once for all labelings, and its label-1 row
    is the ``_label_tree`` test, grown from v = 0.  Needs at least one
    row."""
    nvars = len(rows[0][1])
    pairs = [_constraint_pair(const, coeffs, strict) for const, coeffs in rows]

    def solve(labeling: Labeling) -> tuple[int, ...] | None:
        return fm_witness([pair[lab] for pair, lab in zip(pairs, labeling)],
                          nvars)

    tree = _label_tree([pair[1] for pair in pairs], solve, (),
                       (1, *[0] * nvars))
    return [(labeling, _fractions(point or _solved(solve, labeling,
                                                   _INHERITED)))
            for labeling, point in tree.items()]


def _constraint_pair(const, coeffs, strict: bool) -> tuple[tuple, tuple]:
    """The primitive integer constraints of label 0 and of label 1 of the
    affine function const + coeffs . v (>= 0, or > 0 when ``strict``)."""
    row = _primitive(coeffs, const)
    return (tuple([-v for v in row]), not strict), (row, strict)


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

    def dichotomies(self, instances: Sequence[Instance]) -> DichotomyTable:
        return _line_table(self, instances, threshold_dichotomies)


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
        return _line_table(self, instances, interval_dichotomies)


class CoSingletonSpace(HypothesisSpace):
    """Complements of single points: h_w(x) = 1 iff x != w."""

    kind = "co-singleton-family"

    def known_vc(self) -> int:
        return 1

    def hypothesis(self, w) -> Hypothesis:
        w = to_fraction(w)
        return Hypothesis(key=("co-singleton", w),
                          fn=lambda x, _w=w: 0 if x.scalar == _w else 1)

    def dichotomies(self, instances: Sequence[Instance]) -> DichotomyTable:
        return _line_table(self, instances, cosingleton_dichotomies)


def _integer_vector(values) -> list[int]:
    """The rationals times the lcm of their denominators."""
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values]


def _affine_dependence(rows: Sequence[list[int]]) -> tuple | None:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [rows^T | I]:
    every division is exact, and each pivot ends equal to the last, den.
    None when the rows' left kernel has dimension 2 or more, else
    (lam, cert, den): lam spans the kernel (None when it is 0), and cert[i]
    is an integer c_i with row_j . c_i = den * [i = j] over every row but
    the one without a pivot (whose cert is None)."""
    n, width = len(rows), len(rows[0])
    m = [[*col, *(int(i == k) for k in range(width))]
         for i, col in enumerate(zip(*rows))]
    pivots, free, prev = [], [], 1
    for j in range(n):
        r = len(pivots)
        i = next((i for i in range(r, width) if m[i][j]), None)
        if i is None:
            if free:
                return None
            free.append(j)
            continue
        m[r], m[i] = m[i], m[r]
        top = m[r]
        p = top[j]
        for i in range(width):
            if i != r:
                a = m[i][j]
                m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], top)]
        prev = p
        pivots.append(j)
    cert = [None] * n
    for q, j in enumerate(pivots):
        cert[j] = m[q][n:]
    if not free:
        return None, cert, prev
    lam = [0] * n
    lam[free[0]] = prev
    for q, j in enumerate(pivots):
        lam[j] = -m[q][free[0]]
    return lam, cert, prev


class _ComplementClosedWitnesses(Mapping):
    """The witness keys of the halfspace labelings of the points of check
    rows ``checks`` in lexicographic order; ``solve`` gives a labeling's
    checked integer point (den, n_1, ..., n_k) or None.  ``_decide`` runs
    at once, or, in ``general`` position, where ``len`` is Cover's count
    ``cover``, on the first ``in``, iteration or read.  It keeps one of:

    * ``first_zero``: the labelings whose first bit is 0 (``_label_tree``),
      each with its point, or None when its prefix's witness realizes it;
      their complements are the rest;
    * ``signs``: (i, lam_i > 0) wherever lam_i != 0, for lam spanning the
      points' affine kernel (none if it is 0); every labeling is realized
      but [lam_i > 0] and [lam_i < 0] there (see ``HalfspaceSpace``).

    A labeling's key, (w, b) as Fractions, is read from its point (from
    ``first_zero``, else from ``solve``; None there is a bug) on every read."""

    def __init__(self, checks: tuple[list[int], ...],
                 solve: Callable[[Labeling], tuple[int, ...] | None],
                 cover: int, general: bool):
        self._n, self._checks, self._solve = len(checks), checks, solve
        self._cover, self._general = cover, general
        self._len = cover if general else self._decide()

    def _decide(self) -> int:
        """Decide the labelings (``HalfspaceSpace.dichotomies``) and count."""
        checks, n, cover = self._checks, self._n, self._cover
        self._first_zero = None
        found = _affine_dependence(checks) if n <= len(checks[0]) + 1 else None
        if found is None:
            first_zero = _label_tree(
                [((0, *row), False) for row in checks], self._solve, (0,),
                (1, *[0] * (len(checks[0]) - 1), -1))
            count = 2 * len(first_zero)
            if count > cover or self._general and count < cover:
                raise AssertionError(f"{count} labelings, Cover's {cover}")
            self._first_zero, self._checks = first_zero, None
            return count
        lam, cert, den = found
        if lam is not None and (not any(lam) or any(
                sum(map(mul, lam, column)) for column in zip(*checks))):
            raise AssertionError("affine dependence failed verification")
        kept = [i for i, c in enumerate(cert) if c is not None]
        if den == 0 or len(kept) != n - (lam is not None) or any(
                sum(map(mul, checks[j], cert[i])) != (den if i == j else 0)
                for i in kept for j in kept):
            raise AssertionError("rank certificate failed verification")
        self._signs = [(i, v > 0) for i, v in enumerate(lam or ()) if v]
        self._checks = None
        return 2 ** n - (2 ** (n - len(self._signs) + 1) if lam else 0)

    def __getitem__(self, labeling: Labeling) -> tuple[Fraction, ...]:
        if labeling not in self:
            raise KeyError(labeling)
        point = (self._first_zero or {}).get(labeling)
        if point is None:
            why = ("realized by its points' affine dependence"
                   if self._first_zero is None else
                   "the complement of a realized one" if labeling[0]
                   else _INHERITED)
            point = _solved(self._solve, labeling, why)
        return _fractions(point)

    def __contains__(self, labeling) -> bool:
        if not (isinstance(labeling, tuple) and len(labeling) == self._n
                and set(labeling) <= {0, 1}):
            return False
        if self._checks is not None:
            self._decide()
        if self._first_zero is not None:
            return (labeling if labeling[0] == 0 else tuple(
                1 - b for b in labeling)) in self._first_zero
        return len({labeling[i] == s for i, s in self._signs}) != 1

    def __iter__(self) -> Iterator[Labeling]:
        return filter(self.__contains__, product((0, 1), repeat=self._n))

    def __len__(self) -> int:
        return self._len


class HalfspaceSpace(HypothesisSpace):
    """Affine halfspaces of a fixed dimension: h = 1[w.x + b >= 0].

    On finitely many points the labelings are closed under complement: if
    (w, b) realizes L, then (-w, -b - e) realizes its complement for any
    0 < e <= min |w.x + b| over the points w.x + b < 0 (or e = 1 if none).
    If the rows (x_i, 1) have a left kernel spanned by lam, a labeling is
    realized unless it is [lam_i > 0] or [lam_i < 0] wherever lam_i != 0:
    those two give every term of sum_i lam_i (w.x_i + b) = 0 one sign and
    some term a strict one, and by Motzkin's transposition theorem any other
    infeasibility certificate would be a second kernel vector.  Other
    point sets cost O(n^(dim+1)) Fourier-Motzkin calls.  Any n points have
    at most Cover's count 2 * sum_{i<=dim} C(n - 1, i) labelings, exactly
    as many in general position: every dim + 1 rows (x, 1) independent.

    The space keeps, for its whole lifetime, each instance point's rows:
    the primitive constraint pair that ``fm_witness`` reads and, built
    apart from it, the integer check row (x, 1) scaled to integers.
    """

    kind = "halfspace-family"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("halfspace dimension must be >= 1")
        self.dim = dim
        # point -> (constraint pair of labels 0 and 1, check row, id bit)
        self._rows: dict[Instance, tuple[tuple, list[int], int]] = {}
        # sum of the ids of dim + 1 points -> their determinant is nonzero
        self._nonzero: dict[int, bool] = {}

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

    def _point_rows(self, x: Instance) -> tuple[tuple, list[int], int]:
        rows = self._rows.get(x)
        if rows is None:
            coords = x.coords
            if len(coords) != self.dim:
                raise ValueError(f"instance {x} is not {self.dim}-dimensional")
            rows = self._rows[x] = (_constraint_pair(0, (*coords, 1), False),
                                    _integer_vector((*coords, 1)),
                                    1 << len(self._rows))
        return rows

    def _cover(self, n: int) -> int:
        return 2 * sum(math.comb(n - 1, i) for i in range(self.dim + 1))

    def _independent(self, ids: tuple[int, ...], rows) -> bool:
        """Whether the dim + 1 check rows have a nonzero determinant, by
        fraction-free (Bareiss) elimination, kept by the sum of ``ids``."""
        key = sum(ids)
        if key not in self._nonzero:
            m, prev = list(rows), 1
            while len(m) > 1 and (top := next((r for r in m if r[0]), None)):
                m = [[(top[0] * x - r[0] * y) // prev for x, y in zip(
                    r[1:], top[1:])] for r in m if r is not top]
                prev = top[0]
            self._nonzero[key] = m[0][0] != 0
        return self._nonzero[key]

    def dichotomies(self, instances: Sequence[Instance]) -> DichotomyTable:
        """At least dim + 1 points in general position take Cover's count as
        ``len``; the rest waits for the first ``in``, iteration or read.  At
        most dim + 2 points whose check rows have a left kernel of dimension
        at most 1 are decided by ``_affine_dependence``, with no FM call: its
        lam and rank certificate are checked in integers against the check
        rows, which proves the kernel is 0 or spanned by lam.  Other point
        sets grow a ``_label_tree`` of the labelings whose first bit is 0
        from w = 0, b = -1 (check rows as tests, FM on the constraint
        pairs); a count above Cover's, or off it in general position, is an
        AssertionError.  A labeling that its prefix's witness realizes at
        the last point, and every complement, is solved when first read.
        Each point (den, den*w, den*b) is checked when it is found, apart
        from FM and its rows: with den > 0, its dot product with a point's
        check row has the sign of w.x + b."""
        instances = check_instance_tuple(instances)
        pairs, checks, ids = zip(*map(self._point_rows, instances))
        n, nvars = len(instances), self.dim + 1
        cover = self._cover(n)
        general = n >= nvars and all(map(self._independent, combinations(
            ids, nvars), combinations(checks, nvars)))

        def witness(labeling: Labeling) -> tuple[int, ...] | None:
            point = fm_witness([pair[lab] for pair, lab
                                in zip(pairs, labeling)], nvars)
            if point is None:
                return None
            numerators = point[1:]
            if tuple(1 if sum(map(mul, numerators, row)) >= 0 else 0
                     for row in checks[:len(labeling)]) != labeling:
                raise AssertionError("halfspace witness failed verification")
            return point

        keys = _ComplementClosedWitnesses(checks, witness, cover, general)
        return DichotomyTable(instances, LazyWitnesses(
            keys, self.hypothesis_from_key), exact=True)
