"""Parameterized classifier families over the rationals with exact
closed-form restriction oracles.

Each family enumerates, for a finite instance set, every realized labeling
together with a witness parameter chosen by a fixed rule, exactly:

* thresholds        h_w(x) = 1  iff  x >= w
* intervals         h_{a,b}(x) = 1  iff  a <= x <= b          (a <= b)
* co-singletons     h_w(x) = 1  iff  x != w
* halfspaces        h_{w,b}(x) = 1  iff  w . x + b >= 0

Threshold, interval and co-singleton enumeration is combinatorial on the
sorted points.  ``AffineWitnesses`` decides the labelings of affine
constraint rows in k variables (a halfspace's in (w, b), or a formula
atom's affine in its parameters) by exact Fourier-Motzkin elimination on
primitive integer rows (``fm_witness``), grown point by point: one
elimination per realized prefix, not one per labeling.  It works out one
count rule from its rows: at most Cover's count for closed rows (a
halfspace's), Sauer's bound for others, and exactly that, with no
elimination, in general position (determinants memoized on the rows).
``AffineSpace`` keeps each instance's rows, for halfspaces (its subclass)
and formula atoms alike, and finds a least-wrong labeling with no table.
Every point the kernel finds, tree prefixes included, is checked in
integers against its own check rows, built apart from the rows it
eliminates, which also give the points after a prefix their labels.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate, chain, combinations, product, repeat
from operator import getitem, mul

from .combinatorics import sauer_bound
from .model import (
    Hypothesis,
    HypothesisSpace,
    Instance,
    Labeling,
    LazyWitnesses,
    check_instance_tuple,
    common_denominator,
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
                enumerate_labelings) -> LazyWitnesses:
    """A table keyed by the parameters of a line family's enumerator."""
    instances = check_instance_tuple(instances)
    return LazyWitnesses(dict(enumerate_labelings([
        x.scalar for x in instances])), space._witness, instances)


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
    rational to coprime integers: over their common denominator, then
    divided by the gcd.  An all-zero row stays all zero."""
    _, ints = common_denominator((const, *coeffs))
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
    integers; a wrong stage system (``_eliminate``) meeting an empty
    interval or failing the check raises AssertionError.
    """
    initial = system = set(system)
    systems = []
    for _ in range(nvars):
        systems.append(system)
        system = _eliminate(system)
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
                raise AssertionError("empty interval in FM back-substitution")
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
            raise AssertionError("FM point failed its input system")
    return tuple(point)


def _eliminate(system: set) -> set:
    """The rows of ``system`` without its last variable, and each lower
    and upper bound on it combined to cancel it, reduced by the gcd."""
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
    return reduced


def _realized(tests, solve: Callable[[Labeling], tuple[int, ...] | None],
              costs: Sequence[tuple], starts: Sequence[tuple]) -> Iterator:
    """(wrong, labeling, point) per realized labeling extending a start
    (prefix, a point realizing it), off a heap keyed by (wrong, prefix),
    label y of point j costing costs[j][y] >= 0.  A prefix's point gives
    point j label 1 iff row . point >= 0 (> 0 if strict), (row, strict) =
    tests[j]; the other label costs a ``solve``, whose point it keeps."""
    heap = sorted((sum(map(getitem, costs, prefix)), prefix, point)
                  for prefix, point in starts)
    while heap:
        wrong, prefix, point = heappop(heap)
        found = point or solve(prefix)
        if found is None:
            continue
        j = len(prefix)
        if j == len(tests):
            yield wrong, prefix, None if point else found
            continue
        row, strict = tests[j]
        dot = sum(map(mul, row, found))
        free = int(dot > 0 or dot == 0 and not strict)
        heappush(heap, (wrong + costs[j][free], (*prefix, free), found))
        heappush(heap, (wrong + costs[j][free ^ 1], (*prefix, free ^ 1), None))


def _label_tree(tests, solve: Callable, starts: Sequence[tuple]
                ) -> dict[Labeling, tuple[int, ...] | None]:
    """``_realized`` at no cost: lexicographic order, one ``solve`` per
    realized prefix of the first n - 1 points."""
    return {lab: found for _, lab, found in _realized(
        tests, solve, [(0, 0)] * len(tests), starts)}


def _affine_entry(const, coeffs, strict: bool) -> tuple[tuple, tuple, tuple]:
    """A point's entry for the affine function const + coeffs . v (>= 0,
    or > 0 when ``strict``): the primitive integer constraints of its
    label 0 and of its label 1, and its check (row, strict) with the row
    (const, *coeffs) over their common denominator, not divided by a gcd,
    so built apart from ``_primitive``."""
    row = _primitive(coeffs, const)
    return ((tuple([-v for v in row]), not strict), (row, strict),
            (common_denominator((const, *coeffs))[1], strict))


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


@lru_cache(maxsize=4096)  # process-wide, so bounded
def _independent(rows: tuple[tuple[int, ...], ...], first: int) -> bool:
    """Whether ``rows``, read from entry ``first`` on, have a nonzero
    determinant, by fraction-free (Bareiss) elimination."""
    m, prev = [row[first:] for row in rows], 1
    while len(m) > 1:
        i = next((i for i, r in enumerate(m) if r[0]), None)
        if i is None:
            return False
        top = m.pop(i)
        m = [[(top[0] * x - r[0] * y) // prev for x, y in zip(
            r[1:], top[1:])] for r in m]
        prev = top[0]
    return m[0][0] != 0


class AffineSystem:
    """``AffineWitnesses``'s entries, searched with no table counted."""

    def __init__(self, entries: Sequence[tuple[tuple, tuple, tuple]]):
        self._entries, self._n = entries, len(entries)
        self._signs = self._tree = None
        const, *columns = zip(*[entry[1][0] for entry in entries])
        self._nvars = k = len(columns)
        self._closed = not any(const) and len(
            {entry[1][1] for entry in entries}) == 1 and next((
                (j, 1 if c[0] > 0 else -1) for j, c in zip(
                    range(k, 0, -1), reversed(columns))
                if min(c) > 0 or max(c) < 0), None)

    def _starts(self) -> list[tuple[Labeling, tuple[int, ...]]]:
        """Prefixes and points realizing them: v = 0, or for closed rows
        v = -s e_j, labeling every point 0, and v = s e_j, every point 1."""
        j, s = self._closed or (0, 0)
        zero = (0,) * self._nvars
        return [((lab,), (1, *zero[:j - 1], s if lab else -s, *zero[j:]))
                for lab in (0, 1)] if s else [((), (1, *zero))]

    def _solve(self, labeling: Labeling) -> tuple[int, ...] | None:
        """``fm_witness`` of the labeling's system, checked: label 1 iff
        check row . point > 0 (>= 0 when not strict)."""
        entries = self._entries
        point = fm_witness([entry[lab] for entry, lab
                            in zip(entries, labeling)], self._nvars)
        if point is not None:
            for (_, _, (check, strict)), lab in zip(entries, labeling):
                dot = sum(map(mul, check, point))
                if (dot > 0 or dot == 0 and not strict) != lab:
                    raise AssertionError("witness failed verification")
        return point

    def _witness(self, labeling: Labeling, point=None) -> tuple[Fraction, ...]:
        """The point, else the tree's or ``_solve``'s, as the rational v."""
        point = point or (self._tree or {}).get(labeling) or self._solve(
            labeling)
        if point is None:
            why = ("realized by its points' affine dependence"
                   if self._signs is not None else
                   "the complement of a realized one"
                   if self._tree and self._closed and labeling[0] else
                   "realized by the witness of its prefix")
            raise AssertionError(f"labeling {labeling} is {why} but is "
                                 f"infeasible")
        return tuple(Fraction(v, point[0]) for v in point[1:])


class AffineWitnesses(AffineSystem, Mapping):
    """The labelings of the point ``entries`` (``_affine_entry``, in k >= 1
    variables) that some rational v realizes, in lexicographic order, each
    mapped to its witness: the point ``fm_witness`` finds on its full system,
    as Fractions, solved when first read unless the tree holds it.  Every
    point found, a tree prefix's or a read's, is checked in integers against
    the check rows of its labeling's points, built apart from the rows FM
    eliminates; a point that gives one of them the wrong label raises
    AssertionError.  A prefix's point gives the later points of the tree
    their labels by their check rows too, not by the eliminated rows.
    ``AffineSpace._least`` searches both halves of closed rows, grows no tree.

    The n label-1 rows (const, c) are closed when every const is 0, all or
    none are strict, and some c_j has one sign s in every row.  Closed rows
    have at most Cover's count K(n, k) = 2 * sum_{i<k} C(n - 1, i) labelings,
    exactly that many when n >= k and every k rows c are independent.  Other
    rows have at most Sauer's sum_{i<=k} C(n, i), as v -> labeling has VC
    dimension at most k (``formula._affine``), and exactly that many when
    n >= k and every k rows c and every k + 1 rows (const, c) are independent.
    In this general position ``len`` is the bound and the labelings wait for
    the first ``in``, iteration or read, else they are decided at once; a
    count above the bound, or off it there, raises AssertionError.

    Cover (1965): v labels the rows as v + t s e_j does (v - t s e_j when
    strict) for small t > 0, which puts no row at 0, so the labelings are the
    cells of the hyperplanes c . v = 0; the n-th of them, H, splits one cell
    per cell that the others cut out of H, of dimension k - 1, so K(n, k) <=
    K(n - 1, k) + K(n - 1, k - 1), K(1, k) = K(n, 1) = 2, with equality in
    general position.  Without closure v = 0 may add one: the rows (0, 1) and
    (0, -1) realize (1, 0), (0, 1) and (1, 1), where K(2, 1) = 2; so may mixed
    strictness, as (0, 1) and (0, 1) strict realize (1, 0) at v = 0.  Buck
    (1943): in general position v lies on at most k hyperplanes
    const + c . v = 0, with independent c, so some u moves v off each to the
    side its label needs: the labelings are again cells, B(n, k) = B(n - 1, k)
    + B(n - 1, k - 1) of them, B(0, k) = B(n, 0) = 1.

    Labelings of closed rows are closed under complement: if v realizes L,
    then -v - t s e_j (-v + t s e_j for strict rows) realizes its complement
    for small t > 0.  ``tree`` then keeps the labelings whose first bit is 0,
    grown by ``_label_tree`` from v = -s e_j, which labels every point 0;
    other rows keep every labeling, grown from v = 0.  Each keeps its point,
    or None when its prefix's point realizes it.  At most k + 1 closed rows
    whose left kernel is 0 or spanned by lam (``signs``; lam and its rank
    certificate checked in integers) need no FM call: a labeling is realized
    unless it is [lam_i > 0] or [lam_i < 0] wherever lam_i != 0.  lam has both
    signs, as sum_i lam_i c_ij = 0, so each of the two gives every term of
    sum_i lam_i (c_i . v) = 0 one sign and some term a strict one; by
    Motzkin's transposition theorem any other infeasibility certificate would
    be a second kernel vector."""

    def __init__(self, entries: Sequence[tuple[tuple, tuple, tuple]]):
        super().__init__(entries)
        rows = [entry[1][0] for entry in entries]
        n, k = self._n, self._nvars
        self._bound, self._named = (
            (2 * sum(math.comb(n - 1, i) for i in range(k)), "Cover's")
            if self._closed else (sauer_bound(k, n), "Sauer's"))
        self._general = n >= k and all(map(
            _independent, combinations(rows, k), repeat(1))) and (
                self._closed or all(map(_independent, combinations(
                    rows, k + 1), repeat(0))))
        self._len = self._bound if self._general else self._decide()

    def _decide(self) -> int:
        """Decide the labelings, as the class docstring says, and count."""
        coeffs = [entry[1][0][1:] for entry in self._entries]
        n, nvars = self._n, self._nvars
        found = (_affine_dependence(coeffs) if self._closed
                 and n <= nvars + 1 else None)
        signs = tree = None
        if found is not None:
            lam, cert, den = found
            if lam is not None and (not any(lam) or any(
                    sum(map(mul, lam, column)) for column in zip(*coeffs))):
                raise AssertionError("affine dependence failed verification")
            kept = [i for i, c in enumerate(cert) if c is not None]
            if den == 0 or len(kept) != n - (lam is not None) or any(
                    sum(map(mul, coeffs[j], cert[i])) != (den if i == j
                                                          else 0)
                    for i in kept for j in kept):
                raise AssertionError("rank certificate failed verification")
            signs = [(i, v > 0) for i, v in enumerate(lam or ()) if v]
            count = 2 ** n - (2 ** (n - len(signs) + 1) if lam else 0)
        else:
            tree = _label_tree([entry[2] for entry in self._entries],
                               self._solve, self._starts()[:1])
            count = len(tree) * (2 if self._closed else 1)
        if count > self._bound or self._general and count < self._bound:
            raise AssertionError(f"{count} labelings, {self._named} "
                                 f"{self._bound}")
        self._signs, self._tree = signs, tree
        return count

    def __getitem__(self, labeling: Labeling) -> tuple[Fraction, ...]:
        if labeling not in self:
            raise KeyError(labeling)
        return self._witness(labeling)

    def __contains__(self, labeling) -> bool:
        if not (isinstance(labeling, tuple) and len(labeling) == self._n
                and set(labeling) <= {0, 1}):
            return False
        if self._signs is None and self._tree is None:
            self._decide()
        if self._signs is not None:
            return len({labeling[i] == s for i, s in self._signs}) != 1
        if self._closed and labeling[0]:
            labeling = tuple([1 - b for b in labeling])
        return labeling in self._tree

    def __iter__(self) -> Iterator[Labeling]:
        if self._signs is None and self._tree is None:
            self._decide()
        if self._signs is not None:
            return filter(self.__contains__, product((0, 1), repeat=self._n))
        flipped = (tuple([1 - b for b in labeling])
                   for labeling in reversed(self._tree))
        return chain(self._tree, flipped if self._closed else ())

    def __len__(self) -> int:
        return self._len


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

    def dichotomies(self, instances: Sequence[Instance]) -> LazyWitnesses:
        return _line_table(self, instances, threshold_dichotomies)

    def _least(self, instances, costs):
        """A running sum of the cuts' weights wrong; ties to the last cut."""
        values, ones = [x.scalar for x in instances], sum(c for _, c in costs)
        wrong = list(accumulate([c0 - c1 for c0, c1 in costs], initial=ones))
        cut = min(reversed(range(len(wrong))), key=wrong.__getitem__)
        return ((0,) * cut + (1,) * (len(values) - cut), lambda: (
            values[cut] if cut < len(values) else values[-1] + 1))


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

    def dichotomies(self, instances: Sequence[Instance]) -> LazyWitnesses:
        return _line_table(self, instances, interval_dichotomies)

    def _least(self, instances, costs):
        """Run [i, j] adds sums[j + 1] - sums[i] to the empty labeling's
        weight wrong, least at the latest i of max (sums[i], i), i <= j.
        Ties: the empty labeling, then the later start, the shorter run."""
        values, k = [x.scalar for x in instances], len(instances)
        empty = sum(c0 for c0, _ in costs)
        sums = list(accumulate([c1 - c0 for c0, c1 in costs], initial=0))
        _, back, j = min([(empty, 0, k - 1)] + [
            (empty + sums[j + 1] - top, k - i, j) for j, (top, i)
            in enumerate(accumulate(zip(sums, range(k)), max))])
        i = k - back
        return ((0,) * i + (1,) * (j + 1 - i) + (0,) * (k - 1 - j), lambda: (
            (values[i], values[j]) if i < k else (values[-1] + 1,) * 2))


class CoSingletonSpace(HypothesisSpace):
    """Complements of single points: h_w(x) = 1 iff x != w."""

    kind = "co-singleton-family"

    def known_vc(self) -> int:
        return 1

    def hypothesis(self, w) -> Hypothesis:
        w = to_fraction(w)
        return Hypothesis(key=("co-singleton", w),
                          fn=lambda x, _w=w: 0 if x.scalar == _w else 1)

    def dichotomies(self, instances: Sequence[Instance]) -> LazyWitnesses:
        return _line_table(self, instances, cosingleton_dichotomies)

    def _least(self, instances, costs):
        """Ties go to the earliest zero, all ones (zero = k) last."""
        values, ones = [x.scalar for x in instances], sum(c for _, c in costs)
        wrong = [ones + c0 - c1 for c0, c1 in costs] + [ones]
        zero = min(range(len(wrong)), key=wrong.__getitem__)
        return (tuple(int(i != zero) for i in range(len(values))), lambda: (
            values[zero] if zero < len(values) else values[-1] + 1))


class AffineSpace(HypothesisSpace):
    """h_v(x) = 1[const + coeffs . v >= 0] (> 0 when strict), (const,
    coeffs, strict) = ``row(x)``, over rational v in ``nvars`` variables,
    witness key v: ``AffineWitnesses`` of the entries (``_affine_entry``)
    kept per instance for the space's lifetime.  Its VC dimension is at
    most ``nvars`` (``formula._affine``)."""

    kind = "affine-family"

    def __init__(self, row: Callable[[Instance], tuple], nvars: int):
        self._row, self.nvars = row, nvars
        self._entries: dict[Instance, tuple] = {}

    def known_vc(self) -> int:
        return self.nvars

    def hypothesis(self, v: Sequence) -> Hypothesis:
        v, row = tuple(to_fraction(c) for c in v), self._row
        if len(v) != self.nvars:
            raise ValueError(f"expected {self.nvars} parameters")

        def fn(x: Instance) -> int:
            const, coeffs, strict = row(x)
            value = const + sum(map(mul, coeffs, v))
            return int(value > 0 or value == 0 and not strict)

        return Hypothesis(key=(self.kind.removesuffix("-family"),) + v, fn=fn)

    def _system(self, instances: Sequence[Instance]) -> list[tuple]:
        entries = self._entries
        for x in instances:
            if x not in entries:
                entries[x] = _affine_entry(*self._row(x))
        return [entries[x] for x in instances]

    def dichotomies(self, instances: Sequence[Instance]) -> LazyWitnesses:
        instances = check_instance_tuple(instances)
        return LazyWitnesses(AffineWitnesses(self._system(instances)),
                             self._witness, instances)

    def _least(self, instances, costs):
        """``_realized``'s first from all the starts, a label charged only
        its cost above the other label (one shift for all labelings, so
        ties go depth first, not level by level), keyed by the point a
        table read gives: ``fm_witness`` of the labeling's full system."""
        system = AffineSystem(self._system(instances))
        _, labeling, point = next(_realized(
            [entry[2] for entry in system._entries], system._solve,
            [(max(c0 - c1, 0), max(c1 - c0, 0)) for c0, c1 in costs],
            system._starts()))
        return labeling, lambda: system._witness(labeling, point)


class HalfspaceSpace(AffineSpace):
    """Affine halfspaces of a fixed dimension: h = 1[w.x + b >= 0], with
    parameters (w..., b).

    Each point x gives the closed row (0, x, 1) in (w, b) of
    ``AffineWitnesses``, counted by Cover's rule.
    """

    kind = "halfspace-family"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("halfspace dimension must be >= 1")
        self.dim = dim

        def row(x: Instance) -> tuple:
            coords = x.coords
            if len(coords) != dim:
                raise ValueError(f"instance {x} is not {dim}-dimensional")
            return 0, (*coords, 1), False
        super().__init__(row, dim + 1)
