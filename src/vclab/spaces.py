"""Parameterized classifier families over the rationals with exact
closed-form restriction oracles.

Each family enumerates, for a finite instance set, every realized labeling
together with a canonical witness parameter, exactly:

* thresholds        h_w(x) = 1  iff  x >= w
* intervals         h_{a,b}(x) = 1  iff  a <= x <= b          (a <= b)
* co-singletons     h_w(x) = 1  iff  x != w
* halfspaces        h_{w,b}(x) = 1  iff  w . x + b >= 0

Threshold, interval and co-singleton enumeration is combinatorial on the
sorted points; halfspace enumeration decides each candidate labeling by
exact Fourier-Motzkin elimination over the rationals (strict inequalities
included), which also produces a rational witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Sequence

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


def _sorted_positions(values: list[Fraction]) -> tuple[list[Fraction], list[int]]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    return [values[i] for i in order], order


# ---------------------------------------------------------------------------
# Combinatorial enumerators (labeling aligned with the given instance order,
# witness = canonical parameter realizing it)


def threshold_dichotomies(values: list[Fraction]) -> list[tuple[Labeling, Fraction]]:
    srt, order = _sorted_positions(values)
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
    srt, order = _sorted_positions(values)
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
# Exact rational Fourier-Motzkin elimination

# A constraint is (coeffs, const, strict) encoding  coeffs.v + const >= 0,
# or > 0 when strict.


def _normalize(con):
    coeffs, const, strict = con
    nums = [c.numerator for c in coeffs] + [const.numerator]
    dens = [c.denominator for c in coeffs] + [const.denominator]
    scale = Fraction(1)
    for d in dens:
        scale *= d
    # Scale to integers, then divide by gcd for a canonical form.
    ints = [int(c * scale) for c in coeffs] + [int(const * scale)]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return (tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1]), strict)


def fm_witness(constraints, nvars: int) -> tuple[Fraction, ...] | None:
    """Find a rational point satisfying all linear constraints, or None.

    Eliminates variables from the highest index down, then back-substitutes.
    Exact over Fractions; handles strict and non-strict inequalities.
    """
    systems: list[list] = []
    current = [_normalize(c) for c in constraints]
    for k in range(nvars - 1, -1, -1):
        systems.append(current)
        lowers, uppers, rest = [], [], []
        for coeffs, const, strict in current:
            a = coeffs[k]
            if a > 0:
                lowers.append((coeffs, const, strict))
            elif a < 0:
                uppers.append((coeffs, const, strict))
            else:
                rest.append((coeffs[:k], const, strict))
        combined = {(_c[0], _c[1], _c[2]) for _c in rest}
        for lc, lconst, lstrict in lowers:
            a = lc[k]
            for uc, uconst, ustrict in uppers:
                c = -uc[k]
                coeffs = tuple(lc[j] * c + uc[j] * a for j in range(k))
                const = lconst * c + uconst * a
                combined.add(_normalize((coeffs, const, lstrict or ustrict)))
        current = list(combined)
    for coeffs, const, strict in current:
        if const < 0 or (strict and const == 0):
            return None
    values: list[Fraction] = [Fraction(0)] * nvars
    for k in range(nvars):
        system = systems[nvars - 1 - k]
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, const, strict in system:
            a = coeffs[k]
            if a == 0:
                continue
            rest = const + sum(coeffs[j] * values[j] for j in range(k))
            bound = -rest / a
            if a > 0:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
            else:
                if hi is None or bound < hi or (bound == hi and strict):
                    hi, hi_strict = bound, strict
        if lo is None and hi is None:
            values[k] = Fraction(0)
        elif hi is None:
            values[k] = lo + 1 if lo_strict else lo
        elif lo is None:
            values[k] = hi - 1 if hi_strict else hi
        else:
            if lo == hi:
                if lo_strict or hi_strict:
                    return None
                values[k] = lo
            else:
                values[k] = (lo + hi) / 2
    for coeffs, const, strict in systems[0]:
        total = const + sum(c * v for c, v in zip(coeffs, values))
        if total < 0 or (strict and total == 0):
            return None
    return tuple(values)


def halfspace_dichotomies(points: list[tuple[Fraction, ...]], dim: int
                          ) -> list[tuple[Labeling, tuple[Fraction, ...]]]:
    """All labelings of the points realizable as h(x) = 1[w.x + b >= 0],
    each with a rational witness (w_1..w_dim, b)."""
    nvars = dim + 1
    out = []
    for labeling in product((0, 1), repeat=len(points)):
        constraints = []
        for x, lab in zip(points, labeling):
            row = tuple(x) + (Fraction(1),)
            if lab == 1:
                constraints.append((row, Fraction(0), False))
            else:
                constraints.append((tuple(-c for c in row), Fraction(0), True))
        witness = fm_witness(constraints, nvars)
        if witness is not None:
            out.append((labeling, witness))
    return out


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


class HalfspaceSpace(HypothesisSpace):
    """Affine halfspaces of a fixed dimension: h = 1[w.x + b >= 0]."""

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
                raise TypeError("instance dimension mismatch")
            return 1 if sum(c * v for c, v in zip(_w, coords)) + _b >= 0 else 0

        return Hypothesis(key=("halfspace",) + params, fn=fn)

    def hypothesis_from_key(self, key) -> Hypothesis:
        return self.hypothesis(key)

    def dichotomies(self, instances: Sequence[Instance]) -> DichotomyTable:
        instances = check_instance_tuple(instances)
        points = []
        for x in instances:
            coords = x.coords
            if len(coords) != self.dim:
                raise TypeError(f"instance {x} is not {self.dim}-dimensional")
            points.append(coords)
        witnesses = {}
        for lab, params in halfspace_dichotomies(points, self.dim):
            h = self.hypothesis(params)
            if tuple(h(x) for x in instances) != lab:
                raise AssertionError("halfspace witness failed verification")
            witnesses[lab] = h
        return DichotomyTable(instances, witnesses, exact=True)
