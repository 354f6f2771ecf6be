"""Exact adversarial lower-bound enumeration for learning functions.

The construction for a target sample size m is a shattered set of 2m
instances and its 2^(2m) labelings, each standing for the uniform
distribution on its graph; only the worst labeling's distribution is ever
built, to score the space's best error under it.  A deterministic learner
is evaluated against every labeling exactly as if it enumerated all
(2m)^m instance tuples under each one.  It builds each distinct training
sample once (an index tuple with labels on the points it uses, or a
multiset of indices for an order-invariant learner), evaluates each
distinct learner output on S once, and scores the output against every
labeling that agrees with the sample's labels in one walk per class of
samples that share the unused points and the labels, for all its masks.
All quantities are exact rationals.  The pairing argument behind the 1/4
lower bound needs a deterministic learner, so a seeded probe calls the
learner again on about one in eight samples and raises on any output that
differs.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .combinatorics import shatters
from .learners import LearningFunction
from .model import (
    BudgetError,
    DiscreteDistribution,
    ExplicitSpace,
    HypothesisSpace,
    Instance,
    MultiSample,
    Record,
    Sample,
    approximation_error,
    as_instance,
    check_instance_tuple,
    index_states,
)

DEFAULT_MAX_M = 4

ERROR_THRESHOLD = Fraction(1, 8)
EXPECTED_ERROR_FLOOR = Fraction(1, 4)
TAIL_FLOOR = Fraction(1, 7)

PROBE_ONE_IN = 8


class PairingIdentityError(Exception):
    """The determinism probe got a different hypothesis from a second call
    of the learner on the same training sample (reversed, for a learner
    declared order-invariant).  The pairing argument, and scoring one
    output against every labeling that agrees with the sample, both need a
    deterministic learner."""


class NflInstance(Record):
    """The adversarial construction for one sample size m: a set S of 2m
    instances and its T = 2^(2m) labelings in lexicographic bit order, none
    of them stored: labeling i < T gives the j-th point bit 2m - 1 - j of i.
    Labeling i stands for the uniform distribution on its graph, which
    :meth:`distribution` builds when asked."""

    m: int
    instances: tuple[Instance, ...]
    ambient: HypothesisSpace

    @property
    def t(self) -> int:
        return 2 ** len(self.instances)

    def distribution(self, i: int) -> DiscreteDistribution:
        """The uniform distribution on the graph of labeling i."""
        if not 0 <= i < self.t:
            raise IndexError(f"labeling {i} is not below T = {self.t}")
        n = len(self.instances)
        return DiscreteDistribution(
            [(Sample(x, i >> (n - 1 - j) & 1), Fraction(1, n))
             for j, x in enumerate(self.instances)])


class NflReport(Record):
    """Exact per-labeling expected errors and the tail bound for the worst
    labeling, with the lower-bound assertions evaluated."""

    m: int
    learner: str
    expected_errors: tuple[Fraction, ...]
    max_expected_error: Fraction
    argmax_index: int
    average_expected_error: Fraction
    tail_probability: Fraction
    markov_lower_bound: Fraction
    opt_of_chosen: Fraction
    max_at_least_quarter: bool
    average_at_least_quarter: bool
    tail_at_least_seventh: bool

    @property
    def passed(self) -> bool:
        return (self.max_at_least_quarter and self.average_at_least_quarter
                and self.tail_at_least_seventh)

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "learner": self.learner,
            "expected_errors": [str(e) for e in self.expected_errors],
            "max_expected_error": str(self.max_expected_error),
            "argmax_index": self.argmax_index,
            "average_expected_error": str(self.average_expected_error),
            "tail_probability": str(self.tail_probability),
            "markov_lower_bound": str(self.markov_lower_bound),
            "opt_of_chosen": str(self.opt_of_chosen),
            "max_at_least_quarter": self.max_at_least_quarter,
            "average_at_least_quarter": self.average_at_least_quarter,
            "tail_at_least_seventh": self.tail_at_least_seventh,
            "passed": self.passed,
        }


def build_nfl_instance(instances: Iterable, m: int,
                       ambient: HypothesisSpace | None = None,
                       allow_large: bool = False) -> NflInstance:
    """Assemble the construction over the given 2m distinct instances.

    m past DEFAULT_MAX_M is refused unless ``allow_large``, before the
    instances are read.  When an ambient space is supplied it must shatter
    the instance set (verified); otherwise it is the full class over the
    instances, ``ExplicitSpace.full``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > DEFAULT_MAX_M and not allow_large:
        raise BudgetError(
            f"m = {m} enumerates {2 * m}^{m} instance tuples x 2^{2 * m} "
            f"labelings; pass allow_large=True (--allow-large) beyond "
            f"m = {DEFAULT_MAX_M}", required=required_learner_calls(m))
    points = check_instance_tuple([as_instance(x) for x in instances])
    if len(points) != 2 * m:
        raise ValueError(f"need exactly 2m = {2 * m} distinct instances, "
                         f"got {len(points)}")
    if ambient is None:
        ambient = ExplicitSpace.full(points)
    else:
        result = shatters(ambient, points)
        if not result.shattered:
            raise ValueError(
                f"the ambient space does not shatter the instance set "
                f"({result.status})")
    return NflInstance(m=m, instances=points, ambient=ambient)


def required_learner_calls(m: int) -> int:
    """The number of (instance tuple, labeling) pairs, an upper bound on
    the learner calls one enumeration makes."""
    return (2 * m) ** m * 2 ** (2 * m)


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of ``mask``, from ``mask`` down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _enumerate(learner: LearningFunction,
               inst: NflInstance) -> list[list[int]]:
    """Core enumeration.

    Returns ``hist``: ``hist[i][c]`` is the number of the (2m)^m instance
    tuples on which the learner's output, trained on the tuple labeled by
    f_i, disagrees with f_i on exactly c of the 2m points of S.

    Each distinct training sample is built and passed to the learner once:
    an instance tuple (a multiset of instances, weighted by the number of
    tuples it stands for, when the learner is order-invariant) together
    with one labeling of the points it uses.  The samples come from the
    enumerator's own ``Sample`` pairs, so the ``MultiSample`` re-checks none
    of them.  The output's mask on S is computed the first time its
    hypothesis key appears, and kept by that key (equal keys evaluate
    identically, see :class:`~vclab.model.Hypothesis`).  The
    weights add up per mask in a class (unused points, labels seen); after
    the loop each class is scored against all labelings that agree with its
    labels, walking the submask list of its unused points (one per value).

    A probe seeded by m calls the learner again on the first sample and on
    about one in PROBE_ONE_IN of the rest, on the reversed sample when the
    learner is order-invariant, and raises PairingIdentityError if the
    output differs.
    """
    points = inst.instances
    n = len(points)
    bits = [1 << (n - 1 - j) for j in range(n)]
    labeled = [(Sample(x, 0), Sample(x, 1)) for x in points]
    ordered = not learner.order_invariant
    probe = random.Random(f"nfl-probe:{inst.m}")
    masks: dict[tuple, int] = {}

    def learned_mask(zbar: MultiSample) -> int:
        h = learner(zbar)
        mask = masks.get(h.key)
        if mask is None:
            mask = masks[h.key] = sum(b for x, b in zip(points, bits) if h(x))
        return mask

    submasks = functools.cache(lambda mask: list(_submasks(mask)))
    # (unused points, labels seen) -> learned mask -> number of tuples.
    classes: dict[tuple[int, int], dict[int, int]] = {}
    first = True
    for idx, weight in index_states(n, inst.m, ordered):
        used = 0
        for a in idx:
            used |= bits[a]
        free = used ^ ((1 << n) - 1)
        for seen in submasks(used):
            zbar = MultiSample.unchecked(samples=tuple(
                [labeled[a][1 if seen & bits[a] else 0] for a in idx]))
            mask = learned_mask(zbar)
            if first or probe.randrange(PROBE_ONE_IN) == 0:
                first = False
                again = zbar if ordered else MultiSample.unchecked(
                    samples=zbar.samples[::-1])
                if learned_mask(again) != mask:
                    raise PairingIdentityError(
                        f"learner {learner.name!r} gave a different hypothesis "
                        f"when called again on the sample {again.samples}")
            weights = classes.setdefault((free, seen), {})
            weights[mask] = weights.get(mask, 0) + weight
    # Labeling i of an NflInstance is in lexicographic bit order, so its
    # mask over S is i itself.
    hist = [[0] * (n + 1) for _ in range(inst.t)]
    for (free, seen), weights in classes.items():
        for sub in submasks(free):
            f = seen | sub
            for mask, weight in weights.items():
                hist[f][(mask ^ f).bit_count()] += weight
    return hist


def unseen_error_floor(m: int) -> Fraction:
    """The part of the average expected error that the points missing from
    the training tuple add, whatever the learner: each of the 2m points is
    missing with probability (1 - 1/(2m))^m, and averaged over the
    labelings the learner's output there, which cannot depend on that
    point's label, is wrong half the time."""
    return Fraction(1, 2) * (1 - Fraction(1, 2 * m)) ** m


def nfl_report(learner: LearningFunction, inst: NflInstance) -> NflReport:
    """Full evaluation: for each labeling f_i, the learner's exact expected
    true error over training tuples drawn from the graph distribution of
    f_i; the worst labeling's exact tail probability P(error > 1/8) next to
    its Markov lower bound; and the lower-bound assertions (max and
    average >= 1/4, tail >= 1/7).  Every
    histogram row must count each of the (2m)^m instance tuples once, and
    the average expected error must reach :func:`unseen_error_floor`, with
    equality for a learner that always agrees with its training sample."""
    hist = _enumerate(learner, inst)
    m = inst.m
    k = (2 * m) ** m
    for i, row in enumerate(hist):
        if sum(row) != k:
            raise AssertionError(f"histogram row {i} counts {sum(row)} "
                                 f"instance tuples, not {k}")
    # Expected errors as numerators over k * 2m: one Fraction each.
    wrong = [sum(c * w for c, w in enumerate(row)) for row in hist]
    errors = [Fraction(w, k * 2 * m) for w in wrong]
    i_star = wrong.index(max(wrong))
    best = errors[i_star]
    # error > 1/8 over 2m points  <=>  mismatches/2m > 1/8.
    tail_hits = sum(w for c, w in enumerate(hist[i_star])
                    if Fraction(c, 2 * m) > ERROR_THRESHOLD)
    tail = Fraction(tail_hits, k)
    markov = (best - ERROR_THRESHOLD) / (1 - ERROR_THRESHOLD)
    opt = approximation_error(inst.ambient, inst.distribution(i_star))
    avg = Fraction(sum(wrong), k * 2 * m * len(wrong))
    if avg < unseen_error_floor(m):
        raise AssertionError(f"average expected error {avg} is below the "
                             f"unseen-point floor {unseen_error_floor(m)}")
    return NflReport(
        m=m,
        learner=learner.name,
        expected_errors=tuple(errors),
        max_expected_error=best,
        argmax_index=i_star,
        average_expected_error=avg,
        tail_probability=tail,
        markov_lower_bound=markov,
        opt_of_chosen=opt,
        max_at_least_quarter=best >= EXPECTED_ERROR_FLOOR,
        average_at_least_quarter=avg >= EXPECTED_ERROR_FLOOR,
        tail_at_least_seventh=tail >= TAIL_FLOOR,
    )
