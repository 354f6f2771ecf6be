"""Uniform-convergence and PAC verification harness.

Computes the supremum deviation statistics exactly via dichotomy
enumeration, and estimates event probabilities over product distributions
either by exact enumeration (small state spaces) or by seeded Monte Carlo
with Wilson confidence intervals.

Both modes build each multi-sample in one form: as counts over the support
(exact mode: multisets of indices with multinomial weights), which a UCP
trial tests with all windows packed in integers, or, for an order-dependent
learner, as samples in draw order (exact mode: every ordered index tuple).

Reproducibility: each trial runs on its own PRNG seeded by
sha256(master_seed, trial_index), so results are independent of execution
order.  A trial draws exactly what ``rng.choices`` would draw over the
support's cumulative float weights, but decodes the generator's raw words
into per-index counts (see :class:`InverseCDF`); the samples in draw order
are decoded only for learners that are not order-invariant.

Scope: an estimate certifies the one distribution it was run against.
Guarantees that hold uniformly over every distribution come from the
closed-form sample bounds, not from simulation; that gap is inherent to
estimation and is deliberately not papered over here.
"""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul

from .learners import LearningFunction
from .model import (
    BudgetError,
    DiscreteDistribution,
    Hypothesis,
    HypothesisSpace,
    MultiSample,
    Record,
    Sample,
    approximation_error,
    common_denominator,
    index_states,
    loss,
    restriction_errors,
    sha256,
    to_fraction,
    true_error,
)

EXACT_STATE_LIMIT = 10 ** 6
EXACT_SAMPLE_LIMIT = 10 ** 7
SEED_RULE = "sha256(master_seed:trial_index)"
_Z95 = 1.959963984540054


class TrialReport(Record):
    """Outcome of a probability estimation run.

    Monte Carlo mode fills trials/successes and the Wilson 95% interval;
    exact mode fills ``probability`` with the exact rational event mass.
    Reports are reproducible from the master seed and the seed rule.
    """

    kind: str
    mode: str
    m: int
    eps: float
    trials: int
    successes: int
    estimate: float
    ci_low: float | None
    ci_high: float | None
    probability: Fraction | None
    seed: int
    seed_rule: str = SEED_RULE

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "m": self.m,
            "eps": self.eps,
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "ci95": [self.ci_low, self.ci_high],
            "probability": None if self.probability is None else str(self.probability),
            "seed": self.seed,
            "seed_rule": self.seed_rule,
        }


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(phat * (1 - phat) / trials
                                      + z2 / (4 * trials * trials))
    # clamp against rounding so the interval always contains the estimate
    return min(phat, max(0.0, center - half)), max(phat, min(1.0, center + half))


def trial_seed(master_seed: int, trial_index: int) -> int:
    digest = sha256(f"{master_seed}:{trial_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# CPython's random() is (a * 2**26 + b) / 2**53 with a = w0 >> 5 and
# b = w1 >> 6 for the next two 32-bit Mersenne Twister words, and
# getrandbits(64 * n) returns the next 2n words least significant first.  So
# draw i of a chunk reads w0, w1 from bytes 8i to 8i+7 of the chunk's
# little-endian bytes, and bytes 8i+3 and 8i+2, the top two bytes of w0, are
# the top two bytes of the 53-bit numerator N = a * 2**26 + b.  test_harness
# has a canary for it.
_WORD_PAIR = struct.Struct("<II")
_CHUNK = 4096  # draws per getrandbits call: 32 KiB of words


class InverseCDF:
    """The inverse-CDF rule of ``rng.choices`` over one support, as integer
    thresholds on the 53-bit numerator N of ``random()``.

    With ``cum_weights=cum`` over ``range(k)``, ``rng.choices`` draws index
    ``bisect_right(cum, random() * total, 0, k - 1)``, the number of j < k-1
    with cum[j] <= (N / 2**53) * total in floats.  The float product is
    monotone in N, so ``thresholds[j]`` is the least N that reaches cum[j]
    (2**53 if none does) and the index is ``bisect_right(thresholds, N)``.

    The top byte v of N settles the index, ``below[v]``, the number of
    thresholds with top byte < v, unless v is split: some threshold has top
    byte v.  Each split v has a 256-entry table, ``tables[v]``, looked up by
    the second byte s of N: ``below[v]`` plus the number of thresholds with
    top byte v and second byte < s, or None when a threshold has the same
    top and second byte, and only then is N decoded in full.  ``rank`` maps
    a top byte that is not split to the position of its ``below`` value in
    ``bases``, the distinct such values, so that a translated chunk can be
    counted per index in C; a split top byte maps to ``len(bases)``, which
    is never counted.  The support is checked for ``Sample``s once, here.
    """

    def __init__(self, support: tuple[Sample, ...], cum: Sequence[float]):
        if not all(isinstance(z, Sample) for z in support):
            raise ValueError("an inverse CDF needs a support of Samples")
        total = cum[-1] + 0.0
        self.support = support
        self.thresholds = tuple(_least_reaching(c, total) for c in cum[:-1])
        tops = [t >> 45 for t in self.thresholds]
        self.below = tuple(bisect_left(tops, v) for v in range(256))
        self.tables = {}
        for v in sorted({v for v in tops if v < 256}):
            seconds = [t >> 37 & 255 for t in self.thresholds[
                self.below[v]:bisect_left(tops, v + 1)]]
            table = list(accumulate(map(seconds.count, range(255)),
                                    initial=self.below[v]))
            for s in seconds:
                table[s] = None
            self.tables[v] = tuple(table)
        self.bases = sorted({b for v, b in enumerate(self.below)
                             if v not in self.tables})
        self.rank = bytes(len(self.bases) if v in self.tables
                          else self.bases.index(b)
                          for v, b in enumerate(self.below))


def _least_reaching(c: float, total: float) -> int:
    """The least N < 2**53 with c <= (N * 2**-53) * total in floats, or
    2**53 if there is none."""
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if c <= mid * 2.0 ** -53 * total:
            hi = mid
        else:
            lo = mid + 1
    return lo


def draw_multisample(cdf: InverseCDF, m: int, rng: random.Random,
                     ordered: bool = False) -> MultiSample:
    """m i.i.d. draws from the support: exactly the m indices that
    ``rng.choices`` draws with the cumulative weights ``cdf`` was built
    from, leaving the generator in the same state.

    The 2m raw words come in chunks of ``_CHUNK`` draws, decoded by ``cdf``
    into counts that must add up to m.  The result holds only those, its
    samples in canonical support order, unless ``ordered``: then it holds
    only the samples in draw order, for learners that depend on it.
    """
    below, thresholds, support = cdf.below, cdf.thresholds, cdf.support
    counts = [0] * len(support)
    samples: list[Sample] = []
    for done in range(0, m, _CHUNK):
        n = min(_CHUNK, m - done)
        raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
        top = raw[3::8]
        if ordered:
            chunk = list(map(below.__getitem__, top))
        else:
            ranks = top.translate(cdf.rank)
            for r, j in enumerate(cdf.bases):
                counts[j] += ranks.count(r)
        for v, table in cdf.tables.items():
            i = top.find(v)
            while i >= 0:
                j = table[raw[8 * i + 2]]
                if j is None:
                    w0, w1 = _WORD_PAIR.unpack_from(raw, 8 * i)
                    j = bisect_right(thresholds, (w0 >> 5) << 26 | w1 >> 6)
                if ordered:
                    chunk[i] = j
                else:
                    counts[j] += 1
                i = top.find(v, i + 1)
        if ordered:
            samples += map(support.__getitem__, chunk)
    if ordered:
        return MultiSample.unchecked(samples=tuple(samples))
    if sum(counts) != m:
        raise AssertionError(f"decoded {sum(counts)} draws, not {m}")
    return MultiSample.unchecked(support=support, counts=tuple(counts))


# ---------------------------------------------------------------------------
# Deviation statistics


def _max_deviation(space: HypothesisSpace,
                   weighted: Iterable[tuple[Sample, int | Fraction]], m: int,
                   require_exact: bool) -> Fraction:
    """max over the realized labelings of |weight gotten wrong| / m."""
    _, scored = restriction_errors(space, weighted, require_exact)
    return Fraction(max(abs(wrong) for wrong, _ in scored), m)


def u_statistic(space: HypothesisSpace, dist: DiscreteDistribution,
                zbar: MultiSample, require_exact: bool = True) -> Fraction:
    """sup over the space of |true error - sample error|.

    Both quantities depend on a hypothesis only through its restriction to
    the support and sample instances, so the supremum is a maximum over the
    realized labelings of that finite set, scored under the signed measure
    m * dist - counts.  With an inexact oracle (and ``require_exact=False``)
    the result is a verified lower bound.
    """
    m = zbar.m
    weighted = chain(((z, m * w) for z, w in dist.items()),
                     ((z, -c) for z, c in zbar.tally()))
    return _max_deviation(space, weighted, m, require_exact)


def v_statistic(space: HypothesisSpace, zbar: MultiSample, zbar2: MultiSample,
                require_exact: bool = True) -> Fraction:
    """sup over the space of |sample error on zbar2 - sample error on zbar|
    for two multi-samples of equal length."""
    if zbar.m != zbar2.m:
        raise ValueError("the two multi-samples must have equal length")
    weighted = chain(zbar2.tally(), ((z, -c) for z, c in zbar.tally()))
    return _max_deviation(space, weighted, zbar.m, require_exact)


def _check_signs(sigma: Sequence[int], m: int) -> tuple[int, ...]:
    signs = tuple(sigma)
    if len(signs) != m:
        raise ValueError("sign vector length must equal the sample length")
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("sign entries must be -1 or +1")
    return signs


def signed_deviation(h: Hypothesis, zbar: MultiSample, zbar2: MultiSample,
                     sigma: Sequence[int]) -> Fraction:
    """Per-hypothesis sign-flipped deviation
    (1/m) * sum_i sigma_i * (loss(h, z'_i) - loss(h, z_i))."""
    if zbar.m != zbar2.m:
        raise ValueError("the two multi-samples must have equal length")
    signs = _check_signs(sigma, zbar.m)
    total = sum(s * (loss(h, z2) - loss(h, z1))
                for s, z1, z2 in zip(signs, zbar.samples, zbar2.samples))
    return Fraction(total, zbar.m)


def symmetrized_deviation(space: HypothesisSpace, zbar: MultiSample,
                          zbar2: MultiSample, sigma: Sequence[int],
                          require_exact: bool = True) -> Fraction:
    """max over realized labelings of |signed deviation| for a fixed sign
    vector."""
    if zbar.m != zbar2.m:
        raise ValueError("the two multi-samples must have equal length")
    signs = _check_signs(sigma, zbar.m)
    weighted = chain(zip(zbar2.samples, signs),
                     zip(zbar.samples, (-s for s in signs)))
    return _max_deviation(space, weighted, zbar.m, require_exact)


# ---------------------------------------------------------------------------
# Probability estimation


def _exact_budget_check(k: int, m: int, ordered: bool) -> None:
    """Refuse exact mode over a support of size k past EXACT_STATE_LIMIT
    states (k^m ordered tuples or C(m+k-1, k-1) multisets) or past
    EXACT_SAMPLE_LIMIT drawn samples over all states.  Runs over a limit
    whatever k is are refused before the big-integer count is formed."""
    count = f"{k}^{m}" if ordered else f"C({m + k - 1}, {k - 1})"
    states = None
    if m <= EXACT_SAMPLE_LIMIT and not (ordered and k > 1 and m > 64):
        states = k ** m if ordered else math.comb(m + k - 1, k - 1)
        if states <= EXACT_STATE_LIMIT and states * m <= EXACT_SAMPLE_LIMIT:
            return
    raise BudgetError(
        f"exact mode would enumerate {count} states of {m} samples each "
        f"(limits: {EXACT_STATE_LIMIT} states, {EXACT_SAMPLE_LIMIT} samples "
        "in all); use Monte Carlo", required=states)


def _checked_eps(m: int, eps) -> Fraction:
    """eps as a Fraction, for m >= 1 and eps >= 0; else a ValueError."""
    if m < 1:
        raise ValueError("m must be >= 1")
    eps = to_fraction(eps)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return eps


def estimate_ucp_probability(space: HypothesisSpace,
                             dist: DiscreteDistribution,
                             m: int, eps, trials: int = 1000, seed: int = 0,
                             exact: bool = False) -> TrialReport:
    """Probability that the supremum deviation statistic is <= eps for an
    m-sample drawn from the distribution.

    A labeling of true error te and wrong-count c has |te - c/m| <= eps iff
    c lies in [lo, hi] = [ceil(m(te - eps)), floor(m(te + eps))], found in
    integers over the common denominator of eps and the weights; a draw
    succeeds iff every realized labeling w's count c_w lies in its window.

    The windows are tested at once in fields of W = (m + 1).bit_length() + 1
    bits, so m + 1 < H = 2**(W-1).  V_i has a 1 in field w iff window w gets
    entry i wrong, so s = sum_i counts[i] * V_i has c_w in field w.  LOW,
    HIGH and TOP have H - lo, H + hi and H there, with lo clamped into
    [0, m + 1] and hi into [-1, m], which changes no verdict.  Field w of
    s + LOW is c_w + H - lo and of HIGH - s is H + hi - c_w, both within
    [H - m - 1, H + m] in [0, 2**W): nothing carries or borrows, and their
    top bits say c_w >= lo, c_w <= hi: success is (s+LOW)&(HIGH-s)&TOP == TOP.
    """
    eps_exact = _checked_eps(m, eps)
    denom, (reach, *nums) = common_denominator(
        [eps_exact, *(w for _, w in dist.items())])
    positions = {x: i for i, x in enumerate(dist.instances())}
    width = (m + 1).bit_length() + 1
    half = 1 << (width - 1)
    vectors = [0] * len(nums)
    low = high = top = 0
    scored = restriction_errors(space, zip(dist.support, nums))[1]
    for w, (wrong, lab) in enumerate(scored):
        shift = width * w
        vectors = [v | (lab[positions[z.instance]] != z.label) << shift
                   for v, z in zip(vectors, dist.support)]
        lo = min(max(-(m * (reach - wrong) // denom), 0), m + 1)
        hi = min(max(m * (wrong + reach) // denom, -1), m)
        low |= (half - lo) << shift
        high |= (half + hi) << shift
        top |= half << shift

    def success(zbar: MultiSample) -> bool:
        s = sum(map(mul, zbar.counts, vectors))
        return (s + low) & (high - s) & top == top

    return _estimate("ucp", dist, m, eps_exact, trials, seed, exact, success)


def estimate_pac_probability(learner: LearningFunction,
                             space: HypothesisSpace,
                             dist: DiscreteDistribution,
                             m: int, eps, trials: int = 1000, seed: int = 0,
                             exact: bool = False) -> TrialReport:
    """Probability that the learner's output has true error within eps of
    the space's best achievable error, over m-samples from the
    distribution.  Exact mode enumerates ordered samples unless the
    learner declares itself order-invariant.  Each distinct output is
    scored once per estimate: hypotheses with equal keys evaluate
    identically, so they share one true error."""
    eps_exact = _checked_eps(m, eps)
    opt = approximation_error(space, dist)
    verdicts: dict[tuple, bool] = {}

    def success(zbar: MultiSample) -> bool:
        h = learner(zbar)
        ok = verdicts.get(h.key)
        if ok is None:
            ok = verdicts[h.key] = true_error(h, dist) - opt <= eps_exact
        return ok

    return _estimate("pac", dist, m, eps_exact, trials, seed, exact, success,
                     ordered=not learner.order_invariant)


def _estimate(kind: str, dist: DiscreteDistribution, m: int, eps: Fraction,
              trials: int, seed: int, exact: bool,
              success: Callable[[MultiSample], bool],
              ordered: bool = False) -> TrialReport:
    if exact:
        prob = _exact_event_probability(dist, m, success, ordered)
        return TrialReport(kind=kind, mode="exact", m=m, eps=float(eps),
                           trials=0, successes=0, estimate=float(prob),
                           ci_low=None, ci_high=None, probability=prob,
                           seed=seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cdf = InverseCDF(dist.support,
                     list(accumulate(float(w) for _, w in dist.items())))
    rng = random.Random()
    successes = 0
    for t in range(trials):
        rng.seed(trial_seed(seed, t))
        successes += success(draw_multisample(cdf, m, rng, ordered))
    lo, hi = wilson_interval(successes, trials)
    return TrialReport(kind=kind, mode="monte-carlo", m=m, eps=float(eps),
                       trials=trials, successes=successes,
                       estimate=successes / trials, ci_low=lo, ci_high=hi,
                       probability=None, seed=seed)


def _exact_event_probability(dist: DiscreteDistribution, m: int,
                             success: Callable[[MultiSample], bool],
                             ordered: bool) -> Fraction:
    """Exact probability that ``success`` holds for an m-sample from the
    distribution.

    Enumerates the multisets of support indices, as counts, each weighted
    by its multinomial coefficient times the product of its weights; with
    ``ordered`` it enumerates every ordered index tuple, as samples, for
    predicates that depend on sample order.  Masses are integers over the
    common denominator D^m of the weights; the success and failure masses
    are accumulated separately and must sum to exactly D^m.
    """
    support = dist.support
    k = len(support)
    _exact_budget_check(k, m, ordered)
    denom, nums = common_denominator([w for _, w in dist.items()])
    mass_succ = mass_fail = 0
    for idx, weight in index_states(k, m, ordered):
        if ordered:
            zbar = MultiSample.unchecked(
                samples=tuple(map(support.__getitem__, idx)))
        else:
            counts = [0] * k
            for i in idx:
                counts[i] += 1
            zbar = MultiSample.unchecked(support=support,
                                         counts=tuple(counts))
        mass = weight * math.prod(map(nums.__getitem__, idx))
        if success(zbar):
            mass_succ += mass
        else:
            mass_fail += mass
    if mass_succ + mass_fail != denom ** m:
        raise AssertionError("exact enumeration lost probability mass")
    return Fraction(mass_succ, denom ** m)
