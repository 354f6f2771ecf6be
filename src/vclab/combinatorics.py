"""Shattering, VC dimension, growth function, and the Sauer-Shelah bounds."""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from itertools import combinations

from .model import (
    ExplicitSpace,
    Hypothesis,
    HypothesisSpace,
    Instance,
    Labeling,
    Record,
    check_instance_tuple,
)

EXACT = "exact"
LOWER_BOUND = "lower-bound"


class ShatterResult(Record):
    """Outcome of a shattering check.

    With an exact oracle the answer is definitive either way.  With an
    inexact oracle a positive answer is still sound (witnesses verify), but
    a negative one only means no witness was found within budget.
    ``witnesses`` is the space's read-only table, which builds each
    hypothesis when its labeling is first read.
    """

    shattered: bool
    exact: bool
    witnesses: Mapping[Labeling, Hypothesis] | None

    @property
    def status(self) -> str:
        if self.shattered:
            return "shattered"
        return "not-shattered" if self.exact else "not-found"


class VcVerdict(Record):
    """VC dimension search result.

    ``status`` is ``exact`` when ``value`` provably equals the VC dimension
    of the family, else ``lower-bound`` (inexact oracle, pool too small, or
    search budget hit).  The witness set of size ``value`` is shattered and
    re-checkable through ``witnesses``.
    """

    value: int
    status: str
    witness_set: tuple[Instance, ...]
    witnesses: Mapping[Labeling, Hypothesis]
    pool: tuple[Instance, ...]
    nodes_used: int


def shatters(space: HypothesisSpace, instances: Sequence[Instance]) -> ShatterResult:
    """Whether the space realizes every labeling of the instance set."""
    instances = check_instance_tuple(instances)
    table = space.dichotomies(instances)
    full = len(table) == 2 ** len(instances)
    return ShatterResult(shattered=full, exact=space.oracle_exact,
                         witnesses=table if full else None)


def vc_dimension(space: HypothesisSpace, pool: Sequence[Instance],
                 limit: int | None = None,
                 node_budget: int | None = None) -> VcVerdict:
    """Largest d <= min(limit, |pool|) with a shattered size-d subset of the
    pool.

    Searches subset sizes in increasing order (lexicographic within a size,
    over the canonically sorted pool), stopping early at the first shattered
    set per size.  A size with no shattered subset ends the search: subsets
    of shattered sets are shattered, so no larger subset can succeed.  An
    ``ExplicitSpace`` search also ends at floor(log2 |H|), since shattering
    d points takes 2^d hypotheses (Linial, Mansour and Rivest 1991); a set
    of that size is the exact VC dimension.  Each subset tested costs one
    node against ``node_budget``, which must be >= 1 when given.
    """
    pool = tuple(sorted(check_instance_tuple(pool), key=Instance.sort_key))
    max_size = len(pool) if limit is None else min(limit, len(pool))
    if max_size < 0:
        raise ValueError("limit must be >= 0")
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"the node budget must be >= 1, got {node_budget}")
    log2_size = (len(space).bit_length() - 1
                 if isinstance(space, ExplicitSpace) else None)

    best = 0
    best_set: tuple[Instance, ...] = ()
    nodes = 0
    budget_hit = False
    proven_within_pool = True
    for d in range(1, (max_size if log2_size is None
                       else min(max_size, log2_size)) + 1):
        found = None
        for subset in combinations(pool, d):
            if node_budget is not None and nodes >= node_budget:
                budget_hit = True
                break
            nodes += 1
            if space.dichotomy_count(subset) == 2 ** d:
                found = subset
                break
        if budget_hit:
            proven_within_pool = False
            break
        if found is None:
            break
        best, best_set = d, found
    else:
        # Ran out of sizes without an empty level.
        if best == max_size and max_size < len(pool):
            proven_within_pool = False

    witnesses: Mapping[Labeling, Hypothesis] = {}
    if best_set:
        witnesses = dict(space.dichotomies(best_set))

    status = LOWER_BOUND
    if space.oracle_exact and not budget_hit:
        known = space.known_vc()
        if known is not None:
            if known < best:
                raise AssertionError(
                    f"search found d={best} above the family's VC dimension {known}")
            if known == best:
                status = EXACT
        elif log2_size is not None:
            if best == log2_size or (proven_within_pool
                                     and set(space.domain) <= set(pool)):
                status = EXACT
    return VcVerdict(value=best, status=status, witness_set=best_set,
                     witnesses=witnesses, pool=pool, nodes_used=nodes)


def growth_function(space: HypothesisSpace, m: int,
                    pool: Sequence[Instance]) -> int:
    """Maximum number of realized labelings over size-m subsets of the pool.

    Exact only relative to the pool: over a larger instance space the true
    growth value can be higher.
    """
    pool = tuple(sorted(check_instance_tuple(pool), key=Instance.sort_key))
    if not 1 <= m <= len(pool):
        raise ValueError(f"need 1 <= m <= |pool| = {len(pool)}, got m={m}")
    return max(space.dichotomy_count(subset)
               for subset in combinations(pool, m))


def sauer_bound(d: int, m: int) -> int:
    """Binomial-sum growth bound: sum_{i=0}^{d} C(m, i)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return sum(math.comb(m, i) for i in range(0, min(d, m) + 1))


def sauer_poly_bound(d: int, m: int) -> float:
    """Polynomial growth bound (e*m/d)^d, valid for m > d + 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if m <= d + 1:
        raise ValueError(f"the polynomial bound requires m > d + 1, got m={m}, d={d}")
    return (math.e * m / d) ** d


def shattered_subset_property(space: HypothesisSpace,
                              instances: Sequence[Instance]) -> bool:
    """Check that every non-empty subset of a shattered set is shattered."""
    instances = check_instance_tuple(instances)
    if not shatters(space, instances).shattered:
        return True
    for r in range(1, len(instances)):
        for subset in combinations(instances, r):
            if not shatters(space, subset).shattered:
                return False
    return True
