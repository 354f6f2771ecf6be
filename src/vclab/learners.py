"""Learning functions: deterministic maps from multi-samples to hypotheses.

The central construction is the sample-error minimizer, which asks the space
for a realized labeling of the sample's instances of minimal sample error
(lexicographically least among minimizers, ``HypothesisSpace.least_wrong``)
and returns the witness the space's restriction oracle gives for it (see
``HypothesisSpace.dichotomies`` for each family's witness rule; halfspace
and sampled-formula witnesses are not least in any order).  Tie-breaking is
fully deterministic so enumeration-based verification is reproducible.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping

from .model import (
    ExplicitSpace,
    Hypothesis,
    HypothesisSpace,
    InexactOracleError,
    MultiSample,
    Record,
    Sample,
    sha256,
)


class LearningFunction(Record):
    """A deterministic multi-sample -> hypothesis map.  ``order_invariant``
    declares that the output depends only on the multiset of samples.
    Exact mode and the NFL enumeration then run over multisets instead of
    ordered tuples, and Monte Carlo hands the learner counts-only draws
    whose samples come in canonical support order, not in draw order; the
    NFL determinism probe checks the declaration on reversed samples."""

    name: str
    fn: Callable[[MultiSample], Hypothesis]
    space: HypothesisSpace | None = None
    order_invariant: bool = False
    _not_shown = ("fn",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __call__(self, zbar: MultiSample) -> Hypothesis:
        return self.fn(zbar)


def sem_learner(space: HypothesisSpace) -> LearningFunction:
    """The sample-error minimizing learner for the space.

    The output's sample error equals the minimal sample error exactly, so
    the space needs an exact restriction oracle: over an inexact one the
    minimum over the *found* labelings may exceed the true minimum by an
    unknown amount, and construction is refused.  A call builds only the
    witness of :meth:`HypothesisSpace.least_wrong` on the sample's counts.
    """
    if not space.oracle_exact:
        raise InexactOracleError(
            "sample-error minimization needs an exact restriction oracle; "
            f"the {space.kind} space has none here")

    def fn(zbar: MultiSample) -> Hypothesis:
        return space.least_wrong(zbar.tally(), require_exact=False)[2]()

    return LearningFunction(name="sem", fn=fn, space=space,
                            order_invariant=True)


def constant_learner(h: Hypothesis, name: str = "const",
                     space: HypothesisSpace | None = None) -> LearningFunction:
    """A learner that ignores the sample and always outputs ``h``."""
    return LearningFunction(name=name, fn=lambda zbar: h, space=space,
                            order_invariant=True)


def memorizing_learner(space: ExplicitSpace) -> LearningFunction:
    """Outputs the hypothesis matching the sample's labels on the instances
    it saw (first occurrence wins) and 0 elsewhere.

    Only defined for finite-explicit spaces that contain every such
    bit-vector, e.g. the full class over a finite domain.
    """
    if not isinstance(space, ExplicitSpace):
        raise ValueError("memorizing learner needs a finite-explicit space")

    def fn(zbar: MultiSample) -> Hypothesis:
        seen: dict = {}
        for z in zbar:
            seen.setdefault(z.instance, z.label)
        bits = tuple(seen.get(x, 0) for x in space.domain)
        return space.hypothesis_from_bits(bits)

    return LearningFunction(name="memorize", fn=fn, space=space)


def table_learner(space: HypothesisSpace,
                  table: Mapping[MultiSample, Hypothesis],
                  default: Hypothesis,
                  name: str = "table") -> LearningFunction:
    """A lookup-table learner: an explicit multi-sample -> hypothesis map
    with a fixed fallback for unmapped inputs."""
    frozen = dict(table)

    def fn(zbar: MultiSample) -> Hypothesis:
        return frozen.get(zbar, default)

    return LearningFunction(name=name, fn=fn, space=space)


def random_table_learner(space: ExplicitSpace, seed: int,
                         name: str | None = None) -> LearningFunction:
    """A randomized-then-fixed lookup learner over a finite-explicit space.

    The output hypothesis for each multi-sample is chosen by hashing the
    sample against the seed, so the map is an arbitrary-looking but fully
    deterministic function.  The hashed bytes are the seed's prefix and
    :meth:`MultiSample.canonical_bytes`, which the learner builds from a
    memo of each sample's encoding, bounded by the distinct samples it
    sees.
    """
    if not isinstance(space, ExplicitSpace):
        raise ValueError("random table learner needs a finite-explicit space")
    n = len(space)
    vectors = space._vectors
    prefix = f"table:{seed}:".encode()
    encode = functools.cache(Sample.canonical_bytes)

    def fn(zbar: MultiSample) -> Hypothesis:
        digest = sha256(prefix + zbar.canonical_bytes(encode)).digest()
        idx = int.from_bytes(digest[:8], "big") % n
        return space.hypothesis_from_bits(vectors[idx])

    return LearningFunction(name=name or f"random-table-{seed}", fn=fn,
                            space=space)


def builtin_learners(space: HypothesisSpace) -> dict[str, LearningFunction]:
    """The built-in learners applicable to the given space, keyed by name."""
    out = {"sem": sem_learner(space)}
    if isinstance(space, ExplicitSpace):
        n = len(space.domain)
        for name, bits in (("const0", (0,) * n), ("const1", (1,) * n)):
            try:
                h = space.hypothesis_from_bits(bits)
            except ValueError:
                continue
            out[name] = constant_learner(h, name=name, space=space)
        out["memorize"] = memorizing_learner(space)
    return out
