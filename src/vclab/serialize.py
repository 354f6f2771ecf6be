"""JSON interchange for instances, distributions, spaces, and learners.

Conventions:

* rationals: JSON integers, floats (converted exactly), strings "p/q" or
  decimal strings, or ``{"rat": "p/q"}``;
* instances: strings are symbolic atoms, numbers are scalar points, lists
  are vectors (strings inside lists are rationals, not atoms);
* distributions: ``{"support": [[instance, label], ...], "weights": [...]}``
  with weights as rational strings or numbers;
* finite-explicit spaces: ``{"instances": [...], "hypotheses": [[bit, ...],
  ...]}`` (hypothesis i labels instance j with bit j), with an optional
  ``"kind"`` tag; parametric and formula-defined spaces always carry one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import formula as fm
from .learners import (
    LearningFunction,
    builtin_learners,
    table_learner,
)
from .model import (
    DiscreteDistribution,
    ExplicitSpace,
    HypothesisSpace,
    Instance,
    MultiSample,
    Sample,
    to_fraction,
)
from .spaces import (
    CoSingletonSpace,
    HalfspaceSpace,
    IntervalSpace,
    ThresholdSpace,
)


def parse_rational(value) -> Fraction:
    if isinstance(value, Mapping):
        if set(value) != {"rat"}:
            raise ValueError(f"bad rational object {value!r}")
        return Fraction(value["rat"])
    return to_fraction(value)


def rational_to_json(value: Fraction):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return str(value)


def instance_from_json(obj) -> Instance:
    if isinstance(obj, str):
        return Instance.atom(obj)
    if isinstance(obj, (list, tuple)):
        return Instance.point(*[parse_rational(v) for v in obj])
    return Instance.point(parse_rational(obj))


def instance_to_json(x: Instance):
    if x.is_atom:
        return x.value
    if len(x.coords) == 1:
        c = x.coords[0]
        # bare strings denote atoms, so non-integer scalars need the object form
        return int(c) if c.denominator == 1 else {"rat": str(c)}
    return [rational_to_json(c) for c in x.coords]


def sample_from_json(obj) -> Sample:
    instance, label = obj
    return Sample(instance_from_json(instance), int(label))


def sample_to_json(z: Sample):
    return [instance_to_json(z.instance), z.label]


def _object(obj, what: str) -> Mapping:
    """``obj`` itself, when it is a JSON object."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(obj).__name__}")
    return obj


def distribution_from_json(obj) -> DiscreteDistribution:
    obj = _object(obj, "a distribution")
    support = [sample_from_json(z) for z in obj["support"]]
    weights = [parse_rational(w) for w in obj["weights"]]
    if len(support) != len(weights):
        raise ValueError("support and weights must have equal length")
    return DiscreteDistribution(zip(support, weights))


def distribution_to_json(dist: DiscreteDistribution) -> dict:
    return {
        "support": [sample_to_json(z) for z, _ in dist.items()],
        "weights": [str(w) for _, w in dist.items()],
    }


def _param_source_from_json(obj) -> fm.ParamSource:
    kind = _object(obj, "a parameter source").get("type")
    if kind == "explicit":
        return fm.ExplicitParams.of([[parse_rational(v) for v in t]
                                     for t in obj["tuples"]])
    if kind == "grid":
        return fm.ExplicitParams.grid([[parse_rational(v) for v in axis]
                                       for axis in obj["axes"]])
    if kind == "sampled":
        return fm.SampledParams(budget=int(obj.get("budget", 2000)),
                                seed=int(obj.get("seed", 0)),
                                low=float(obj.get("low", -10.0)),
                                high=float(obj.get("high", 10.0)))
    raise ValueError(f"unknown parameter source type {kind!r}")


def space_from_json(obj) -> HypothesisSpace:
    obj = _object(obj, "a space")
    kind = obj.get("kind")
    if kind is None and "instances" in obj and "hypotheses" in obj:
        kind = "finite-explicit"
    if kind == "finite-explicit":
        return ExplicitSpace([instance_from_json(x) for x in obj["instances"]],
                             obj["hypotheses"])
    if kind == "full":
        return ExplicitSpace.full(
            [instance_from_json(x) for x in obj["instances"]])
    if kind == "threshold-family":
        return ThresholdSpace()
    if kind == "interval-family":
        return IntervalSpace()
    if kind == "co-singleton-family":
        return CoSingletonSpace()
    if kind == "halfspace-family":
        return HalfspaceSpace(int(obj["dim"]))
    if kind == "formula-defined":
        ast = fm.parse_formula(obj["formula"],
                               objects=tuple(obj["objects"]),
                               params=tuple(obj.get("params", ())))
        source = _param_source_from_json(obj["source"])
        return fm.DefinableSpace(ast, source, backend=obj.get("backend"))
    raise ValueError(f"unknown space kind {kind!r}")


def multisample_from_json(obj) -> MultiSample:
    return MultiSample(tuple(sample_from_json(z) for z in obj))


def learner_from_json(obj, space: HypothesisSpace) -> LearningFunction:
    obj = _object(obj, "a learner")
    kind = obj.get("type")
    if kind == "builtin":
        name = obj["name"]
        available = builtin_learners(space)
        if name not in available:
            raise ValueError(
                f"builtin learner {name!r} not available for a {space.kind} "
                f"space; choose from {sorted(available)}")
        return available[name]
    if kind == "table":
        table = {multisample_from_json(entry): space.hypothesis_from_key(key)
                 for entry, key in obj["table"]}
        default = space.hypothesis_from_key(obj["default"])
        return table_learner(space, table, default,
                             name=obj.get("name", "table"))
    raise ValueError(f"unknown learner type {kind!r}")
