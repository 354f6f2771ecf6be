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

from collections.abc import Callable, Mapping
from fractions import Fraction

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
    to_bit,
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
        value = value["rat"]
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
    return Sample(instance_from_json(instance), to_bit(label, "label"))


def sample_to_json(z: Sample):
    return [instance_to_json(z.instance), z.label]


def _object(obj, what: str) -> Mapping:
    """``obj`` itself, when it is a JSON object."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(obj).__name__}")
    return obj


def _integer(value) -> int:
    """A JSON number with an integral value as an int: ``2`` and ``2.0``,
    not ``2.7``, ``"2"`` or ``true``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def _field(obj: Mapping, name: str, what: str,
           parse: Callable = lambda value: value, default=None):
    """``parse(obj[name])``, or ``default`` when the field is absent and a
    default is given.  A missing field, or one that ``parse`` cannot read
    (a ``TypeError`` or ``ValueError``: a wrong JSON type or value), is a
    ``ValueError`` that names the field."""
    if name not in obj:
        if default is None:
            raise ValueError(f"{what} has no {name!r} field")
        return default
    try:
        return parse(obj[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} has a malformed {name!r} field: "
                         f"{exc}") from exc


def _instances(values) -> list[Instance]:
    return [instance_from_json(x) for x in values]


def pool_from_json(obj) -> list[Instance]:
    """Instances given as a JSON list, or as an object's ``instances``
    field."""
    if not isinstance(obj, Mapping):
        obj = {"instances": obj}
    return _field(obj, "instances", "a pool", _instances)


def distribution_from_json(obj) -> DiscreteDistribution:
    obj = _object(obj, "a distribution")
    support = _field(obj, "support", "a distribution",
                     lambda zs: [sample_from_json(z) for z in zs])
    weights = _field(obj, "weights", "a distribution",
                     lambda ws: [parse_rational(w) for w in ws])
    if len(support) != len(weights):
        raise ValueError("support and weights must have equal length")
    return DiscreteDistribution(zip(support, weights))


def distribution_to_json(dist: DiscreteDistribution) -> dict:
    return {
        "support": [sample_to_json(z) for z, _ in dist.items()],
        "weights": [str(w) for _, w in dist.items()],
    }


def param_source_from_json(obj) -> fm.ParamSource:
    what = "a parameter source"
    kind = _object(obj, what).get("type")

    def lists(name: str) -> list[list[Fraction]]:
        return _field(obj, name, what, lambda rows: [
            [parse_rational(v) for v in row] for row in rows])

    if kind == "explicit":
        return fm.ExplicitParams.of(lists("tuples"))
    if kind == "grid":
        return fm.ExplicitParams.grid(lists("axes"))
    if kind == "sampled":
        return fm.SampledParams(budget=_field(obj, "budget", what, _integer,
                                              2000),
                                seed=_field(obj, "seed", what, _integer, 0),
                                low=_field(obj, "low", what, float, -10.0),
                                high=_field(obj, "high", what, float, 10.0))
    raise ValueError(f"unknown parameter source type {kind!r}")


def space_from_json(obj) -> HypothesisSpace:
    what = "a space"
    obj = _object(obj, what)
    kind = obj.get("kind")
    if kind is None and "instances" in obj and "hypotheses" in obj:
        kind = "finite-explicit"
    if kind == "finite-explicit":
        instances = _field(obj, "instances", what, _instances)
        return _field(obj, "hypotheses", what,
                      lambda rows: ExplicitSpace(instances, rows))
    if kind == "full":
        return ExplicitSpace.full(_field(obj, "instances", what, _instances))
    if kind == "threshold-family":
        return ThresholdSpace()
    if kind == "interval-family":
        return IntervalSpace()
    if kind == "co-singleton-family":
        return CoSingletonSpace()
    if kind == "halfspace-family":
        return HalfspaceSpace(_field(obj, "dim", what, _integer))
    if kind == "formula-defined":
        objects = _field(obj, "objects", what, tuple)
        params = _field(obj, "params", what, tuple, ())
        ast = _field(obj, "formula", what,
                     lambda text: fm.parse_formula(text, objects, params))
        source = param_source_from_json(_field(obj, "source", what))
        return fm.DefinableSpace(ast, source, backend=obj.get("backend"))
    raise ValueError(f"unknown space kind {kind!r}")


def multisample_from_json(obj) -> MultiSample:
    return MultiSample(tuple(sample_from_json(z) for z in obj))


def learner_from_json(obj, space: HypothesisSpace) -> LearningFunction:
    what = "a learner"
    obj = _object(obj, what)
    kind = obj.get("type")
    if kind == "builtin":
        name = _field(obj, "name", what, str)
        available = builtin_learners(space)
        if name not in available:
            raise ValueError(
                f"builtin learner {name!r} not available for a {space.kind} "
                f"space; choose from {sorted(available)}")
        return available[name]
    if kind == "table":
        table = _field(obj, "table", what, lambda entries: {
            multisample_from_json(entry): space.hypothesis_from_key(key)
            for entry, key in entries})
        default = _field(obj, "default", what, space.hypothesis_from_key)
        return table_learner(space, table, default,
                             name=obj.get("name", "table"))
    raise ValueError(f"unknown learner type {kind!r}")
